package pathjoin

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/graph"
	"repro/internal/query"
	"repro/internal/scratch"
	"repro/internal/testgraphs"
)

// posMod is a non-negative modulo for quick-generated (possibly
// negative) seeds.
func posMod(x, m int) int { return ((x % m) + m) % m }

func TestStoreBasics(t *testing.T) {
	s := NewStore(4, 16)
	if s.Len() != 0 {
		t.Fatal("new store not empty")
	}
	i0 := s.Add([]graph.VertexID{1, 2, 3})
	i1 := s.Add([]graph.VertexID{7})
	i2 := s.AddConcat([]graph.VertexID{4, 5}, []graph.VertexID{6})
	if i0 != 0 || i1 != 1 || i2 != 2 {
		t.Fatalf("indices %d %d %d", i0, i1, i2)
	}
	if got := s.Path(0); len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("Path(0) = %v", got)
	}
	if got := s.Path(1); len(got) != 1 || got[0] != 7 {
		t.Fatalf("Path(1) = %v", got)
	}
	if got := s.Path(2); len(got) != 3 || got[0] != 4 || got[2] != 6 {
		t.Fatalf("Path(2) = %v", got)
	}
	if verts, offs := s.Raw(); len(verts) != 7 || len(offs) != 4 {
		t.Fatalf("Raw holds %d vertices and %d offsets, want 7 and 4", len(verts), len(offs))
	}
	count := 0
	s.Each(func(p []graph.VertexID) { count++ })
	if count != 3 {
		t.Fatalf("Each visited %d", count)
	}
}

func TestZeroValueStore(t *testing.T) {
	var s Store
	s.Add([]graph.VertexID{1, 2})
	if s.Len() != 1 || len(s.Path(0)) != 2 {
		t.Fatal("zero-value store broken")
	}
	var s2 Store
	s2.AddConcat([]graph.VertexID{1}, []graph.VertexID{2})
	if s2.Len() != 1 || len(s2.Path(0)) != 2 {
		t.Fatal("zero-value AddConcat broken")
	}
}

// probe returns the paths h indexes under (meet, length), in index
// order.
func probe(h *HashIndex, meet graph.VertexID, length int) []string {
	var got []string
	for _, i := range h.paths(meet, length) {
		got = append(got, fmt.Sprint(h.store.Path(int(i))))
	}
	return got
}

func TestHashIndexProbe(t *testing.T) {
	s := NewStore(4, 16)
	s.Add([]graph.VertexID{9, 5})    // ends 5, len 1
	s.Add([]graph.VertexID{9, 7, 5}) // ends 5, len 2
	s.Add([]graph.VertexID{9, 5, 7}) // ends 7, len 2
	s.Add([]graph.VertexID{8, 5})    // ends 5, len 1: a bucket keeps store order
	h := BuildHashIndex(s, nil)
	if got := probe(h, 5, 1); fmt.Sprint(got) != "[[9 5] [8 5]]" {
		t.Fatalf("probe(5,1) = %v", got)
	}
	if got := probe(h, 5, 2); len(got) != 1 || got[0] != "[9 7 5]" {
		t.Fatalf("probe(5,2) = %v", got)
	}
	if got := probe(h, 42, 1); got != nil {
		t.Fatalf("phantom probe hit: %v", got)
	}
}

// TestHashIndexMatchesMap: on random stores, empty to a few thousand
// paths over few and many distinct keys, every (end, length) key's
// bucket holds exactly the paths a map keyed the same way collects, in
// store order, and a key no path has finds nothing — whether the index
// is allocated or carved from an arena whose chunks hold garbage.
func TestHashIndexMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for range 4 {
		c := scratch.Int32Chunks.Get(1)
		for i := range c {
			c[i] = int32(rng.Uint32())
		}
		scratch.Int32Chunks.Put(c)
	}
	var arena Arena
	defer arena.Release()
	type shape struct{ n, ends, maxLen int }
	shapes := []shape{{100, 2, 64}} // many lengths per end
	for _, n := range []int{0, 1, 2, 7, 100, 3000} {
		for _, ends := range []int{1, 5, 1000} {
			shapes = append(shapes, shape{n, ends, 4})
		}
	}
	type key struct {
		end    graph.VertexID
		length int
	}
	for _, sh := range shapes {
		s := NewStore(0, 0)
		want := map[key][]string{}
		for i := 0; i < sh.n; i++ {
			p := make([]graph.VertexID, 1+rng.Intn(sh.maxLen))
			for j := range p {
				p[j] = graph.VertexID(rng.Intn(sh.ends))
			}
			s.Add(p)
			k := key{p[len(p)-1], len(p) - 1}
			want[k] = append(want[k], fmt.Sprint(p))
		}
		for _, h := range []*HashIndex{BuildHashIndex(s, nil), BuildHashIndex(s, &arena)} {
			for k, w := range want {
				if got := probe(h, k.end, k.length); fmt.Sprint(got) != fmt.Sprint(w) {
					t.Fatalf("%+v: probe%v = %v, want %v", sh, k, got, w)
				}
			}
			if got := probe(h, graph.VertexID(sh.ends), 1); got != nil {
				t.Fatalf("%+v: a key no path has found %v", sh, got)
			}
		}
	}
}

func TestDisjointExceptMeet(t *testing.T) {
	cases := []struct {
		pf, pb []graph.VertexID
		want   bool
	}{
		{[]graph.VertexID{0, 1, 5}, []graph.VertexID{9, 3, 5}, true},
		{[]graph.VertexID{0, 1, 5}, []graph.VertexID{9, 1, 5}, false}, // shares 1
		{[]graph.VertexID{0, 5}, []graph.VertexID{9, 5}, true},
		{[]graph.VertexID{0, 5}, []graph.VertexID{0, 5}, false}, // s == t
		{[]graph.VertexID{5}, []graph.VertexID{5}, true},        // both trivial
	}
	for i, c := range cases {
		if got := DisjointExceptMeet(c.pf, c.pb); got != c.want {
			t.Errorf("case %d: DisjointExceptMeet(%v,%v) = %v, want %v", i, c.pf, c.pb, got, c.want)
		}
	}
}

func TestIsSimple(t *testing.T) {
	if !IsSimple(nil) || !IsSimple([]graph.VertexID{3}) {
		t.Fatal("trivial paths should be simple")
	}
	if !IsSimple([]graph.VertexID{1, 2, 3}) {
		t.Fatal("[1 2 3] simple")
	}
	if IsSimple([]graph.VertexID{1, 2, 1}) {
		t.Fatal("[1 2 1] not simple")
	}
	long := make([]graph.VertexID, 30)
	for i := range long {
		long[i] = graph.VertexID(i)
	}
	if !IsSimple(long) {
		t.Fatal("long distinct path should be simple")
	}
	long[29] = 0
	if IsSimple(long) {
		t.Fatal("long path with dup should not be simple")
	}
}

// collectPartials enumerates all simple partial paths from root with at
// most budget hops (unpruned), mimicking the Search procedure's P set.
func collectPartials(g *graph.Graph, root graph.VertexID, budget uint8) *Store {
	s := NewStore(32, 128)
	path := []graph.VertexID{root}
	on := map[graph.VertexID]bool{root: true}
	var rec func()
	rec = func() {
		s.Add(path)
		if uint8(len(path)-1) >= budget {
			return
		}
		for _, w := range g.OutNeighbors(path[len(path)-1]) {
			if on[w] {
				continue
			}
			path = append(path, w)
			on[w] = true
			rec()
			on[w] = false
			path = path[:len(path)-1]
		}
	}
	rec()
	return s
}

// bruteNaive enumerates simple s-t paths of length in [1,k] directly.
func bruteNaive(g *graph.Graph, s, t graph.VertexID, k uint8) []string {
	var out []string
	path := []graph.VertexID{s}
	on := map[graph.VertexID]bool{s: true}
	var rec func()
	rec = func() {
		v := path[len(path)-1]
		if v == t && len(path) > 1 {
			out = append(out, fmt.Sprint(path))
			return
		}
		if uint8(len(path)-1) >= k {
			return
		}
		for _, w := range g.OutNeighbors(v) {
			if on[w] {
				continue
			}
			path = append(path, w)
			on[w] = true
			rec()
			on[w] = false
			path = path[:len(path)-1]
		}
	}
	rec()
	sort.Strings(out)
	return out
}

func joinAll(g, gr *graph.Graph, s, t graph.VertexID, k uint8, backHeavy bool) []string {
	fb, bb := (k+1)/2, k/2
	if backHeavy {
		fb, bb = k/2, (k+1)/2
	}
	fwd := collectPartials(g, s, fb)
	bwd := collectPartials(gr, t, bb)
	var out []string
	JoinHalves(fwd, bwd, k, backHeavy, func(p []graph.VertexID) {
		out = append(out, fmt.Sprint(p))
	})
	sort.Strings(out)
	return out
}

func TestJoinHalvesPaperQ0(t *testing.T) {
	g := testgraphs.Paper()
	gr := g.Reverse()
	got := joinAll(g, gr, 0, 11, 5, false)
	want := []string{
		fmt.Sprint([]graph.VertexID{0, 1, 7, 10, 12, 11}),
		fmt.Sprint([]graph.VertexID{0, 4, 9, 15, 6, 11}),
		fmt.Sprint([]graph.VertexID{0, 4, 9, 3, 6, 11}),
	}
	sort.Strings(want)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("q0 join = %v\nwant %v", got, want)
	}
}

// TestJoinUniqueSplit is the core ⊕ property: against the brute-force
// oracle, on random graphs, for every k and both heaviness modes, the
// join produces each path exactly once — no misses, no duplicates.
func TestJoinUniqueSplit(t *testing.T) {
	f := func(seed int64) bool {
		g := graph.GenRandom(25, 3, seed)
		gr := g.Reverse()
		for k := uint8(1); k <= 6; k++ {
			for st := 0; st < 4; st++ {
				s := graph.VertexID(posMod(int(seed)+st, 25))
				tt := graph.VertexID(posMod(int(seed)+st*7+13, 25))
				if s == tt {
					continue
				}
				want := bruteNaive(g, s, tt, k)
				for _, heavy := range []bool{false, true} {
					got := joinAll(g, gr, s, tt, k, heavy)
					if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Logf("seed=%d k=%d s=%d t=%d heavy=%v\ngot  %v\nwant %v",
							seed, k, s, tt, heavy, got, want)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestJoinLengthOne(t *testing.T) {
	// single edge s→t must be found via the trivial backward path
	g := graph.FromEdges(2, []graph.Edge{{Src: 0, Dst: 1}})
	gr := g.Reverse()
	got := joinAll(g, gr, 0, 1, 3, false)
	if len(got) != 1 {
		t.Fatalf("got %v, want exactly the edge path", got)
	}
}

func TestJoinNoPath(t *testing.T) {
	g := graph.FromEdges(3, []graph.Edge{{Src: 0, Dst: 1}})
	gr := g.Reverse()
	if got := joinAll(g, gr, 0, 2, 4, false); len(got) != 0 {
		t.Fatalf("unreachable target produced %v", got)
	}
}

func TestJoinFiltersNonSimple(t *testing.T) {
	// s→a→m and (backwards) t→a→m share vertex a: concatenation would
	// revisit a, so the only valid result is the longer detour if any.
	g := graph.FromEdges(4, []graph.Edge{
		{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 1}, {Src: 1, Dst: 3},
	})
	gr := g.Reverse()
	got := joinAll(g, gr, 0, 3, 4, false)
	want := bruteNaive(g, 0, 3, 4)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for _, p := range got {
		if p == fmt.Sprint([]graph.VertexID{0, 1, 2, 1, 3}) {
			t.Fatal("emitted non-simple path")
		}
	}
}

func TestJoinCompleteDAGCount(t *testing.T) {
	// On the complete DAG with n vertices, #paths(0→n-1, ≤k hops) =
	// sum_{h=1..k} C(n-2, h-1).
	n := 8
	g := testgraphs.CompleteDAG(n)
	gr := g.Reverse()
	choose := func(n, r int) int64 {
		if r < 0 || r > n {
			return 0
		}
		c := int64(1)
		for i := 0; i < r; i++ {
			c = c * int64(n-i) / int64(i+1)
		}
		return c
	}
	for k := uint8(1); k <= 7; k++ {
		var want int64
		for h := 1; h <= int(k); h++ {
			want += choose(n-2, h-1)
		}
		got := int64(len(joinAll(g, gr, 0, graph.VertexID(n-1), k, false)))
		if got != want {
			t.Fatalf("k=%d: got %d paths, want %d", k, got, want)
		}
	}
}

// TestSharedJoinerMatchesSingleJoiners: one Joiner over three query IDs
// emits to each ID exactly the sequence a Joiner of that ID alone
// emits, and leaves each ID's limit in the state the single join
// leaves it: unlimited, and under limits 1 and 3.
func TestSharedJoinerMatchesSingleJoiners(t *testing.T) {
	g := graph.GenRandom(30, 4, 7)
	gr := g.Reverse()
	const s, tt, k = 0, 17, 6
	fwd := collectPartials(g, s, k/2)
	h := BuildHashIndex(collectPartials(gr, tt, k/2), nil)
	if n := len(joinAll(g, gr, s, tt, k, false)); n <= 3 {
		t.Fatalf("the query has %d paths; the limits need more than 3", n)
	}
	ids := []int{0, 1, 2}
	for _, limit := range []int64{0, 1, 3} {
		shared := query.NewControl(context.Background(), time.Time{}, limit, len(ids))
		got := make([][]string, len(ids))
		j := NewJoiner(h, k, false, shared, ids, query.FuncSink(func(class []int, p []graph.VertexID) {
			if fmt.Sprint(class) != fmt.Sprint(ids) {
				t.Fatalf("the sink got class %v, want %v", class, ids)
			}
			for _, id := range class {
				got[id] = append(got[id], fmt.Sprint(p))
			}
		}))
		j.JoinStore(fwd)
		for _, id := range ids {
			single := query.NewControl(context.Background(), time.Time{}, limit, len(ids))
			var want []string
			one := NewJoiner(h, k, false, single, []int{id}, EmitFunc(func(p []graph.VertexID) {
				want = append(want, fmt.Sprint(p))
			}))
			one.JoinStore(fwd)
			if fmt.Sprint(got[id]) != fmt.Sprint(want) {
				t.Errorf("limit %d: query %d got %d paths from the shared join, %d alone", limit, id, len(got[id]), len(want))
			}
			if shared.QueryErr(id) != single.QueryErr(id) {
				t.Errorf("limit %d: query %d reports %v from the shared join, %v alone", limit, id, shared.QueryErr(id), single.QueryErr(id))
			}
		}
	}
}
