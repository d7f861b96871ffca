package hcpath

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/batchenum"
	"repro/internal/graph"
	"repro/internal/query"
)

// paperEdges is the Fig. 1 running example, through the public API.
func paperEdges() []Edge {
	return []Edge{
		{0, 1}, {0, 4}, {2, 1}, {2, 4}, {5, 1},
		{1, 7}, {1, 8}, {4, 9}, {9, 3}, {9, 15}, {9, 8},
		{3, 15}, {7, 10}, {7, 8}, {3, 6}, {15, 6},
		{10, 12}, {12, 11}, {12, 13}, {6, 11}, {6, 13}, {6, 14},
	}
}

func paperGraph(t *testing.T) *Graph {
	t.Helper()
	g, err := NewGraph(16, paperEdges())
	if err != nil {
		t.Fatal(err)
	}
	return g
}

var paperQueries = []Query{
	{S: 0, T: 11, K: 5},
	{S: 2, T: 13, K: 5},
	{S: 5, T: 12, K: 5},
	{S: 4, T: 14, K: 4},
	{S: 9, T: 14, K: 3},
}

// TestEnumeratePaperBatch: counts and one spot-checked path set from
// the paper's Example 2.1.
func TestEnumeratePaperBatch(t *testing.T) {
	g := paperGraph(t)
	eng := NewEngine(g, nil)
	res, err := eng.Enumerate(paperQueries)
	if err != nil {
		t.Fatal(err)
	}
	wantCounts := []int{3, 3, 1, 2, 2}
	for i, w := range wantCounts {
		if res.Count(i) != w {
			t.Errorf("query %d: %d paths, want %d", i, res.Count(i), w)
		}
	}
	if res.TotalPaths() != 11 {
		t.Errorf("TotalPaths = %d, want 11", res.TotalPaths())
	}
	var got []string
	for _, p := range res.Paths(0) {
		got = append(got, p.String())
	}
	sort.Strings(got)
	want := []string{
		"(v0, v1, v7, v10, v12, v11)",
		"(v0, v4, v9, v15, v6, v11)",
		"(v0, v4, v9, v3, v6, v11)",
	}
	sort.Strings(want)
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Fatalf("q0 paths = %v, want %v", got, want)
		}
	}
}

// TestAllAlgorithmsAgree: every public algorithm returns identical
// counts on the paper batch.
func TestAllAlgorithmsAgree(t *testing.T) {
	g := paperGraph(t)
	for _, alg := range []Algorithm{BatchEnumPlus, BatchEnum, BasicEnumPlus, BasicEnum} {
		eng := NewEngine(g, &Options{Algorithm: alg})
		counts, _, err := eng.Count(paperQueries)
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		want := []int64{3, 3, 1, 2, 2}
		for i, w := range want {
			if counts[i] != w {
				t.Errorf("%v: query %d count %d, want %d", alg, i, counts[i], w)
			}
		}
	}
}

// TestStream: the callback sees every path with its query index.
func TestStream(t *testing.T) {
	g := paperGraph(t)
	eng := NewEngine(g, nil)
	perQuery := map[int]int{}
	st, err := eng.Stream(paperQueries, func(i int, p Path) {
		perQuery[i]++
		if p[0] != paperQueries[i].S || p[len(p)-1] != paperQueries[i].T {
			t.Errorf("query %d: path %v has wrong endpoints", i, p)
		}
		if p.Len() > paperQueries[i].K {
			t.Errorf("query %d: path %v exceeds hop constraint", i, p)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if perQuery[0] != 3 || perQuery[4] != 2 {
		t.Errorf("stream counts %v", perQuery)
	}
	if st.EnumerateNanos <= 0 {
		t.Error("stats missing enumeration time")
	}
}

// TestStreamCallbackMayWriteItsPath: two identical queries share one
// join, which hands both the same path; a callback that overwrites each
// path after reading it must not change what the other query receives.
func TestStreamCallbackMayWriteItsPath(t *testing.T) {
	g := paperGraph(t)
	qs := []Query{paperQueries[0], paperQueries[0]}
	for _, workers := range []int{1, 4} {
		want, err := NewEngine(g, &Options{Workers: workers}).Enumerate(qs[:1])
		if err != nil {
			t.Fatal(err)
		}
		var got [2][]Path
		_, err = NewEngine(g, &Options{Workers: workers}).Stream(qs, func(i int, p Path) {
			got[i] = append(got[i], append(Path(nil), p...))
			for j := range p {
				p[j] = VertexID(15 - j)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if !reflect.DeepEqual(got[i], want.Paths(0)) {
				t.Errorf("Workers %d: query %d streamed %v, want %v", workers, i, got[i], want.Paths(0))
			}
		}
	}
}

// TestStreamCallbacksNeverOverlap: with four workers answering several
// groups and the joins of one large group concurrently, Stream still
// calls emit one path at a time — the callback needs no lock of its own.
func TestStreamCallbacksNeverOverlap(t *testing.T) {
	g := wrap(graph.GenCommunity(120, 4, 4, 0.9, 7))
	rng := rand.New(rand.NewSource(32))
	var qs []Query
	for len(qs) < 48 {
		q := Query{S: VertexID(rng.Intn(120)), T: VertexID(rng.Intn(120)), K: 3 + rng.Intn(3)}
		if q.S != q.T {
			qs = append(qs, q)
		}
	}
	want, _, err := NewEngine(g, &Options{Workers: 1}).Count(qs)
	if err != nil {
		t.Fatal(err)
	}
	var inFlight atomic.Bool
	got := make([]int64, len(qs))
	_, err = NewEngine(g, &Options{Gamma: 0.2, Workers: 4}).Stream(qs, func(i int, p Path) {
		if !inFlight.CompareAndSwap(false, true) {
			t.Error("two emit calls overlapped")
		}
		got[i]++
		runtime.Gosched() // widen the window a second call would land in
		inFlight.Store(false)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range qs {
		if got[i] != want[i] {
			t.Errorf("query %d: streamed %d paths, counted %d", i, got[i], want[i])
		}
	}
}

// TestStatsSharing: the default engine reports detected sharing on the
// paper batch when clustered loosely.
func TestStatsSharing(t *testing.T) {
	g := paperGraph(t)
	eng := NewEngine(g, &Options{Gamma: 0.8})
	_, st, err := eng.Count(paperQueries)
	if err != nil {
		t.Fatal(err)
	}
	if st.Groups == 0 {
		t.Error("no query groups reported")
	}
	if st.SharedQueries == 0 {
		t.Error("no shared HC-s path queries reported")
	}
}

// TestQueryValidation: bad hop constraints and vertices are rejected.
func TestQueryValidation(t *testing.T) {
	g := paperGraph(t)
	eng := NewEngine(g, nil)
	bad := [][]Query{
		{{S: 0, T: 11, K: 0}},
		{{S: 0, T: 11, K: 99}},
		{{S: 0, T: 0, K: 3}},
		{{S: 0, T: 999, K: 3}},
	}
	for i, qs := range bad {
		if _, err := eng.Enumerate(qs); err == nil {
			t.Errorf("case %d: invalid query accepted", i)
		}
	}
}

// TestMaxHopsOption widens the cap.
func TestMaxHopsOption(t *testing.T) {
	g, err := NewGraph(20, func() []Edge {
		var es []Edge
		for i := 0; i < 19; i++ {
			es = append(es, Edge{VertexID(i), VertexID(i + 1)})
		}
		return es
	}())
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(g, &Options{MaxHops: 19})
	counts, _, err := eng.Count([]Query{{S: 0, T: 19, K: 19}})
	if err != nil {
		t.Fatal(err)
	}
	if counts[0] != 1 {
		t.Errorf("line path count %d, want 1", counts[0])
	}
}

// TestMaxHopsClamp: MaxHops above 255 must clamp, not let convert's
// uint8 cast silently truncate the hop constraint (K=260 used to become
// K=4 with MaxHops=300, returning wrong answers instead of an error).
func TestMaxHopsClamp(t *testing.T) {
	g, err := NewGraph(6, []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}})
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(g, &Options{MaxHops: 300})
	if _, err := eng.Enumerate([]Query{{S: 0, T: 4, K: 260}}); err == nil {
		t.Fatal("K=260 accepted under MaxHops=300; uint8 truncation regression")
	}
	// The clamped cap itself must still work.
	counts, _, err := eng.Count([]Query{{S: 0, T: 5, K: 255}})
	if err != nil {
		t.Fatal(err)
	}
	if counts[0] != 1 {
		t.Errorf("K=255 count %d, want 1", counts[0])
	}
}

// TestWorkersBoundary pins the documented Workers semantics at the
// public layer — the only layer that interprets them, the same way for
// an Engine and a Service: positive is the literal count, zero and
// negative are GOMAXPROCS — all with identical results.
func TestWorkersBoundary(t *testing.T) {
	maxprocs := runtime.GOMAXPROCS(0)
	for _, c := range []struct{ n, want int }{
		{0, maxprocs}, {-1, maxprocs}, {-2, maxprocs}, {1, 1}, {2, 2}, {3, 3},
	} {
		if got := resolveWorkers(c.n); got != c.want {
			t.Errorf("resolveWorkers(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	g := paperGraph(t)
	want := []int64{3, 3, 1, 2, 2}
	for _, workers := range []int{-1, 0, 1, 3} {
		eng := NewEngine(g, &Options{Workers: workers})
		counts, _, err := eng.Count(paperQueries)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, w := range want {
			if counts[i] != w {
				t.Errorf("workers=%d: query %d count %d, want %d", workers, i, counts[i], w)
			}
		}
	}
}

// TestIndexBuildWidthEquivalence: an Engine builds its index on
// GOMAXPROCS goroutines (at least two here), a Service serially with
// its index cache on and off; all three answer a batch whose
// endpoints keep several goroutines busy per direction with the
// per-query counts of the serial, unshared BasicEnum run.
func TestIndexBuildWidthEquivalence(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	g := wrap(graph.GenErdosRenyi(400, 1600, 3))
	rng := rand.New(rand.NewSource(29))
	var qs []Query
	var raw []query.Query
	for len(qs) < 160 {
		q := Query{S: VertexID(rng.Intn(400)), T: VertexID(rng.Intn(400)), K: 4 + rng.Intn(3)}
		if q.S != q.T {
			qs = append(qs, q)
			raw = append(raw, query.Query{S: q.S, T: q.T, K: uint8(q.K)})
		}
	}
	sink := query.NewCountSink(len(raw))
	if _, err := batchenum.Run(g.g, g.gr, raw, batchenum.Options{Algorithm: batchenum.Basic}, nil, sink); err != nil {
		t.Fatal(err)
	}
	want := sink.Counts()
	nonzero := 0
	for _, c := range want {
		if c > 0 {
			nonzero++
		}
	}
	if nonzero < len(want)/2 {
		t.Fatalf("fixture too sparse: %d of %d queries have a path", nonzero, len(want))
	}
	check := func(label string, got []int64) {
		t.Helper()
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: query %d %v: count %d, want %d", label, i, qs[i], got[i], want[i])
			}
		}
	}
	counts, _, err := NewEngine(g, nil).Count(qs)
	if err != nil {
		t.Fatal(err)
	}
	check("engine", counts)
	for _, cacheBytes := range []int64{-1, 1 << 20} {
		svc := NewService(g, &ServiceOptions{IndexCacheBytes: cacheBytes})
		counts := make([]int64, len(qs))
		var wg sync.WaitGroup
		for c := 0; c < 8; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := c; i < len(qs); i += 8 {
					n, _, err := svc.Count(context.Background(), qs[i])
					if err != nil {
						t.Errorf("service cache=%d: query %d: %v", cacheBytes, i, err)
					}
					counts[i] = n
				}
			}(c)
		}
		wg.Wait()
		svc.Close()
		check(fmt.Sprintf("service cache=%d", cacheBytes), counts)
	}
}

// TestNewGraphErrors rejects a negative size.
func TestNewGraphErrors(t *testing.T) {
	if _, err := NewGraph(-1, nil); err == nil {
		t.Error("negative vertex count accepted")
	}
}

// TestLoadGraphEdgeList round-trips an edge-list file through the
// public loader.
func TestLoadGraphEdgeList(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.txt")
	data := "# comment\n0 1\n1 2\n2 3\n0 3\n"
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := LoadGraph(path)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 4 || g.NumEdges() != 4 {
		t.Fatalf("loaded |V|=%d |E|=%d, want 4/4", g.NumVertices(), g.NumEdges())
	}
	eng := NewEngine(g, nil)
	counts, _, err := eng.Count([]Query{{S: 0, T: 3, K: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if counts[0] != 2 {
		t.Errorf("count %d, want 2 (direct edge and the 3-hop chain)", counts[0])
	}
}

// TestPathString covers the Stringer and Len.
func TestPathString(t *testing.T) {
	p := Path{0, 4, 9}
	if p.String() != "(v0, v4, v9)" {
		t.Errorf("String = %s", p.String())
	}
	if p.Len() != 2 {
		t.Errorf("Len = %d, want 2", p.Len())
	}
}

// TestAlgorithmNames: public names map to the paper's.
func TestAlgorithmNames(t *testing.T) {
	want := map[Algorithm]string{
		BatchEnumPlus: "BatchEnum+",
		BatchEnum:     "BatchEnum",
		BasicEnumPlus: "BasicEnum+",
		BasicEnum:     "BasicEnum",
	}
	for a, w := range want {
		if a.String() != w {
			t.Errorf("%d.String() = %s, want %s", int(a), a.String(), w)
		}
	}
}

// TestWorkersOption: parallel execution returns the same counts.
func TestWorkersOption(t *testing.T) {
	g := paperGraph(t)
	for _, workers := range []int{-1, 2} {
		eng := NewEngine(g, &Options{Workers: workers})
		counts, _, err := eng.Count(paperQueries)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		want := []int64{3, 3, 1, 2, 2}
		for i, w := range want {
			if counts[i] != w {
				t.Errorf("workers=%d: query %d count %d, want %d", workers, i, counts[i], w)
			}
		}
	}
}
