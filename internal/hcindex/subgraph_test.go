package hcindex

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/msbfs"
	"repro/internal/query"
	"repro/internal/store"
	"repro/internal/testgraphs"
)

// subgraphGraphs is the corpus the one-query route runs over: static
// shapes, and overlay snapshots of the versioned store with their own
// reverses.
func subgraphGraphs(t *testing.T) map[string][2]*graph.Graph {
	t.Helper()
	out := map[string][2]*graph.Graph{}
	for name, g := range map[string]*graph.Graph{
		"paper":     testgraphs.Paper(),
		"dag":       testgraphs.CompleteDAG(12),
		"cycle":     testgraphs.Cycle(40),
		"random":    graph.GenRandom(400, 4, 3),
		"community": graph.GenCommunityPowerLaw(600, 30, 4, 0.9, 13),
	} {
		out[name] = [2]*graph.Graph{g, g.Reverse()}
	}
	rng := rand.New(rand.NewSource(5))
	st := store.New(graph.GenErdosRenyi(300, 1200, 3), store.Options{CompactAfter: -1})
	for epoch := 1; epoch <= 2; epoch++ {
		var adds, dels []graph.Edge
		for i := 0; i < 150; i++ {
			adds = append(adds, graph.Edge{Src: graph.VertexID(rng.Intn(320)), Dst: graph.VertexID(rng.Intn(320))})
			dels = append(dels, graph.Edge{Src: graph.VertexID(rng.Intn(300)), Dst: graph.VertexID(rng.Intn(300))})
		}
		snap, err := st.ApplyUpdates(adds, dels)
		if err != nil {
			t.Fatalf("ApplyUpdates: %v", err)
		}
		if !snap.Graph().IsOverlay() {
			t.Fatal("want a live overlay snapshot")
		}
		out[fmt.Sprint("overlay", epoch)] = [2]*graph.Graph{snap.Graph(), snap.Reverse()}
	}
	return out
}

// subgraphQueries draws valid queries on g with k = 1…8: half with a
// target within k hops of the source, so the subgraph is not empty.
func subgraphQueries(rng *rand.Rand, g *graph.Graph, n int) []query.Query {
	var qs []query.Query
	for len(qs) < n {
		q := query.Query{S: graph.VertexID(rng.Intn(g.NumVertices())), T: graph.VertexID(rng.Intn(g.NumVertices())), K: uint8(1 + rng.Intn(8))}
		if len(qs)%2 == 0 {
			var near []graph.VertexID
			for v, d := range msbfs.FullDistances(g, q.S) {
				if d != 0 && d <= q.K {
					near = append(near, graph.VertexID(v))
				}
			}
			if len(near) > 0 {
				q.T = near[rng.Intn(len(near))]
			}
		}
		if q.Validate(g) == nil {
			qs = append(qs, q)
		}
	}
	return qs
}

// pairViolation checks the three properties AcquireOne promises of
// query 0's maps in idx against unbounded distances: every reported
// distance is exact, every vertex with d_s + d_t ≤ k is reported, and
// every vertex within ⌈k/2⌉ hops is reported. "" when all hold.
func pairViolation(g, gr *graph.Graph, q query.Query, idx *Index) string {
	ds, dt := msbfs.FullDistances(g, q.S), msbfs.FullDistances(gr, q.T)
	half := int(q.K - q.K/2)
	for dir, exact := range [2][]uint8{Forward: ds, Backward: dt} {
		dm := idx.DistMapFor(0, Direction(dir))
		for v := range exact {
			got, want := dm.Dist(graph.VertexID(v)), exact[v]
			onSub := ds[v] != Unreachable && dt[v] != Unreachable && int(ds[v])+int(dt[v]) <= int(q.K)
			switch {
			case got != Unreachable && got != want:
				return fmt.Sprintf("%v dist(%d) = %d, exact %d", Direction(dir), v, got, want)
			case got == Unreachable && onSub:
				return fmt.Sprintf("%v misses subgraph vertex %d", Direction(dir), v)
			case got == Unreachable && want != Unreachable && int(want) <= half:
				return fmt.Sprintf("%v misses vertex %d at %d ≤ ⌈k/2⌉", Direction(dir), v, want)
			}
		}
	}
	return ""
}

// TestAcquireOneSubgraphProperties: on the corpus and on overlay
// snapshots, both providers' one-query maps — built cold, pooled or
// not, served again from the cache, and served through a wider query's
// entries — keep the three properties, and are smaller than the
// k-balls somewhere in the corpus.
func TestAcquireOneSubgraphProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	smaller := false
	for name, gs := range subgraphGraphs(t) {
		g, gr := gs[0], gs[1]
		cache := NewCache(0)
		for _, q := range subgraphQueries(rng, g, 16) {
			wide := q
			wide.K += 2
			cache.AcquireOne(g, gr, 0, wide).Release()
			for label, p := range map[string]Provider{
				"builder": NewBuilder(false), "pooled": NewBuilder(true),
				"cache": NewCache(0), "cache-widened": cache,
			} {
				idx := p.AcquireOne(g, gr, 0, q)
				if msg := pairViolation(g, gr, q, idx); msg != "" {
					t.Fatalf("%s %s %v: %s", name, label, q, msg)
				}
				full := Build(g, gr, []query.Query{q})
				if idx.DistMapFor(0, Forward).NumVisited() < full.DistMapFor(0, Forward).NumVisited() {
					smaller = true
				}
				idx.Release()
			}
		}
	}
	if !smaller {
		t.Error("no one-query index was smaller than the k-balls: the test exercises nothing")
	}
}

// TestAcquireOneCacheOrder pins the order a cache serves a one-query
// batch in, and what each step counts: a cold query builds and inserts
// its subgraph pair (two misses); a repeat hits the pair; a narrower
// query hits it through views (widened); once both k-balls of a query
// are cached they serve it instead; and subgraph entries never serve a
// multi-query batch, which reads Γ.
func TestAcquireOneCacheOrder(t *testing.T) {
	g, gr, _ := cacheFixture(t)
	q := query.Query{S: 7, T: 31, K: 5}
	c := NewCache(0)
	probe := func(label string, q query.Query, hits, misses int) *Index {
		t.Helper()
		idx := c.AcquireOne(g, gr, 0, q)
		if idx.Hits != hits || idx.Misses != misses {
			t.Errorf("%s: %d hits / %d misses, want %d/%d", label, idx.Hits, idx.Misses, hits, misses)
		}
		if msg := pairViolation(g, gr, q, idx); msg != "" {
			t.Errorf("%s: %s", label, msg)
		}
		return idx
	}
	first := probe("cold", q, 0, 2)
	firstFwd := first.DistMapFor(0, Forward)
	first.Release()
	again := probe("repeat", q, 2, 0)
	if again.DistMapFor(0, Forward) != firstFwd {
		t.Error("repeat: not served the cached pair")
	}
	again.Release()

	narrow := q
	narrow.K = 3
	probe("narrower", narrow, 2, 0).Release()
	if w := c.Stats().Widened; w != 2 {
		t.Errorf("%d widened hits, want 2", w)
	}

	full := Build(g, gr, []query.Query{q})
	multi := c.Acquire(g, gr, 0, []query.Query{q, {S: 1, T: 200, K: 4}})
	if multi.Misses != 4 {
		t.Errorf("multi-query batch: %d misses, want 4 (subgraph entries must not serve it)", multi.Misses)
	}
	indexesAgree(t, "multi-query", g, full, multi, 1)
	multi.Release()

	balls := probe("balls cached", q, 2, 0)
	for _, dir := range []Direction{Forward, Backward} {
		if got, want := balls.DistMapFor(0, dir).NumVisited(), full.DistMapFor(0, dir).NumVisited(); got != want {
			t.Errorf("balls cached: %v map has %d vertices, want the k-ball's %d", dir, got, want)
		}
	}
	balls.Release()
}

// TestAcquireOneMissAllocCeiling is TestCacheMissAllocCeiling for the
// one-query route: a subgraph miss through a width-1 cache, with a
// one-byte budget so every call misses, allocates at most 1.25× the 13
// recorded for it.
func TestAcquireOneMissAllocCeiling(t *testing.T) {
	g, gr, qs := cacheFixture(t)
	c := NewCache(1)
	got := testing.AllocsPerRun(20, func() {
		idx := c.AcquireOne(g, gr, 0, qs[2])
		if idx.Misses != 2 {
			t.Fatalf("%d misses, want 2: the call must build the pair", idx.Misses)
		}
		idx.Release()
	})
	const ceiling = 16
	t.Logf("%.0f allocs per one-query subgraph miss (ceiling %d)", got, ceiling)
	if got > ceiling {
		t.Errorf("%.0f allocs per one-query subgraph miss exceeds %d", got, ceiling)
	}
}
