package msbfs

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/store"
	"repro/internal/testgraphs"
)

// requireEqualMaps asserts two positionally aligned result sets are
// byte-identical: same source/cap, same sorted visited sets, same
// distances at every vertex of the graph.
func requireEqualMaps(t *testing.T, n int, got, want []*DistMap) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("result count %d, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Source != w.Source || g.Cap != w.Cap {
			t.Fatalf("result %d misaligned: (%d,%d) want (%d,%d)", i, g.Source, g.Cap, w.Source, w.Cap)
		}
		if g.NumVisited() != w.NumVisited() {
			t.Fatalf("result %d (src=%d cap=%d): |Γ|=%d want %d", i, w.Source, w.Cap, g.NumVisited(), w.NumVisited())
		}
		for j, v := range w.Visited() {
			if g.Visited()[j] != v {
				t.Fatalf("result %d: visited[%d]=%d want %d", i, j, g.Visited()[j], v)
			}
		}
		if bytes.Equal(g.dist, w.dist) {
			continue // the same dense array: every Dist agrees
		}
		for v := 0; v < n; v++ {
			if g.Dist(graph.VertexID(v)) != w.Dist(graph.VertexID(v)) {
				t.Fatalf("result %d vertex %d: dist %d want %d", i, v, g.Dist(graph.VertexID(v)), w.Dist(graph.VertexID(v)))
			}
		}
	}
}

// randomSources draws nSrc sources with caps spanning the tricky
// boundary values: 0 (source only), 255 (the Unreachable sentinel cap),
// and small mid-range caps.
func randomSources(rng *rand.Rand, n, nSrc int) ([]graph.VertexID, []uint8) {
	sources := make([]graph.VertexID, nSrc)
	caps := make([]uint8, nSrc)
	for i := range sources {
		sources[i] = graph.VertexID(rng.Intn(n))
		switch rng.Intn(6) {
		case 0:
			caps[i] = 0
		case 1:
			caps[i] = 255
		default:
			caps[i] = uint8(rng.Intn(7))
		}
	}
	return sources, caps
}

// corpus is the graph shapes the differential tests run over.
func corpus() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"paper":     testgraphs.Paper(),
		"diamond":   testgraphs.Diamond(),
		"cycle":     testgraphs.Cycle(40),
		"line":      testgraphs.Line(50),
		"dag":       testgraphs.CompleteDAG(12),
		"powerlaw":  graph.GenPowerLaw(400, 3, 5),
		"erdos":     graph.GenErdosRenyi(300, 2000, 4),
		"community": graph.GenCommunityPowerLaw(800, 40, 4, 0.9, 7),
	}
}

// TestParallelMatchesSequential is the differential oracle of the
// parallel direction-optimizing engine: over a corpus of graph shapes,
// random sources (duplicates included) and boundary caps, every
// combination of worker count, pull availability, and pooling must
// reproduce the sequential reference byte for byte.
func TestParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for name, g := range corpus() {
		t.Run(name, func(t *testing.T) {
			n := g.NumVertices()
			rev := g.Reverse()
			// 130 sources spans three chunks (concurrent on Workers>1).
			sources, caps := randomSources(rng, n, 130)
			want := MultiSource(g, sources, caps)
			for _, workers := range []int{1, 2, 3, 8} {
				for _, r := range []*graph.Graph{nil, rev} {
					got := MultiSourceOpts(g, sources, caps, nil, BuildOptions{Workers: workers, Reverse: r})
					requireEqualMaps(t, n, got, want)

					pool := NewPool(n)
					for round := 0; round < 2; round++ {
						pooled := MultiSourceOpts(g, sources, caps, pool, BuildOptions{Workers: workers, Reverse: r})
						requireEqualMaps(t, n, pooled, want)
						for _, dm := range pooled {
							dm.Release()
						}
					}
				}
			}
		})
	}
}

// TestParallelOverlaySnapshots runs the parallel engine on live overlay
// snapshots from the versioned store — the graphs the index layer
// actually builds against after updates — using the snapshot's own
// symmetric reverse for pull, against the sequential reference.
func TestParallelOverlaySnapshots(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	base := graph.GenErdosRenyi(200, 1200, 3)
	st := store.New(base, store.Options{CompactAfter: -1}) // keep the overlay live
	var adds, dels []graph.Edge
	for i := 0; i < 300; i++ {
		adds = append(adds, graph.Edge{Src: graph.VertexID(rng.Intn(220)), Dst: graph.VertexID(rng.Intn(220))})
	}
	for i := 0; i < 50; i++ {
		dels = append(dels, graph.Edge{Src: graph.VertexID(rng.Intn(200)), Dst: graph.VertexID(rng.Intn(200))})
	}
	snap, err := st.ApplyUpdates(adds, dels)
	if err != nil {
		t.Fatalf("ApplyUpdates: %v", err)
	}
	g, rev := snap.Graph(), snap.Reverse()
	if !g.IsOverlay() {
		t.Fatal("expected a live overlay snapshot")
	}
	n := g.NumVertices()
	sources, caps := randomSources(rng, n, 100)
	want := MultiSource(g, sources, caps)
	for _, workers := range []int{1, 4} {
		for _, r := range []*graph.Graph{nil, rev} {
			got := MultiSourceOpts(g, sources, caps, nil, BuildOptions{Workers: workers, Reverse: r})
			requireEqualMaps(t, n, got, want)
		}
	}
}

// TestParallelPullFires pins the direction switch itself: on a dense
// graph with large caps the Beamer threshold must select pull for the
// dense middle levels, and the results must still match the reference.
// The frontierCost probe asserts the heuristic actually crosses the
// threshold, so the pull path cannot silently rot into dead code.
func TestParallelPullFires(t *testing.T) {
	g := graph.GenErdosRenyi(500, 25000, 9) // avg out-degree 50
	rev := g.Reverse()
	n := g.NumVertices()
	sources := []graph.VertexID{0, 7, 123, 456}
	caps := []uint8{4, 4, 4, 4}

	// After one hop a 50-degree frontier covers ~10% of the graph;
	// its out-degree sum (~2500+) dwarfs (m+n)/20 = 1275.
	level1 := Single(g, 0, 1)
	if cost := frontierCost(g, level1.Visited()); cost <= (g.NumEdges()+n)/pullDenom {
		t.Fatalf("bench graph too sparse for the pull threshold: cost %d ≤ %d", cost, (g.NumEdges()+n)/pullDenom)
	}

	want := MultiSource(g, sources, caps)
	for _, workers := range []int{1, 4} {
		got := MultiSourceOpts(g, sources, caps, nil, BuildOptions{Workers: workers, Reverse: rev})
		requireEqualMaps(t, n, got, want)
	}
}

// TestParallelConcurrentChunksSharedPool drives several MultiSourceOpts
// runs through one pool from concurrent goroutines — the service's
// shape, where in-flight batches share the cache's per-|V| pool — and
// checks every run against the reference. Run under -race this is the
// chunk-concurrency safety proof.
func TestParallelConcurrentChunksSharedPool(t *testing.T) {
	g := graph.GenPowerLaw(600, 4, 11)
	rev := g.Reverse()
	n := g.NumVertices()
	pool := NewPool(n)
	rng := rand.New(rand.NewSource(23))

	type run struct {
		sources []graph.VertexID
		caps    []uint8
		want    []*DistMap
	}
	runs := make([]run, 4)
	for i := range runs {
		s, c := randomSources(rng, n, 200) // 4 chunks each
		runs[i] = run{s, c, MultiSource(g, s, c)}
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(runs))
	for _, r := range runs {
		wg.Add(1)
		go func(r run) {
			defer wg.Done()
			got := MultiSourceOpts(g, r.sources, r.caps, pool, BuildOptions{Workers: 4, Reverse: rev})
			for i := range got {
				if got[i].NumVisited() != r.want[i].NumVisited() {
					errs <- errMismatch
					return
				}
				for j, v := range r.want[i].Visited() {
					if got[i].Visited()[j] != v || got[i].Dist(v) != r.want[i].Dist(v) {
						errs <- errMismatch
						return
					}
				}
			}
			for _, dm := range got {
				dm.Release()
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestScratchPoolReuse: repeated builds through one pool must stop
// allocating chunk scratch after the first round, and whatever a build
// did — ran to exhaustion, was cut short by its caps with a frontier
// still standing, carried the same source in several lanes — the
// scratch it hands back is clean to the last word, in both kernels.
func TestScratchPoolReuse(t *testing.T) {
	g := graph.GenRandom(300, 4, 11)
	rev := g.Reverse()
	n := g.NumVertices()
	random, randomCaps := randomSources(rand.New(rand.NewSource(5)), n, 64)
	builds := map[string]struct {
		sources  []graph.VertexID
		caps     []uint8
		cutShort bool // source 1 carries the largest cap and could go further
	}{
		"random": {random, randomCaps, false},
		// The last frontier's bits stand in sc.frontier after an even
		// number of levels and in sc.next after an odd one.
		"cutShortEven": {[]graph.VertexID{0, 17, 150, 299}, []uint8{1, 2, 1, 2}, true},
		"cutShortOdd":  {[]graph.VertexID{0, 17, 150, 299}, []uint8{1, 3, 1, 3}, true},
		"repeated":     {[]graph.VertexID{7, 7, 7, 120, 120, 7}, []uint8{3, 0, 255, 2, 2, 3}, false},
	}
	for name, b := range builds {
		if last := b.caps[1]; b.cutShort && Single(g, b.sources[1], last+1).NumVisited() == Single(g, b.sources[1], last).NumVisited() {
			t.Fatalf("%s: the cap does not cut the search short, the frontier was already empty", name)
		}
		for _, opt := range []BuildOptions{{}, {Workers: 2}, {Workers: 2, Reverse: rev}} {
			pool := NewPool(n)
			for round := 0; round < 4; round++ {
				for _, dm := range MultiSourceOpts(g, b.sources, b.caps, pool, opt) {
					dm.Release()
				}
				requireCleanPool(t, pool)
			}
			pool.mu.Lock()
			free := len(pool.scratch)
			pool.mu.Unlock()
			if free != 1 {
				t.Fatalf("%s %+v: pool holds %d free scratch sets after sequentially repeated single-chunk builds, want 1", name, opt, free)
			}
			// A fresh pooled run on the recycled scratch equals the reference.
			requireEqualMaps(t, n, MultiSourceOpts(g, b.sources, b.caps, pool, opt), referenceMaps(g, b.sources, b.caps))
		}
	}
}

var errMismatch = errForm("parallel result diverged from sequential reference")

type errForm string

func (e errForm) Error() string { return string(e) }
