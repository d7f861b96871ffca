package msbfs

import (
	"bytes"
	"fmt"
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
		if g == nil {
			t.Fatalf("result %d (src=%d cap=%d) was never built", i, w.Source, w.Cap)
		}
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

// overlaySnapshot returns a live overlay snapshot of the versioned
// store, the graphs the index layer builds against after updates: its
// forward graph and its own reverse.
func overlaySnapshot(t *testing.T) (g, rev *graph.Graph) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	st := store.New(graph.GenErdosRenyi(200, 1200, 3), store.Options{CompactAfter: -1}) // keep the overlay live
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
	if !snap.Graph().IsOverlay() {
		t.Fatal("expected a live overlay snapshot")
	}
	return snap.Graph(), snap.Reverse()
}

// tableSources draws nSrc sources with caps 0..7 in which every fifth
// source repeats an earlier one with its own cap, so several searches
// of one pass start at the same vertex.
func tableSources(rng *rand.Rand, n, nSrc int) ([]graph.VertexID, []uint8) {
	sources := make([]graph.VertexID, nSrc)
	caps := make([]uint8, nSrc)
	for i := range sources {
		sources[i] = graph.VertexID(rng.Intn(n))
		if i%5 == 4 {
			sources[i] = sources[rng.Intn(i)]
		}
		caps[i] = uint8(rng.Intn(8))
	}
	return sources, caps
}

// TestParallelMatchesSequential is the differential table of the task
// runner, held to the sequential reference BFS (referenceMaps): a
// forward pass on the graph and a backward pass on its reverse, built
// as one task list, for every width (1 is the serial path), source
// counts on both sides of 64 and 128 and unequal between the two
// passes, duplicate sources, caps 0..7, unpooled and through a pool
// whose storage has already cycled once — on the corpus and on a live
// overlay snapshot.
func TestParallelMatchesSequential(t *testing.T) {
	counts := []int{1, 63, 64, 65, 128, 129, 200}
	graphs := corpus()
	for name, g := range graphs {
		t.Run(name, func(t *testing.T) { requireRunnerTable(t, g, g.Reverse(), counts) })
	}
	t.Run("overlay", func(t *testing.T) {
		g, rev := overlaySnapshot(t)
		requireRunnerTable(t, g, rev, counts)
	})
}

// requireRunnerTable runs TestParallelMatchesSequential's table on one
// graph and its reverse.
func requireRunnerTable(t *testing.T, g, rev *graph.Graph, counts []int) {
	n := g.NumVertices()
	rng := rand.New(rand.NewSource(int64(n)))
	for i, nf := range counts {
		nb := counts[(i+3)%len(counts)] // unequal: the passes' sources interleave unevenly
		fs, fc := tableSources(rng, n, nf)
		bs, bc := tableSources(rng, n, nb)
		want := [][]*DistMap{referenceMaps(g, fs, fc), referenceMaps(rev, bs, bc)}
		passes := []Pass{{G: g, Sources: fs, Caps: fc}, {G: rev, Sources: bs, Caps: bc}}
		for _, width := range []int{1, 2, 3, 8} {
			label := fmt.Sprintf("sources %d/%d width %d", nf, nb, width)
			opt := BuildOptions{Workers: width}
			check := func(got [][]*DistMap) {
				t.Helper()
				if len(got) != 2 {
					t.Fatalf("%s: %d results, want 2", label, len(got))
				}
				requireEqualMaps(t, n, got[0], want[0])
				requireEqualMaps(t, n, got[1], want[1])
			}
			check(RunPasses(passes, nil, opt))
			pool := NewPool(n)
			for round := 0; round < 2; round++ {
				got := RunPasses(passes, pool, opt)
				check(got)
				for _, res := range got {
					for _, dm := range res {
						dm.Release()
					}
				}
				requireCleanPool(t, pool)
			}
		}
	}
}

// TestParallelConcurrentChunksSharedPool drives several wide builds
// through one pool from concurrent goroutines — an Engine's shape when
// callers share it, in-flight batches sharing the provider's per-|V|
// pool — and checks every run against the reference. Run under -race
// this is the build-concurrency safety proof.
func TestParallelConcurrentChunksSharedPool(t *testing.T) {
	g := graph.GenPowerLaw(600, 4, 11)
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
		s, c := randomSources(rng, n, 200) // 200 searches each
		runs[i] = run{s, c, referenceMaps(g, s, c)}
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(runs))
	for _, r := range runs {
		wg.Add(1)
		go func(r run) {
			defer wg.Done()
			got := MultiSourceOpts(g, r.sources, r.caps, pool, BuildOptions{Workers: 4})
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
	requireCleanPool(t, pool)
}

// TestScratchPoolReuse: a build takes one scratch set per worker, so
// after the first round through a fresh pool it holds exactly the
// build's width of free sets, and later rounds add none. Whatever a
// build did — ran to exhaustion, was cut short by its caps with a
// frontier still standing, carried the same source several times — the
// scratch it hands back is clean to the last word, at every width.
func TestScratchPoolReuse(t *testing.T) {
	g := graph.GenRandom(300, 4, 11)
	n := g.NumVertices()
	random, randomCaps := randomSources(rand.New(rand.NewSource(5)), n, 64)
	builds := map[string]struct {
		sources  []graph.VertexID
		caps     []uint8
		cutShort bool // source 1 carries the largest cap and could go further
	}{
		"random": {random, randomCaps, false},
		// The cap stops the search with vertices still queued, at an
		// even and at an odd depth.
		"cutShortEven": {[]graph.VertexID{0, 17, 150, 299}, []uint8{1, 2, 1, 2}, true},
		"cutShortOdd":  {[]graph.VertexID{0, 17, 150, 299}, []uint8{1, 3, 1, 3}, true},
		"repeated":     {[]graph.VertexID{7, 7, 7, 120, 120, 7}, []uint8{3, 0, 255, 2, 2, 3}, false},
	}
	for name, b := range builds {
		if last := b.caps[1]; b.cutShort && Single(g, b.sources[1], last+1).NumVisited() == Single(g, b.sources[1], last).NumVisited() {
			t.Fatalf("%s: the cap does not cut the search short, the frontier was already empty", name)
		}
		for _, opt := range []BuildOptions{{}, {Workers: 2}} {
			width := max(1, min(len(b.sources), opt.Workers))
			pool := NewPool(n)
			for round := 0; round < 4; round++ {
				for _, dm := range MultiSourceOpts(g, b.sources, b.caps, pool, opt) {
					dm.Release()
				}
				requireCleanPool(t, pool)
				pool.mu.Lock()
				free := len(pool.scratch)
				pool.mu.Unlock()
				if free != width {
					t.Fatalf("%s %+v round %d: pool holds %d free scratch sets, want the build's width %d", name, opt, round, free, width)
				}
			}
			// A fresh pooled run on the recycled scratch equals the reference.
			requireEqualMaps(t, n, MultiSourceOpts(g, b.sources, b.caps, pool, opt), referenceMaps(g, b.sources, b.caps))
		}
	}
}

var errMismatch = errForm("parallel result diverged from the reference")

type errForm string

func (e errForm) Error() string { return string(e) }
