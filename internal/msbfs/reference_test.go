package msbfs

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/datasets"
	"repro/internal/graph"
	"repro/internal/store"
	"repro/internal/testgraphs"
)

// referenceMaps is the oracle the kernel shares no code with: one plain
// queue BFS per source, stopped at its cap, its visited list put in
// order by a comparison sort. Every width runs the same kernel and the
// same sweep, so comparing widths to each other would let a kernel or
// sweep bug through everywhere at once; this cannot.
func referenceMaps(g *graph.Graph, sources []graph.VertexID, caps []uint8) []*DistMap {
	n := g.NumVertices()
	out := make([]*DistMap, len(sources))
	for i, s := range sources {
		dist := make([]uint8, n)
		for v := range dist {
			dist[v] = Unreachable
		}
		// A vertex exactly 255 hops out is visited with distance 255,
		// the Unreachable value, so membership needs its own flags.
		seen := make([]bool, n)
		dist[s], seen[s] = 0, true
		queue := []graph.VertexID{s}
		for at := 0; at < len(queue); at++ {
			v := queue[at]
			if dist[v] == caps[i] {
				continue
			}
			for _, w := range g.OutNeighbors(v) {
				if !seen[w] {
					dist[w], seen[w] = dist[v]+1, true
					queue = append(queue, w)
				}
			}
		}
		slices.Sort(queue)
		out[i] = &DistMap{Source: s, Cap: caps[i], dist: dist, visited: queue}
	}
	return out
}

// requireMatchesReference holds every way of building — serially and
// at widths 2 and 4, each unpooled and through a pool whose storage has
// already cycled once — to the reference, and the pool to the
// clean-storage invariant afterwards.
func requireMatchesReference(t *testing.T, g *graph.Graph, sources []graph.VertexID, caps []uint8) {
	t.Helper()
	n := g.NumVertices()
	want := referenceMaps(g, sources, caps)
	for _, opt := range []BuildOptions{{}, {Workers: 2}, {Workers: 4}} {
		requireEqualMaps(t, n, MultiSourceOpts(g, sources, caps, nil, opt), want)
		pool := NewPool(n)
		for round := 0; round < 2; round++ {
			got := MultiSourceOpts(g, sources, caps, pool, opt)
			requireEqualMaps(t, n, got, want)
			for _, dm := range got {
				dm.Release()
			}
			requireCleanPool(t, pool)
		}
	}
}

// requireCleanPool asserts the invariant acquisition relies on: every
// free dist array all-Unreachable, every free visited list empty, and
// every free scratch clean — every level of the touched bitmap zero,
// the queue empty.
func requireCleanPool(t *testing.T, p *Pool) {
	t.Helper()
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, d := range p.dists {
		if bytes.Count(d, []byte{Unreachable}) != len(d) {
			t.Fatalf("free dist array holds a distance")
		}
	}
	for _, vis := range p.visited {
		if len(vis) != 0 {
			t.Fatalf("free visited list has length %d", len(vis))
		}
	}
	for _, sc := range p.scratch {
		for l, ws := range sc.touched {
			for i, w := range ws {
				if w != 0 {
					t.Fatalf("free scratch: touched[%d][%d] = %#x, want 0", l, i, w)
				}
			}
		}
		if len(sc.queue) != 0 {
			t.Fatalf("free scratch: queue has length %d, want 0", len(sc.queue))
		}
	}
}

// TestKernelsMatchReference runs the corpus through MultiSourceOpts at
// every width against the independent oracle.
func TestKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for name, g := range corpus() {
		t.Run(name, func(t *testing.T) {
			sources, caps := randomSources(rng, g.NumVertices(), 130)
			requireMatchesReference(t, g, sources, caps)
		})
	}
}

// standInSources returns the graphs and sources of the benchmark's two
// offline batch shapes at a test's size: the EP stand-in with 100
// random sources capped 5–7 (offline_sparse_random: independent
// queries, hubs and communities), and the UK stand-in with its vertex
// of largest in-degree and all of that vertex's in-neighbours capped
// 6–7 (offline_dense_similar: one seed query's source moved to its
// in-neighbours, so the searches overlap heavily).
func standInSources(t *testing.T) map[string]Pass {
	t.Helper()
	build := func(code string, scale float64) *graph.Graph {
		sp, err := datasets.ByCode(code)
		if err != nil {
			t.Fatal(err)
		}
		return sp.Build(scale)
	}
	ep := build("EP", 1)
	rng := rand.New(rand.NewSource(37))
	sparse := Pass{G: ep}
	for i := 0; i < 100; i++ {
		sparse.Sources = append(sparse.Sources, graph.VertexID(rng.Intn(ep.NumVertices())))
		sparse.Caps = append(sparse.Caps, uint8(5+rng.Intn(3)))
	}
	uk := build("UK", 0.25)
	ukr := uk.Reverse()
	seed := graph.VertexID(0)
	for v := graph.VertexID(1); int(v) < uk.NumVertices(); v++ {
		if ukr.OutDegree(v) > ukr.OutDegree(seed) {
			seed = v
		}
	}
	dense := Pass{G: uk, Sources: append([]graph.VertexID{seed}, ukr.OutNeighbors(seed)...)}
	for i := range dense.Sources {
		dense.Caps = append(dense.Caps, uint8(6+i%2))
	}
	return map[string]Pass{"EP-sparse": sparse, "UK-dense": dense}
}

// TestStandInsMatchReference holds the build to the reference on the
// graph shapes the benchmark runs, which the corpus's rings and random
// graphs lack: hubs, communities and heavily overlapping searches.
func TestStandInsMatchReference(t *testing.T) {
	for name, p := range standInSources(t) {
		t.Run(name, func(t *testing.T) { requireMatchesReference(t, p.G, p.Sources, p.Caps) })
	}
}

// TestReferenceAtBitmapBoundaries puts sources and reach on both sides
// of every boundary of the touched bitmap — the 64-vertex word, the
// 64-word summary word (vertex 4096), the second summary level (vertex
// 64³) — and of the vertex range itself (n = 1, a last word with one
// bit). Sources repeat, and caps include 0 (source only) and 255 (run
// until the frontier dies), on a ring, where reach is an interval that
// crosses the boundaries, and on a random graph, where it is scattered.
func TestReferenceAtBitmapBoundaries(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 4095, 4096, 4097, 3*4096 + 1, 64*64*64 + 1} {
		t.Run(fmt.Sprint("n=", n), func(t *testing.T) {
			var sources []graph.VertexID
			for _, v := range []int{0, 62, 63, 64, 65, 4094, 4095, 4096, 4097, 2 * 4096, 3 * 4096, 64*64*64 - 1, 64 * 64 * 64, n - 1, n - 1} {
				if v < n {
					sources = append(sources, graph.VertexID(v))
				}
			}
			caps := make([]uint8, len(sources))
			for i := range caps {
				caps[i] = []uint8{3, 0, 255, 70, 2}[i%5]
			}
			nSrc := 70 // with the boundary sources, past 64
			if n > 1<<16 {
				nSrc = 4 // every source costs O(n) to build, compare and check clean
			}
			rs, rc := randomSources(rand.New(rand.NewSource(int64(n))), n, nSrc)
			sources, caps = append(sources, rs...), append(caps, rc...)
			if n > 1<<16 {
				// Shallow searches cross the 64³ boundary as well as floods
				// of 2¹⁸ vertices do, at a hundredth of the time under -race.
				for i := range caps {
					caps[i] %= 5
				}
			}
			for name, g := range map[string]*graph.Graph{"ring": testgraphs.Cycle(n), "random": graph.GenRandom(n, 2, int64(n))} {
				t.Run(name, func(t *testing.T) {
					requireMatchesReference(t, g, sources, caps)
				})
			}
		})
	}
}

// TestReferenceOverlayGrownVertices: an overlay snapshot whose updates
// grew the vertex set past a word boundary (60 → 70 vertices), sources
// among the grown vertices included.
func TestReferenceOverlayGrownVertices(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	st := store.New(graph.GenErdosRenyi(60, 240, 3), store.Options{CompactAfter: -1})
	var adds []graph.Edge
	for i := 0; i < 120; i++ {
		adds = append(adds, graph.Edge{Src: graph.VertexID(rng.Intn(70)), Dst: graph.VertexID(rng.Intn(70))})
	}
	snap, err := st.ApplyUpdates(adds, nil)
	if err != nil {
		t.Fatalf("ApplyUpdates: %v", err)
	}
	g := snap.Graph()
	if !g.IsOverlay() || g.NumVertices() <= 64 {
		t.Fatalf("want a live overlay grown past 64 vertices, got overlay=%v n=%d", g.IsOverlay(), g.NumVertices())
	}
	sources, caps := randomSources(rng, g.NumVertices(), 90)
	sources = append(sources, 63, 64, graph.VertexID(g.NumVertices()-1))
	caps = append(caps, 4, 255, 4)
	requireMatchesReference(t, g, sources, caps)
}
