package msbfs

import (
	"sync"
	"testing"

	"repro/internal/graph"
)

// TestPooledMatchesUnpooled: pooled MS-BFS must be byte-identical to the
// flat-allocation path, including after storage has cycled through the
// pool (the sparse reset must restore the all-Unreachable invariant).
func TestPooledMatchesUnpooled(t *testing.T) {
	g := graph.GenRandom(300, 4, 11)
	pool := NewPool(g.NumVertices())
	sources := []graph.VertexID{0, 5, 7, 7, 120, 299}
	caps := []uint8{3, 4, 2, 5, 3, 4}
	for round := 0; round < 3; round++ {
		want := MultiSource(g, sources, caps)
		got := MultiSourceIn(g, sources, caps, pool)
		for i := range want {
			if want[i].NumVisited() != got[i].NumVisited() {
				t.Fatalf("round %d source %d: |Γ| %d vs %d", round, i, got[i].NumVisited(), want[i].NumVisited())
			}
			for _, v := range want[i].Visited() {
				if want[i].Dist(v) != got[i].Dist(v) {
					t.Fatalf("round %d source %d vertex %d: dist %d vs %d",
						round, i, v, got[i].Dist(v), want[i].Dist(v))
				}
			}
		}
		for _, dm := range got {
			dm.Release()
		}
	}
	// Six sources per round, three rounds: the free-list must have
	// capped allocations at the high-water mark of one round.
	if a := pool.allocs; a != int64(len(sources)) {
		t.Errorf("pool allocated %d arrays, want %d (reuse across rounds)", a, len(sources))
	}
}

// TestViewThresholds: a view at a narrower cap must behave exactly like
// a fresh BFS bounded at that cap.
func TestViewThresholds(t *testing.T) {
	g := graph.GenGrid(8, 8)
	wide := Single(g, 0, 6)
	for _, cap := range []uint8{0, 1, 3, 6, 7} {
		view := wide.View(cap)
		fresh := Single(g, 0, min(cap, 6))
		if cap >= 6 && view != wide {
			t.Errorf("cap %d: expected the identical map back", cap)
		}
		if view.Cap > cap {
			t.Errorf("cap %d: view.Cap = %d", cap, view.Cap)
		}
		if view.NumVisited() != fresh.NumVisited() {
			t.Fatalf("cap %d: |Γ| %d, want %d", cap, view.NumVisited(), fresh.NumVisited())
		}
		for v := graph.VertexID(0); int(v) < g.NumVertices(); v++ {
			if view.Dist(v) != fresh.Dist(v) {
				t.Errorf("cap %d vertex %d: dist %d, want %d", cap, v, view.Dist(v), fresh.Dist(v))
			}
			if view.Contains(v) != fresh.Contains(v) {
				t.Errorf("cap %d vertex %d: contains %v, want %v", cap, v, view.Contains(v), fresh.Contains(v))
			}
		}
	}
}

// TestReleaseIdempotentAndViewNoop: releasing twice and releasing views
// must be harmless (views alias pooled storage they do not own).
func TestReleaseIdempotentAndViewNoop(t *testing.T) {
	g := graph.GenGrid(4, 4)
	pool := NewPool(g.NumVertices())
	dm := MultiSourceIn(g, []graph.VertexID{0}, []uint8{4}, pool)[0]
	view := dm.View(2)
	view.Release() // no-op: must not poison the parent's storage
	if dm.Dist(1) != 1 {
		t.Fatal("parent map corrupted by view release")
	}
	dm.Release()
	dm.Release() // idempotent
	if a := pool.allocs; a != 1 {
		t.Fatalf("allocs = %d", a)
	}
	// The recycled array must come back clean.
	dm2 := MultiSourceIn(g, []graph.VertexID{15}, []uint8{1}, pool)[0]
	fresh := Single(g, 15, 1)
	if dm2.NumVisited() != fresh.NumVisited() {
		t.Fatalf("recycled array dirty: |Γ| = %d, want %d", dm2.NumVisited(), fresh.NumVisited())
	}
}

// TestPoolConcurrent exercises acquire/release from many goroutines
// under -race.
func TestPoolConcurrent(t *testing.T) {
	g := graph.GenRandom(200, 3, 5)
	pool := NewPool(g.NumVertices())
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				src := graph.VertexID((w*31 + i*7) % 200)
				dm := MultiSourceIn(g, []graph.VertexID{src}, []uint8{3}, pool)[0]
				if dm.Dist(src) != 0 {
					t.Errorf("self distance %d", dm.Dist(src))
				}
				dm.Release()
			}
		}(w)
	}
	wg.Wait()
}

// TestContainsAtMaxCap: with Cap = 255 == Unreachable, the threshold
// compare alone would admit unvisited vertices; Contains must still
// exclude them (regression for the thresholded-view refactor).
func TestContainsAtMaxCap(t *testing.T) {
	g := graph.FromEdges(3, []graph.Edge{{Src: 0, Dst: 1}}) // vertex 2 isolated
	dm := Single(g, 0, 255)
	if !dm.Contains(1) {
		t.Error("reachable vertex excluded")
	}
	if dm.Contains(2) {
		t.Error("unreachable vertex admitted at Cap=255")
	}
	if dm.Dist(2) != Unreachable {
		t.Errorf("Dist(2) = %d", dm.Dist(2))
	}
	if dm.NumVisited() != 2 {
		t.Errorf("|Γ| = %d, want 2", dm.NumVisited())
	}
}

// TestCountContainedMatchesContains: CountContained equals a Contains
// loop on pooled maps (also after their arrays cycled through the
// pool), on views whose shared array holds distances above their Cap,
// and at Cap 255, where a vertex 255 hops out stores the Unreachable
// value and must not count.
func TestCountContainedMatchesContains(t *testing.T) {
	count := func(d *DistMap, vs []graph.VertexID) int {
		n := 0
		for _, v := range vs {
			if d.Contains(v) {
				n++
			}
		}
		return n
	}
	all := func(g *graph.Graph) []graph.VertexID {
		vs := make([]graph.VertexID, g.NumVertices())
		for i := range vs {
			vs[i] = graph.VertexID(i)
		}
		return vs
	}
	check := func(label string, d *DistMap, vs []graph.VertexID) {
		t.Helper()
		if got, want := d.CountContained(vs), count(d, vs); got != want {
			t.Errorf("%s (cap %d, %d probes): CountContained %d, Contains loop %d", label, d.Cap, len(vs), got, want)
		}
	}

	g := graph.GenRandom(300, 4, 11)
	vs := all(g)
	// A stride sample, as the estimator probes, with repeats.
	probes := []graph.VertexID{5, 5, 120, 299, 0}
	for v := 0; v < len(vs); v += 7 {
		probes = append(probes, vs[v])
	}
	pool := NewPool(g.NumVertices())
	sources := []graph.VertexID{0, 5, 7, 7, 120, 299}
	caps := []uint8{3, 4, 2, 6, 3, 254}
	for round := 0; round < 2; round++ {
		for _, d := range MultiSourceIn(g, sources, caps, pool) {
			check("pooled", d, vs)
			check("pooled", d, probes)
			check("pooled", d, nil)
			for c := uint8(0); c < min(d.Cap, 6); c++ {
				// The view shares d's array, which holds distances
				// up to d.Cap > c.
				view := d.View(c)
				check("view", view, vs)
				check("view", view, probes)
			}
			d.Release()
		}
	}

	// Cap 255: vertex 256 sits 255 hops out (dist holds Unreachable),
	// vertex 257 is isolated.
	var edges []graph.Edge
	for v := graph.VertexID(0); v < 253; v++ {
		edges = append(edges, graph.Edge{Src: v, Dst: v + 1})
	}
	edges = append(edges, graph.Edge{Src: 253, Dst: 254}, graph.Edge{Src: 253, Dst: 255},
		graph.Edge{Src: 254, Dst: 256}, graph.Edge{Src: 255, Dst: 256})
	line := graph.FromEdges(258, edges)
	wide := MultiSourceIn(line, []graph.VertexID{0}, []uint8{255}, NewPool(line.NumVertices()))[0]
	check("cap 255", wide, all(line))
	if got := wide.CountContained([]graph.VertexID{256, 257, 256}); got != 0 {
		t.Errorf("cap 255: %d of the far and isolated vertices counted, want 0", got)
	}
	check("cap 255 view", wide.View(254), all(line))
	check("cap 255 view", wide.View(100), all(line))
	wide.Release()
}

// TestVisitedExactAtMaxCap: depth 255 writes the Unreachable value into
// dist, so a vertex reached at that depth from two parents must still
// be queued once, and its source's visited list allocated at its exact
// size. Here 253 hops of a line fork into two vertices that meet again
// at depth 255.
func TestVisitedExactAtMaxCap(t *testing.T) {
	var edges []graph.Edge
	for v := graph.VertexID(0); v < 253; v++ {
		edges = append(edges, graph.Edge{Src: v, Dst: v + 1})
	}
	edges = append(edges, graph.Edge{Src: 253, Dst: 254}, graph.Edge{Src: 253, Dst: 255},
		graph.Edge{Src: 254, Dst: 256}, graph.Edge{Src: 255, Dst: 256})
	g := graph.FromEdges(257, edges)
	requireMatchesReference(t, g, []graph.VertexID{0}, []uint8{255})
	dm := Single(g, 0, 255)
	if dm.NumVisited() != 257 || cap(dm.Visited()) != 257 {
		t.Fatalf("|Γ| = %d in a list of capacity %d, want both 257", dm.NumVisited(), cap(dm.Visited()))
	}
}
