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
	if a := pool.Allocs(); a != int64(len(sources)) {
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
	if a := pool.Allocs(); a != 1 {
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
