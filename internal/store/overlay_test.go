package store

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/graph"
)

// liveEdges lists an edge set, in no particular order.
func liveEdges(live map[graph.Edge]bool) []graph.Edge {
	var out []graph.Edge
	for e := range live {
		out = append(out, e)
	}
	return out
}

// applyLive mirrors ApplyUpdates' semantics on a plain edge set:
// deletions first, then adds (self-loops dropped), growing n to fit.
func applyLive(live map[graph.Edge]bool, n int, adds, dels []graph.Edge) int {
	for _, e := range dels {
		delete(live, e)
	}
	for _, e := range adds {
		if e.Src != e.Dst {
			live[e] = true
			n = max(n, int(e.Src)+1, int(e.Dst)+1)
		}
	}
	return n
}

// TestEmptiedRowReadsEmpty: a row whose every edge is deleted must read
// empty, forward and backward. The overlay stores it as a non-nil empty
// row; a nil slot would bring the CSR row back.
func TestEmptiedRowReadsEmpty(t *testing.T) {
	// 17 (second page) is the only source into 3 and 20, so deleting its
	// out-edges empties its forward row and both of their reverse rows.
	base := graph.FromEdges(40, []graph.Edge{{Src: 17, Dst: 3}, {Src: 17, Dst: 20}, {Src: 5, Dst: 17}, {Src: 3, Dst: 5}})
	s := New(base, Options{CompactAfter: -1})
	snap := mustApply(t, s, nil, []graph.Edge{{Src: 17, Dst: 3}, {Src: 17, Dst: 20}})
	g, gr := snap.Graph(), snap.Reverse()
	if !g.IsOverlay() || !gr.IsOverlay() {
		t.Fatal("setup: the update did not produce overlays")
	}
	for _, c := range []struct {
		label string
		g     *graph.Graph
		v     graph.VertexID
	}{{"forward row 17", g, 17}, {"reverse row 3", gr, 3}, {"reverse row 20", gr, 20}} {
		if row, d := c.g.OutNeighbors(c.v), c.g.OutDegree(c.v); len(row) != 0 || d != 0 {
			t.Fatalf("%s reads %v (degree %d), want empty", c.label, row, d)
		}
	}
	want := graph.FromEdges(40, []graph.Edge{{Src: 5, Dst: 17}, {Src: 3, Dst: 5}})
	requireEqual(t, "emptied", g, want)
	requireEqual(t, "emptied (reverse)", gr, want.Reverse())
}

// TestSnapshotIsolationAcrossPages keeps every snapshot of a long random
// run over several overlay pages, with vertex growth across page
// boundaries and a few compactions, and only afterwards checks each one
// against its own rebuild: a successor that wrote into a page its
// predecessor still reads would show up here.
func TestSnapshotIsolationAcrossPages(t *testing.T) {
	const baseN, maxN, steps = 70, 100, 240 // 5 pages growing to 7
	rng := rand.New(rand.NewSource(23))
	live := make(map[graph.Edge]bool)
	var pool []graph.Edge // every edge ever added, for effective deletions
	for i := 0; i < 200; i++ {
		e := graph.Edge{Src: graph.VertexID(rng.Intn(baseN)), Dst: graph.VertexID(rng.Intn(baseN))}
		if e.Src != e.Dst && !live[e] {
			live[e] = true
			pool = append(pool, e)
		}
	}
	s := New(graph.FromEdges(baseN, pool), Options{CompactAfter: 300})

	type kept struct {
		snap  *Snapshot
		n     int
		edges []graph.Edge
	}
	history := []kept{{s.Current(), baseN, liveEdges(live)}}
	n := baseN
	for step := 0; step < steps; step++ {
		limit := baseN + (maxN-baseN)*step/steps + 1
		var adds, dels []graph.Edge
		for i := 0; i < 1+rng.Intn(6); i++ {
			if rng.Intn(2) == 0 {
				dels = append(dels, pool[rng.Intn(len(pool))])
				continue
			}
			e := graph.Edge{Src: graph.VertexID(rng.Intn(limit)), Dst: graph.VertexID(rng.Intn(limit))}
			adds = append(adds, e)
			pool = append(pool, e)
		}
		n = applyLive(live, n, adds, dels)
		history = append(history, kept{mustApply(t, s, adds, dels), n, liveEdges(live)})
	}
	if n <= 96 {
		t.Fatalf("n grew only to %d; the run must cross the 80 and 96 page boundaries", n)
	}
	if c := s.Stats().Compactions; c == 0 {
		t.Fatal("the run never compacted; lower CompactAfter")
	}
	for i, h := range history {
		want := graph.FromEdges(h.n, h.edges)
		requireEqual(t, "kept snapshot", h.snap.Graph(), want)
		requireEqual(t, "kept snapshot (reverse)", h.snap.Reverse(), want.Reverse())
		if h.snap.NumEdges() != len(h.edges) {
			t.Fatalf("snapshot %d: NumEdges %d, want %d", i, h.snap.NumEdges(), len(h.edges))
		}
	}
}

// TestApplyCostIndependentOfOverlaySize pins O(changed rows) per epoch:
// the same 64-edge block costs the same allocations on a store whose
// overlay holds one row as on one whose overlay holds 5 000. Both have
// the same vertex count, so their page tables are the same size; the
// byte bound allows one page table's worth of slack per direction.
func TestApplyCostIndependentOfOverlaySize(t *testing.T) {
	const n = 8192
	base := graph.GenRandom(n, 4, 5)
	var block []graph.Edge
	for i := 0; i < 64; i++ {
		block = append(block, graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID((i*7 + 1) % 64)})
	}

	light := New(base, Options{CompactAfter: -1})
	mustApply(t, light, []graph.Edge{{Src: 8000, Dst: 8001}}, nil)
	heavy := New(base, Options{CompactAfter: -1})
	var many []graph.Edge
	for v := 128; v < 128+5000; v++ { // rows disjoint from the block's
		many = append(many, graph.Edge{Src: graph.VertexID(v), Dst: graph.VertexID(v + 1)})
	}
	if d := mustApply(t, heavy, many, nil).DeltaEdges(); d < 4900 {
		t.Fatalf("setup: heavy overlay holds %d changes, want ≈ 5000", d)
	}

	const runs = 20
	measure := func(snap *Snapshot) (float64, float64) {
		allocs := testing.AllocsPerRun(runs, func() { buildNext(snap, block, nil) })
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			buildNext(snap, block, nil)
		}
		runtime.ReadMemStats(&after)
		return allocs, float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	la, lb := measure(light.Current())
	ha, hb := measure(heavy.Current())
	t.Logf("64-edge block: %.0f allocs / %.0f B on a 1-row overlay, %.0f allocs / %.0f B on a 5000-row overlay", la, lb, ha, hb)
	if math.Abs(ha-la) > 4 {
		t.Fatalf("allocations depend on overlay size: %.0f vs %.0f", la, ha)
	}
	if pageTables := float64(2 * 8 * (n / 16)); math.Abs(hb-lb) > pageTables {
		t.Fatalf("bytes depend on overlay size: %.0f vs %.0f (slack %.0f)", lb, hb, pageTables)
	}
}

// FuzzOverlay holds every epoch of an arbitrary update stream to a
// from-scratch rebuild of the live edge set, in both directions. Vertex
// ids run below 100 from a 20-vertex base, so the stream grows the
// graph across several 16-row pages; compactions let it restart from a
// fresh base mid-stream.
func FuzzOverlay(f *testing.F) {
	f.Add([]byte{0, 3, 0, 1, 0, 2, 0, 3})                                  // empty row 0
	f.Add([]byte{4, 1, 15, 31, 31, 32, 32, 15, 16, 32, 16, 15})            // page boundaries
	f.Add([]byte{1, 0, 99, 15, 2, 1, 16, 99, 31, 16, 99, 15})              // growth to the last page
	f.Add([]byte{1, 1, 15, 16, 15, 16, 0, 2, 16, 15, 15, 16, 1, 1, 5, 31}) // delete+add, then empty
	f.Fuzz(func(t *testing.T, data []byte) {
		baseEdges := []graph.Edge{
			{Src: 0, Dst: 1}, {Src: 0, Dst: 2}, {Src: 0, Dst: 3}, {Src: 1, Dst: 2},
			{Src: 15, Dst: 16}, {Src: 16, Dst: 15}, {Src: 19, Dst: 0},
		}
		const baseN = 20
		live := make(map[graph.Edge]bool)
		applyLive(live, baseN, baseEdges, nil)
		s := New(graph.FromEdges(baseN, baseEdges), Options{CompactAfter: 48})
		n := baseN

		// Waves: [nAdds%8, nDels%8, then 2 bytes per edge, ids mod 100].
		edge := func() graph.Edge {
			e := graph.Edge{Src: graph.VertexID(data[0] % 100), Dst: graph.VertexID(data[1] % 100)}
			data = data[2:]
			return e
		}
		for waves := 0; len(data) >= 2 && waves < 32; waves++ {
			na, nd := int(data[0]%8), int(data[1]%8)
			data = data[2:]
			var adds, dels []graph.Edge
			for i := 0; i < na && len(data) >= 2; i++ {
				adds = append(adds, edge())
			}
			for i := 0; i < nd && len(data) >= 2; i++ {
				dels = append(dels, edge())
			}
			n = applyLive(live, n, adds, dels)
			snap := mustApply(t, s, adds, dels)
			want := graph.FromEdges(n, liveEdges(live))
			requireEqual(t, "epoch", snap.Graph(), want)
			requireEqual(t, "epoch (reverse)", snap.Reverse(), want.Reverse())
		}
	})
}
