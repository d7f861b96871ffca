package store

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// mustApply applies an update batch, failing the test on error (an
// in-memory store never errors; durable stores only on WAL I/O).
func mustApply(t *testing.T, s *Store, adds, dels []graph.Edge) *Snapshot {
	t.Helper()
	snap, err := s.ApplyUpdates(adds, dels)
	if err != nil {
		t.Fatalf("ApplyUpdates: %v", err)
	}
	return snap
}

// edgeSet collects a graph's edges into a comparable map.
func edgeSet(g *graph.Graph) map[graph.Edge]bool {
	set := make(map[graph.Edge]bool)
	g.Edges(func(src, dst graph.VertexID) bool {
		set[graph.Edge{Src: src, Dst: dst}] = true
		return true
	})
	return set
}

// requireEqual asserts that got presents exactly the edges of want (a
// from-scratch rebuild) with matching counts and a valid structure.
func requireEqual(t *testing.T, label string, got, want *graph.Graph) {
	t.Helper()
	if err := got.Validate(); err != nil {
		t.Fatalf("%s: invalid graph: %v", label, err)
	}
	if got.NumVertices() != want.NumVertices() {
		t.Fatalf("%s: n=%d, want %d", label, got.NumVertices(), want.NumVertices())
	}
	if got.NumEdges() != want.NumEdges() {
		t.Fatalf("%s: m=%d, want %d", label, got.NumEdges(), want.NumEdges())
	}
	gs, ws := edgeSet(got), edgeSet(want)
	for e := range ws {
		if !gs[e] {
			t.Fatalf("%s: missing edge %v", label, e)
		}
	}
	for e := range gs {
		if !ws[e] {
			t.Fatalf("%s: extra edge %v", label, e)
		}
	}
}

func TestApplyUpdatesAddDelete(t *testing.T) {
	base := graph.FromEdges(4, []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3}})
	s := New(base, Options{CompactAfter: -1})

	snap := mustApply(t, s, []graph.Edge{{Src: 0, Dst: 2}, {Src: 3, Dst: 0}}, nil)
	if snap.Epoch() != 1 {
		t.Fatalf("epoch = %d, want 1", snap.Epoch())
	}
	want := graph.FromEdges(4, []graph.Edge{
		{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3}, {Src: 0, Dst: 2}, {Src: 3, Dst: 0}})
	requireEqual(t, "after adds", snap.Graph(), want)
	requireEqual(t, "after adds (reverse)", snap.Reverse(), want.Reverse())

	snap = mustApply(t, s, nil, []graph.Edge{{Src: 1, Dst: 2}})
	if snap.Epoch() != 2 {
		t.Fatalf("epoch = %d, want 2", snap.Epoch())
	}
	want = graph.FromEdges(4, []graph.Edge{
		{Src: 0, Dst: 1}, {Src: 2, Dst: 3}, {Src: 0, Dst: 2}, {Src: 3, Dst: 0}})
	requireEqual(t, "after delete", snap.Graph(), want)
	requireEqual(t, "after delete (reverse)", snap.Reverse(), want.Reverse())

	if !snap.HasEdge(0, 2) || snap.HasEdge(1, 2) {
		t.Fatal("HasEdge does not reflect the delta")
	}
	if d := snap.OutDegree(0); d != 2 {
		t.Fatalf("OutDegree(0) = %d, want 2", d)
	}
}

func TestApplyUpdatesNoOpKeepsEpoch(t *testing.T) {
	base := graph.FromEdges(3, []graph.Edge{{Src: 0, Dst: 1}})
	s := New(base, Options{CompactAfter: -1})
	before := s.Current()

	// Adding a present edge, deleting an absent one, self-loops: no-ops.
	snap := mustApply(t, s,
		[]graph.Edge{{Src: 0, Dst: 1}, {Src: 2, Dst: 2}},
		[]graph.Edge{{Src: 1, Dst: 2}, {Src: 9, Dst: 1}})
	if snap != before {
		t.Fatalf("no-op update published epoch %d", snap.Epoch())
	}
}

func TestApplyUpdatesDeleteThenAddSameEdge(t *testing.T) {
	base := graph.FromEdges(3, []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}})
	s := New(base, Options{CompactAfter: -1})
	// Deletions apply first, so the edge survives; the row is unchanged
	// and the whole update is a no-op.
	snap := mustApply(t, s, []graph.Edge{{Src: 0, Dst: 1}}, []graph.Edge{{Src: 0, Dst: 1}}) //nolint
	if snap.Epoch() != 0 {
		t.Fatalf("del+add of same present edge bumped epoch to %d", snap.Epoch())
	}
}

func TestVertexGrowth(t *testing.T) {
	base := graph.FromEdges(2, []graph.Edge{{Src: 0, Dst: 1}})
	s := New(base, Options{CompactAfter: -1})
	snap := mustApply(t, s, []graph.Edge{{Src: 1, Dst: 5}, {Src: 5, Dst: 0}}, nil)
	if snap.NumVertices() != 6 {
		t.Fatalf("n = %d, want 6", snap.NumVertices())
	}
	want := graph.FromEdges(6, []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 5}, {Src: 5, Dst: 0}})
	requireEqual(t, "grown", snap.Graph(), want)
	requireEqual(t, "grown (reverse)", snap.Reverse(), want.Reverse())
	if got := snap.OutNeighbors(3); len(got) != 0 {
		t.Fatalf("grown vertex 3 has neighbours %v", got)
	}
}

func TestCompactionEquivalence(t *testing.T) {
	base := graph.FromEdges(5, []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3}, {Src: 3, Dst: 4}})
	s := New(base, Options{CompactAfter: 2})

	snap := mustApply(t, s, []graph.Edge{{Src: 0, Dst: 4}, {Src: 4, Dst: 0}}, []graph.Edge{{Src: 1, Dst: 2}})
	if snap.Graph().IsOverlay() {
		t.Fatal("threshold crossed but snapshot still an overlay")
	}
	if got := s.Stats().Compactions; got != 1 {
		t.Fatalf("compactions = %d, want 1", got)
	}
	want := graph.FromEdges(5, []graph.Edge{
		{Src: 0, Dst: 1}, {Src: 2, Dst: 3}, {Src: 3, Dst: 4}, {Src: 0, Dst: 4}, {Src: 4, Dst: 0}})
	requireEqual(t, "compacted", snap.Graph(), want)
	requireEqual(t, "compacted (reverse)", snap.Reverse(), want.Reverse())
	if snap.DeltaEdges() != 0 {
		t.Fatalf("delta after compaction = %d", snap.DeltaEdges())
	}

	// Updates keep working on the fresh base.
	snap = mustApply(t, s, []graph.Edge{{Src: 1, Dst: 3}}, nil)
	if !snap.HasEdge(1, 3) {
		t.Fatal("post-compaction update lost")
	}
}

// TestBurstCompactsInline drives back-to-back update blocks across the
// default threshold several times and checks that every crossing folds
// before ApplyUpdates returns: no returned snapshot carries a delta at or
// past the threshold, and the fold count equals the crossings.
func TestBurstCompactsInline(t *testing.T) {
	const n, block = 1000, 500
	rng := rand.New(rand.NewSource(3))
	s := New(graph.FromEdges(n, nil), Options{})
	live := make(map[graph.Edge]bool)
	var queue []graph.Edge // live edges, oldest first

	delta, crossings := 0, 0
	for b := 0; b < 24; b++ {
		// Fresh absent edges and the oldest live ones: every edge in the
		// block is an effective change, so the delta is known exactly.
		var adds []graph.Edge
		for len(adds) < block {
			e := graph.Edge{Src: graph.VertexID(rng.Intn(n)), Dst: graph.VertexID(rng.Intn(n))}
			if e.Src != e.Dst && !live[e] {
				live[e] = true
				adds = append(adds, e)
			}
		}
		var dels []graph.Edge
		if len(queue) >= block {
			dels, queue = queue[:block], queue[block:]
			for _, e := range dels {
				delete(live, e)
			}
		}
		queue = append(queue, adds...)

		snap := mustApply(t, s, adds, dels)
		if delta += len(adds) + len(dels); delta >= MinCompactEdges {
			delta = 0
			crossings++
		}
		if got := snap.DeltaEdges(); got != delta || got >= MinCompactEdges {
			t.Fatalf("block %d: DeltaEdges = %d, want %d (< %d)", b, got, delta, MinCompactEdges)
		}
	}
	if crossings < 3 {
		t.Fatalf("setup: only %d threshold crossings", crossings)
	}
	if got := s.Stats().Compactions; got != int64(crossings) {
		t.Fatalf("compactions = %d, want %d", got, crossings)
	}
}

// TestRandomizedDifferential drives a random add/delete sequence
// (including forced compactions) and checks every epoch against a
// from-scratch rebuild of the surviving edge set, both directions.
func TestRandomizedDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 12
	live := make(map[graph.Edge]bool)
	var edges []graph.Edge
	for i := 0; i < 20; i++ {
		e := graph.Edge{Src: graph.VertexID(rng.Intn(n)), Dst: graph.VertexID(rng.Intn(n))}
		if e.Src == e.Dst || live[e] {
			continue
		}
		live[e] = true
		edges = append(edges, e)
	}
	s := New(graph.FromEdges(n, edges), Options{CompactAfter: 15})

	for step := 0; step < 60; step++ {
		var adds, dels []graph.Edge
		for i := 0; i < 1+rng.Intn(4); i++ {
			e := graph.Edge{Src: graph.VertexID(rng.Intn(n)), Dst: graph.VertexID(rng.Intn(n))}
			if rng.Intn(2) == 0 {
				adds = append(adds, e)
			} else {
				dels = append(dels, e)
			}
		}
		for _, e := range dels {
			delete(live, e)
		}
		for _, e := range adds {
			if e.Src != e.Dst {
				live[e] = true
			}
		}
		snap := mustApply(t, s, adds, dels)

		var all []graph.Edge
		for e := range live {
			all = append(all, e)
		}
		want := graph.FromEdges(n, all)
		requireEqual(t, "step", snap.Graph(), want)
		requireEqual(t, "step (reverse)", snap.Reverse(), want.Reverse())
	}
	if s.Stats().Compactions == 0 {
		t.Fatal("randomized run never compacted; raise steps or lower threshold")
	}
}

// TestSnapshotIsolation verifies old snapshots survive later updates
// and compactions untouched.
func TestSnapshotIsolation(t *testing.T) {
	s := New(graph.FromEdges(3, []graph.Edge{{Src: 0, Dst: 1}}), Options{CompactAfter: 1})
	s0 := s.Current()
	s1 := mustApply(t, s, []graph.Edge{{Src: 1, Dst: 2}}, nil)
	s2 := mustApply(t, s, nil, []graph.Edge{{Src: 0, Dst: 1}})

	if s0.HasEdge(1, 2) || !s0.HasEdge(0, 1) {
		t.Fatal("epoch 0 mutated")
	}
	if !s1.HasEdge(1, 2) || !s1.HasEdge(0, 1) {
		t.Fatal("epoch 1 mutated")
	}
	if s2.HasEdge(0, 1) || !s2.HasEdge(1, 2) {
		t.Fatal("epoch 2 wrong")
	}
}

// TestCompactFoldsNetZeroOverlay pins Compact's predicate: a snapshot
// can carry live overlay rows whose effective delta nets out to zero
// (adds and deletes that cancelled row-by-row over time). Keying off
// deltaEdges == 0 would skip such a snapshot forever; the fold must key
// off whether there is an overlay.
func TestCompactFoldsNetZeroOverlay(t *testing.T) {
	base := graph.FromEdges(3, []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}})
	s := New(base, Options{CompactAfter: -1})
	cur := s.Current()

	// Install the pathological state directly: overlay rows identical in
	// content to the base (zero net delta) but structurally live.
	s.cur.Store(&Snapshot{
		epoch:      cur.epoch + 1,
		g:          graph.Overlay(cur.g, 3, 2, []graph.Row{{V: 0, Nbrs: []graph.VertexID{1}}}),
		gr:         graph.Overlay(cur.gr, 3, 2, []graph.Row{{V: 1, Nbrs: []graph.VertexID{0}}}),
		base:       cur.base,
		baseR:      cur.baseR,
		deltaEdges: 0,
	})
	if !s.Current().Graph().IsOverlay() {
		t.Fatal("setup: snapshot is not an overlay")
	}

	snap, err := s.Compact()
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if snap != s.Current() || snap.Graph().IsOverlay() {
		t.Fatal("Compact skipped a live overlay with a net-zero delta")
	}
	if snap.Epoch() != cur.epoch+2 {
		t.Fatalf("epoch = %d, want %d", snap.Epoch(), cur.epoch+2)
	}
	requireEqual(t, "folded", snap.Graph(), base)
	requireEqual(t, "folded (reverse)", snap.Reverse(), base.Reverse())
}

// TestDeltaCountsBackwardDivergence is the regression test for
// forward-only delta accounting: when the backward direction changes
// more rows than the forward one, deltaEdges, UpdatesApplied, and the
// compaction trigger must all see the larger count. The divergent state
// is installed directly (the public API maintains both directions
// symmetrically, so only corruption or future asymmetric paths reach
// it) — the accounting must stay correct either way.
func TestDeltaCountsBackwardDivergence(t *testing.T) {
	// Forward graph empty; reverse graph alone knows edge 0→1.
	g := graph.FromEdges(2, nil)
	gr := graph.FromEdges(2, []graph.Edge{{Src: 1, Dst: 0}})
	s := &Store{opts: Options{CompactAfter: -1}}
	s.cur.Store(&Snapshot{g: g, gr: gr, base: g, baseR: gr})

	// Deleting 0→1 is a no-op forward (changedF = 0) but removes a
	// backward entry (changedB = 1).
	snap, err := s.ApplyUpdates(nil, []graph.Edge{{Src: 0, Dst: 1}})
	if err != nil {
		t.Fatalf("ApplyUpdates: %v", err)
	}
	if snap.Epoch() != 1 {
		t.Fatalf("epoch = %d, want 1 (backward-only change must publish)", snap.Epoch())
	}
	if got := snap.DeltaEdges(); got != 1 {
		t.Fatalf("DeltaEdges = %d, want 1 (backward divergence undercounted)", got)
	}
	if got := s.Stats().UpdatesApplied; got != 1 {
		t.Fatalf("UpdatesApplied = %d, want 1", got)
	}
	if got := s.Stats().DeltaEdges; got != 1 {
		t.Fatalf("Stats.DeltaEdges = %d, want 1", got)
	}
}

// TestCompactionTriggerAtThreshold pins the documented CompactAfter
// semantics: the fold runs on the exact update whose cumulative
// effective delta reaches the threshold, not before and not later.
func TestCompactionTriggerAtThreshold(t *testing.T) {
	s := New(graph.FromEdges(4, nil), Options{CompactAfter: 3})

	mustApply(t, s, []graph.Edge{{Src: 0, Dst: 1}}, nil) // delta 1
	mustApply(t, s, []graph.Edge{{Src: 1, Dst: 2}}, nil) // delta 2
	if got := s.Stats().Compactions; got != 0 {
		t.Fatalf("compacted %d time(s) below the threshold", got)
	}
	snap := mustApply(t, s, []graph.Edge{{Src: 2, Dst: 3}}, nil) // delta 3 = threshold
	if got := s.Stats().Compactions; got != 1 {
		t.Fatalf("compactions = %d at the threshold, want 1", got)
	}
	if snap.Graph().IsOverlay() {
		t.Fatal("snapshot returned after a compaction is still an overlay")
	}
	if snap.DeltaEdges() != 0 {
		t.Fatalf("delta after compaction = %d", snap.DeltaEdges())
	}

	// The trigger counts the larger direction: a backward-heavier update
	// exerts the same pressure.
	mustApply(t, s, []graph.Edge{{Src: 0, Dst: 2}, {Src: 1, Dst: 3}, {Src: 3, Dst: 0}}, nil)
	if got := s.Stats().Compactions; got != 2 {
		t.Fatalf("compactions = %d after second threshold crossing, want 2", got)
	}
}
