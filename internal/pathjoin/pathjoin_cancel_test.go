package pathjoin

import (
	"context"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/query"
)

// TestJoinCancelledBoundedByProbes: the join must poll cancellation per
// probe, not per forward path. A handful of forward paths fanning out
// into large backward buckets is exactly the shape where a per-path
// cadence (one check every PollInterval forward paths) never fires: the
// old loop ran a cancelled join to completion, emitting every pair.
func TestJoinCancelledBoundedByProbes(t *testing.T) {
	const (
		nFwd  = 8
		nBwd  = 1000
		meet  = graph.VertexID(1)
		total = nFwd * nBwd
	)
	fwd := NewStore(nFwd, 3*nFwd)
	for j := 0; j < nFwd; j++ {
		fwd.Add([]graph.VertexID{0, graph.VertexID(10 + j), meet})
	}
	bwd := NewStore(nBwd, 3*nBwd)
	for i := 0; i < nBwd; i++ {
		bwd.Add([]graph.VertexID{2, graph.VertexID(5000 + i), meet})
	}
	h := BuildHashIndex(bwd, nil)

	// Sanity: uncancelled, every (forward, backward) pair joins.
	clean := 0
	j := NewJoiner(h, 4, false, nil, []int{0}, EmitFunc(func([]graph.VertexID) { clean++ }))
	j.JoinStore(fwd)
	if clean != total {
		t.Fatalf("uncancelled join emitted %d paths, want %d", clean, total)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ctrl := query.NewControl(ctx, time.Time{}, 0, 1)
	emitted := 0
	j = NewJoiner(h, 4, false, ctrl, []int{0}, EmitFunc(func([]graph.VertexID) { emitted++ }))
	j.JoinStore(fwd)
	if emitted > query.PollInterval {
		t.Fatalf("cancelled join emitted %d of %d paths; want <= %d (one poll interval)",
			emitted, total, query.PollInterval)
	}
}
