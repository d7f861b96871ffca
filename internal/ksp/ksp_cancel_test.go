package ksp

import (
	"context"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/query"
	"repro/internal/testgraphs"
)

// cancelledControl builds a Control whose context is already cancelled,
// so the run must stop at its first poll.
func cancelledControl(n int) *query.Control {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return query.NewControl(ctx, time.Time{}, 0, n)
}

// TestDkSPCancelledPreemptsBFS: cancellation must interrupt the spur
// BFS itself, not just the deviation loop around it. On a long chain
// with an unreachable target the whole run is one BFS; before the BFS
// polled the Control, a pre-cancelled run would scan the entire chain,
// find nothing, and return true — claiming a deliberate, complete
// enumeration for a run that was cancelled before it started.
func TestDkSPCancelledPreemptsBFS(t *testing.T) {
	const n = 4096 // >> query.PollInterval expansion steps
	b := graph.NewBuilder(n)
	for i := 1; i < n-1; i++ {
		b.AddEdge(graph.VertexID(i), graph.VertexID(i+1))
	}
	g := b.Build() // vertex 0 has no in-edges: unreachable from 1
	q := query.Query{ID: 0, S: 1, T: 0, K: 8}

	ctrl := cancelledControl(1)
	if ok := DkSP(g, q, nil, ctrl, func([]graph.VertexID) {}); ok {
		t.Fatal("DkSP reported a complete run under a cancelled Control")
	}
	if ctrl.QueryErr(q.ID) == nil {
		t.Fatal("cancelled query reports no error")
	}

	// The same run uncancelled is a genuine (empty) completion.
	if ok := DkSP(g, q, nil, nil, func(p []graph.VertexID) {
		t.Fatalf("unexpected path %v", p)
	}); !ok {
		t.Fatal("uncontrolled run failed")
	}
}

// TestOnePassCancelMidRun: cancelling from the emit callback stops the
// label expansion promptly — the run returns false and emits only a
// bounded handful of further paths, instead of enumerating the
// exponential remainder.
func TestOnePassCancelMidRun(t *testing.T) {
	g := testgraphs.CompleteDAG(12) // thousands of HC-s-t paths
	gr := g.Reverse()
	q := query.Query{ID: 0, S: 0, T: 11, K: 10}

	ctx, cancel := context.WithCancel(context.Background())
	ctrl := query.NewControl(ctx, time.Time{}, 0, 1)
	emitted := 0
	ok := OnePass(g, gr, q, nil, ctrl, func([]graph.VertexID) {
		emitted++
		cancel()
	})
	if ok {
		t.Fatal("OnePass reported a complete run after cancellation")
	}
	// One emission triggers the cancel; the latched Poll answer must end
	// the run within a poll interval's worth of expansions, each of which
	// emits at most one path.
	if emitted > query.PollInterval {
		t.Fatalf("emitted %d paths after cancellation; want <= %d", emitted, query.PollInterval)
	}
}
