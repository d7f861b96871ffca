// Per-group engine selection. The paper's evaluation shows there is no
// single best engine: per-query PathEnum wins on small or
// non-overlapping batches (the detection and Ψ machinery is pure
// overhead when nothing is shared), while the Ψ-DFS sharing pipeline
// wins when Γ-overlap is high. A GroupPlanner threads that crossover
// into the engines: after clustering, each sharing group is dispatched
// to the engine the planner picks for it, and the observed per-group
// cost is fed back so the model can calibrate online. The mechanism
// lives here; the cost-model policy lives in internal/planner.
package batchenum

import (
	"fmt"
	"time"

	"repro/internal/graph"
	"repro/internal/hcindex"
	"repro/internal/pathenum"
	"repro/internal/query"
	"repro/internal/timing"
)

// GroupEngine selects how one sharing group of a batch is processed.
type GroupEngine int

const (
	// GroupSingle processes each query of the group independently with
	// PathEnum over the shared index — no detection, no Ψ graph. The
	// right choice when the group's queries overlap too little for
	// sharing to pay for its fixed costs.
	GroupSingle GroupEngine = iota
	// GroupShared runs the full Ψ-DFS pipeline (detect dominating HC-s
	// path queries, enumerate Ψ in topological order, splice from the
	// result cache) — Algorithm 4's group processing, and what every
	// group gets when no planner is configured.
	GroupShared
)

// String implements fmt.Stringer.
func (e GroupEngine) String() string {
	switch e {
	case GroupSingle:
		return "single"
	case GroupShared:
		return "shared"
	}
	return fmt.Sprintf("GroupEngine(%d)", int(e))
}

// GroupPlanner picks the engine for each sharing group of a batch and
// receives the observed cost afterwards. Implementations must be safe
// for concurrent use: a fanned run plans and observes groups from
// multiple workers. The planner only steers the sharing engines
// (Batch/BatchPlus); the Basic engines have no groups to plan.
type GroupPlanner interface {
	// PlanGroup returns the engine for one sharing group. group holds
	// positions into qs; idx is the batch's acquired distance index.
	PlanGroup(g, gr *graph.Graph, idx *hcindex.Index, qs []query.Query, group []int) GroupEngine
	// ObserveGroup reports the wall-clock cost of a processed group so
	// the planner can calibrate its model online.
	ObserveGroup(e GroupEngine, queries int, nanos int64)
}

// PlanStats aggregates per-engine group counts and wall-clock time of
// one run — the planner's observable output, threaded up through the
// service so operators (and the model itself) can see where batches
// went.
type PlanStats struct {
	// SingleGroups and SharedGroups count the groups dispatched to each
	// engine. Without a planner every group of a sharing run counts as
	// SharedGroups.
	SingleGroups, SharedGroups int64
	// SingleNanos and SharedNanos sum the per-group processing wall
	// time per engine.
	SingleNanos, SharedNanos int64
}

// Add accumulates o into p.
func (p *PlanStats) Add(o PlanStats) {
	p.SingleGroups += o.SingleGroups
	p.SharedGroups += o.SharedGroups
	p.SingleNanos += o.SingleNanos
	p.SharedNanos += o.SharedNanos
}

// record books one processed group under its engine.
func (p *PlanStats) record(e GroupEngine, nanos int64) {
	if e == GroupSingle {
		p.SingleGroups++
		p.SingleNanos += nanos
	} else {
		p.SharedGroups++
		p.SharedNanos += nanos
	}
}

// runGroup processes one group of the batch. A Basic engine's group is
// a single query answered standalone — Algorithm 1 has no clusters to
// plan or book. A sharing group is dispatched to the engine the planner
// picks (the sharing pipeline without one), timed, booked into st, and
// fed back to the planner.
func runGroup(g, gr *graph.Graph, qs []query.Query, idx *hcindex.Index, group []int, opts Options, ctrl *query.Control, sink query.Sink, st *Stats) {
	if !opts.Algorithm.Shared() {
		processGroupSingle(g, gr, qs, idx, group, opts, ctrl, sink, st)
		return
	}
	e := GroupShared
	if opts.Planner != nil {
		e = opts.Planner.PlanGroup(g, gr, idx, qs, group)
	}
	t0 := time.Now()
	if e == GroupSingle {
		processGroupSingle(g, gr, qs, idx, group, opts, ctrl, sink, st)
	} else {
		processGroup(g, gr, qs, idx, group, opts, ctrl, sink, st)
	}
	nanos := time.Since(t0).Nanoseconds()
	st.Plan.record(e, nanos)
	if opts.Planner != nil {
		opts.Planner.ObserveGroup(e, len(group), nanos)
	}
}

// processGroupSingle answers every query of the group independently with
// PathEnum over the already-built shared index — Algorithm 1 scoped to
// one group. Result sets are identical to the sharing pipeline's: both
// enumerate exactly P(q) per query, they only differ in how much work
// they share getting there.
func processGroupSingle(g, gr *graph.Graph, qs []query.Query, idx *hcindex.Index, group []int, opts Options, ctrl *query.Control, sink query.Sink, st *Stats) {
	defer st.Phases.Start(timing.Enumeration)()
	penum := pathenum.Options{Optimized: opts.Algorithm.Optimized()}
	for _, qi := range group {
		if ctrl.Cancelled() {
			return
		}
		q := qs[qi]
		id := q.ID
		pathenum.EnumerateControlled(g, gr, q,
			idx.DistMapFor(qi, hcindex.Forward), idx.DistMapFor(qi, hcindex.Backward),
			penum, ctrl,
			func(p []graph.VertexID) { sink.Emit(id, p) })
	}
}
