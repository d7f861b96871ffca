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
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/hcindex"
	"repro/internal/pathenum"
	"repro/internal/pathjoin"
	"repro/internal/query"
	"repro/internal/timing"
)

// GroupEngine selects how one sharing group of a batch is processed.
type GroupEngine int

const (
	// GroupAuto defers to the run's Algorithm: the sharing pipeline for
	// the BatchEnum engines. A nil planner behaves as all-GroupAuto.
	GroupAuto GroupEngine = iota
	// GroupSingle processes each query of the group independently with
	// PathEnum over the shared index — no detection, no Ψ graph. The
	// right choice when the group's queries overlap too little for
	// sharing to pay for its fixed costs.
	GroupSingle
	// GroupShared runs the full Ψ-DFS pipeline (detect dominating HC-s
	// path queries, enumerate Ψ in topological order, splice from the
	// result cache) — Algorithm 4's group processing.
	GroupShared
	// GroupSpliceParallel is GroupShared with the per-query join phase
	// fanned out across goroutines: detection and Ψ enumeration stay
	// sequential (they share the result cache), but each member query's
	// half-join is independent once the stores are materialised. Only
	// a fanned run (Options.Workers > 1) honours it; an inline run
	// processes it as GroupShared (one goroutine may not split a
	// non-concurrency-safe sink).
	GroupSpliceParallel
)

// String implements fmt.Stringer.
func (e GroupEngine) String() string {
	switch e {
	case GroupAuto:
		return "auto"
	case GroupSingle:
		return "single"
	case GroupShared:
		return "shared"
	case GroupSpliceParallel:
		return "splice-parallel"
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
	// SingleGroups, SharedGroups and SpliceGroups count the groups
	// dispatched to each engine. Without a planner every group of a
	// sharing run counts as SharedGroups.
	SingleGroups, SharedGroups, SpliceGroups int64
	// SingleNanos, SharedNanos and SpliceNanos sum the per-group
	// processing wall time per engine.
	SingleNanos, SharedNanos, SpliceNanos int64
}

// Add accumulates o into p.
func (p *PlanStats) Add(o PlanStats) {
	p.SingleGroups += o.SingleGroups
	p.SharedGroups += o.SharedGroups
	p.SpliceGroups += o.SpliceGroups
	p.SingleNanos += o.SingleNanos
	p.SharedNanos += o.SharedNanos
	p.SpliceNanos += o.SpliceNanos
}

// record books one processed group under its engine.
func (p *PlanStats) record(e GroupEngine, nanos int64) {
	switch e {
	case GroupSingle:
		p.SingleGroups++
		p.SingleNanos += nanos
	case GroupSpliceParallel:
		p.SpliceGroups++
		p.SpliceNanos += nanos
	default:
		p.SharedGroups++
		p.SharedNanos += nanos
	}
}

// planGroup resolves the engine for one sharing group: the planner's
// answer when one is configured, GroupShared otherwise (and for
// GroupAuto).
func planGroup(g, gr *graph.Graph, qs []query.Query, idx *hcindex.Index, group []int, opts Options) GroupEngine {
	if opts.Planner == nil {
		return GroupShared
	}
	e := opts.Planner.PlanGroup(g, gr, idx, qs, group)
	if e == GroupAuto {
		return GroupShared
	}
	return e
}

// runGroup processes one group of the batch. A Basic engine's group is
// a single query answered standalone — Algorithm 1 has no clusters to
// plan or book. A sharing group is dispatched to the engine planGroup
// picks, timed, booked into st, and fed back to the planner. fan
// carries a fanned run's join budget for GroupSpliceParallel; a nil
// fan (an inline run) processes such groups as GroupShared.
func runGroup(g, gr *graph.Graph, qs []query.Query, idx *hcindex.Index, group []int, opts Options, ctrl *query.Control, sink query.Sink, st *Stats, fan *joinFanout) {
	if !opts.Algorithm.Shared() {
		processGroupSingle(g, gr, qs, idx, group, opts, ctrl, sink, st)
		return
	}
	e := planGroup(g, gr, qs, idx, group, opts)
	if e == GroupSpliceParallel && fan == nil {
		e = GroupShared // inline run: no fan-out to run the plan on
	}
	t0 := time.Now()
	switch e {
	case GroupSingle:
		processGroupSingle(g, gr, qs, idx, group, opts, ctrl, sink, st)
	case GroupSpliceParallel:
		processGroup(g, gr, qs, idx, group, opts, ctrl, sink, st, fan)
	default:
		processGroup(g, gr, qs, idx, group, opts, ctrl, sink, st, nil)
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

// joinFanout carries what the parallel-splice join phase needs to emit
// safely from several goroutines: the run's merge sink (each join
// goroutine buffers privately and drains into it) and a semaphore
// shared by every splice group of the run, so concurrent splice groups
// together never run more CPU-bound join goroutines than the run's
// worker budget — without it, W group workers each fanning out W ways
// would oversubscribe the machine quadratically.
type joinFanout struct {
	ms  *mergeSink
	sem chan struct{}
}

// joinParallel fans the group's per-query joins out across goroutines,
// each gated by the run-wide semaphore. Detection and Ψ enumeration
// have already run on the calling worker; at this point the half
// stores and hash indexes are immutable, each join touches only its
// own query's Control state (single-owner discipline holds per query),
// and emissions go through per-goroutine buffers into the merge sink.
func (fan *joinFanout) joinParallel(live []int, qs []query.Query, fwdStores, bwdStores []*pathjoin.Store, indexes map[*pathjoin.Store]*pathjoin.HashIndex, backHeavy []bool, ctrl *query.Control) {
	var wg sync.WaitGroup
	for i := range live {
		if ctrl.Cancelled() {
			break
		}
		fan.sem <- struct{}{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-fan.sem }()
			if ctrl.Cancelled() {
				return
			}
			q := qs[live[i]]
			id := q.ID
			out := &workerSink{ms: fan.ms}
			pathjoin.JoinHalvesIndexed(fwdStores[i], indexes[bwdStores[i]], q.K, backHeavy[i], ctrl, id,
				func(p []graph.VertexID) { out.Emit(id, p) })
			if !ctrl.Cancelled() {
				ctrl.MarkComplete(id)
			}
			out.flush()
		}(i)
	}
	wg.Wait()
}
