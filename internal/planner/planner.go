// Package planner implements the adaptive per-group query planner the
// service layer uses to exploit the paper's engine crossover: per-query
// PathEnum beats the batch Ψ-DFS pipeline on small or non-overlapping
// sharing groups (detection and Ψ bookkeeping are pure overhead when
// nothing is shared), while the sharing pipeline wins when Γ-overlap is
// high.
//
// The CostModel scores each group with inputs that are already sitting
// in cache-warm structures when the decision is made — the hop caps and
// endpoint degrees of the group's queries, the sizes of their
// hop-constrained neighbour sets Γ/Γr from the batch's distance index,
// a sampled Γ-overlap estimate (the bit-parallel MS-BFS maps answer
// membership probes in O(1), which is what makes online planning cheap
// enough to run per batch), and the cross-batch index cache's hit
// ratio. Observed per-group wall times feed back into per-engine EWMA
// cost rates, so the thresholds calibrate to the machine and workload
// instead of being hard-coded guesses.
package planner

import (
	"sync"

	"repro/internal/batchenum"
	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/hcindex"
	"repro/internal/query"
)

// Options tunes the cost model. The zero value selects the defaults.
type Options struct {
	// MinSimilarity is the estimated Γ-overlap below which a group runs
	// per-query PathEnum instead of the sharing pipeline; zero means
	// 0.7. The default is deliberately demanding: the Ψ-DFS pipeline's
	// fixed costs (detection, topological bookkeeping, splice indexes)
	// are only reliably recouped by strongly overlapping groups —
	// near-duplicate traffic around hot endpoints — while mid-overlap
	// groups usually run faster as independent PathEnum over the shared
	// index. The effective threshold then adapts around this base as
	// the model observes per-engine costs and the index cache warms up.
	MinSimilarity float64
	// IndexStats, when non-nil, supplies the index provider's lifetime
	// counters; the cache hit ratio shifts the decision threshold (a
	// warm cache makes the batch's fixed index phase cheap, so the
	// sharing pipeline's remaining fixed costs — detection, Ψ
	// bookkeeping — weigh relatively more against its gains).
	IndexStats func() hcindex.Stats
}

func (o Options) minSimilarity() float64 {
	if o.MinSimilarity <= 0 {
		return 0.7
	}
	return o.MinSimilarity
}

const (
	// probePairs bounds the query pairs sampled per group for the
	// overlap estimate. Each probe costs two bounded membership scans
	// over the index's distance maps.
	probePairs = 4
	// alpha is the EWMA weight of the per-engine cost feedback in
	// (0, 1]. Larger values adapt faster and forget faster.
	alpha = 0.3
)

// Decisions snapshots the model's lifetime planning counters.
type Decisions struct {
	// Single and Shared count the groups routed to each engine.
	Single, Shared int64
	// SingleNsPerQuery and SharedNsPerQuery are the current EWMA
	// per-query wall costs observed per engine (zero until the first
	// observation) — the feedback the thresholds calibrate on.
	SingleNsPerQuery, SharedNsPerQuery float64
}

// CostModel is a concurrency-safe batchenum.GroupPlanner. One model
// serves one service (or engine) for its lifetime, accumulating
// feedback across batches.
type CostModel struct {
	opts Options

	mu sync.Mutex
	// ewmaSingle and ewmaShared are the EWMAs of observed per-query
	// nanoseconds per engine.
	ewmaSingle, ewmaShared float64
	dec                    Decisions
}

// New returns a CostModel with the given options.
func New(opts Options) *CostModel { return &CostModel{opts: opts} }

// Decisions returns a snapshot of the model's planning counters.
func (m *CostModel) Decisions() Decisions {
	m.mu.Lock()
	defer m.mu.Unlock()
	d := m.dec
	d.SingleNsPerQuery = m.ewmaSingle
	d.SharedNsPerQuery = m.ewmaShared
	return d
}

// PlanGroup implements batchenum.GroupPlanner. The decision is
// deterministic given the same group, index and accumulated feedback:
// the overlap probes sample fixed pair positions, never random ones.
func (m *CostModel) PlanGroup(g, gr *graph.Graph, idx *hcindex.Index, qs []query.Query, group []int) batchenum.GroupEngine {
	n := len(group)
	if n == 1 {
		// A singleton can share nothing; detection would be pure waste.
		return m.book(batchenum.GroupSingle)
	}

	// Trivially cheap groups go straight to PathEnum before paying for
	// overlap probes: when the whole group's estimated enumeration mass
	// is this small, even free sharing could not recoup the detection
	// and Ψ bookkeeping.
	work := m.groupWork(g, gr, idx, qs, group)
	if work < 64*int64(n) {
		return m.book(batchenum.GroupSingle)
	}

	sim := m.overlapEstimate(idx, group)
	thr := m.opts.minSimilarity()

	// A warm index cache means the batch skipped most of its MS-BFS
	// work, so the sharing pipeline's remaining fixed costs loom larger
	// relative to the whole batch; demand a bit more overlap before
	// paying them. Cold caches leave the threshold alone.
	if m.opts.IndexStats != nil {
		thr *= 1 + 0.5*m.opts.IndexStats().HitRatio()
	}

	// Feedback: if shared groups have been observed costlier per query
	// than single ones, demand more overlap to pick sharing, and vice
	// versa. The ratio is clamped so a few noisy observations cannot
	// swing the plan to one engine permanently (which would also starve
	// the other engine's EWMA of fresh data).
	m.mu.Lock()
	if m.ewmaSingle > 0 && m.ewmaShared > 0 {
		ratio := m.ewmaShared / m.ewmaSingle
		if ratio < 0.5 {
			ratio = 0.5
		} else if ratio > 2 {
			ratio = 2
		}
		thr *= ratio
	}
	m.mu.Unlock()
	if thr > 0.95 {
		thr = 0.95
	}

	if sim < thr {
		return m.book(batchenum.GroupSingle)
	}
	return m.book(batchenum.GroupShared)
}

// book counts a decision under the model's lock.
func (m *CostModel) book(e batchenum.GroupEngine) batchenum.GroupEngine {
	m.mu.Lock()
	if e == batchenum.GroupSingle {
		m.dec.Single++
	} else {
		m.dec.Shared++
	}
	m.mu.Unlock()
	return e
}

// ObserveGroup implements batchenum.GroupPlanner: fold the observed
// per-query cost of a processed group into the engine's EWMA rate.
func (m *CostModel) ObserveGroup(e batchenum.GroupEngine, queries int, nanos int64) {
	if queries <= 0 {
		return
	}
	perQuery := float64(nanos) / float64(queries)
	m.mu.Lock()
	defer m.mu.Unlock()
	if e == batchenum.GroupSingle {
		m.ewmaSingle = ewma(m.ewmaSingle, perQuery)
	} else {
		m.ewmaShared = ewma(m.ewmaShared, perQuery)
	}
}

func ewma(prev, sample float64) float64 {
	if prev == 0 {
		return sample
	}
	return (1-alpha)*prev + alpha*sample
}

// overlapEstimate samples the group's pairwise Γ-overlap µ (Def. 4.5)
// at fixed pair positions: adjacent pairs spread across the group plus
// the (first, last) pair, up to probePairs probes. Clustering already
// guarantees some within-group affinity; the probes measure how much.
func (m *CostModel) overlapEstimate(idx *hcindex.Index, group []int) float64 {
	n := len(group)
	probes := min(probePairs, n-1)
	stride := (n - 1) / probes
	if stride < 1 {
		stride = 1
	}
	sum, cnt := 0.0, 0
	for i := 0; i+1 < n && cnt < probes; i += stride {
		sum += cluster.Similarity(idx, group[i], group[i+1])
		cnt++
	}
	if cnt < probes && n > 2 {
		sum += cluster.Similarity(idx, group[0], group[n-1])
		cnt++
	}
	if cnt == 0 {
		return 0
	}
	return sum / float64(cnt)
}

// groupWork estimates the group's enumeration mass: per query, the
// smaller of its two reach-set sizes scaled by its hop cap (deeper caps
// revisit their frontiers more) plus the endpoint branching degrees
// (the first DFS level each half pays unconditionally) — the cheapest
// defensible proxy for DFS expansions, all from structures the index
// build already materialised.
func (m *CostModel) groupWork(g, gr *graph.Graph, idx *hcindex.Index, qs []query.Query, group []int) int64 {
	var work int64
	for _, qi := range group {
		fdm := idx.DistMapFor(qi, hcindex.Forward)
		bdm := idx.DistMapFor(qi, hcindex.Backward)
		small := fdm.NumVisited()
		if b := bdm.NumVisited(); b < small {
			small = b
		}
		q := qs[qi]
		work += int64(small)*int64(1+int(q.K)/2) +
			int64(g.OutDegree(q.S)) + int64(gr.OutDegree(q.T))
	}
	return work
}
