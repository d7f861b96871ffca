// Package pathenum implements the state-of-the-art single-query HC-s-t
// path enumerator PathEnum (Sun et al., SIGMOD'21) as described in §III
// of the paper: a bidirectional DFS — forward from s on G with budget
// ⌈k/2⌉, backward from t on Gr with budget ⌊k/2⌋ — whose expansions are
// pruned with the hop-bounded distance index (Lemma 3.1), followed by the
// ⊕ concatenation of the two halves.
//
// Two search orders are provided. The plain order expands neighbours as
// stored. The optimised order (the "+" variants of the paper's
// evaluation) additionally (i) picks a cost-balanced cut point using the
// index's BFS level sizes instead of always ⌈k/2⌉, and (ii) expands
// neighbours in ascending residual-distance order so that doomed branches
// are pruned before promising ones are explored.
//
// The specification — an index-free bounded DFS — lives in
// internal/oracle; every test in the repository differentially checks
// against it.
package pathenum

import (
	"repro/internal/graph"
	"repro/internal/msbfs"
	"repro/internal/pathjoin"
	"repro/internal/query"
	"repro/internal/scratch"
)

// Options selects the search-order variant.
type Options struct {
	// Optimized enables the cost-balanced cut point and ordered
	// expansion of the "+" algorithms.
	Optimized bool
}

// Enumerate runs PathEnum for a single query using the prebuilt index
// entries fwd (distances from q.S on G) and bwd (distances from q.T on
// Gr), emitting every HC-s-t path exactly once. The emitted slice is
// reused and must be copied to be retained.
func Enumerate(g, gr *graph.Graph, q query.Query, fwd, bwd *msbfs.DistMap, opts Options, emit func(path []graph.VertexID)) {
	EnumerateControlled(g, gr, q, []int{q.ID}, fwd, bwd, opts, nil, pathjoin.EmitFunc(emit))
}

// EnumerateControlled is Enumerate under a query.Control: the half
// DFSes poll for cancellation every query.PollInterval expansions and
// the join honours the per-query emission limit, so a cancelled or
// satisfied query unwinds promptly with whatever it has emitted. ids is
// the class q answers, q.ID first — q.ID alone, unless the caller knows
// other queries with q's answer, as a batch engine knows q's copies —
// in a slice the caller keeps.
// Paths go to sink with ids, so a batch engine hands its own sink down
// with no per-query adapter, and every member's completion is recorded
// on ctrl unless the run was cancelled mid-flight; a nil ctrl
// reproduces Enumerate exactly.
//
// Only the backward half is stored: it is collected and indexed first,
// then the forward DFS joins each prefix as it yields it, which is the
// order a stored forward half would be joined in. A limit hit or a
// cancellation stops the forward DFS with the join.
func EnumerateControlled(g, gr *graph.Graph, q query.Query, ids []int, fwd, bwd *msbfs.DistMap, opts Options, ctrl *query.Control, sink query.Sink) {
	if bwd.Dist(q.S) > q.K { // t unreachable within k hops: empty result
		markComplete(ctrl, ids)
		return
	}
	fb, bb := q.FwdBudget(), q.BwdBudget()
	if opts.Optimized {
		fb, bb = BalancedCut(q, fwd, bwd)
	}
	bwdPaths := pathjoin.NewStore(64, 256)
	CollectHalf(gr, q.T, bb, q.K, fwd, opts, ctrl, bwdPaths)
	if ctrl.Cancelled() {
		return // a partial backward half must not reach the join
	}
	j := pathjoin.NewJoiner(pathjoin.BuildHashIndex(bwdPaths), q.K, fb < bb, ctrl, ids, sink)
	walkHalf(g, q.S, fb, q.K, bwd, opts, ctrl, j.Join)
	if !ctrl.Cancelled() {
		markComplete(ctrl, ids)
	}
}

// markComplete records every query of ids as answered in full.
func markComplete(ctrl *query.Control, ids []int) {
	for _, id := range ids {
		ctrl.MarkComplete(id)
	}
}

// BalancedCut picks forward/backward budgets (a, b) with a+b = k
// minimising the imbalance of estimated partial-path counts, which the
// index's per-level reach sizes approximate. It mirrors PathEnum's
// cost-based preference for growing the cheaper side deeper. The unique
// split rule of pathjoin requires a ∈ {⌈k/2⌉, ⌊k/2⌋} to stay correct for
// all result lengths, so the choice is between the two balanced cuts
// (for even k they coincide).
func BalancedCut(q query.Query, fwd, bwd *msbfs.DistMap) (a, b uint8) {
	hi, lo := q.FwdBudget(), q.BwdBudget()
	if hi == lo {
		return hi, lo
	}
	// Give the extra hop to the side whose frontier grows slower.
	fGrow := levelCount(fwd, hi)
	bGrow := levelCount(bwd, hi)
	if bGrow < fGrow {
		return lo, hi
	}
	return hi, lo
}

// levelCount counts vertices at exactly distance d in dm.
func levelCount(dm *msbfs.DistMap, d uint8) int {
	c := 0
	for _, v := range dm.Visited() {
		if dm.Dist(v) == d {
			c++
		}
	}
	return c
}

// CollectHalf performs the pruned DFS of Algorithm 1's Search procedure
// for one side of the bidirectional search: it records into out every
// simple partial path rooted at root with at most budget hops,
// expanding only neighbours w with |p| + dist(w, other-endpoint) < k
// (Lemma 3.1). other is the hop-bounded distance map of the query's
// opposite endpoint in the opposite direction (dist over Gr from t for
// a forward half on G; dist over G from s for a backward half on Gr).
// The two stores it fills are exactly what pathjoin.JoinHalves
// consumes. The DFS polls ctrl every query.PollInterval expansions and
// unwinds as soon as the run is cancelled.
func CollectHalf(g *graph.Graph, root graph.VertexID, budget, k uint8, other *msbfs.DistMap, opts Options, ctrl *query.Control, out *pathjoin.Store) {
	walkHalf(g, root, budget, k, other, opts, ctrl, func(p []graph.VertexID) bool {
		out.Add(p)
		return true
	})
}

// walkHalf is CollectHalf's DFS with the recording left to visit, which
// sees every partial path in DFS order (the slice is reused) and stops
// the walk by returning false.
func walkHalf(g *graph.Graph, root graph.VertexID, budget, k uint8, other *msbfs.DistMap, opts Options, ctrl *query.Control, visit func(p []graph.VertexID) bool) {
	path := make([]graph.VertexID, 1, int(budget)+1)
	path[0] = root
	// Dense on-path membership: one bool per vertex beats a hash map in
	// the expansion loop, and push/pop keeps it clean without clearing —
	// which is also what lets the array come from the shared pool.
	sc := scratch.Get(g.NumVertices())
	onPath := sc.OnPath
	onPath[root] = true
	// Per-depth scratch buffers: each recursion level sorts into its own
	// slice so deeper levels cannot clobber a list the parent is still
	// iterating.
	ordered := make([][]graph.VertexID, int(budget)+1)
	steps := 0
	stopped := false
	var rec func()
	rec = func() {
		if ctrl.Poll(&steps, &stopped) {
			return
		}
		if !visit(path) {
			stopped = true
			return
		}
		hops := uint8(len(path) - 1)
		if hops >= budget {
			return
		}
		v := path[len(path)-1]
		nbrs := g.OutNeighbors(v)
		if opts.Optimized {
			ordered[hops] = orderByResidual(nbrs, other, ordered[hops][:0])
			nbrs = ordered[hops]
		}
		for _, w := range nbrs {
			if stopped {
				return
			}
			if onPath[w] {
				continue
			}
			// Lemma 3.1: after stepping to w the path has hops+1 edges
			// and still needs dist(w, other) more, so require
			// hops + dist(w, other) < k.
			if d := other.Dist(w); d == msbfs.Unreachable || hops+d >= k {
				continue
			}
			path = append(path, w)
			onPath[w] = true
			rec()
			onPath[w] = false
			path = path[:len(path)-1]
		}
	}
	rec()
	onPath[root] = false
	scratch.Put(sc)
}

// orderByResidual returns nbrs sorted by ascending distance to the
// opposite endpoint (unreachable last), appended into scratch.
// Insertion sort: neighbour lists are short and the comparator runs in
// the innermost search loop, where sort.Slice's indirection costs more
// than the sort saves.
func orderByResidual(nbrs []graph.VertexID, other *msbfs.DistMap, scratch []graph.VertexID) []graph.VertexID {
	scratch = append(scratch, nbrs...)
	for i := 1; i < len(scratch); i++ {
		w := scratch[i]
		key := other.Dist(w)
		j := i - 1
		for j >= 0 && other.Dist(scratch[j]) > key {
			scratch[j+1] = scratch[j]
			j--
		}
		scratch[j+1] = w
	}
	return scratch
}

// Materialized mimics the Fig. 3(c) measurement: given pre-enumerated
// results in a store, it scans them once (the "retrieve and scan"
// baseline the paper uses to expose the enumeration/materialisation
// gap) and returns the number of paths touched.
func Materialized(results *pathjoin.Store) int {
	touched := 0
	results.Each(func(p []graph.VertexID) {
		if len(p) > 0 {
			touched++
		}
	})
	return touched
}
