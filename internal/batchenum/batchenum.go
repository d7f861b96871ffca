// Package batchenum implements the batch HC-s-t path query engines of
// the paper: BasicEnum (Algorithm 1) — one shared index, then each query
// processed independently with PathEnum — and BatchEnum (Algorithm 4) —
// query clustering, dominating HC-s path query detection, and
// topological-order enumeration with a result cache R that splices
// materialised common sub-paths into consumer searches. The "+" variants
// add PathEnum's optimised search order (cost-balanced budget cut and
// residual-distance neighbour ordering) to either engine.
package batchenum

import (
	"fmt"
	"sync"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/hcindex"
	"repro/internal/msbfs"
	"repro/internal/pathenum"
	"repro/internal/pathjoin"
	"repro/internal/query"
	"repro/internal/scratch"
	"repro/internal/sharegraph"
	"repro/internal/timing"
)

// Algorithm selects an engine.
type Algorithm int

// The four engines of the paper's evaluation (§V): Basic/BasicPlus are
// Algorithm 1 with plain/optimised search order, Batch/BatchPlus are
// Algorithm 4 with plain/optimised search order.
const (
	Basic Algorithm = iota
	BasicPlus
	Batch
	BatchPlus
)

// String implements fmt.Stringer with the paper's names.
func (a Algorithm) String() string {
	switch a {
	case Basic:
		return "BasicEnum"
	case BasicPlus:
		return "BasicEnum+"
	case Batch:
		return "BatchEnum"
	case BatchPlus:
		return "BatchEnum+"
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// Optimized reports whether the engine uses the optimised search order.
func (a Algorithm) Optimized() bool { return a == BasicPlus || a == BatchPlus }

// Shared reports whether the engine shares computation across queries.
func (a Algorithm) Shared() bool { return a == Batch || a == BatchPlus }

// Options configures a run.
type Options struct {
	// Algorithm selects the engine; the zero value is Basic.
	Algorithm Algorithm
	// Gamma is the clustering merge threshold γ of Algorithm 2; zero
	// selects the paper's default of 0.5.
	Gamma float64
	// Provider supplies the per-batch distance index. nil means the
	// package's shared pooled builder (a cold build per run whose dense
	// arrays and traversal scratch recycle through a msbfs.Pool); a
	// long-lived hcindex.Cache here makes the index phase amortise
	// across batches that repeat endpoints.
	Provider hcindex.Provider
	// Epoch is the graph version this run executes on — the versioned
	// store's snapshot epoch for live graphs, zero for static ones. It
	// scopes the Provider's cache keys so a post-update run can never be
	// served pre-update distance maps.
	Epoch uint64
	// Workers is the exact number of goroutines the batch's groups fan
	// out over; at most one runs every group inline on the caller's
	// goroutine. The public hcpath layer resolves its zero and negative
	// conventions to this count — nothing below it reinterprets the
	// value.
	Workers int
}

// sharedBuilder serves runs that configure no Provider. It is a pool,
// not state: a pooled cold builder holds nothing a later run can
// observe except recycled (clean) storage.
var sharedBuilder = hcindex.NewBuilder(true)

// acquire obtains the batch's index through the configured provider.
func (o Options) acquire(g, gr *graph.Graph, qs []query.Query) *hcindex.Index {
	p := o.Provider
	if p == nil {
		p = sharedBuilder
	}
	return p.Acquire(g, gr, o.Epoch, qs)
}

func (o Options) gamma() float64 {
	if o.Gamma == 0 {
		return 0.5
	}
	return o.Gamma
}

// Stats reports how a run spent its time and how much sharing it found.
type Stats struct {
	Phases timing.Breakdown
	// NumQueries is the batch size after validation.
	NumQueries int
	// NumGroups is the number of clusters ClusterQuery produced
	// (BatchEnum engines only).
	NumGroups int
	// SharedNodes counts the dominating HC-s path queries detected
	// across both directions of all groups.
	SharedNodes int
	// SharingEdges counts the Ψ reuse edges across both directions.
	SharingEdges int
	// CachedPaths counts partial paths materialised into the cache R. Only
	// groups of two or more queries have one: a one-query group runs
	// PathEnum directly.
	CachedPaths int64
	// SplicedPaths counts partial paths obtained by splicing a cached
	// sub-query instead of recursing, the direct measure of reuse.
	SplicedPaths int64
	// IndexHits and IndexMisses count the batch's index probes (two per
	// query: forward and backward) answered from the provider's cache vs
	// built fresh. A cold build is all misses.
	IndexHits, IndexMisses int
	// Truncated counts queries whose result sets were cut short — by a
	// per-query emission limit or by cancellation mid-run. Zero means
	// every emitted result set is complete.
	Truncated int
}

// addGroup folds one fan-out worker's counters into the batch stats;
// callers hold the run's stats lock. The excluded fields are batch-
// level, set once by the dispatcher rather than summed per group:
// Phases is the run's wall-clock decomposition (per-worker CPU times
// would double-count overlap), NumQueries/NumGroups/IndexHits/
// IndexMisses come from validation, clustering and the index provider,
// and Truncated is read off the run's Control at the end.
//
//hcpath:mergefields Stats -Phases -NumQueries -NumGroups -IndexHits -IndexMisses -Truncated
func (st *Stats) addGroup(local *Stats) {
	st.SharedNodes += local.SharedNodes
	st.SharingEdges += local.SharingEdges
	st.CachedPaths += local.CachedPaths
	st.SplicedPaths += local.SplicedPaths
}

// Run enumerates every HC-s-t path of every query in the batch with the
// selected engine, emitting results through sink keyed by query ID.
// Queries are assigned IDs positionally and validated first.
//
// The batch is partitioned into groups — ClusterQuery's clusters for
// the sharing engines (Algorithm 4), one group per query for the Basic
// ones (Algorithm 1) — and each group is one unit of work. With
// opts.Workers ≤ 1 the groups run in order on the caller's goroutine
// straight into sink, and every group books its own detect/enumerate
// phases. With more workers the same groups fan out over that many
// goroutines (groups share nothing with each other by construction),
// sink only ever sees one serialised flush at a time, Emit calls of
// different queries interleave arbitrarily, and the Enumeration phase
// is the fan-out's wall clock — per-worker times would double-count
// the overlap.
//
// The enumeration loops poll ctrl for cancellation and charge emissions
// against its per-query limit; a nil ctrl runs to completion. On
// cancellation every worker stops promptly and Run returns the partial
// stats alongside ctrl's cancellation error — everything already
// emitted through sink is valid (each emitted path is a real result;
// queries the engine did not finish are counted in Stats.Truncated).
// Per-query limits are safe under fan-out because each query (or whole
// sharing group) is owned by one worker. Limit-truncated queries are
// not an error: the run returns nil with Stats.Truncated set, and
// ctrl.QueryErr distinguishes ErrLimitReached from cancellation per
// query.
func Run(g, gr *graph.Graph, queries []query.Query, opts Options, ctrl *query.Control, sink query.Sink) (*Stats, error) {
	qs, err := query.Batch(g, queries)
	if err != nil {
		return nil, err
	}
	st := &Stats{NumQueries: len(qs)}
	if len(qs) == 0 {
		return st, nil
	}

	stop := st.Phases.Start(timing.BuildIndex)
	idx := opts.acquire(g, gr, qs)
	stop()
	defer idx.Release()
	st.IndexHits, st.IndexMisses = idx.Hits, idx.Misses

	if !ctrl.Cancelled() {
		groups := partition(qs, idx, opts, st)
		if opts.Workers > 1 {
			fanGroups(g, gr, qs, idx, groups, opts, ctrl, sink, st)
		} else {
			for _, group := range groups {
				if ctrl.Cancelled() {
					break
				}
				runGroup(g, gr, qs, idx, group, opts, ctrl, sink, st)
			}
		}
	}
	st.Truncated = ctrl.NumTruncated()
	if ctrl.Cancelled() {
		return st, ctrl.Err()
	}
	return st, nil
}

// partition splits the batch into its units of work. Algorithm 4
// clusters the queries (Algorithm 2) and reports the cluster count;
// Algorithm 1 shares nothing but the index, so every query is its own
// group and NumGroups stays zero.
func partition(qs []query.Query, idx *hcindex.Index, opts Options, st *Stats) [][]int {
	if !opts.Algorithm.Shared() {
		all := make([]int, len(qs))
		groups := make([][]int, len(qs))
		for i := range all {
			all[i] = i
			groups[i] = all[i : i+1 : i+1]
		}
		return groups
	}
	stop := st.Phases.Start(timing.ClusterQuery)
	cl := cluster.ClusterQueries(idx, qs, opts.gamma())
	stop()
	st.NumGroups = cl.NumGroups()
	return cl.Groups
}

// flushVertices is the per-worker buffering threshold: a worker hands
// its buffered results downstream once the arena holds this many path
// vertices, bounding memory at O(workers · flushVertices) while keeping
// lock acquisitions orders of magnitude rarer than emissions.
const flushVertices = 1 << 15

// mergeSink serialises flushes — not emissions — from concurrent
// workers. Each worker buffers results in its own workerSink and merges
// at group boundaries or when the buffer fills, so the hot enumeration
// loop never contends on a mutex the way a naive lock-per-Emit wrapper
// would.
type mergeSink struct {
	mu   sync.Mutex
	sink query.Sink
}

// workerSink is one goroutine's private end of a mergeSink: emissions
// land in its own buffer, which drains downstream under the merge lock
// whenever it fills and whenever its owner calls flush.
type workerSink struct {
	ms  *mergeSink
	buf query.BufferSink
}

// Emit implements query.Sink.
func (w *workerSink) Emit(id int, p []graph.VertexID) {
	w.buf.Emit(id, p)
	if w.buf.Vertices() >= flushVertices {
		w.flush()
	}
}

// flush replays the buffer into the shared sink under the merge lock.
func (w *workerSink) flush() {
	if w.buf.Len() == 0 {
		return
	}
	w.ms.mu.Lock()
	w.buf.FlushTo(w.ms.sink)
	w.ms.mu.Unlock()
}

// fanGroups runs the groups on opts.Workers goroutines — the paper's
// "deploy more servers to process these queries in parallel", on one
// machine. Each group runs its whole pipeline on one worker; once ctrl
// is cancelled the dispatcher stops feeding and the workers drain the
// remainder without touching it.
func fanGroups(g, gr *graph.Graph, qs []query.Query, idx *hcindex.Index, groups [][]int, opts Options, ctrl *query.Control, sink query.Sink, st *Stats) {
	defer st.Phases.Start(timing.Enumeration)()
	ms := &mergeSink{sink: sink}
	jobs := make(chan []int)
	var wg sync.WaitGroup
	var statsMu sync.Mutex
	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := &workerSink{ms: ms}
			var local Stats
			for group := range jobs {
				if ctrl.Cancelled() {
					continue // drain so the dispatcher can finish
				}
				runGroup(g, gr, qs, idx, group, opts, ctrl, out, &local)
				out.flush()
			}
			statsMu.Lock()
			st.addGroup(&local)
			statsMu.Unlock()
		}()
	}
	for _, group := range groups {
		if ctrl.Cancelled() {
			break
		}
		jobs <- group
	}
	close(jobs)
	wg.Wait()
}

// budgets returns the forward/backward hop budgets of query qi, using
// the cost-balanced cut for the optimised engines.
func budgets(qs []query.Query, idx *hcindex.Index, qi int, optimized bool) (fb, bb uint8) {
	q := qs[qi]
	if optimized {
		return pathenum.BalancedCut(q,
			idx.DistMapFor(qi, hcindex.Forward), idx.DistMapFor(qi, hcindex.Backward))
	}
	return q.FwdBudget(), q.BwdBudget()
}

// runGroup processes one group of the batch. A group of one query has
// nothing to share — every group of the Basic engines (Algorithm 1), and
// any cluster of a sharing engine that no other query joined — so it
// runs PathEnum directly over the batch index; detection would return
// an empty Ψ and the pipeline would only add its bookkeeping. Every
// larger group runs the sharing pipeline (Algorithm 4).
func runGroup(g, gr *graph.Graph, qs []query.Query, idx *hcindex.Index, group []int, opts Options, ctrl *query.Control, sink query.Sink, st *Stats) {
	if len(group) == 1 {
		processSingle(g, gr, qs, idx, group[0], opts, ctrl, sink, st)
		return
	}
	processGroup(g, gr, qs, idx, group, opts, ctrl, sink, st)
}

// processSingle answers query qi, a group of its own, with PathEnum over
// the batch index — Algorithm 1.
func processSingle(g, gr *graph.Graph, qs []query.Query, idx *hcindex.Index, qi int, opts Options, ctrl *query.Control, sink query.Sink, st *Stats) {
	defer st.Phases.Start(timing.Enumeration)()
	id := qs[qi].ID
	pathenum.EnumerateControlled(g, gr, qs[qi],
		idx.DistMapFor(qi, hcindex.Forward), idx.DistMapFor(qi, hcindex.Backward),
		pathenum.Options{Optimized: opts.Algorithm.Optimized()}, ctrl,
		func(p []graph.VertexID) { sink.Emit(id, p) })
}

// processGroup runs detection, shared enumeration, and joining for one
// cluster of queries, all on the calling worker, which owns the result
// cache.
func processGroup(g, gr *graph.Graph, qs []query.Query, idx *hcindex.Index, group []int, opts Options, ctrl *query.Control, sink query.Sink, st *Stats) {
	optimized := opts.Algorithm.Optimized()

	// Queries whose target is out of hop range have empty results and
	// are excluded from detection (the index answers this for free).
	live := group[:0:0]
	for _, qi := range group {
		if idx.Reachable(qi, qs[qi]) {
			live = append(live, qi)
		} else {
			ctrl.MarkComplete(qs[qi].ID) // provably empty result set
		}
	}
	if len(live) == 0 {
		return
	}

	stop := st.Phases.Start(timing.IdentifySubquery)
	fwdHalves := make([]sharegraph.HalfQuery, len(live))
	bwdHalves := make([]sharegraph.HalfQuery, len(live))
	backHeavy := make([]bool, len(live))
	for i, qi := range live {
		fb, bb := budgets(qs, idx, qi, optimized)
		backHeavy[i] = fb < bb
		fwdHalves[i] = sharegraph.HalfQuery{
			Root: qs[qi].S, Budget: fb, K: qs[qi].K,
			Other: idx.DistMapFor(qi, hcindex.Backward), Query: qi,
		}
		bwdHalves[i] = sharegraph.HalfQuery{
			Root: qs[qi].T, Budget: bb, K: qs[qi].K,
			Other: idx.DistMapFor(qi, hcindex.Forward), Query: qi,
		}
	}
	psiF := sharegraph.Detect(g, fwdHalves)
	psiB := sharegraph.Detect(gr, bwdHalves)
	stop()
	st.SharedNodes += psiF.NumShared() + psiB.NumShared()
	st.SharingEdges += psiF.NumEdges() + psiB.NumEdges()

	defer st.Phases.Start(timing.Enumeration)()
	fwdStores := enumerateGraph(g, psiF, len(live), optimized, ctrl, st)
	bwdStores := enumerateGraph(gr, psiB, len(live), optimized, ctrl, st)
	if ctrl.Cancelled() {
		return // partial Ψ stores must not reach the joins
	}
	// Backward halves of similar queries often alias one shared store;
	// the probe-side hash index is built once per distinct store.
	indexes := make(map[*pathjoin.Store]*pathjoin.HashIndex, len(live))
	for i, qi := range live {
		if ctrl.Cancelled() {
			return
		}
		q := qs[qi]
		id := q.ID
		h := indexes[bwdStores[i]]
		if h == nil {
			h = pathjoin.BuildHashIndex(bwdStores[i])
			indexes[bwdStores[i]] = h
		}
		pathjoin.JoinHalvesIndexed(fwdStores[i], h, q.K, backHeavy[i], ctrl, id,
			func(p []graph.VertexID) { sink.Emit(id, p) })
		if !ctrl.Cancelled() {
			ctrl.MarkComplete(id)
		}
		// Halves are dead after the join; free them eagerly since path
		// stores dominate the engine's footprint. Aliased stores stay
		// alive through the index map until the group completes.
		fwdStores[i], bwdStores[i] = nil, nil
	}
}

// enumerateGraph materialises every node of Ψ in topological order
// (providers before consumers, Alg. 4 lines 6-10) and returns the stores
// of the first numTerminals nodes — the query halves. Shared-node stores
// are evicted from the cache as soon as their last consumer finishes
// (Alg. 4 lines 14-16).
func enumerateGraph(g *graph.Graph, psi *sharegraph.Graph, numTerminals int, optimized bool, ctrl *query.Control, st *Stats) []*pathjoin.Store {
	cache := make(map[sharegraph.NodeID]*pathjoin.Store, psi.NumNodes())
	pending := make(map[sharegraph.NodeID]int, psi.NumNodes())
	for id := sharegraph.NodeID(0); int(id) < psi.NumNodes(); id++ {
		pending[id] = len(psi.Consumers(id))
	}
	terminals := make([]*pathjoin.Store, numTerminals)
	sc := scratch.Get(g.NumVertices())
	e := &enumerator{
		g: g, psi: psi, cache: cache, optimized: optimized, ctrl: ctrl, st: st,
		sc: sc, onPath: sc.OnPath, memoVal: sc.MemoVal, memoGen: sc.MemoGen,
		spliceIdx: make(map[sharegraph.NodeID]*spliceIndex),
	}
	for _, id := range psi.TopoOrder() {
		if e.stopped || ctrl.Cancelled() {
			break // callers check ctrl before using the partial stores
		}
		out := pathjoin.NewStore(16, 64)
		e.alias = nil
		e.enumerateNode(id, out)
		if e.alias != nil {
			out = e.alias // root splice: share the provider's store
		} else {
			st.CachedPaths += int64(out.Len())
		}
		cache[id] = out
		if int(id) < numTerminals {
			terminals[id] = out
		}
		for _, prov := range psi.Providers(id) {
			pending[prov]--
			if pending[prov] == 0 && int(prov) >= numTerminals {
				delete(cache, prov) // R.remove(q′)
				delete(e.spliceIdx, prov)
			}
		}
	}
	// Every dfs has unwound to its root — cancelled ones included — so
	// onPath is clean again; a panicking traversal never gets here.
	scratch.Put(sc)
	return terminals
}

// spliceIndex groups a provider store's paths by their end vertex, so a
// consumer can reject a whole group with one memoised bound check
// instead of filtering path by path. minLen is the shortest path length
// (in vertices) within the group — the best case for the bound check.
type spliceIndex struct {
	ends   []graph.VertexID
	minLen []int
	groups [][]int32
}

// buildSpliceIndex indexes store by end vertex.
func buildSpliceIndex(store *pathjoin.Store) *spliceIndex {
	si := &spliceIndex{}
	slot := make(map[graph.VertexID]int, 64)
	for i := 0; i < store.Len(); i++ {
		p := store.Path(i)
		end := p[len(p)-1]
		gi, ok := slot[end]
		if !ok {
			gi = len(si.ends)
			slot[end] = gi
			si.ends = append(si.ends, end)
			si.minLen = append(si.minLen, len(p))
			si.groups = append(si.groups, nil)
		}
		if len(p) < si.minLen[gi] {
			si.minLen[gi] = len(p)
		}
		si.groups[gi] = append(si.groups[gi], int32(i))
	}
	return si
}

// enumerator carries the shared state of one Ψ traversal.
type enumerator struct {
	g         *graph.Graph
	psi       *sharegraph.Graph
	cache     map[sharegraph.NodeID]*pathjoin.Store
	optimized bool
	ctrl      *query.Control
	st        *Stats
	// steps counts DFS expansions across the whole Ψ traversal; every
	// query.PollInterval-th one polls ctrl, and stopped latches the
	// answer so the unwind is branch-cheap.
	steps   int
	stopped bool

	path []graph.VertexID
	// sc is the traversal's pooled per-vertex scratch; onPath, memoVal
	// and memoGen alias its arrays so the hot loops skip the indirection.
	sc      *scratch.Scratch
	onPath  []bool // dense per-vertex membership; push/pop keeps it clean
	scratch [][]graph.VertexID
	node    *sharegraph.Node
	nodeID  sharegraph.NodeID
	out     *pathjoin.Store
	// alias, when set by enumerateNode, replaces out entirely: the
	// node's results are exactly a provider's cached store.
	alias *pathjoin.Store

	// Per-vertex memo of the node's pruning bound: a DFS expansion to w
	// at prefix length d survives iff d < bound(w), where bound(w) =
	// max over consumer constraints of (slack − dist(w, consumer's
	// other endpoint)). Scanning the constraint union per check would
	// multiply the hottest loop by the union size; the memo pays the
	// scan once per (node, vertex) and generation stamps avoid clearing
	// between nodes (and between the pooled scratch's successive users).
	memoVal []int16
	memoGen []int32
	gen     int32

	// spliceIdx caches the end-vertex grouping of each provider store,
	// built on first splice and dropped with the cache entry.
	spliceIdx map[sharegraph.NodeID]*spliceIndex
}

// never is the memo value of a vertex no consumer can use.
const never = int16(-1 << 14)

// bound returns the memoised pruning bound of w for the current node.
func (e *enumerator) bound(w graph.VertexID) int16 {
	if e.memoGen[w] == e.gen {
		return e.memoVal[w]
	}
	e.memoGen[w] = e.gen
	b := never
	if e.node.Unbounded {
		b = int16(1) << 14
	} else {
		for _, c := range e.node.Constraints {
			if d := c.Other.Dist(w); d != msbfs.Unreachable {
				if v := c.Slack - int16(d); v > b {
					b = v
				}
			}
		}
	}
	e.memoVal[w] = b
	return b
}

// enumerateNode materialises node id's HC-s path query q_{Root,Budget}
// into out: the pruned DFS of Alg. 4's Search, except that stepping onto
// a provider's root vertex splices the provider's cached paths (lines
// 22-23) instead of recursing.
func (e *enumerator) enumerateNode(id sharegraph.NodeID, out *pathjoin.Store) {
	n := e.psi.Node(id)
	e.node, e.nodeID, e.out = n, id, out
	// A provider rooted at this node's own root covers the entire
	// enumeration (duplicate roots, promoted markers): alias its store
	// outright — copying would cost as much as enumerating, and the
	// surplus of a larger-budget provider is harmless because both the
	// join's unique-split pairing and downstream splices select by
	// length (Lemma 4.1 reuse as pure reference, not recomputation).
	if prov, ok := e.psi.SpliceAt(id, n.Root); ok {
		shared := e.cache[prov]
		e.st.SplicedPaths += int64(shared.Len())
		e.alias = shared
		return
	}
	e.path = append(e.path[:0], n.Root)
	e.gen = e.sc.NextGen()
	e.onPath[n.Root] = true
	if cap(e.scratch) < int(n.Budget)+1 {
		e.scratch = make([][]graph.VertexID, int(n.Budget)+1)
	}
	e.scratch = e.scratch[:int(n.Budget)+1]
	e.dfs()
	e.onPath[n.Root] = false
}

// dfs extends the current prefix one hop at a time, recording every
// prefix (the join needs results of every length).
func (e *enumerator) dfs() {
	if e.ctrl.Poll(&e.steps, &e.stopped) {
		return
	}
	e.out.Add(e.path)
	depth := len(e.path) - 1
	if depth >= int(e.node.Budget) {
		return
	}
	v := e.path[len(e.path)-1]
	nbrs := e.g.OutNeighbors(v)
	if e.optimized {
		e.scratch[depth] = orderByMinResidual(e.node, nbrs, e.scratch[depth][:0])
		nbrs = e.scratch[depth]
	}
	for _, w := range nbrs {
		if e.stopped {
			return
		}
		if e.onPath[w] {
			continue
		}
		if int16(depth) >= e.bound(w) {
			continue
		}
		if prov, ok := e.psi.SpliceAt(e.nodeID, w); ok {
			e.splice(prov, int(e.node.Budget)-depth-1)
			continue
		}
		e.path = append(e.path, w)
		e.onPath[w] = true
		e.dfs()
		e.onPath[w] = false
		e.path = e.path[:len(e.path)-1]
	}
}

// splice concatenates the current prefix with every cached path of prov
// that fits the remaining budget and stays vertex-disjoint with the
// prefix. Cached paths start at the splice vertex, so the concatenation
// extends the prefix by the whole cached path.
//
// The provider's cache was pruned with the union of all its consumers'
// constraints, so it holds paths only other consumers can complete.
// Re-applying this node's own Lemma 3.1 check on each cached path's end
// vertex filters those out before the copy — without it, a node in a
// moderately-similar group would materialise far more partial paths
// than its own pruned search ever would, inverting the sharing gain.
func (e *enumerator) splice(prov sharegraph.NodeID, remaining int) {
	store := e.cache[prov]
	if store == nil {
		// Guarded against by the topological order; a miss is a bug.
		panic(fmt.Sprintf("batchenum: provider %d not cached", prov))
	}
	si := e.spliceIdx[prov]
	if si == nil {
		si = buildSpliceIndex(store)
		e.spliceIdx[prov] = si
	}
	maxLen := remaining + 1
	prefixLen := len(e.path)
	for gi, end := range si.ends {
		if e.ctrl.Poll(&e.steps, &e.stopped) {
			return
		}
		// Whole-group rejection: if even the group's shortest path ends
		// too deep for this node's bound at its end vertex, none of the
		// longer ones can survive either.
		b := e.bound(end)
		if int16(prefixLen+si.minLen[gi]-2) >= b {
			continue
		}
		if e.onPath[end] {
			continue
		}
	group:
		for _, pi := range si.groups[gi] {
			cp := store.Path(int(pi))
			if len(cp) > maxLen || int16(prefixLen+len(cp)-2) >= b {
				continue
			}
			for _, u := range cp {
				if e.onPath[u] {
					continue group
				}
			}
			e.out.AddConcat(e.path, cp)
			e.st.SplicedPaths++
		}
	}
}

// orderByMinResidual sorts nbrs by ascending minimum residual distance
// over the node's consumers, the "+" expansion order generalised to
// shared nodes. Keys are computed once per neighbour — MinResidual scans
// the node's whole constraint union, far too costly for a comparator —
// then insertion-sorted (neighbour lists at one DFS level are short).
func orderByMinResidual(n *sharegraph.Node, nbrs []graph.VertexID, scratch []graph.VertexID) []graph.VertexID {
	scratch = append(scratch, nbrs...)
	var keyBuf [64]uint8
	keys := keyBuf[:0]
	if len(scratch) > len(keyBuf) {
		keys = make([]uint8, 0, len(scratch))
	}
	for _, w := range scratch {
		keys = append(keys, n.MinResidual(w))
	}
	for i := 1; i < len(scratch); i++ {
		w, key := scratch[i], keys[i]
		j := i - 1
		for j >= 0 && keys[j] > key {
			scratch[j+1], keys[j+1] = scratch[j], keys[j]
			j--
		}
		scratch[j+1], keys[j+1] = w, key
	}
	return scratch
}
