// Package batchenum implements the batch HC-s-t path query engines of
// the paper: BasicEnum (Algorithm 1) — one shared index, then each query
// processed independently with PathEnum — and BatchEnum (Algorithm 4) —
// query clustering, dominating HC-s path query detection, and
// topological-order enumeration with a result cache R that splices
// materialised common sub-paths into consumer searches. The "+" variants
// add PathEnum's cost-balanced budget cut (pathenum.BalancedCut) to
// either engine, and nothing else: every DFS expands neighbours in
// stored order. The paper's "+" order also sorts neighbours by residual
// distance, but in an exhaustive search that changes only the emission
// order, never the pruning or the path set; a limit-truncated query
// returns its first paths in stored neighbour order.
package batchenum

import (
	"fmt"
	"slices"
	"sync"
	"time"

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
// Algorithm 1 with the ⌈k/2⌉/cost-balanced cut, Batch/BatchPlus are
// Algorithm 4 with the ⌈k/2⌉/cost-balanced cut.
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

// Optimized reports whether the engine is a "+" variant, which takes the
// cost-balanced cut (pathenum.BalancedCut); no engine reorders its
// neighbours.
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
	// Workers is the exact number of goroutines that drain the batch's
	// work list, the caller's included; at most one drains it inline on
	// the caller's goroutine. The public hcpath layer resolves its zero
	// and negative convention to this count — nothing below it
	// reinterprets the value.
	Workers int
}

// sharedBuilder serves runs that configure no Provider. It is a pool,
// not state: a pooled cold builder holds nothing a later run can
// observe except recycled (clean) storage.
var sharedBuilder = hcindex.NewBuilder(true)

// provider returns the configured Provider, or the shared builder.
func (o Options) provider() hcindex.Provider {
	if o.Provider == nil {
		return sharedBuilder
	}
	return o.Provider
}

// acquire obtains the batch's index through the configured provider. A
// batch of one query is never clustered, so it takes the query's s-t
// subgraph maps instead of two k-balls.
func (o Options) acquire(g, gr *graph.Graph, qs []query.Query) *hcindex.Index {
	p := o.provider()
	if len(qs) == 1 {
		return p.AcquireOne(g, gr, o.Epoch, qs[0])
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
	// NumQueries is the batch size after validation, copies included.
	NumQueries int
	// NumGroups is the number of clusters ClusterQuery produced from the
	// batch's distinct queries (BatchEnum engines only).
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
	// IndexHits and IndexMisses count the batch's index probes answered
	// from the provider's cache vs built fresh: two per distinct query
	// (forward and backward) for the sharing engines, two per query for
	// the Basic ones. A cold build is all misses.
	IndexHits, IndexMisses int
	// Truncated counts queries whose result sets were cut short — by a
	// per-query emission limit or by cancellation mid-run. Zero means
	// every emitted result set is complete.
	Truncated int
}

// add folds one finished task's counters and phase times into the
// run's stats; callers hold the run's work-list lock. The excluded
// fields are batch-level, set once by Run rather than summed per task:
// NumQueries/NumGroups/IndexHits/IndexMisses come from validation,
// clustering and the index provider, and Truncated is read off the
// run's Control at the end.
//
//hcpath:mergefields Stats -NumQueries -NumGroups -IndexHits -IndexMisses -Truncated
func (st *Stats) add(t *Stats) {
	st.Phases.Merge(t.Phases)
	st.SharedNodes += t.SharedNodes
	st.SharingEdges += t.SharingEdges
	st.CachedPaths += t.CachedPaths
	st.SplicedPaths += t.SplicedPaths
}

// Run enumerates every HC-s-t path of every query in the batch with the
// selected engine, emitting results through sink keyed by query ID.
// Queries are assigned IDs positionally and validated first.
//
// The sharing engines then answer each distinct query once: it leads
// the class of its copies, and every later stage — the index, the
// clustering, Ψ and the joins — runs on the leads, each result going to
// the sink once with the whole class (see distinct). The Basic engines
// answer every query on its own.
//
// The leads are partitioned into groups — ClusterQuery's clusters for
// the sharing engines (Algorithm 4), one group per query for the Basic
// ones (Algorithm 1) — and the groups become tasks on one work list (see
// workList): a group's build task runs its detection and shared
// enumeration and then pushes one ⊕ join task per lead in hop range,
// each independent of every other. Up to opts.Workers goroutines drain
// the list, the caller's included, and Run returns once every task has
// ended, so no emission follows it. With at most one worker the caller
// drains the list alone and every task books its own detect/enumerate
// phases, in order. With more, Emit calls of different queries run
// concurrently (the Sink contract) and the Enumeration phase is the
// drain's wall clock — per-task times would double-count the overlap.
//
// The enumeration loops poll ctrl for cancellation and charge emissions
// against its per-query limit; a nil ctrl runs to completion. On
// cancellation every worker stops promptly and Run returns the partial
// stats alongside ctrl's cancellation error — everything already
// emitted through sink is valid (each emitted path is a real result;
// queries the engine did not finish are counted in Stats.Truncated).
// Per-query limits are safe on any number of workers because each task
// owns its queries: a build task its group's classes, a join task its
// lead's class.
// Limit-truncated queries are not an error: the run returns nil with
// Stats.Truncated set, and ctrl.QueryErr distinguishes ErrLimitReached
// from cancellation per query.
func Run(g, gr *graph.Graph, queries []query.Query, opts Options, ctrl *query.Control, sink query.Sink) (*Stats, error) {
	qs, err := query.Batch(g, queries)
	if err != nil {
		return nil, err
	}
	st := &Stats{NumQueries: len(qs)}
	if len(qs) == 0 {
		return st, nil
	}
	leads, classes := distinct(qs, opts.Algorithm.Shared())

	stop := st.Phases.Start(timing.BuildIndex)
	idx := opts.acquire(g, gr, leads)
	stop()
	defer idx.Release()
	st.IndexHits, st.IndexMisses = idx.Hits, idx.Misses

	if !ctrl.Cancelled() {
		groups := partition(leads, classes, idx, opts, st)
		b := &batch{g: g, gr: gr, qs: leads, classes: classes, idx: idx, opts: opts, ctrl: ctrl, sink: sink, st: st}
		b.drain(groups)
		// Every task has ended, so no join reads a group's stores.
		for _, a := range b.arenas {
			a.Release()
		}
	}
	st.Truncated = ctrl.NumTruncated()
	if ctrl.Cancelled() {
		return st, ctrl.Err()
	}
	return st, nil
}

// distinct splits the validated batch qs into leads — its distinct
// queries, (S, T, K) equal, in order of first occurrence — and the
// class of each lead: the IDs of its copies in batch order, lead first.
// Copies have equal answers, so a result of the lead is emitted once
// with its class, and the Control charges every member in lockstep.
// Without dedupe (Algorithm 1, the independent baseline) every query
// leads a class of itself, as the one query of a batch of one does.
func distinct(qs []query.Query, dedupe bool) (leads []query.Query, classes [][]int) {
	n := len(qs)
	classes = make([][]int, 0, n)
	if !dedupe || n == 1 {
		ids := make([]int, n)
		for i := range ids {
			ids[i] = i
			classes = append(classes, ids[i:i+1:i+1])
		}
		return qs, classes
	}
	ints := make([]int, 3*n+1)
	ids, of, end := ints[:n:n], ints[n:2*n:2*n], ints[2*n:]
	// of[i] is query i's lead; end[c+1] counts lead c's copies.
	lead := make(map[query.Query]int, n) // keyed with ID zero
	leads = make([]query.Query, 0, n)
	for i, q := range qs {
		key := q
		key.ID = 0
		c, ok := lead[key]
		if !ok {
			c = len(leads)
			lead[key] = c
			leads = append(leads, q)
		}
		of[i] = c
		end[c+1]++
	}
	// A counting sort, as in pathjoin.HashIndex: running sums make end[c]
	// class c's first slot, and placing the queries in batch order walks
	// it to the class's end.
	for c := 1; c < len(leads); c++ {
		end[c] += end[c-1]
	}
	for i, c := range of {
		ids[end[c]] = i
		end[c]++
	}
	first := 0
	for c := range leads {
		classes = append(classes, ids[first:end[c]:end[c]])
		first = end[c]
	}
	return leads, classes
}

// partition splits the batch's leads into its units of work. Algorithm
// 4 clusters them (Algorithm 2, its µ matrix at the index build's
// width) and reports the cluster count; Algorithm
// 1 shares nothing but the index, so every query is its own group and
// NumGroups stays zero. Without dedupe a lead's position is its ID, so
// the groups are the classes (copied: drain reorders its groups).
func partition(qs []query.Query, classes [][]int, idx *hcindex.Index, opts Options, st *Stats) [][]int {
	if !opts.Algorithm.Shared() {
		return slices.Clone(classes)
	}
	stop := st.Phases.Start(timing.ClusterQuery)
	cl := cluster.ClusterQueriesWorkers(idx, qs, opts.gamma(), opts.provider().Width())
	stop()
	st.NumGroups = cl.NumGroups()
	return cl.Groups
}

// batch is what every task of one run reads — the graphs, the leads and
// their classes, the index, the options, the Control and the sink —
// plus the run's work list, the stats its tasks fold into and the
// arenas of its groups. Groups, the index and Ψ's half queries number
// the leads by position in qs.
type batch struct {
	g, gr   *graph.Graph
	qs      []query.Query
	classes [][]int
	idx     *hcindex.Index
	opts    Options
	ctrl    *query.Control
	sink    query.Sink
	list    workList
	st      *Stats
	// arenas holds the Ψ stores and probe indexes of every group, one
	// arena per worker that built any, which the groups' join tasks read
	// on other workers; Run releases them once the work list is
	// drained. Guarded by list.mu.
	arenas []*pathjoin.Arena
}

// task is one unit of a run's work list. A build task (group set) runs a
// whole group of one lead, or a larger group's detection and shared
// enumeration, which then pushes its joins. A join task is the ⊕ join
// of one lead of the group, emitted for its class.
type task struct {
	group     []int
	lead      int
	fwd       *pathjoin.Store
	bwd       *pathjoin.HashIndex
	backHeavy bool
}

// workList is a run's stack of tasks, guarded by mu. pending counts the
// tasks pushed and not yet finished: a worker that finds the stack empty
// waits while a running build may still push joins, and every worker
// leaves once pending reaches zero — the caller's return is the run's
// end, and no one waits for the other workers to exit. Workers start
// only when there is a task for them: spare is how many more may.
type workList struct {
	mu      sync.Mutex
	more    sync.Cond // signalled when tasks are pushed or pending reaches zero
	tasks   []task
	pending int
	waiting int // workers parked on more
	spare   int
}

// drain runs every group through the work list on up to opts.Workers
// goroutines — the paper's "deploy more servers to process these
// queries in parallel", on one machine — capped at one per lead, the
// most tasks that can ever run at once. Build tasks are pushed largest
// group first: the largest is the longest serial stretch and opens the
// most joins, and its joins go on top, where the next free worker
// takes them.
// Once ctrl is cancelled the workers retire the remaining tasks
// without running them.
func (b *batch) drain(groups [][]int) {
	slices.SortStableFunc(groups, func(x, y []int) int { return len(y) - len(x) })
	l := &b.list
	l.more.L = &l.mu
	l.tasks = make([]task, len(groups))
	for i, group := range groups {
		l.tasks[len(groups)-1-i].group = group // largest on top
	}
	l.pending = len(groups)
	width := min(b.opts.Workers, len(b.qs))
	l.spare = max(width-1, 0) // the caller is the first worker
	st := b.st
	phases := st.Phases
	t0 := time.Now()

	l.mu.Lock()
	b.startWorkers()
	l.mu.Unlock()
	b.work()

	if width > 1 {
		// Tasks overlapped, so their summed phases would double-count:
		// the drain's wall clock is the run's Enumeration phase.
		st.Phases = phases
		st.Phases.Add(timing.Enumeration, time.Since(t0))
	}
}

// startWorkers starts a goroutine for every stacked task that neither a
// waiting worker nor the calling one will take, as far as spare allows;
// callers hold mu.
func (b *batch) startWorkers() {
	l := &b.list
	n := min(len(l.tasks)-1-l.waiting, l.spare)
	for ; n > 0; n-- {
		l.spare--
		go b.work()
	}
}

// work pops and runs tasks until every task of the run has finished,
// folding each task's counters into the run's stats as it ends. Every
// group the worker builds is carved from one arena, registered in
// b.arenas when its first group ends: the caller returns once pending
// reaches zero, without waiting for this worker to leave.
func (b *batch) work() {
	l := &b.list
	var st Stats
	var arena *pathjoin.Arena
	registered := false
	l.mu.Lock()
	for {
		for len(l.tasks) == 0 && l.pending > 0 {
			l.waiting++
			l.more.Wait()
			l.waiting--
		}
		n := len(l.tasks)
		if n == 0 {
			l.mu.Unlock()
			return
		}
		t := l.tasks[n-1]
		l.tasks[n-1] = task{} // the slot must not keep a join's stores alive
		l.tasks = l.tasks[:n-1]
		l.mu.Unlock()

		var produced []task
		switch {
		case b.ctrl.Cancelled():
		case len(t.group) == 1:
			b.processSingle(t.group[0], &st)
		case t.group != nil:
			if arena == nil {
				arena = new(pathjoin.Arena)
			}
			produced = b.processGroup(t.group, &st, arena)
		default:
			b.join(t, &st)
		}

		l.mu.Lock()
		b.st.add(&st)
		st = Stats{}
		if arena != nil && !registered {
			b.arenas = append(b.arenas, arena)
			registered = true
		}
		for i := len(produced) - 1; i >= 0; i-- {
			l.tasks = append(l.tasks, produced[i]) // last first: they run in order
		}
		l.pending += len(produced) - 1
		if (len(produced) > 0 && l.waiting > 0) || l.pending == 0 {
			l.more.Broadcast()
		}
		b.startWorkers()
	}
}

// budgets returns the forward/backward hop budgets of lead qi, using
// the cost-balanced cut for the optimised engines.
func budgets(qs []query.Query, idx *hcindex.Index, qi int, optimized bool) (fb, bb uint8) {
	q := qs[qi]
	if optimized {
		return pathenum.BalancedCut(q,
			idx.DistMapFor(qi, hcindex.Forward), idx.DistMapFor(qi, hcindex.Backward))
	}
	return q.FwdBudget(), q.BwdBudget()
}

// processSingle answers lead qi, a one-query group, with PathEnum over
// the batch index — Algorithm 1 — for its class. A group of one query
// has nothing to share — every group of the Basic engines, and any
// cluster of a sharing engine that no other lead joined — so detection
// would return an empty Ψ and the pipeline would only add its
// bookkeeping.
func (b *batch) processSingle(qi int, st *Stats) {
	defer st.Phases.Start(timing.Enumeration)()
	pathenum.EnumerateControlled(b.g, b.gr, b.qs[qi], b.classes[qi],
		b.idx.DistMapFor(qi, hcindex.Forward), b.idx.DistMapFor(qi, hcindex.Backward),
		pathenum.Options{Optimized: b.opts.Algorithm.Optimized()}, b.ctrl, b.sink)
}

// processGroup runs detection and shared enumeration for one cluster of
// two or more leads (Algorithm 4) and returns one join task per lead
// whose target is in hop range. The Ψ stores and the probe indexes are
// carved from arena, which must outlive the tasks; each task holds its
// lead's halves.
func (b *batch) processGroup(group []int, st *Stats, arena *pathjoin.Arena) []task {
	qs, idx, ctrl := b.qs, b.idx, b.ctrl
	optimized := b.opts.Algorithm.Optimized()

	// Queries whose target is out of hop range have empty results and
	// are excluded from detection (the index answers this for free).
	live := group[:0:0]
	for _, qi := range group {
		if idx.Reachable(qi, qs[qi]) {
			live = append(live, qi)
		} else {
			b.complete(qi) // provably empty result set
		}
	}
	if len(live) == 0 {
		return nil
	}

	stop := st.Phases.Start(timing.IdentifySubquery)
	fwdHalves := make([]sharegraph.HalfQuery, len(live))
	bwdHalves := make([]sharegraph.HalfQuery, len(live))
	for i, qi := range live {
		fb, bb := budgets(qs, idx, qi, optimized)
		fwdHalves[i] = sharegraph.HalfQuery{
			Root: qs[qi].S, Budget: fb, K: qs[qi].K,
			Other: idx.DistMapFor(qi, hcindex.Backward), Query: qi,
		}
		bwdHalves[i] = sharegraph.HalfQuery{
			Root: qs[qi].T, Budget: bb, K: qs[qi].K,
			Other: idx.DistMapFor(qi, hcindex.Forward), Query: qi,
		}
	}
	psiF := sharegraph.Detect(b.g, fwdHalves)
	psiB := sharegraph.Detect(b.gr, bwdHalves)
	stop()
	st.SharedNodes += psiF.NumShared() + psiB.NumShared()
	st.SharingEdges += psiF.NumEdges() + psiB.NumEdges()

	defer st.Phases.Start(timing.Enumeration)()
	fwdStores := enumerateGraph(b.g, psiF, len(live), ctrl, st, arena)
	bwdStores := enumerateGraph(b.gr, psiB, len(live), ctrl, st, arena)
	if ctrl.Cancelled() {
		return nil // partial Ψ stores must not reach the joins
	}
	// Backward halves of similar queries often alias one shared store;
	// the probe-side hash index is built once per distinct store.
	indexes := make(map[*pathjoin.Store]*pathjoin.HashIndex, len(live))
	joins := make([]task, len(live))
	for i, qi := range live {
		h := indexes[bwdStores[i]]
		if h == nil {
			h = pathjoin.BuildHashIndex(bwdStores[i], arena)
			indexes[bwdStores[i]] = h
		}
		joins[i] = task{lead: qi, fwd: fwdStores[i], bwd: h, backHeavy: fwdHalves[i].Budget < bwdHalves[i].Budget}
	}
	return joins
}

// join runs one lead's ⊕ join against its group's stores and emits
// every result path once for the lead's class, whose members then
// complete unless the run was cancelled. The stores and the index are
// carved from the arena of the worker that built the group, which Run
// releases only after the last join.
func (b *batch) join(t task, st *Stats) {
	defer st.Phases.Start(timing.Enumeration)()
	j := pathjoin.NewJoiner(t.bwd, b.qs[t.lead].K, t.backHeavy, b.ctrl, b.classes[t.lead], b.sink)
	j.JoinStore(t.fwd)
	if !b.ctrl.Cancelled() {
		b.complete(t.lead)
	}
}

// complete marks every query of lead qi's class answered in full.
func (b *batch) complete(qi int) {
	for _, id := range b.classes[qi] {
		b.ctrl.MarkComplete(id)
	}
}

// enumerateGraph materialises every node of Ψ in topological order
// (providers before consumers, Alg. 4 lines 6-10), one store at a time
// from arena, and returns the stores of the first numTerminals nodes —
// the query halves. Shared-node stores are evicted from the cache as
// soon as their last consumer finishes (Alg. 4 lines 14-16); their
// memory returns with the arena's.
func enumerateGraph(g *graph.Graph, psi *sharegraph.Graph, numTerminals int, ctrl *query.Control, st *Stats, arena *pathjoin.Arena) []*pathjoin.Store {
	// Node IDs run densely from 0, so the cache is a slice by NodeID.
	cache := make([]cacheEntry, psi.NumNodes())
	for id := range cache {
		cache[id].pending = len(psi.Consumers(sharegraph.NodeID(id)))
	}
	terminals := make([]*pathjoin.Store, numTerminals)
	sc := scratch.Get(g.NumVertices())
	e := &enumerator{
		g: g, psi: psi, cache: cache, arena: arena, ctrl: ctrl, st: st,
		sc: sc, onPath: sc.OnPath, memoVal: sc.MemoVal, memoGen: sc.MemoGen,
	}
	for _, id := range psi.TopoOrder() {
		if e.stopped || ctrl.Cancelled() {
			break // callers check ctrl before using the partial stores
		}
		out, aliased := e.enumerateNode(id)
		if !aliased { // a root splice shares the provider's store
			st.CachedPaths += int64(out.Len())
		}
		cache[id].store = out
		if int(id) < numTerminals {
			terminals[id] = out
		}
		for prov := range psi.Providers(id) {
			c := &cache[prov]
			c.pending--
			if c.pending == 0 && int(prov) >= numTerminals {
				c.store, c.splice = nil, nil // R.remove(q′)
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
// instead of filtering path by path. It is a counting sort of the
// store's path indices, as in pathjoin.HashIndex: group gi ends at
// ends[gi], its paths are items[start[gi]:start[gi+1]] in store order,
// and minLen[gi] is the shortest of them (in vertices) — the best case
// for the bound check. The groups are numbered in the traversal's
// per-vertex scratch, not a map, so an index costs three allocations
// however many end vertices the store has.
type spliceIndex struct {
	ends   []graph.VertexID
	minLen []int32
	start  []int32
	items  []int32
}

// buildSpliceIndex indexes store by end vertex. slot is per-vertex
// scratch that must be all zero; it is zero again on return.
func buildSpliceIndex(store *pathjoin.Store, slot []int32) *spliceIndex {
	n := store.Len()
	// slot[v] numbers end vertex v's group from one, in store order.
	groups := int32(0)
	for i := 0; i < n; i++ {
		p := store.Path(i)
		if end := p[len(p)-1]; slot[end] == 0 {
			groups++
			slot[end] = groups
		}
	}
	arrays := make([]int32, 2*int(groups)+1+n)
	si := &spliceIndex{
		ends:   make([]graph.VertexID, groups),
		minLen: arrays[:groups:groups],
		start:  arrays[groups : 2*groups+1 : 2*groups+1],
		items:  arrays[2*groups+1:],
	}
	for i := 0; i < n; i++ {
		p := store.Path(i)
		end := p[len(p)-1]
		gi := slot[end] - 1
		if l := int32(len(p)); si.minLen[gi] == 0 || l < si.minLen[gi] {
			si.minLen[gi] = l
		}
		si.ends[gi] = end
		si.start[gi]++
	}
	for gi := int32(1); gi < groups; gi++ {
		si.start[gi] += si.start[gi-1]
	}
	si.start[groups] = int32(n)
	for i := n - 1; i >= 0; i-- {
		p := store.Path(i)
		gi := slot[p[len(p)-1]] - 1
		si.start[gi]--
		si.items[si.start[gi]] = int32(i)
	}
	for _, end := range si.ends {
		slot[end] = 0
	}
	return si
}

// cacheEntry is the result cache R's entry of one Ψ node: its store,
// the end-vertex grouping of the store, built on its first splice, and
// how many of the node's consumers have yet to finish.
type cacheEntry struct {
	store   *pathjoin.Store
	splice  *spliceIndex
	pending int
}

// enumerator carries the shared state of one Ψ traversal.
type enumerator struct {
	g     *graph.Graph
	psi   *sharegraph.Graph
	cache []cacheEntry // by NodeID
	arena *pathjoin.Arena
	ctrl  *query.Control
	st    *Stats
	// steps counts DFS expansions across the whole Ψ traversal; every
	// query.PollInterval-th one polls ctrl, and stopped latches the
	// answer so the unwind is branch-cheap.
	steps   int
	stopped bool

	path []graph.VertexID
	// sc is the traversal's pooled per-vertex scratch; onPath, memoVal
	// and memoGen alias its arrays so the hot loops skip the indirection.
	sc     *scratch.Scratch
	onPath []bool // dense per-vertex membership; push/pop keeps it clean
	node   *sharegraph.Node
	nodeID sharegraph.NodeID
	out    *pathjoin.Store // the arena's open store, the node's results

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
// into a sealed store of the arena: the pruned DFS of Alg. 4's Search,
// except that stepping onto a provider's root vertex splices the
// provider's cached paths (lines 22-23) instead of recursing. aliased
// reports that the store is a provider's, shared whole.
func (e *enumerator) enumerateNode(id sharegraph.NodeID) (out *pathjoin.Store, aliased bool) {
	n := e.psi.Node(id)
	// A provider rooted at this node's own root covers the entire
	// enumeration (duplicate roots, promoted markers): alias its store
	// outright — copying would cost as much as enumerating, and the
	// surplus of a larger-budget provider is harmless because both the
	// join's unique-split pairing and downstream splices select by
	// length (Lemma 4.1 reuse as pure reference, not recomputation).
	if prov, ok := e.psi.SpliceAt(id, n.Root); ok {
		shared := e.cache[prov].store
		e.st.SplicedPaths += int64(shared.Len())
		return shared, true
	}
	e.node, e.nodeID, e.out = n, id, e.arena.Open()
	e.path = append(e.path[:0], n.Root)
	e.gen = e.sc.NextGen()
	e.onPath[n.Root] = true
	e.dfs()
	e.onPath[n.Root] = false
	e.arena.Seal(e.out)
	return e.out, false
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
	for _, w := range e.g.OutNeighbors(e.path[len(e.path)-1]) {
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
	c := &e.cache[prov]
	store := c.store
	if store == nil {
		// Guarded against by the topological order; a miss is a bug.
		panic(fmt.Sprintf("batchenum: provider %d not cached", prov))
	}
	si := c.splice
	if si == nil {
		si = buildSpliceIndex(store, e.sc.Slot)
		c.splice = si
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
		if int16(prefixLen+int(si.minLen[gi])-2) >= b {
			continue
		}
		if e.onPath[end] {
			continue
		}
	group:
		for _, pi := range si.items[si.start[gi]:si.start[gi+1]] {
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
