// Package hcpath is the public API of this repository: batch
// hop-constrained s-t simple path (HC-s-t path) query processing in
// large directed graphs, reproducing "Batch Hop-Constrained s-t Simple
// Path Query Processing in Large Graphs" (Yuan, Hao, Lin, Zhang,
// ICDE 2024).
//
// A Graph is built once from edges or loaded from disk; an Engine then
// answers batches of HC-s-t path queries. The headline algorithm,
// BatchEnumPlus, detects computation shared between the queries of a
// batch — formalised as dominating HC-s path queries — and enumerates
// the common partial paths once:
//
//	g, err := hcpath.NewGraph(4, []hcpath.Edge{{0, 1}, {1, 2}, {0, 2}, {2, 3}})
//	...
//	eng := hcpath.NewEngine(g, nil)
//	res, err := eng.Enumerate([]hcpath.Query{{S: 0, T: 3, K: 3}})
//	for _, p := range res.Paths(0) { fmt.Println(p) }
//
// The paper's baselines (BasicEnum, BasicEnum+, BatchEnum) are exposed
// through Options.Algorithm for comparison, and Stream/Count variants
// avoid materialising exponentially many results.
package hcpath

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/batchenum"
	"repro/internal/graph"
	"repro/internal/hcindex"
	"repro/internal/pathjoin"
	"repro/internal/query"
	"repro/internal/service"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/timing"
)

// VertexID identifies a vertex; vertices are dense integers in [0, N).
type VertexID = graph.VertexID

// Edge is a directed edge.
type Edge struct {
	Src, Dst VertexID
}

// Query is a hop-constrained s-t simple path query q(s,t,k): every
// simple path from S to T with at most K hops.
type Query struct {
	S, T VertexID
	K    int
}

// Path is one result: the vertex sequence from S to T.
type Path []VertexID

// String renders the path as (v0, v1, ..., vk) like the paper. Paths
// print in bulk (every result of a Stream), so the render is kept
// allocation-lean: a strings.Builder sized for typical IDs instead of
// quadratic string concatenation, and strconv.AppendUint instead of
// per-vertex fmt formatting.
func (p Path) String() string {
	var b strings.Builder
	b.Grow(2 + 7*len(p)) // "v12345, " fits most IDs without a regrow
	var num [20]byte
	b.WriteByte('(')
	for i, v := range p {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteByte('v')
		b.Write(strconv.AppendUint(num[:0], uint64(v), 10))
	}
	b.WriteByte(')')
	return b.String()
}

// Len returns the number of hops (edges) of the path.
func (p Path) Len() int { return len(p) - 1 }

// Graph is an immutable directed graph prepared for HC-s-t path
// queries: the CSR adjacency plus its precomputed reverse for backward
// searches.
type Graph struct {
	g  *graph.Graph
	gr *graph.Graph
}

// NewGraph builds a Graph from an edge list with at least n vertices.
// Duplicate edges and self-loops are dropped.
func NewGraph(n int, edges []Edge) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("hcpath: negative vertex count %d", n)
	}
	b := graph.NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e.Src, e.Dst)
	}
	return wrap(b.Build()), nil
}

// LoadGraph reads a graph from disk; ".bin" files use the repository's
// binary CSR format, anything else is parsed as a whitespace-separated
// edge list with '#' comments.
func LoadGraph(path string) (*Graph, error) {
	g, err := graph.LoadFile(path)
	if err != nil {
		return nil, err
	}
	return wrap(g), nil
}

func wrap(g *graph.Graph) *Graph {
	return &Graph{g: g, gr: g.Reverse()}
}

// NumVertices returns |V|.
func (g *Graph) NumVertices() int { return g.g.NumVertices() }

// NumEdges returns |E| after deduplication.
func (g *Graph) NumEdges() int { return g.g.NumEdges() }

// Algorithm selects one of the paper's four engines.
type Algorithm int

// The engines of the paper's evaluation. BatchEnumPlus is the headline
// algorithm and the default.
const (
	// BatchEnumPlus is Algorithm 4 with PathEnum's cost-balanced cut
	// between the forward and backward halves. That cut is all "+"
	// means here: unlike the paper's "+" order, no engine sorts
	// neighbours by residual distance, which in an exhaustive search
	// changes only the emission order. A Limit-truncated query returns
	// its first paths in stored neighbour order.
	BatchEnumPlus Algorithm = iota
	// BatchEnum is Algorithm 4 with the ⌈k/2⌉ cut.
	BatchEnum
	// BasicEnumPlus processes queries independently over a shared
	// index, with the cost-balanced cut and, as for BatchEnumPlus,
	// stored neighbour order.
	BasicEnumPlus
	// BasicEnum is Algorithm 1: independent processing, ⌈k/2⌉ cut.
	BasicEnum
)

func (a Algorithm) internal() batchenum.Algorithm {
	switch a {
	case BatchEnum:
		return batchenum.Batch
	case BasicEnumPlus:
		return batchenum.BasicPlus
	case BasicEnum:
		return batchenum.Basic
	default:
		return batchenum.BatchPlus
	}
}

// String implements fmt.Stringer with the paper's names.
func (a Algorithm) String() string { return a.internal().String() }

// Options tunes an Engine. The zero value matches the paper's defaults.
type Options struct {
	// Algorithm selects the engine; the zero value is BatchEnumPlus.
	Algorithm Algorithm
	// Gamma is the query-clustering merge threshold γ ∈ (0, 1]; zero
	// means the paper's default 0.5. Smaller values merge more queries
	// into one sharing group.
	Gamma float64
	// MaxHops caps K per query; zero means the internal limit of 15.
	// Values above 255 are clamped to 255, the largest representable hop
	// constraint. Enumeration cost and result counts grow exponentially
	// with K.
	MaxHops int
	// Workers is the enumeration parallelism: how many goroutines drain
	// a batch's tasks — one PathEnum per query for the independent
	// engines; for the batch engines, which answer each distinct query
	// once for all its copies, one build per sharing group of distinct
	// queries, then one ⊕ join per distinct query. Zero or negative means
	// GOMAXPROCS, like the index build; a positive count is exact, and
	// one runs the batch inline on the calling goroutine. This public
	// layer resolves the value once (resolveWorkers); every internal
	// layer takes the exact count. With more than one worker different
	// queries' paths interleave in the emission order (per-query
	// results, and each query's own order, are unaffected).
	Workers int
	// Limit, when positive, caps the result paths emitted per query: a
	// query with more paths is truncated to exactly Limit results, its
	// join/output loops stop early, and the run reports it through
	// Stats.Truncated / Result.Truncated / Result.Err (ErrLimitReached).
	// Limit bounds output volume, not enumeration time — the partial-path
	// search that precedes the output phase does not know how many joins
	// it will feed, so an adversarial query (large K on a dense graph)
	// still needs a context deadline (EnumerateContext et al.) or a
	// service QueryTimeout to bound its work.
	Limit int64
}

// DefaultIndexCacheBytes is the index-cache budget a Service uses when
// ServiceOptions.IndexCacheBytes is zero.
const DefaultIndexCacheBytes = hcindex.DefaultCacheBytes

// maxHopsLimit is the largest accepted hop constraint: queries carry K
// as uint8 internally, so anything larger would silently truncate.
const maxHopsLimit = 255

// resolveWorkers is the one place a public Workers value becomes a
// goroutine count: positive is taken literally, zero and negative mean
// GOMAXPROCS, for an Engine and a Service alike. Everything below this
// package takes the exact count and never reinterprets it. The index
// build's width is not an option: an Engine builds on GOMAXPROCS
// goroutines (it has one batch in flight), a Service on one (its batch
// slots already fill the cores). Algorithm 2's µ matrix runs at the
// build's width.
func resolveWorkers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

func (o *Options) maxHops() int {
	if o == nil || o.MaxHops <= 0 {
		return 15
	}
	if o.MaxHops > maxHopsLimit {
		return maxHopsLimit
	}
	return o.MaxHops
}

// Engine answers HC-s-t path query batches on one graph.
type Engine struct {
	g    *Graph
	opts Options
	// provider lives as long as the engine: a pooled cold builder whose
	// dense arrays and MS-BFS scratch recycle from batch to batch.
	provider hcindex.Provider
}

// NewEngine returns an engine over g; nil opts selects the defaults
// (BatchEnum+ with γ = 0.5). Every batch builds its index afresh
// (offline batches rarely repeat endpoints; a Service caches), but
// through one long-lived pooled builder, so steady-state calls stop
// allocating per-vertex arrays.
func NewEngine(g *Graph, opts *Options) *Engine {
	e := &Engine{g: g}
	if opts != nil {
		e.opts = *opts
	}
	e.provider = hcindex.NewBuilderWorkers(true, runtime.GOMAXPROCS(0)) // see resolveWorkers
	return e
}

// ErrLimitReached marks a query whose result set was truncated to
// Options.Limit while more paths remained. It is reported per query
// (Result.Err, Service.Query) — never as a run-level error, since one
// batch can mix limit-hit and complete queries — and is distinct from
// a context error, which means cancellation cut the query short at an
// arbitrary point rather than at its limit.
var ErrLimitReached = query.ErrLimitReached

// Result holds the materialised paths of one batch, grouped by query
// position.
type Result struct {
	paths [][]Path
	qerr  []error // per-query truncation cause; nil entries = complete
	stats Stats
}

// Paths returns the HC-s-t paths of the i-th query of the batch, or nil
// when i is not a valid query position. Like Service.Query's, they are
// views into one flat array per query, each clipped to its own length:
// retaining one path keeps its query's whole result set reachable.
func (r *Result) Paths(i int) []Path {
	if i < 0 || i >= len(r.paths) {
		return nil
	}
	return r.paths[i]
}

// Count returns the number of paths of the i-th query, or zero when i
// is not a valid query position.
func (r *Result) Count(i int) int {
	if i < 0 || i >= len(r.paths) {
		return 0
	}
	return len(r.paths[i])
}

// Truncated reports whether the i-th query's result set was cut short
// (by Options.Limit or by cancellation); Err says which. Out-of-range
// positions report false.
func (r *Result) Truncated(i int) bool { return r.Err(i) != nil }

// Err explains the i-th query's truncation: nil for a complete result
// set (and for out-of-range positions), ErrLimitReached when
// Options.Limit cut it short, or the context's error when the run was
// cancelled before the query finished.
func (r *Result) Err(i int) error {
	if i < 0 || i >= len(r.qerr) {
		return nil
	}
	return r.qerr[i]
}

// TotalPaths returns the number of paths across the whole batch.
func (r *Result) TotalPaths() int {
	n := 0
	for _, ps := range r.paths {
		n += len(ps)
	}
	return n
}

// Stats returns the run's execution statistics.
func (r *Result) Stats() Stats { return r.stats }

// Stats summarises a run: phase times and sharing counters.
type Stats struct {
	// IndexNanos, ClusterNanos, DetectNanos and EnumerateNanos decompose
	// the wall-clock time (Fig. 9's four phases).
	IndexNanos, ClusterNanos, DetectNanos, EnumerateNanos int64
	// Groups is the number of query clusters formed.
	Groups int
	// SharedQueries is the number of dominating HC-s path queries
	// detected across the batch.
	SharedQueries int
	// SplicedPaths counts partial paths answered from the cache instead
	// of recomputed — the direct measure of sharing.
	SplicedPaths int64
	// IndexHits and IndexMisses count the run's index probes (two per
	// distinct query for the batch engines, two per query for the
	// independent ones) answered from the provider's cross-batch cache
	// vs built fresh; without a cache every probe is a miss.
	IndexHits, IndexMisses int
	// Truncated counts queries whose result sets were cut short — by
	// Options.Limit or by cancellation. Zero means every result set in
	// the run is complete; per-query causes are on Result.Err.
	Truncated int
}

// convertQuery checks the hop constraint against the engine's cap before
// the narrowing cast to the internal uint8 representation; maxHops is
// already clamped to maxHopsLimit, so the cast cannot truncate. A
// negative i omits the batch position from the error (single-query
// submissions have none).
func convertQuery(q Query, i, maxHops int) (query.Query, error) {
	if q.K < 1 || q.K > maxHops {
		if i < 0 {
			return query.Query{}, fmt.Errorf("hcpath: hop constraint %d outside [1, %d]", q.K, maxHops)
		}
		return query.Query{}, fmt.Errorf("hcpath: query %d: hop constraint %d outside [1, %d]", i, q.K, maxHops)
	}
	return query.Query{S: q.S, T: q.T, K: uint8(q.K)}, nil
}

func (e *Engine) convert(qs []Query) ([]query.Query, error) {
	out := make([]query.Query, len(qs))
	for i, q := range qs {
		iq, err := convertQuery(q, i, e.opts.maxHops())
		if err != nil {
			return nil, err
		}
		out[i] = iq
	}
	return out, nil
}

func (e *Engine) options() batchenum.Options {
	return batchenum.Options{
		Algorithm: e.opts.Algorithm.internal(),
		Gamma:     e.opts.Gamma,
		Provider:  e.provider,
		Workers:   resolveWorkers(e.opts.Workers),
	}
}

// run answers one batch through the engine, threading the run's
// Control into the enumeration loops.
func (e *Engine) run(qs []query.Query, ctrl *query.Control, sink query.Sink) (*batchenum.Stats, error) {
	return batchenum.Run(e.g.g, e.g.gr, qs, e.options(), ctrl, sink)
}

// control builds the Control governing one run over a batch of n
// queries; nil when neither ctx nor Options.Limit can stop it early.
func (e *Engine) control(ctx context.Context, n int) *query.Control {
	return query.NewControl(ctx, time.Time{}, e.opts.Limit, n)
}

// queryErrs collects the batch's per-query truncation causes, nil when
// every result set is complete.
func queryErrs(ctrl *query.Control, n int) []error {
	if ctrl == nil {
		return nil
	}
	var errs []error
	for i := 0; i < n; i++ {
		if err := ctrl.QueryErr(i); err != nil {
			if errs == nil {
				errs = make([]error, n)
			}
			errs[i] = err
		}
	}
	return errs
}

// statsOf projects the engine's internal counters onto the public
// Stats; the directive keeps the projection exhaustive as fields land.
//
//hcpath:mergefields Stats
func statsOf(st *batchenum.Stats) Stats {
	ph := st.Phases
	return Stats{
		IndexNanos:     ph.Get(timing.BuildIndex).Nanoseconds(),
		ClusterNanos:   ph.Get(timing.ClusterQuery).Nanoseconds(),
		DetectNanos:    ph.Get(timing.IdentifySubquery).Nanoseconds(),
		EnumerateNanos: ph.Get(timing.Enumeration).Nanoseconds(),
		Groups:         st.NumGroups,
		SharedQueries:  st.SharedNodes,
		SplicedPaths:   st.SplicedPaths,
		IndexHits:      st.IndexHits,
		IndexMisses:    st.IndexMisses,
		Truncated:      st.Truncated,
	}
}

// Enumerate answers the batch and materialises every path. Result sets
// grow exponentially with K; prefer Stream or Count for large K, or
// bound the output with Options.Limit.
func (e *Engine) Enumerate(qs []Query) (*Result, error) {
	return e.EnumerateContext(context.Background(), qs)
}

// EnumerateContext is Enumerate under a context: the enumeration loops
// poll ctx and unwind promptly when it is cancelled or its deadline
// passes. On cancellation it returns the partial Result it had built
// alongside ctx's error — every contained path is a genuine result;
// Result.Err tells per query whether its set is complete, truncated by
// Options.Limit (ErrLimitReached), or cut off by the cancellation.
// Limit truncation alone is not an error: the call returns nil with
// Stats.Truncated set.
func (e *Engine) EnumerateContext(ctx context.Context, qs []Query) (*Result, error) {
	iqs, err := e.convert(qs)
	if err != nil {
		return nil, err
	}
	ctrl := e.control(ctx, len(qs))
	// Each query collects into a pooled staging store (one query's
	// emissions never overlap), which is copied out at its final size
	// once the run has ended.
	stages := make([]*pathjoin.Store, len(qs))
	for i := range stages {
		stages[i] = pathjoin.GetStaging()
	}
	st, err := e.run(iqs, ctrl, query.FuncSink(func(ids []int, p []graph.VertexID) {
		for _, id := range ids {
			stages[id].Add(p)
		}
	}))
	res := &Result{paths: make([][]Path, len(qs))}
	for i, s := range stages {
		if s.Len() > 0 {
			settled := s.Clone()
			res.paths[i] = cutPaths(&settled)
		}
		pathjoin.PutStaging(s)
	}
	if st == nil {
		return nil, err // validation failure: no run happened
	}
	res.stats = statsOf(st)
	res.qerr = queryErrs(ctrl, len(qs))
	return res, err
}

// Stream answers the batch and calls emit once per result path with the
// query's batch position. The path slice is reused between calls; copy
// it to retain it. Calls to emit never overlap, whatever
// Options.Workers is: the engine serialises them with one lock, so emit
// needs none of its own (and a slow emit holds up the other workers).
func (e *Engine) Stream(qs []Query, emit func(queryIndex int, path Path)) (Stats, error) {
	return e.StreamContext(context.Background(), qs, emit)
}

// StreamContext is Stream under a context, with EnumerateContext's
// cancellation semantics: every path emitted before the cancellation is
// a genuine result, the returned error is ctx's, and Stats.Truncated
// counts the queries whose streams were cut short.
func (e *Engine) StreamContext(ctx context.Context, qs []Query, emit func(queryIndex int, path Path)) (Stats, error) {
	iqs, err := e.convert(qs)
	if err != nil {
		return Stats{}, err
	}
	ctrl := e.control(ctx, len(qs))
	// Copies of one query receive one slice, so emit gets a
	// fresh copy in buf for each of them: a callback that writes into
	// its path cannot change what the next query receives. mu guards
	// buf too.
	var mu sync.Mutex
	var buf Path
	st, err := e.run(iqs, ctrl, query.FuncSink(func(ids []int, p []graph.VertexID) {
		mu.Lock()
		for _, id := range ids {
			buf = append(buf[:0], p...)
			//hcpath:locksend-ok mu exists solely to serialise the caller's emit, as Stream documents; only this run's workers contend for it
			emit(id, buf)
		}
		mu.Unlock()
	}))
	if st == nil {
		return Stats{}, err
	}
	return statsOf(st), err
}

// Count answers the batch returning only per-query result counts, the
// cheapest mode for exponentially large result sets.
func (e *Engine) Count(qs []Query) ([]int64, Stats, error) {
	return e.CountContext(context.Background(), qs)
}

// CountContext is Count under a context, with EnumerateContext's
// cancellation semantics: on cancellation the counts enumerated so far
// are returned with ctx's error, and with Options.Limit set each count
// saturates at the limit (Stats.Truncated tells how many did).
func (e *Engine) CountContext(ctx context.Context, qs []Query) ([]int64, Stats, error) {
	iqs, err := e.convert(qs)
	if err != nil {
		return nil, Stats{}, err
	}
	ctrl := e.control(ctx, len(qs))
	sink := query.NewCountSink(len(qs))
	st, err := e.run(iqs, ctrl, sink)
	if st == nil {
		return nil, Stats{}, err
	}
	return sink.Counts(), statsOf(st), err
}

// BatchStats describes one micro-batch a Service dispatched: queries
// coalesced, sharing found, and wait vs. enumerate time. Its
// SharingRatio method summarises how much of the batch was coalesced.
type BatchStats = service.BatchStats

// ServiceTotals aggregates a Service's lifetime counters.
type ServiceTotals = service.Totals

// ErrServiceClosed is returned by Service queries after Close.
var ErrServiceClosed = service.ErrClosed

// ErrOverloaded is returned by Service queries shed by admission
// control (the queue is at MaxQueued, or the caller exhausted its
// MaxPerCaller quota). The query never ran; back off and retry. Test
// with errors.Is — the error is wrapped with context.
var ErrOverloaded = service.ErrOverloaded

// Backoff is the bounded retry policy for callers shed with
// ErrOverloaded — exponential with a per-attempt ceiling, equal-jittered
// so synchronized clients desynchronize, and bounded in total so a
// retry loop gives up loudly instead of spinning forever against a
// service that is not recovering. The zero value retries from 1ms up to
// 64ms per attempt for at most 2s total. The wire client's dialer uses
// the same policy (see ConnectService).
//
//	retry := hcpath.Backoff{}.Start()
//	for {
//		_, _, err := svc.Query(ctx, q)
//		if errors.Is(err, hcpath.ErrOverloaded) {
//			var oe *hcpath.OverloadedError // retry-after hint, wire only
//			hint := time.Duration(0)
//			if errors.As(err, &oe) {
//				hint = oe.RetryAfter
//			}
//			if err := retry.Sleep(ctx, hint); err != nil {
//				return err // budget exhausted (ErrBackoffExhausted) or ctx
//			}
//			continue
//		}
//		return err
//	}
type Backoff = shard.Backoff

// BackoffSleeper tracks one retry loop's position in its Backoff
// schedule; obtain one from Backoff.Start, one per loop.
type BackoffSleeper = shard.Sleeper

// ErrBackoffExhausted marks a retry loop that gave up: the Backoff's
// Total sleep budget was spent and the operation still sheds.
var ErrBackoffExhausted = shard.ErrBackoffExhausted

// OverloadedError is the form ErrOverloaded takes when a remote worker
// sheds a query over the wire (ConnectService): it carries the server's
// retry-after hint for the caller's Backoff. errors.Is(err,
// ErrOverloaded) matches it; errors.As extracts the hint.
type OverloadedError = shard.OverloadedError

// ErrWorkerDown marks a query or update on a ConnectService deployment
// that failed because a worker's connection is gone — refused, dropped
// mid-request, or corrupt. In-flight calls fail with it immediately
// instead of hanging on the dead socket. Test with errors.Is.
var ErrWorkerDown = shard.ErrWorkerDown

// WorkerDownError wraps ErrWorkerDown with which worker (address and
// shard index) and why; extract with errors.As.
type WorkerDownError = shard.WorkerDownError

// ServiceOptions tunes a Service. The zero value batches by load — a
// query that finds a core idle is answered at once, queries that arrive
// while every core is busy leave together, up to 64 of them, when a
// batch finishes — and answers each batch with BatchEnum+, its group
// builds and ⊕ joins drained by GOMAXPROCS workers.
type ServiceOptions struct {
	// Options configures the engine each micro-batch runs through,
	// exactly as for NewEngine: zero or negative Workers means
	// GOMAXPROCS workers per batch, a positive count is exact, and one
	// runs each batch inline on its dispatch goroutine.
	Options
	// IndexCacheBytes is the byte budget of the service's cross-batch
	// hop-distance-map cache, which lets batches that repeat endpoints
	// reuse each other's MS-BFS results (a cached entry also serves
	// queries with a smaller hop cap, via threshold filtering). Zero
	// means DefaultIndexCacheBytes; negative disables the cache, so
	// every batch builds its index cold.
	IndexCacheBytes int64
	// MaxBatch caps the queries coalesced into one micro-batch; zero
	// means 64.
	MaxBatch int
	// MaxWait is the longest a formed batch is held, counted from its
	// first query, while every idle slot is busy (there are
	// min(GOMAXPROCS, MaxInFlight) of them); zero means 2ms. It is not a
	// window queries wait out for company: with a slot idle a batch
	// leaves at once and MaxWait never enters. Past MaxWait the batch
	// runs beside the busy ones, unless MaxInFlight forbids — so one
	// long-running batch cannot hold later traffic hostage.
	MaxWait time.Duration
	// CompactAfter tunes the versioned graph store behind ApplyUpdates:
	// live edge changes accumulate in a compact delta overlay, and once
	// the effective changes since the last base reach this count the
	// ApplyUpdates that reached it folds the delta into a fresh CSR
	// before returning (queries keep running meanwhile). Zero selects
	// the store default (max(4096, edges/8)); negative disables automatic
	// compaction. Irrelevant until ApplyUpdates is used. With DataDir set
	// every fold also writes the snapshot file, so with a negative value
	// nothing is snapshotted until Service.Checkpoint.
	CompactAfter int
	// QueryTimeout, when positive, bounds each micro-batch's engine
	// time: a batch that exceeds it stops promptly, queries already
	// finished keep their complete results, and the rest return their
	// partial results with context.DeadlineExceeded. It is the
	// service-side guard the paper's exponential result sets demand —
	// one runaway K=15 query cannot hold its whole batch hostage.
	// (Options.Limit bounds output volume the same way; a caller's own
	// ctx cancels only that caller's wait, never the batch.)
	QueryTimeout time.Duration
	// MaxInFlight is the hard bound on micro-batches running
	// concurrently; at the bound nothing is dispatched, the forming batch
	// absorbs traffic up to MaxBatch and the rest accumulates in the
	// queue. Zero means unlimited: only MaxWait and MaxBatch then send a
	// batch beyond one per core. A value below GOMAXPROCS also lowers
	// the number of idle slots a lone query can take without waiting.
	MaxInFlight int
	// MaxQueued bounds the queries admitted but not yet dispatched;
	// beyond it, queries are shed with ErrOverloaded instead of growing
	// the queue without bound. Shedding happens only at admission — an
	// accepted query is always answered. Zero means unlimited.
	MaxQueued int
	// MaxPerCaller is the fairness quota: the maximum
	// admitted-but-unresolved queries any one caller (as named by
	// QueryFrom/CountFrom; anonymous callers share one bucket) may hold.
	// A flooding caller is shed with ErrOverloaded while others keep
	// being admitted. Zero means no quota.
	MaxPerCaller int
	// OnBatch, when non-nil, observes every completed batch's stats;
	// calls are serialised.
	OnBatch func(BatchStats)
	// DataDir, when non-empty, makes the graph store durable: every
	// ApplyUpdates is appended to a CRC-framed write-ahead log under
	// this directory before its epoch publishes, every fold (see
	// CompactAfter) writes the fresh graph as a snapshot file, and
	// OpenService warm-restarts from the directory's contents — the
	// newest snapshot plus the log since — reaching the exact pre-crash
	// epoch, edge set and pending delta, so later folds land at the same
	// epochs as in a run that never stopped. Only OpenService honours
	// it; NewService (which cannot report I/O errors) panics when it is
	// set.
	DataDir string
	// Fsync selects when WAL appends reach stable storage when DataDir
	// is set: FsyncAlways (the default — an acknowledged update survives
	// any crash), FsyncInterval (background sync every 100ms; at most
	// one interval of acknowledged updates lost), or FsyncOff (sync only
	// when a fold writes its snapshot and at Close; for bulk loads).
	Fsync FsyncPolicy
	// Shards, when greater than one, runs the service in the in-process
	// sharded deployment mode: that many shard workers — each with its
	// own store, index cache, and micro-batching pipeline — behind a
	// router that hash-partitions the vertex space. A query whose
	// endpoints share a worker joins that worker's micro-batches
	// unchanged; a query whose endpoints are owned by different workers
	// runs whole on the worker owning its source, as a batch of one on
	// the caller's goroutine (it skips that worker's queue, not its
	// engine, admission or counters). Results are identical to the
	// unsharded service. Updates fan out to every worker atomically per
	// epoch. Combined with DataDir (through OpenService), worker i owns
	// the directory DataDir/shard-i and a warm restart reopens every
	// worker from its own WAL and snapshots. For the multi-process
	// deployment — same hash partition and the same owner for every
	// query, reached over TCP and through its micro-batches — see
	// NewShardServer and ConnectService. Zero or one means the ordinary
	// single-process service.
	Shards int
}

// FsyncPolicy selects when WAL appends reach stable storage; see
// ServiceOptions.Fsync.
type FsyncPolicy = store.FsyncPolicy

// The WAL durability policies, re-exported from the store layer.
const (
	FsyncAlways   = store.FsyncAlways
	FsyncInterval = store.FsyncInterval
	FsyncOff      = store.FsyncOff
)

// ParseFsyncPolicy parses the spellings FsyncPolicy.String produces —
// "always", "interval", "off" — the way the CLI's -fsync flag does.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) { return store.ParseFsyncPolicy(s) }

// StoreState identifies a graph snapshot's logical content — epoch,
// sizes, and a checksum over the canonical CSR serialization — for
// cross-process comparison: a warm-restarted service and its pre-crash
// original must agree on all four fields. See Service.State.
type StoreState = store.State

// Service is a long-lived concurrent query server over one graph: many
// goroutines submit single queries, the service micro-batches whatever
// is waiting when a batch slot is idle (so batches grow with load, and a
// lone query does not wait), answers each batch with the batch
// engines so concurrent queries share their common sub-queries, and
// resolves every caller with exactly its own results. All methods are
// safe for concurrent use; Close releases the collector.
//
// With ServiceOptions.Shards > 1 the same API is served by the sharded
// deployment — a routing coordinator over per-shard workers, each query
// answered whole by one worker — with identical results; ShardTotals
// and Sharding expose the per-worker view.
type Service struct {
	svc     backend
	coord   *shard.Coordinator // non-nil iff Shards > 1
	maxHops int
}

// backend is the deployment behind a Service: the single-process
// micro-batching service, or the sharded coordinator. Both expose the
// same submit/update/stats surface, so every Service method delegates
// without caring which deployment answers.
type backend interface {
	Submit(ctx context.Context, caller string, q query.Query, collect bool) (*service.Reply, error)
	ApplyUpdates(adds, dels []graph.Edge) (uint64, error)
	Epoch() uint64
	Stats() service.Totals
	State() store.State
	Checkpoint() error
	Close() error
}

// config lowers the public options onto the internal service config.
func (o ServiceOptions) config() service.Config {
	return service.Config{
		MaxBatch:     o.MaxBatch,
		MaxWait:      o.MaxWait,
		QueryTimeout: o.QueryTimeout,
		Limit:        o.Limit,
		CompactAfter: o.CompactAfter,
		MaxInFlight:  o.MaxInFlight,
		MaxQueued:    o.MaxQueued,
		MaxPerCaller: o.MaxPerCaller,
		Engine: batchenum.Options{
			Algorithm: o.Algorithm.internal(),
			Gamma:     o.Gamma,
			Workers:   resolveWorkers(o.Workers),
		},
		IndexCacheBytes: o.IndexCacheBytes,
		OnBatch:         o.OnBatch,
		DataDir:         o.DataDir,
		Fsync:           o.Fsync,
		Shards:          o.Shards,
	}
}

// NewService starts an in-memory micro-batching query service on g.
// nil opts selects the defaults: BatchEnum+ (γ = 0.5) parallel across
// group builds and ⊕ joins, batches of ≤ 64 queries formed by
// load and held ≤ 2ms behind busy cores.
// Setting ServiceOptions.DataDir panics — durability involves I/O that
// can fail, so it is only available through OpenService.
func NewService(g *Graph, opts *ServiceOptions) *Service {
	var o ServiceOptions
	if opts != nil {
		o = *opts
	}
	if o.DataDir != "" {
		panic("hcpath: ServiceOptions.DataDir requires OpenService, which can report I/O errors")
	}
	if o.Shards > 1 {
		coord := shard.New(g.g, g.gr, o.config())
		return &Service{svc: coord, coord: coord, maxHops: o.maxHops()}
	}
	return &Service{svc: service.New(g.g, g.gr, o.config()), maxHops: o.maxHops()}
}

// OpenService is NewService with durability: when opts.DataDir is set,
// updates are write-ahead logged and folds snapshotted under that
// directory, and an existing directory warm-restarts the service at
// its pre-crash epoch and edge set — g then only seeds an empty
// directory (the on-disk state wins) and may be nil to require
// existing state or start empty. With an empty DataDir it behaves
// exactly like NewService (g must be non-nil).
//
// Combined with Shards > 1, worker i owns DataDir/shard-i (its own WAL
// and snapshots); a warm restart reopens every worker from its
// directory and refuses the deployment if the replicas diverged.
func OpenService(g *Graph, opts *ServiceOptions) (*Service, error) {
	var o ServiceOptions
	if opts != nil {
		o = *opts
	}
	var ig, igr *graph.Graph
	if g != nil {
		ig, igr = g.g, g.gr
	} else if o.DataDir == "" {
		return nil, fmt.Errorf("hcpath: OpenService needs a graph or a DataDir")
	}
	if o.Shards > 1 {
		coord, err := shard.Open(ig, igr, o.config())
		if err != nil {
			return nil, err
		}
		return &Service{svc: coord, coord: coord, maxHops: o.maxHops()}, nil
	}
	svc, err := service.Open(ig, igr, o.config())
	if err != nil {
		return nil, err
	}
	return &Service{svc: svc, maxHops: o.maxHops()}, nil
}

// Query submits one query, blocks until its micro-batch completes (or
// ctx is cancelled), and returns the query's paths plus the stats of the
// batch that carried it.
//
// Cancelling ctx abandons only this caller's wait — the batch keeps
// running and co-batched queries are unaffected. A non-nil error with
// non-nil paths means a partial result set: ErrLimitReached when
// Options.Limit truncated it, context.DeadlineExceeded when the
// service's QueryTimeout stopped the batch first. Every returned path
// is a genuine result either way.
//
// The returned paths are views into one flat array holding the whole
// result set, each clipped to its own length — appending to one never
// touches another. The batch collects the paths in a pooled staging
// store and copies them out once, so the array is a single allocation
// of exactly the result set's size however many paths there are.
// Retaining any single Path therefore keeps the query's entire result
// set reachable; copy a path out to keep it alone.
func (s *Service) Query(ctx context.Context, q Query) ([]Path, BatchStats, error) {
	return s.QueryFrom(ctx, "", q)
}

// QueryFrom is Query with a caller identity for the MaxPerCaller
// fairness quota: callers are accounted by the given name, and a caller
// at its quota is shed with ErrOverloaded while others keep being
// admitted. With no quota configured the name is ignored.
func (s *Service) QueryFrom(ctx context.Context, caller string, q Query) ([]Path, BatchStats, error) {
	iq, err := convertQuery(q, -1, s.maxHops)
	if err != nil {
		return nil, BatchStats{}, err
	}
	r, err := s.svc.Submit(ctx, caller, iq, true)
	if err != nil {
		return nil, BatchStats{}, err
	}
	return cutPaths(&r.Paths), r.Batch, r.Err
}

// cutPaths cuts a store's flat arena into one header slice of Paths
// without copying a vertex. Each Path is clipped to its own capacity,
// so an append on one reallocates instead of running into its
// neighbour.
func cutPaths(s *pathjoin.Store) []Path {
	verts, offs := s.Raw()
	paths := make([]Path, s.Len())
	for i := range paths {
		a, b := offs[i], offs[i+1]
		paths[i] = Path(verts[a:b:b])
	}
	return paths
}

// Count is Query without materialising paths — the cheap mode, since
// result counts grow exponentially with K. Like Query, a non-nil
// ErrLimitReached or context.DeadlineExceeded accompanies a partial
// (lower-bound) count rather than replacing it.
func (s *Service) Count(ctx context.Context, q Query) (int64, BatchStats, error) {
	return s.CountFrom(ctx, "", q)
}

// CountFrom is Count with a caller identity, as QueryFrom is to Query.
func (s *Service) CountFrom(ctx context.Context, caller string, q Query) (int64, BatchStats, error) {
	iq, err := convertQuery(q, -1, s.maxHops)
	if err != nil {
		return 0, BatchStats{}, err
	}
	r, err := s.svc.Submit(ctx, caller, iq, false)
	if err != nil {
		return 0, BatchStats{}, err
	}
	return r.Count, r.Batch, r.Err
}

// ApplyUpdates publishes a new graph version with dels removed and adds
// inserted, without restarting the service or rebuilding the graph:
// changed adjacency rows are merged once into a compact delta overlay
// and the result is swapped in atomically as a new epoch. Micro-batches
// already dispatched finish on the snapshot they started with; every
// batch formed afterwards sees the new graph, and the cross-batch index
// cache keys its entries by epoch, so a post-update query is never
// answered from pre-update distances.
//
// Deletions apply before additions (an edge in both ends up present),
// self-loops and duplicate adds are dropped, deleting an absent edge is
// a no-op, and adds may name vertices beyond the current size — the
// vertex space grows to fit (it never shrinks). When the accumulated
// delta outgrows ServiceOptions.CompactAfter this call also folds it
// into a fresh CSR base, one more epoch. Returns the epoch now current.
func (s *Service) ApplyUpdates(adds, dels []Edge) (uint64, error) {
	ia := make([]graph.Edge, len(adds))
	for i, e := range adds {
		ia[i] = graph.Edge{Src: e.Src, Dst: e.Dst}
	}
	id := make([]graph.Edge, len(dels))
	for i, e := range dels {
		id[i] = graph.Edge{Src: e.Src, Dst: e.Dst}
	}
	return s.svc.ApplyUpdates(ia, id)
}

// Epoch returns the service's current graph version: zero at start,
// bumped by every effective ApplyUpdates and by every compaction that
// such an update triggers. Within one process it is a pure function of
// the update sequence: the effective updates plus Totals().Compactions.
func (s *Service) Epoch() uint64 { return s.svc.Epoch() }

// Totals returns a snapshot of the service's lifetime counters. On a
// sharded service, the per-worker totals are merged into one
// deployment-wide view, in which every query counts once: each is in
// the Totals of the one worker that answered it (an in-process
// cross-shard query as a batch of one). ShardTotals exposes the
// unmerged per-worker counters.
func (s *Service) Totals() ServiceTotals { return s.svc.Stats() }

// ShardingStats counts how a sharded service classified its traffic:
// queries forwarded to the worker owning both endpoints (SingleShard)
// and queries whose endpoints are owned by two workers (CrossShard —
// answered whole by the source's owner: inline as a batch of one
// in-process, through its micro-batches by ConnectService). CrossShed
// and EpochRetries are always zero: the router neither sheds nor
// retries; admission control is each worker's.
type ShardingStats = shard.RoutingStats

// ShardOf returns the worker that owns vertex v in a deployment of the
// given shard count — the hash partition the sharded service routes
// by. It is deterministic across runs and total over the ID space
// (vertices created later by ApplyUpdates already have an owner), so
// clients and tests can predict placement. Any count below two maps
// every vertex to worker 0.
func ShardOf(v VertexID, shards int) int { return shard.ShardOf(v, shards) }

// NumShards returns the service's worker count: 1 for the ordinary
// single-process service, ServiceOptions.Shards for a sharded one.
func (s *Service) NumShards() int {
	if s.coord == nil {
		return 1
	}
	return s.coord.NumShards()
}

// ShardTotals returns each shard worker's own lifetime counters, in
// shard order, or nil for an unsharded service. Every query is in
// exactly one worker's counters — a cross-shard one in its source
// owner's — so they sum to the merged Totals' query count.
func (s *Service) ShardTotals() []ServiceTotals {
	if s.coord == nil {
		return nil
	}
	return s.coord.ShardTotals()
}

// Sharding returns the routing counters of a sharded service; the zero
// value for an unsharded one.
func (s *Service) Sharding() ShardingStats {
	if s.coord == nil {
		return ShardingStats{}
	}
	return s.coord.Routing()
}

// WireStats is one remote worker connection's transport counters:
// request frames sent and socket flushes. RPCs/Flushes is the write
// coalescing factor — how many concurrent requests shared one
// round-trip on average.
type WireStats = shard.WireStats

// Wire returns per-worker transport counters of a service built by
// ConnectService, in shard order; nil for any in-process deployment.
func (s *Service) Wire() []WireStats {
	if s.coord == nil {
		return nil
	}
	return s.coord.Wire()
}

// ConnectService builds a Service over remote shard workers, one
// address per shard, address i serving shard i of len(addrs). Each
// worker is a NewShardServer process (cmd/hcpath -serve); the returned
// Service routes by the same hash partition as the in-process sharded
// deployment and sends every query whole — one RPC over the package's
// length-prefixed, CRC-framed TCP protocol — to the worker owning its
// source vertex, where it joins that worker's micro-batches. Results
// are identical to the single-process service. Connection attempts
// retry under a bounded backoff while workers start; the handshake
// verifies protocol version and each worker's exact shard identity, and
// the workers must agree on one store.State before any traffic is
// accepted.
//
// Of opts only MaxHops is read: it validates queries before they are
// sent. Everything else — Limit, QueryTimeout, batching, admission,
// durability, cache — is fixed by each worker's own process (pass it to
// NewShardServer / hcpath -serve); Shards and DataDir here are
// ignored. Closing the Service drops the connections — worker
// processes keep serving.
func ConnectService(ctx context.Context, addrs []string, opts *ServiceOptions) (*Service, error) {
	var o ServiceOptions
	if opts != nil {
		o = *opts
	}
	coord, err := shard.Connect(ctx, addrs)
	if err != nil {
		return nil, err
	}
	return &Service{svc: coord, coord: coord, maxHops: o.maxHops()}, nil
}

// ShardServer runs one shard worker of a multi-process sharded
// deployment: a full micro-batching service over its replica of the
// graph, answering the coordinator's wire RPCs (see ConnectService).
// Start one per process with cmd/hcpath -serve, or embed it directly.
type ShardServer struct {
	srv *shard.Server
}

// NewShardServer builds worker shardIdx of a deployment of shards
// workers over g. The worker's service runs opts, never itself sharded;
// its store folds deltas inside the update that crosses CompactAfter,
// so every replica given the same opts steps through the identical
// epoch sequence. opts.DataDir, when set, is this worker's own durable
// directory (give each worker process its own — the in-process
// deployment's DataDir/shard-i layout, spread across machines); an
// existing directory warm-restarts the worker, and g may then be nil.
func NewShardServer(g *Graph, opts *ServiceOptions, shardIdx, shards int) (*ShardServer, error) {
	if shards < 1 || shardIdx < 0 || shardIdx >= shards {
		return nil, fmt.Errorf("hcpath: shard index %d out of range for %d shards", shardIdx, shards)
	}
	var o ServiceOptions
	if opts != nil {
		o = *opts
	}
	var ig, igr *graph.Graph
	if g != nil {
		ig, igr = g.g, g.gr
	} else if o.DataDir == "" {
		return nil, fmt.Errorf("hcpath: NewShardServer needs a graph or a DataDir")
	}
	cfg := o.config()
	cfg.Shards = 0
	svc, err := service.Open(ig, igr, cfg)
	if err != nil {
		return nil, err
	}
	return &ShardServer{srv: shard.NewServer(svc, shardIdx, shards)}, nil
}

// Serve accepts coordinator connections on ln until Close; it returns
// nil after Close, or the listener's error. Multiple coordinators may
// be connected at once.
func (s *ShardServer) Serve(ln net.Listener) error { return s.srv.Serve(ln) }

// Close stops accepting, drops every coordinator connection, and
// closes the worker's service — flushing its durable state when the
// worker owns a DataDir. Idempotent.
func (s *ShardServer) Close() error { return s.srv.Close() }

// Totals returns the worker service's own lifetime counters — the
// per-shard view the coordinator's ShardTotals reads over the wire.
func (s *ShardServer) Totals() ServiceTotals { return s.srv.Totals() }

// State identifies the worker's current graph snapshot, for comparing
// replicas across processes.
func (s *ShardServer) State() StoreState { return s.srv.State() }

// Epoch returns the worker's current epoch.
func (s *ShardServer) Epoch() uint64 { return s.srv.Epoch() }

// Checkpoint folds any pending update delta into a fresh graph base,
// as crossing CompactAfter would, and on a durable service writes that
// base as the snapshot file in DataDir, so a restart replays no WAL
// tail. Like any fold it bumps the epoch when a delta is pending — on
// an in-memory service too — and is a no-op otherwise. On a sharded
// service every worker folds, under the same lock as the update
// fan-out.
func (s *Service) Checkpoint() error { return s.svc.Checkpoint() }

// State identifies the current graph snapshot — epoch, vertex and edge
// counts, and a checksum of the canonical CSR bytes. Two services
// (e.g. a crashed run and its warm restart) serve the same graph iff
// their States are equal. It serialises the graph to hash it: a
// diagnostic, not a per-query call.
func (s *Service) State() StoreState { return s.svc.State() }

// Close drains in-flight batches and stops the service; queries after
// Close return ErrServiceClosed. On a durable service Close then syncs
// and closes the WAL, returning any error in making that state durable
// (always nil in-memory); it writes no snapshot, so the next
// OpenService replays the log since the last fold. Close is
// idempotent.
func (s *Service) Close() error { return s.svc.Close() }
