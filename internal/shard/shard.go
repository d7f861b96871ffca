// Package shard implements the sharded deployment mode: N shard
// workers — each a full service.Service with its own versioned
// store.Store, cross-batch hcindex cache, and micro-batching pipeline —
// behind a Coordinator that hash-partitions the vertex space, routes
// queries, and fans updates out. Workers run either in the
// coordinator's process (New/Open) or as separate processes reached
// over the package's TCP wire protocol (Serve on the worker side,
// Connect on the coordinator side); the scatter-gather protocol below
// is identical in both modes, which is what the differential suite
// proves.
//
// # Routing
//
// ShardOf hash-partitions vertex IDs across the workers. A query whose
// endpoints both land on one shard is single-shard: the coordinator
// forwards it unchanged into that worker's micro-batching pipeline,
// where it coalesces with the worker's other traffic exactly as in the
// single-process deployment (sharing detection, planner, admission
// control included). A query whose endpoints land on different shards
// is cross-shard and runs the scatter-gather protocol:
//
//  1. Scatter — the shard owning s resolves the forward hop-distance
//     map of s and the shard owning t the backward map of t, each
//     through its own index cache, so index state stays partitioned by
//     endpoint ownership.
//  2. Half-path enumeration — the owner of s collects the forward
//     partial paths up to ⌈K/2⌉ hops and the owner of t the backward
//     partial paths up to ⌊K/2⌋ hops (pathenum.CollectHalf), each side
//     pruned by the other side's distance map (Lemma 3.1).
//  3. Gather and join — the coordinator joins the two half-path stores
//     at their boundary (meeting) vertices with pathjoin's unique-split
//     ⊕ concatenation: the machinery a single-process engine applies at
//     a query's midpoint, reused at the shard boundary.
//
// The protocol mirrors pathenum.EnumerateControlled step for step
// (plain search order, budgets ⌈K/2⌉/⌊K/2⌋), so sharded results are
// identical to single-process results; the differential suite in this
// package proves it over the testgraphs corpus for N ∈ {2, 3, 8}
// in-process and N ∈ {2, 3} over live TCP connections, live updates
// included.
//
// # Updates and epochs
//
// ApplyUpdates fans every update out to all workers under the
// coordinator's write lock, and the workers compact synchronously
// (Config.SyncCompact is forced on), so every worker steps through the
// identical epoch sequence — updates stay atomic per epoch, and the
// fan-out asserts the invariant and fails loudly on divergence.
//
// A cross-shard query pins the deployment epoch when it is admitted
// and stamps it on every scatter RPC; a worker asked to serve a pinned
// epoch it has moved past answers with EpochMismatchError, and the
// coordinator restarts the query at the new epoch. The pin-and-retry
// protocol replaces PR 9's pin-both-snapshots-under-the-read-lock:
// with workers in other processes there is no shared snapshot pointer
// to pin, and optimistic retry keeps updates from stalling behind
// in-flight scatter-gathers. Both halves of a join are therefore still
// always from one epoch — the workers enforce it instead of the
// coordinator's lock.
//
// # Admission control and backpressure
//
// Per-worker admission (MaxQueued, MaxPerCaller, MaxInFlight) applies
// unchanged to single-shard traffic: a worker's ErrOverloaded
// propagates to the caller with its retry-after semantics intact —
// over the wire it arrives as OverloadedError carrying the server's
// retry-after hint for the caller's Backoff. The coordinator adds
// Config.MaxCrossShard, bounding concurrent cross-shard joins; excess
// cross-shard queries are shed with a wrapped service.ErrOverloaded
// before any shard does work on their behalf.
//
// # Durability
//
// Open composes sharding with the durable store: worker i owns
// DataDir/shard-i — its own WAL and checkpoints — and a warm restart
// opens every worker from its directory and verifies the replicas
// reconverged on one store.State. In the wire deployment each worker
// process passes its own -datadir, giving the same layout across
// machines.
//
// # Scope
//
// Every worker replicates the full edge set: this mode partitions
// query routing, index state, and enumeration work — not storage.
// Disjoint edge partitions (and WAL shipping between workers) remain
// tracked in ROADMAP.md.
package shard

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/hcindex"
	"repro/internal/msbfs"
	"repro/internal/pathjoin"
	"repro/internal/query"
	"repro/internal/service"
	"repro/internal/store"
)

// ShardOf returns the worker owning vertex v among n shards: a
// multiplicative (Fibonacci) hash of the ID, so the dense small IDs
// real graphs use spread evenly instead of striping, and ownership is
// stable across runs and processes. n ≤ 1 maps everything to shard 0.
// The function is total over the ID space, so vertices that do not
// exist yet — updates grow the vertex space — already have an owner.
func ShardOf(v graph.VertexID, n int) int {
	if n <= 1 {
		return 0
	}
	return int((uint64(v) * 0x9E3779B97F4A7C15 >> 32) % uint64(n))
}

// maxEpochRetries bounds how often one cross-shard query restarts
// after losing the race with an update fan-out. Each retry requires a
// fresh update to land mid-scatter, so the bound is effectively "the
// query lost sixteen consecutive races" — unreachable outside a
// pathological update storm, where failing the query loudly beats
// spinning.
const maxEpochRetries = 16

// worker is one shard as the coordinator sees it, hiding whether the
// service runs in-process (localWorker) or behind a TCP connection
// (remoteWorker). Submit/ApplyUpdates/Stats/State/Checkpoint/Close
// mirror service.Service; AcquireDist and HalfPaths are the scatter
// legs, which carry the coordinator's pinned epoch — a worker on a
// different epoch refuses with EpochMismatchError rather than serve a
// half from the wrong graph.
type worker interface {
	Submit(ctx context.Context, caller string, q query.Query, collect bool) (*service.Reply, error)
	ApplyUpdates(adds, dels []graph.Edge) (uint64, error)
	Epoch() uint64
	NumVertices() int
	Stats() service.Totals
	State() store.State
	Checkpoint() error
	Close() error

	AcquireDist(ctx context.Context, epoch uint64, root graph.VertexID, k uint8, dir hcindex.Direction) (*distHandle, error)
	HalfPaths(ctx context.Context, epoch uint64, dir hcindex.Direction, root graph.VertexID, budget, k uint8, other *msbfs.DistMap, deadline time.Time) (*pathjoin.Store, bool, error)
}

// distHandle is one acquired distance map plus its release obligation
// and the cache accounting of the probe. Remote maps have a no-op
// release (the bytes were copied off the wire); local maps return to
// the worker's cache.
type distHandle struct {
	dist         *msbfs.DistMap
	hits, misses int
	release      func()
}

func (h *distHandle) Release() {
	if h != nil && h.release != nil {
		h.release()
	}
}

// localWorker adapts an in-process service.Service to the worker
// interface. The scatter legs pin the worker's current snapshot and
// verify it still carries the coordinator's epoch — the same check a
// remote worker's server loop performs.
type localWorker struct {
	svc *service.Service
}

func (w localWorker) Submit(ctx context.Context, caller string, q query.Query, collect bool) (*service.Reply, error) {
	return w.svc.Submit(ctx, caller, q, collect)
}

func (w localWorker) ApplyUpdates(adds, dels []graph.Edge) (uint64, error) {
	return w.svc.ApplyUpdates(adds, dels)
}

func (w localWorker) Epoch() uint64 { return w.svc.Epoch() }

func (w localWorker) NumVertices() int { return w.svc.CurrentSnapshot().Graph().NumVertices() }

func (w localWorker) Stats() service.Totals { return w.svc.Stats() }

func (w localWorker) State() store.State { return w.svc.State() }

func (w localWorker) Checkpoint() error { return w.svc.Checkpoint() }

func (w localWorker) Close() error { return w.svc.Close() }

func (w localWorker) AcquireDist(_ context.Context, epoch uint64, root graph.VertexID, k uint8, dir hcindex.Direction) (*distHandle, error) {
	snap := w.svc.CurrentSnapshot()
	if snap.Epoch() != epoch {
		return nil, &EpochMismatchError{Want: epoch, Have: snap.Epoch()}
	}
	dist, idx := w.svc.AcquireDist(snap, root, k, dir)
	return &distHandle{dist: dist, hits: idx.Hits, misses: idx.Misses, release: idx.Release}, nil
}

func (w localWorker) HalfPaths(ctx context.Context, epoch uint64, dir hcindex.Direction, root graph.VertexID, budget, k uint8, other *msbfs.DistMap, deadline time.Time) (*pathjoin.Store, bool, error) {
	snap := w.svc.CurrentSnapshot()
	if snap.Epoch() != epoch {
		return nil, false, &EpochMismatchError{Want: epoch, Have: snap.Epoch()}
	}
	out := pathjoin.NewStore(64, 256)
	ctrl := query.NewControl(ctx, deadline, 0, 1)
	w.svc.HalfPaths(snap, dir, root, budget, k, other, ctrl, out)
	return out, ctrl.Cancelled(), nil
}

// RoutingStats counts how the coordinator classified traffic.
type RoutingStats struct {
	// Shards is the worker count.
	Shards int
	// SingleShard counts queries whose endpoints shared a worker and
	// were forwarded into its batch pipeline; CrossShard counts
	// completed scatter-gather joins; CrossShed counts cross-shard
	// queries shed at the MaxCrossShard bound. EpochRetries counts
	// scatter-gathers restarted after losing the race with an update
	// fan-out.
	SingleShard, CrossShard, CrossShed, EpochRetries int64
}

// crossAgg accumulates the stats of completed cross-shard joins, which
// bypass the per-worker batch pipeline and so appear in no worker's
// Totals.
type crossAgg struct {
	paths, nanos, truncated, deadline int64
	hits, misses                      int64
}

// Coordinator is the sharded deployment's front door. It exposes the
// same method set as service.Service (Submit, ApplyUpdates, Stats,
// Epoch, State, Checkpoint, Close), so the public hcpath.Service can
// sit on either interchangeably. All methods are safe for concurrent
// use.
type Coordinator struct {
	cfg     service.Config
	workers []worker

	// mu serializes update fan-out (write side) against Close and the
	// epoch pinning of cross-shard admission (read side): a pin taken
	// under the read lock is an epoch every worker has fully reached,
	// never a mid-fan-out intermediate. Queries do not hold mu while
	// they run — the pinned epoch stamped on every scatter RPC, checked
	// by the workers, is what keeps a join's two halves on one epoch
	// (see the package comment).
	mu     sync.RWMutex
	closed bool

	// crossSlots is the MaxCrossShard admission semaphore; nil means
	// unlimited.
	crossSlots chan struct{}

	single, cross, shed, retries atomic.Int64

	aggMu sync.Mutex
	agg   crossAgg
}

// workerConfig lowers a deployment config to the config one worker
// runs: never itself sharded, synchronously compacting (the epoch
// alignment of the package comment), and — for n co-resident workers —
// an even split of the deployment's index-cache budget. splitCache is
// false for workers that own a whole process (wire mode), whose
// configured budget is already per-process.
func workerConfig(cfg service.Config, n int, splitCache bool) service.Config {
	workerCfg := cfg
	workerCfg.Shards = 0
	workerCfg.DataDir = ""
	workerCfg.SyncCompact = true
	if !splitCache {
		return workerCfg
	}
	switch {
	case cfg.IndexCacheBytes < 0:
		// Caching disabled; each worker gets a pooled builder.
	case cfg.IndexCacheBytes == 0:
		workerCfg.IndexCacheBytes = hcindex.DefaultCacheBytes / int64(n)
	default:
		if workerCfg.IndexCacheBytes = cfg.IndexCacheBytes / int64(n); workerCfg.IndexCacheBytes < 1 {
			workerCfg.IndexCacheBytes = 1 // 0 would flip the meaning back to "default budget"
		}
	}
	return workerCfg
}

// New builds a coordinator with cfg.Shards workers (minimum one), each
// a full in-memory service over its own replica of g/gr, splitting a
// configured index-cache budget evenly so the deployment's total cache
// memory matches the single-process configuration. Durable sharded
// deployments go through Open; New panics on a non-empty DataDir
// (hcpath routes it first).
func New(g, gr *graph.Graph, cfg service.Config) *Coordinator {
	if cfg.DataDir != "" {
		panic("shard: New is in-memory only; use Open for a durable sharded deployment")
	}
	n := cfg.Shards
	if n < 1 {
		n = 1
	}
	workerCfg := workerConfig(cfg, n, true)
	c := newCoordinator(cfg, n)
	for i := 0; i < n; i++ {
		c.workers[i] = localWorker{svc: service.New(g, gr, workerCfg)}
	}
	return c
}

// Open builds a durable sharded coordinator: worker i owns the data
// directory DataDir/shard-i (service.Open semantics — WAL, background
// checkpoints, warm restart). After every worker is open, Open
// verifies the replicas carry one identical store.State and refuses
// the deployment otherwise: diverged worker directories mean a crash
// landed mid-fan-out (or an operator mixed directories), and serving
// from them would give shard-dependent answers.
func Open(g, gr *graph.Graph, cfg service.Config) (*Coordinator, error) {
	if cfg.DataDir == "" {
		return New(g, gr, cfg), nil
	}
	n := cfg.Shards
	if n < 1 {
		n = 1
	}
	workerCfg := workerConfig(cfg, n, true)
	c := newCoordinator(cfg, n)
	for i := 0; i < n; i++ {
		workerCfg.DataDir = filepath.Join(cfg.DataDir, fmt.Sprintf("shard-%d", i))
		svc, err := service.Open(g, gr, workerCfg)
		if err != nil {
			for j := 0; j < i; j++ {
				c.workers[j].Close()
			}
			return nil, fmt.Errorf("shard: opening worker %d: %w", i, err)
		}
		c.workers[i] = localWorker{svc: svc}
	}
	if err := verifyAligned(c.workers); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

func newCoordinator(cfg service.Config, n int) *Coordinator {
	c := &Coordinator{cfg: cfg, workers: make([]worker, n)}
	if cfg.MaxCrossShard > 0 {
		c.crossSlots = make(chan struct{}, cfg.MaxCrossShard)
	}
	return c
}

// verifyAligned checks every worker reports the same store.State — the
// representation-independent CSR checksum — against worker 0's. It
// runs at Open and Connect time, when replicas arriving from disk or
// from other processes may have histories the coordinator never saw.
func verifyAligned(workers []worker) error {
	want := workers[0].State()
	for i, w := range workers[1:] {
		if got := w.State(); got != want {
			return fmt.Errorf("shard: replicas diverged: worker 0 at %+v, worker %d at %+v", want, i+1, got)
		}
	}
	return nil
}

// NumShards returns the worker count.
func (c *Coordinator) NumShards() int { return len(c.workers) }

// ShardOf returns the worker owning vertex v.
func (c *Coordinator) ShardOf(v graph.VertexID) int { return ShardOf(v, len(c.workers)) }

// Submit answers one query with service.Submit semantics: it blocks
// until the result is ready or ctx fires, validates before any work
// runs, and sheds with a wrapped service.ErrOverloaded under overload.
// Single-shard queries forward into the owning worker's batch pipeline
// (the caller string feeds that worker's fairness quota); cross-shard
// queries run the scatter-gather join, bounded by MaxCrossShard.
func (c *Coordinator) Submit(ctx context.Context, caller string, q query.Query, collect bool) (*service.Reply, error) {
	sa, sb := c.ShardOf(q.S), c.ShardOf(q.T)
	if sa == sb {
		c.single.Add(1)
		return c.workers[sa].Submit(ctx, caller, q, collect)
	}
	return c.crossShard(ctx, q, collect, sa, sb)
}

// pinEpoch admission-checks the deployment and returns the epoch a
// cross-shard attempt stamps on its scatter RPCs. Taking the read lock
// excludes a mid-flight fan-out, so the pin is an epoch every worker
// has fully reached.
func (c *Coordinator) pinEpoch() (uint64, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.closed {
		return 0, service.ErrClosed
	}
	return c.workers[0].Epoch(), nil
}

// crossShard runs the scatter-gather protocol of the package comment.
// It deliberately mirrors pathenum.EnumerateControlled — same budgets,
// same plain search order, same join — with the two halves delegated
// to the workers owning the endpoints. An attempt that loses the race
// with an update fan-out (EpochMismatchError from a worker) restarts
// at the new epoch.
func (c *Coordinator) crossShard(ctx context.Context, q query.Query, collect bool, sa, sb int) (*service.Reply, error) {
	if c.crossSlots != nil {
		select {
		case c.crossSlots <- struct{}{}:
			defer func() { <-c.crossSlots }()
		default:
			c.shed.Add(1)
			return nil, fmt.Errorf("shard: %d cross-shard joins in flight (MaxCrossShard %d): %w",
				len(c.crossSlots), cap(c.crossSlots), service.ErrOverloaded)
		}
	}

	t0 := time.Now()
	var deadline time.Time
	if c.cfg.QueryTimeout > 0 {
		deadline = t0.Add(c.cfg.QueryTimeout)
	}
	var lastErr error
	for attempt := 0; attempt <= maxEpochRetries; attempt++ {
		epoch, err := c.pinEpoch()
		if err != nil {
			return nil, err
		}
		reply, err := c.crossShardAttempt(ctx, q, collect, sa, sb, epoch, t0, deadline)
		if isEpochMismatch(err) {
			c.retries.Add(1)
			lastErr = err
			continue
		}
		return reply, err
	}
	return nil, fmt.Errorf("shard: %s lost %d races with concurrent update fan-outs: %w",
		q, maxEpochRetries, lastErr)
}

func isEpochMismatch(err error) bool {
	var em *EpochMismatchError
	return errors.As(err, &em)
}

// crossShardAttempt runs one epoch-pinned scatter-gather. Validation
// happens against the deployment's vertex count every attempt, so a
// query racing a vertex-growing update is judged against the epoch it
// actually runs at — exactly as in the single-process service, where
// validation sees the batch's snapshot.
func (c *Coordinator) crossShardAttempt(ctx context.Context, q query.Query, collect bool, sa, sb int, epoch uint64, t0 time.Time, deadline time.Time) (*service.Reply, error) {
	// Same pre-validation as service.Submit (every replica holds the
	// full graph, so either worker's count works), so a malformed query
	// fails identically whether or not its endpoints share a shard.
	if err := q.ValidateN(graph.VertexID(c.workers[sa].NumVertices())); err != nil {
		return nil, err
	}

	ctrl := query.NewControl(ctx, deadline, c.cfg.Limit, 1)

	// Scatter, phase 1: each owner resolves its endpoint's distance map
	// through its own index cache, concurrently.
	var (
		ha, hb     *distHandle
		errA, errB error
		wg         sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		hb, errB = c.workers[sb].AcquireDist(ctx, epoch, q.T, q.K, hcindex.Backward)
	}()
	ha, errA = c.workers[sa].AcquireDist(ctx, epoch, q.S, q.K, hcindex.Forward)
	wg.Wait()
	defer ha.Release()
	defer hb.Release()
	if errA != nil {
		return nil, errA
	}
	if errB != nil {
		return nil, errB
	}
	c.cross.Add(1)

	reply := &service.Reply{}
	emit := func(p []graph.VertexID) {
		reply.Count++
		if collect {
			reply.Paths.Add(p)
		}
	}
	if hb.dist.Dist(q.S) > q.K {
		// t unreachable from s within K hops: complete empty result.
		ctrl.MarkComplete(0)
	} else {
		// Scatter, phase 2: each owner enumerates its half, pruned by
		// the opposite owner's map. Each worker runs its own control
		// carrying the query's ctx and deadline; the per-query limit is
		// charged at the coordinator's join, never inside a half.
		var (
			fwdPaths, bwdPaths *pathjoin.Store
			cancA, cancB       bool
		)
		wg.Add(1)
		go func() {
			defer wg.Done()
			bwdPaths, cancB, errB = c.workers[sb].HalfPaths(ctx, epoch, hcindex.Backward, q.T, q.BwdBudget(), q.K, ha.dist, deadline)
		}()
		fwdPaths, cancA, errA = c.workers[sa].HalfPaths(ctx, epoch, hcindex.Forward, q.S, q.FwdBudget(), q.K, hb.dist, deadline)
		wg.Wait()
		if errA != nil {
			return nil, errA
		}
		if errB != nil {
			return nil, errB
		}
		// Gather, phase 3: join at the boundary vertices. Partial halves
		// of a cancelled run must not reach the join; probing Cancelled
		// here also latches the shared deadline into ctrl when a worker
		// observed it first, keeping the reply's Truncated/Err exactly
		// as in the single-process run.
		if !cancA && !cancB && !ctrl.Cancelled() {
			pathjoin.JoinHalvesIndexed(fwdPaths, pathjoin.BuildHashIndex(bwdPaths), q.K, false, ctrl, 0, emit)
		}
		if !ctrl.Cancelled() && !cancA && !cancB {
			ctrl.MarkComplete(0)
		}
	}
	if err := ctx.Err(); err != nil {
		// Submit parity: a caller whose context fired gets the error,
		// not a partial reply.
		return nil, err
	}
	reply.Truncated = ctrl.Truncated(0)
	reply.Err = ctrl.QueryErr(0)

	nanos := time.Since(t0).Nanoseconds()
	reply.Batch = service.BatchStats{
		Queries:        1,
		Groups:         1,
		Paths:          reply.Count,
		EnumerateNanos: nanos,
		IndexHits:      ha.hits + hb.hits,
		IndexMisses:    ha.misses + hb.misses,
	}
	if reply.Truncated {
		reply.Batch.Truncated = 1
	}

	c.aggMu.Lock()
	c.agg.paths += reply.Count
	c.agg.nanos += nanos
	c.agg.hits += int64(reply.Batch.IndexHits)
	c.agg.misses += int64(reply.Batch.IndexMisses)
	if reply.Truncated {
		c.agg.truncated++
	}
	if ctrl.Err() == context.DeadlineExceeded {
		c.agg.deadline++
	}
	c.aggMu.Unlock()
	return reply, nil
}

// ApplyUpdates publishes one new epoch across every worker atomically:
// the write lock excludes cross-shard epoch pinning while each replica
// applies the same adds/dels (store.ApplyUpdates semantics), and
// synchronous compaction keeps the per-replica epoch sequences
// identical — the fan-out asserts they are and fails loudly otherwise.
// Returns the epoch now current on all workers.
func (c *Coordinator) ApplyUpdates(adds, dels []graph.Edge) (uint64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return c.workers[0].Epoch(), service.ErrClosed
	}
	epoch, err := c.workers[0].ApplyUpdates(adds, dels)
	if err != nil {
		return epoch, err
	}
	for i, sh := range c.workers[1:] {
		e, err := sh.ApplyUpdates(adds, dels)
		if err != nil {
			return epoch, fmt.Errorf("shard: update fan-out failed on shard %d at epoch %d: %w", i+1, epoch, err)
		}
		if e != epoch {
			return epoch, fmt.Errorf("shard: epoch diverged after update fan-out: shard 0 at %d, shard %d at %d", epoch, i+1, e)
		}
	}
	return epoch, nil
}

// Epoch returns the current epoch, identical on every worker by the
// aligned-epoch invariant.
func (c *Coordinator) Epoch() uint64 { return c.workers[0].Epoch() }

// State identifies the current snapshot (see service.State); the
// aligned replicas agree, so worker 0 speaks for the deployment.
func (c *Coordinator) State() store.State { return c.workers[0].State() }

// Checkpoint forwards to every worker: each durable worker writes a
// checkpoint of its own directory; in-memory workers return nil.
func (c *Coordinator) Checkpoint() error {
	for _, sh := range c.workers {
		if err := sh.Checkpoint(); err != nil {
			return err
		}
	}
	return nil
}

// Stats folds every worker's lifetime Totals into one deployment view
// (Totals.Merge), then adds the cross-shard joins — each reported as a
// batch of one query — and corrects the store gauges that merging
// replicas would multiply: the logical update stream is counted once,
// from worker 0. IndexCacheBytes stays summed across workers (each
// owns a cache; the deployment's footprint is their total).
func (c *Coordinator) Stats() service.Totals {
	per := c.ShardTotals()
	var t service.Totals
	for _, st := range per {
		t.Merge(st)
	}
	s0 := per[0]
	t.UpdatesApplied = s0.UpdatesApplied
	t.Compactions = s0.Compactions
	t.DeltaEdges = s0.DeltaEdges
	t.WALRecords = s0.WALRecords
	t.Checkpoints = s0.Checkpoints

	c.aggMu.Lock()
	a := c.agg
	c.aggMu.Unlock()
	cross := c.cross.Load()
	t.Batches += cross
	t.Queries += cross
	t.Paths += a.paths
	t.EnumerateNanos += a.nanos
	t.IndexHits += a.hits
	t.IndexMisses += a.misses
	t.Truncated += a.truncated
	t.DeadlineBatches += a.deadline
	t.Shed += c.shed.Load()
	return t
}

// ShardTotals returns each worker's own lifetime Totals, in shard
// order — the per-shard view behind the merged Stats. Cross-shard
// joins bypass the worker pipelines and appear only in Stats.
func (c *Coordinator) ShardTotals() []service.Totals {
	per := make([]service.Totals, len(c.workers))
	for i, sh := range c.workers {
		per[i] = sh.Stats()
	}
	return per
}

// Routing returns the coordinator's traffic-classification counters.
func (c *Coordinator) Routing() RoutingStats {
	return RoutingStats{
		Shards:       len(c.workers),
		SingleShard:  c.single.Load(),
		CrossShard:   c.cross.Load(),
		CrossShed:    c.shed.Load(),
		EpochRetries: c.retries.Load(),
	}
}

// Close shuts every worker down — in-process workers stop their
// pipelines; remote connections are torn down, leaving the worker
// processes running for other coordinators. Idempotent; Submit and
// ApplyUpdates after Close return service.ErrClosed.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	var first error
	for _, sh := range c.workers {
		if sh == nil {
			continue
		}
		if err := sh.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
