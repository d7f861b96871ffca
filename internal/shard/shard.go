// Package shard implements the sharded deployment mode: N shard
// workers — each a full service.Service with its own versioned
// store.Store, cross-batch hcindex cache, and micro-batching pipeline —
// behind a Coordinator that hash-partitions the vertex space, routes
// queries, and fans updates out. Workers run either in the
// coordinator's process (New/Open) or as separate processes reached
// over the package's TCP wire protocol (Serve on the worker side,
// Connect on the coordinator side); both deployments return the
// single-process service's results, which is what the differential
// suite proves.
//
// # Routing
//
// ShardOf hash-partitions vertex IDs across the workers. A query whose
// endpoints both land on one shard is single-shard: the coordinator
// forwards it unchanged into that worker's micro-batching pipeline,
// where it coalesces with the worker's other traffic exactly as in the
// single-process deployment (sharing detection and admission control
// included). A query whose endpoints land on different shards is
// cross-shard, and it runs whole on the worker owning its source:
// every worker holds the full edge set, so it can answer alone,
// through the same engine as any other query. The two deployments
// differ only in the hop, and the coordinator picks it by the one
// thing it can observe — whether the worker is in its process.
//
// Remote workers: the query goes to the owner as one RPC, like any
// single-shard query; it joins that worker's micro-batches and the
// worker's own Limit, QueryTimeout and admission govern it. Splitting
// it across two workers instead cost ~3 RPCs, two Θ(|V|) distance maps
// serialised and decoded on both ends and both half-path stores
// shipped back, and lost on every metric.
//
// In-process workers: the coordinator calls the owner's
// service.Service.Answer, which runs the query as a batch of one on
// the caller's goroutine, skipping the worker's queue and collector:
// on the harness's hot traffic that hop costs more allocations and
// slower replies than the sharing a batch finds for these queries
// (docs/ARCHITECTURE.md has the measurements).
//
// Either way one worker answers the query on one snapshot with the
// single-process engine, so sharded results are identical to
// single-process results; the differential suite in this package
// proves it over the testgraphs corpus for N ∈ {2, 3, 8} in-process and
// N ∈ {2, 3} over live TCP connections, live updates included.
//
// # Updates and epochs
//
// ApplyUpdates fans every update out to all workers under the
// coordinator's lock, and the workers compact synchronously
// (Config.SyncCompact is forced on), so every worker steps through the
// identical epoch sequence — updates stay atomic per epoch, and the
// fan-out asserts the invariant and fails loudly on divergence.
// Every query runs on one worker, on the snapshot its batch bound, so
// there is nothing to align across workers: a query racing a fan-out
// sees its worker's graph before the update or after it, never a mix.
//
// # Admission control and backpressure
//
// Per-worker admission (MaxQueued, MaxPerCaller, MaxInFlight) applies
// unchanged to everything a worker's pipeline carries — single-shard
// traffic in-process, all traffic over the wire: a worker's
// ErrOverloaded propagates to the caller with its retry-after semantics
// intact — over the wire it arrives as OverloadedError carrying the
// server's retry-after hint for the caller's Backoff. An in-process
// cross-shard query passes its owner's MaxQueued and MaxPerCaller
// checks too, but runs on its caller's goroutine and takes no batch
// slot, so MaxInFlight does not bound it. The coordinator sheds
// nothing itself.
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
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/hcindex"
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

// worker is one shard as the coordinator sees it: a *service.Service in
// this process, or a remoteWorker speaking the wire protocol to a Server
// in another one. The method set is the surface hcpath's backend
// declares — whole queries in, updates fanned out, the stats plane —
// and nothing a remote worker cannot do in one RPC.
type worker interface {
	Submit(ctx context.Context, caller string, q query.Query, collect bool) (*service.Reply, error)
	ApplyUpdates(adds, dels []graph.Edge) (uint64, error)
	Epoch() uint64
	Stats() service.Totals
	State() store.State
	Checkpoint() error
	Close() error
}

// RoutingStats counts how the coordinator classified traffic.
type RoutingStats struct {
	// Shards is the worker count.
	Shards int
	// SingleShard counts queries whose endpoints shared a worker and
	// were forwarded into its batch pipeline. CrossShard counts queries
	// whose endpoints hash apart, answered whole by the owner of the
	// source on both deployments: inline as a batch of one in-process,
	// through its batch pipeline over the wire.
	SingleShard, CrossShard int64
	// CrossShed and EpochRetries are always 0: the coordinator sheds
	// nothing itself, and every query runs on one worker's snapshot and
	// never restarts. Both stay because the frozen harness
	// (benchmark/layers.go) reads them, and leave with ROADMAP item 9's
	// harness-opening PR.
	CrossShed, EpochRetries int64
}

// Coordinator is the sharded deployment's front door. It exposes the
// same method set as service.Service (Submit, ApplyUpdates, Stats,
// Epoch, State, Checkpoint, Close), so the public hcpath.Service can
// sit on either interchangeably. All methods are safe for concurrent
// use.
type Coordinator struct {
	workers []worker

	// mu serializes update fan-out against Close.
	mu     sync.Mutex
	closed bool

	single, cross atomic.Int64
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
	c := newCoordinator(n)
	for i := 0; i < n; i++ {
		c.workers[i] = service.New(g, gr, workerCfg)
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
	c := newCoordinator(n)
	for i := 0; i < n; i++ {
		workerCfg.DataDir = filepath.Join(cfg.DataDir, fmt.Sprintf("shard-%d", i))
		svc, err := service.Open(g, gr, workerCfg)
		if err != nil {
			for j := 0; j < i; j++ {
				c.workers[j].Close()
			}
			return nil, fmt.Errorf("shard: opening worker %d: %w", i, err)
		}
		c.workers[i] = svc
	}
	if err := verifyAligned(c.workers); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

func newCoordinator(n int) *Coordinator {
	return &Coordinator{workers: make([]worker, n)}
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
// (the caller string feeds that worker's fairness quota). A cross-shard
// query runs whole on the worker owning its source (see the package
// comment): through its pipeline over the wire, inline as a batch of
// one (service.Service.Answer) in-process.
func (c *Coordinator) Submit(ctx context.Context, caller string, q query.Query, collect bool) (*service.Reply, error) {
	sa := c.ShardOf(q.S)
	if sa == c.ShardOf(q.T) {
		c.single.Add(1)
		return c.workers[sa].Submit(ctx, caller, q, collect)
	}
	c.cross.Add(1)
	if w, ok := c.workers[sa].(*service.Service); ok {
		return w.Answer(ctx, caller, q, collect)
	}
	return c.workers[sa].Submit(ctx, caller, q, collect)
}

// ApplyUpdates publishes one new epoch across every worker: each
// replica applies the same adds/dels (store.ApplyUpdates semantics)
// under the coordinator's lock, and synchronous compaction keeps the
// per-replica epoch sequences identical — the fan-out asserts they are
// and fails loudly otherwise. Returns the epoch now current on all
// workers.
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
// (Totals.Merge) — every query, cross-shard ones included, is in its
// worker's Totals — and corrects the store gauges that merging
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
	return t
}

// ShardTotals returns each worker's own lifetime Totals, in shard
// order — the per-shard view behind the merged Stats.
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
		Shards:      len(c.workers),
		SingleShard: c.single.Load(),
		CrossShard:  c.cross.Load(),
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
