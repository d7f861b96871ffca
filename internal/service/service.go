// Package service implements the online micro-batching layer the paper
// motivates: "a huge number of clients issue HC-s-t path queries
// concurrently", and instead of deploying more servers to process them
// one by one, the service answers the queries that are waiting at the
// same moment as one batch through the sharing engines, so concurrent
// queries pay for their common sub-queries once.
//
// Batches form by load, not by clock (database group commit): many
// goroutines call Submit, and a collector goroutine dispatches whatever
// has arrived the moment a batch slot is idle — on an idle service that
// is a batch of one, with no wait. There are as many idle slots as
// cores (fewer if MaxInFlight says so). While every slot is busy the
// next batch keeps forming, up to MaxBatch queries, and leaves when a
// running batch finishes; so batches grow exactly when the service is
// loaded, which is when sharing pays. MaxWait only bounds how long a
// formed batch is held behind busy slots. Each batch runs through
// clustering + BatchEnum+ (parallel across group builds and per-query
// joins). Every caller blocks on a private future and receives exactly
// its own query's results plus the stats of the batch that carried it.
package service

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/batchenum"
	"repro/internal/graph"
	"repro/internal/hcindex"
	"repro/internal/pathjoin"
	"repro/internal/query"
	"repro/internal/store"
	"repro/internal/timing"
)

// ErrClosed is returned by Submit and Answer after Close.
var ErrClosed = errors.New("service: closed")

// ErrOverloaded is returned by Submit and Answer when admission control
// sheds the query: the queue is at MaxQueued, or the caller is at its
// MaxPerCaller quota. The query never entered a batch — nothing ran on
// its behalf — so the caller should back off and retry. Errors carry
// context via wrapping; test with errors.Is(err, ErrOverloaded).
// Shedding happens only at admission: a query that Submit accepted is
// always answered (or abandoned by its own caller's context).
var ErrOverloaded = errors.New("service: overloaded")

// Config tunes the batching policy and the engine behind it.
type Config struct {
	// MaxBatch caps the queries coalesced into one batch; zero means 64.
	MaxBatch int
	// MaxWait is the longest a formed batch is held while every idle
	// slot (see MaxInFlight) is busy, counted from its first query's
	// enqueue; zero means 2ms. It is not a formation window: with a slot
	// idle a batch leaves at once and MaxWait never enters. Past it the
	// batch is dispatched beside the running ones — so one long batch
	// cannot hold later traffic hostage — unless MaxInFlight forbids.
	MaxWait time.Duration
	// Engine configures the batch engine each formed batch runs through;
	// the zero value is BasicEnum run inline on the dispatch goroutine,
	// so callers almost always want Algorithm set to BatchPlus and
	// Workers to the per-batch parallelism (an exact count, as
	// everywhere below the public hcpath layer). Provider and Epoch are
	// filled per batch by the service.
	Engine batchenum.Options
	// QueryTimeout, when positive, bounds each micro-batch's engine
	// time: the batch runs under a deadline of dispatch time plus
	// QueryTimeout (the clock starts when the batch leaves the queue, so
	// time spent held behind busy slots is not charged to the query).
	// A batch that blows its deadline stops promptly; callers whose
	// queries were finished receive their complete results, the rest
	// receive what was enumerated with Reply.Err set to
	// context.DeadlineExceeded. Co-batched queries are never poisoned:
	// a truncated neighbour only ever loses its own tail.
	QueryTimeout time.Duration
	// Limit, when positive, caps the result paths delivered per query;
	// a query with more is truncated to exactly Limit paths with
	// Reply.Truncated set and Reply.Err = query.ErrLimitReached. Limit
	// bounds output volume only — pair it with QueryTimeout to also
	// bound enumeration time.
	Limit int64
	// IndexCacheBytes bounds the cross-batch hop-distance-map cache
	// shared by every micro-batch: online traffic hits popular endpoints
	// repeatedly, so consecutive batches reuse each other's MS-BFS
	// results instead of rebuilding them. Zero selects
	// hcindex.DefaultCacheBytes; negative disables caching (each batch
	// cold-builds through a pooled builder, which still recycles the
	// dense arrays).
	IndexCacheBytes int64
	// CompactAfter tunes the versioned store behind ApplyUpdates: the
	// delta folds into a fresh CSR base once its effective edge changes
	// reach this count. Zero selects the store default, negative disables
	// automatic compaction. Services that never apply updates are
	// unaffected.
	CompactAfter int
	// DataDir, when non-empty, makes the graph store durable: every
	// ApplyUpdates is write-ahead logged under this directory, periodic
	// checkpoints capture the full CSR, and Open warm-restarts from the
	// directory's contents (the on-disk state wins over the graph passed
	// in). Only honoured by Open — New is always in-memory.
	DataDir string
	// Fsync selects the WAL durability policy when DataDir is set:
	// store.FsyncAlways (default), store.FsyncInterval, store.FsyncOff.
	Fsync store.FsyncPolicy
	// CheckpointEvery controls background snapshot cadence (update
	// records between checkpoints); zero selects
	// store.DefaultCheckpointEvery, negative leaves checkpoints to
	// Close/Checkpoint only.
	CheckpointEvery int
	// MaxInFlight is the hard bound on micro-batches running
	// concurrently: at the bound the collector dispatches nothing, the
	// forming batch absorbs traffic up to MaxBatch, and the rest queues
	// (Submit sheds at MaxQueued). Zero or negative means unlimited. It
	// also caps the idle slots — min(GOMAXPROCS, MaxInFlight) — below
	// which a batch is dispatched the moment it has a query; between the
	// idle slots and the bound a batch leaves only full or MaxWait old.
	MaxInFlight int
	// MaxQueued bounds the queries admitted but not yet dispatched into
	// a running batch; Submit sheds beyond it with ErrOverloaded. Zero
	// or negative means unlimited.
	MaxQueued int
	// MaxPerCaller bounds each caller's admitted-but-unresolved queries
	// (queued plus in flight); Submit sheds a caller's excess with
	// ErrOverloaded while other callers keep being admitted — the
	// fairness quota that stops one hostile client from occupying the
	// whole queue. Callers are distinguished by the Submit caller
	// string; all anonymous ("") callers share one bucket. Zero or
	// negative means no quota.
	MaxPerCaller int
	// OnBatch, when non-nil, is called with the stats of every completed
	// batch, after its callers have been released. Calls are serialised.
	OnBatch func(BatchStats)
	// Shards requests the in-process sharded deployment mode: the graph
	// is served by that many shard workers — each a full Service with
	// its own store, index cache, and batch pipeline — behind a routing
	// coordinator. A single Service ignores the field; it is interpreted
	// by internal/shard (and the hcpath layer above it), which builds
	// one worker per shard from this Config with Shards cleared. Zero or
	// one means unsharded.
	Shards int
	// SyncCompact makes the store fold deltas inline inside
	// ApplyUpdates instead of in a background goroutine. The sharded
	// coordinator forces it on so replicas stepping through the same
	// update sequence pass through identical epoch sequences (background
	// compaction would bump epochs at racy points); outside that it is
	// mainly a determinism knob for tests.
	SyncCompact bool
}

func (c Config) maxBatch() int {
	if c.MaxBatch <= 0 {
		return 64
	}
	return c.MaxBatch
}

func (c Config) maxWait() time.Duration {
	if c.MaxWait <= 0 {
		return 2 * time.Millisecond
	}
	return c.MaxWait
}

// BatchStats describes one dispatched batch: how much traffic it
// coalesced, how much sharing the engine found, and where the wall-clock
// went (queueing wait vs engine time).
type BatchStats struct {
	// Queries is the number of concurrent queries coalesced into the
	// batch.
	Queries int
	// Groups is the number of sharing groups clustering formed.
	Groups int
	// SharedQueries is the number of dominating HC-s path queries
	// detected across the batch.
	SharedQueries int
	// SplicedPaths counts partial paths answered from the sharing cache
	// instead of recomputed.
	SplicedPaths int64
	// Paths is the total number of result paths of the batch.
	Paths int64
	// WaitNanos is the batch-formation wait: first enqueue to dispatch.
	WaitNanos int64
	// EnumerateNanos is the engine wall time spent answering the batch.
	EnumerateNanos int64
	// IndexHits and IndexMisses count the batch's index probes (two per
	// distinct query for the batch engines, two per query for the
	// independent ones) answered from the cross-batch cache vs built
	// fresh.
	IndexHits, IndexMisses int
	// Truncated counts the batch's queries with cut-short result sets
	// (per-query limit reached, or the batch deadline fired first).
	Truncated int
	// Phases is the engine's four-phase time decomposition.
	Phases timing.Breakdown
}

// SharingRatio is the fraction of queries the batch engine coalesced
// with another query: 1 − groups/queries. Zero means every query ran in
// its own group (no sharing); values near one mean heavy coalescing.
func (b BatchStats) SharingRatio() float64 {
	if b.Queries == 0 || b.Groups == 0 {
		return 0
	}
	return 1 - float64(b.Groups)/float64(b.Queries)
}

// Totals aggregates the service's lifetime counters; read it with Stats.
type Totals struct {
	// Batches and Queries count dispatched batches and the queries they
	// carried; Queries/Batches is the mean coalescing factor.
	Batches, Queries int64
	// LargestBatch is the largest batch formed.
	LargestBatch int
	// Groups, SharedQueries and SplicedPaths sum the per-batch sharing
	// counters.
	Groups, SharedQueries int64
	SplicedPaths          int64
	// Paths counts result paths across all batches.
	Paths int64
	// WaitNanos and EnumerateNanos sum the per-batch wait and engine
	// times.
	WaitNanos, EnumerateNanos int64
	// IndexHits and IndexMisses sum the per-batch index-cache probes
	// (see BatchStats); IndexWidened counts hits served from a wider-cap
	// entry.
	IndexHits, IndexMisses, IndexWidened int64
	// IndexEvictions and IndexCacheBytes snapshot the cross-batch cache
	// at the time Stats was called.
	IndexEvictions, IndexCacheBytes int64
	// Truncated counts queries answered with cut-short result sets, and
	// DeadlineBatches the batches stopped by their QueryTimeout
	// deadline.
	Truncated, DeadlineBatches int64
	// Epoch is the current graph snapshot's epoch (zero until the first
	// ApplyUpdates), UpdatesApplied the effective edge changes ever
	// applied, Compactions the delta folds, and DeltaEdges the changes
	// currently pending compaction.
	Epoch          uint64
	UpdatesApplied int64
	Compactions    int64
	DeltaEdges     int
	// WALRecords counts ApplyUpdates calls logged to the write-ahead
	// log (no-ops included, restarts survived); Checkpoints counts
	// snapshot files written this process; SnapshotEpoch is the newest
	// on-disk snapshot's epoch. All zero on an in-memory service.
	WALRecords    int64
	Checkpoints   int64
	SnapshotEpoch uint64
	// Shed counts submissions rejected by admission control
	// (ErrOverloaded); shed queries never ran and appear in no other
	// counter.
	Shed int64
}

// addBatch folds one dispatched batch into the lifetime counters;
// callers hold the service stats mutex. The excluded fields are not
// per-batch sums: the index-cache and store gauges (IndexWidened,
// IndexEvictions, IndexCacheBytes, Epoch, UpdatesApplied, Compactions,
// DeltaEdges, WALRecords, Checkpoints, SnapshotEpoch) are snapshotted
// by Stats at read time, and Shed counts submissions that never became
// part of a batch.
//
//hcpath:mergefields Totals -IndexWidened -IndexEvictions -IndexCacheBytes -Epoch -UpdatesApplied -Compactions -DeltaEdges -WALRecords -Checkpoints -SnapshotEpoch -Shed
func (t *Totals) addBatch(bs BatchStats, deadline bool) {
	t.Batches++
	t.Queries += int64(bs.Queries)
	if bs.Queries > t.LargestBatch {
		t.LargestBatch = bs.Queries
	}
	t.Groups += int64(bs.Groups)
	t.SharedQueries += int64(bs.SharedQueries)
	t.SplicedPaths += bs.SplicedPaths
	t.Paths += bs.Paths
	t.WaitNanos += bs.WaitNanos
	t.EnumerateNanos += bs.EnumerateNanos
	t.IndexHits += int64(bs.IndexHits)
	t.IndexMisses += int64(bs.IndexMisses)
	t.Truncated += int64(bs.Truncated)
	if deadline {
		t.DeadlineBatches++
	}
}

// Merge folds another service's lifetime totals into t, so a sharded
// deployment can report one Totals across its workers. Counters sum;
// the gauges that describe a single store or cache take the maximum,
// which under the shard layer's aligned-epoch invariant (every worker
// applies every update, at the same epoch) is each worker's common
// value — except IndexCacheBytes, which sums because each worker owns
// a separate cache and the deployment's memory footprint is their
// total. Note the replicated-store counters (UpdatesApplied,
// Compactions, WALRecords, …) also sum: merging N replicas of the same
// update stream counts each logical update N times, so deployment-level
// reporting should overwrite those gauges from one representative
// worker after merging (see shard.Coordinator.Stats).
func (t *Totals) Merge(o Totals) {
	t.Batches += o.Batches
	t.Queries += o.Queries
	if o.LargestBatch > t.LargestBatch {
		t.LargestBatch = o.LargestBatch
	}
	t.Groups += o.Groups
	t.SharedQueries += o.SharedQueries
	t.SplicedPaths += o.SplicedPaths
	t.Paths += o.Paths
	t.WaitNanos += o.WaitNanos
	t.EnumerateNanos += o.EnumerateNanos
	t.IndexHits += o.IndexHits
	t.IndexMisses += o.IndexMisses
	t.IndexWidened += o.IndexWidened
	t.IndexEvictions += o.IndexEvictions
	t.IndexCacheBytes += o.IndexCacheBytes
	t.Truncated += o.Truncated
	t.DeadlineBatches += o.DeadlineBatches
	if o.Epoch > t.Epoch {
		t.Epoch = o.Epoch
	}
	t.UpdatesApplied += o.UpdatesApplied
	t.Compactions += o.Compactions
	t.DeltaEdges += o.DeltaEdges
	t.WALRecords += o.WALRecords
	t.Checkpoints += o.Checkpoints
	if o.SnapshotEpoch > t.SnapshotEpoch {
		t.SnapshotEpoch = o.SnapshotEpoch
	}
	t.Shed += o.Shed
}

// IndexHitRatio is the fraction of index probes answered from the
// cross-batch cache.
func (t Totals) IndexHitRatio() float64 {
	if t.IndexHits+t.IndexMisses == 0 {
		return 0
	}
	return float64(t.IndexHits) / float64(t.IndexHits+t.IndexMisses)
}

// Reply carries one caller's results out of its batch.
type Reply struct {
	// Paths holds the caller's result paths when it asked to collect
	// them, empty in count-only mode: one flat arena per reply (a vertex
	// array plus offsets) instead of a slice per path, so a reply costs
	// a handful of amortised appends however many paths it carries.
	// Anything sliced out of it pins the whole arena.
	Paths pathjoin.Store
	// Count is the caller's result-path count (also set when collecting).
	Count int64
	// Truncated reports that this query's result set was cut short; Err
	// says why. Every delivered path is still a genuine result.
	Truncated bool
	// Err is nil for a complete result set, query.ErrLimitReached when
	// Config.Limit truncated it, or context.DeadlineExceeded when the
	// batch's QueryTimeout deadline fired before the query finished.
	Err error
	// Batch describes the batch that answered the query.
	Batch BatchStats
}

// request is one caller's seat in a forming batch.
type request struct {
	q        query.Query
	caller   string
	collect  bool
	enqueued time.Time
	done     chan error // buffered; receives nil or the batch's error
	reply    Reply
}

// admission is the bookkeeping behind MaxQueued/MaxPerCaller: a count
// of admitted-but-undispatched queries, per-caller outstanding counts,
// and the shed tally. nil when neither bound is configured, so the
// unlimited path pays nothing.
type admission struct {
	maxQueued, maxPerCaller int

	mu        sync.Mutex
	queued    int
	perCaller map[string]int
	shed      int64
}

// admit reserves a seat, or returns a wrapped ErrOverloaded.
func (a *admission) admit(caller string) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.maxQueued > 0 && a.queued >= a.maxQueued {
		a.shed++
		return fmt.Errorf("service: %d queries queued (MaxQueued %d): %w",
			a.queued, a.maxQueued, ErrOverloaded)
	}
	if a.maxPerCaller > 0 && a.perCaller[caller] >= a.maxPerCaller {
		a.shed++
		return fmt.Errorf("service: caller %q has %d queries outstanding (MaxPerCaller %d): %w",
			caller, a.perCaller[caller], a.maxPerCaller, ErrOverloaded)
	}
	a.queued++
	a.perCaller[caller]++
	return nil
}

// abandon rolls a reservation back: the caller's context fired before
// its request reached the collector.
func (a *admission) abandon(caller string) {
	a.mu.Lock()
	a.queued--
	a.decCallerLocked(caller)
	a.mu.Unlock()
}

// dispatched moves n queries from queued to in flight.
func (a *admission) dispatched(n int) {
	a.mu.Lock()
	a.queued -= n
	a.mu.Unlock()
}

// resolved releases one caller's seat once its batch answered (or
// failed); the fairness quota covers a query until its future resolves.
func (a *admission) resolved(caller string) {
	a.mu.Lock()
	a.decCallerLocked(caller)
	a.mu.Unlock()
}

func (a *admission) decCallerLocked(caller string) {
	if a.perCaller[caller]--; a.perCaller[caller] <= 0 {
		delete(a.perCaller, caller)
	}
}

func (a *admission) shedCount() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.shed
}

// Service is a long-lived concurrent micro-batching query engine over
// one versioned graph. All methods are safe for concurrent use:
// queries batch against the snapshot current at dispatch time, and
// ApplyUpdates swaps in a new epoch atomically — batches in flight
// finish on the snapshot they started with.
type Service struct {
	st  *store.Store
	cfg Config

	// provider is the long-lived index provider every micro-batch runs
	// through: one cross-batch cache (or pooled builder) shared for the
	// service's lifetime.
	provider hcindex.Provider

	// adm books admission control; nil means unlimited.
	adm *admission

	submit chan *request

	// idle and limit are the collector's two thresholds on running, the
	// number of batches dispatched and not yet returned: below idle a
	// batch leaves the moment it has a query, at limit (MaxInFlight)
	// none leaves. Only the collector adds to running; a finishing
	// runner subtracts and then nudges wake, whose one buffered token is
	// enough because the collector re-reads running after every wake.
	idle, limit int
	running     atomic.Int64
	wake        chan struct{}

	// closing guards submit against send-after-close: Submit sends under
	// the read side, Close closes under the write side.
	closing sync.RWMutex
	closed  bool

	wg sync.WaitGroup // collector + in-flight batch runners

	mu     sync.Mutex
	totals Totals

	cbMu sync.Mutex // serialises OnBatch callbacks
}

// New starts an in-memory service answering queries on g (gr is its
// precomputed reverse). The caller must Close it to release the
// collector. Config.DataDir is ignored — use Open for durability.
func New(g, gr *graph.Graph, cfg Config) *Service {
	return newWithStore(store.NewWithReverse(g, gr, store.Options{CompactAfter: cfg.CompactAfter, SyncCompact: cfg.SyncCompact}), cfg)
}

// Open starts a service like New, but honours Config.DataDir: when it
// is non-empty the graph store is durable — updates are write-ahead
// logged, checkpoints are written in the background, and an existing
// data directory warm-restarts the store at its pre-crash epoch and
// edge set (g/gr then only seed an empty directory; on-disk state
// wins). With an empty DataDir, Open is exactly New.
func Open(g, gr *graph.Graph, cfg Config) (*Service, error) {
	if cfg.DataDir == "" {
		return New(g, gr, cfg), nil
	}
	st, err := store.Open(cfg.DataDir, g, store.DurableOptions{
		Options:         store.Options{CompactAfter: cfg.CompactAfter, SyncCompact: cfg.SyncCompact},
		Fsync:           cfg.Fsync,
		CheckpointEvery: cfg.CheckpointEvery,
	})
	if err != nil {
		return nil, err
	}
	return newWithStore(st, cfg), nil
}

// newWithStore wires the batching machinery around an existing store.
func newWithStore(st *store.Store, cfg Config) *Service {
	// The batch slots already occupy every core, so each batch builds
	// its index serially.
	var provider hcindex.Provider
	if cfg.IndexCacheBytes < 0 {
		provider = hcindex.NewBuilder(true)
	} else {
		provider = hcindex.NewCache(cfg.IndexCacheBytes) // 0 → default budget
	}
	s := &Service{
		st:       st,
		cfg:      cfg,
		provider: provider,
		submit:   make(chan *request, cfg.maxBatch()), // one full batch can queue behind the forming one
		wake:     make(chan struct{}, 1),
	}
	if cfg.MaxQueued > 0 || cfg.MaxPerCaller > 0 {
		s.adm = &admission{
			maxQueued:    cfg.MaxQueued,
			maxPerCaller: cfg.MaxPerCaller,
			perCaller:    make(map[string]int),
		}
	}
	s.limit = math.MaxInt
	if cfg.MaxInFlight > 0 {
		s.limit = cfg.MaxInFlight
	}
	// One batch per core is what the machine can run at once; a further
	// concurrent batch only takes cycles from the running ones, while the
	// same queries held back share work as one larger batch.
	s.idle = min(runtime.GOMAXPROCS(0), s.limit)
	s.wg.Add(1)
	go s.collect()
	return s
}

// Submit enqueues one query and blocks until its batch completes or ctx
// is cancelled. When collect is true the reply carries the materialised
// paths; otherwise only the count (the cheap mode, since result sets
// grow exponentially with K). The query is validated before it can join
// a batch, so one malformed query cannot fail the queries it happened to
// be batched with.
//
// caller identifies the submitting client for the MaxPerCaller fairness
// quota; pass "" when no quota is configured (anonymous callers share
// one bucket). With admission control configured, Submit may shed the
// query with ErrOverloaded before it enters the queue; once admitted, a
// query is always answered.
func (s *Service) Submit(ctx context.Context, caller string, q query.Query, collect bool) (*Reply, error) {
	// Validation against the current snapshot stays valid for whichever
	// later snapshot the batch runs on: updates only ever grow the
	// vertex space.
	if err := q.Validate(s.st.Current().Graph()); err != nil {
		return nil, err
	}
	r := &request{q: q, caller: caller, collect: collect, enqueued: time.Now(), done: make(chan error, 1)}

	s.closing.RLock()
	if s.closed {
		s.closing.RUnlock()
		return nil, ErrClosed
	}
	if s.adm != nil {
		if err := s.adm.admit(caller); err != nil {
			s.closing.RUnlock()
			return nil, err
		}
	}
	//hcpath:locksend-ok bounded: the collector receives from submit until Close wins s.closing exclusively, which this RLock prevents, pausing only while its batch is full at MaxInFlight, which a finishing batch ends; ctx.Done bounds the wait regardless
	select {
	case s.submit <- r:
		s.closing.RUnlock()
	case <-ctx.Done():
		s.closing.RUnlock()
		if s.adm != nil {
			s.adm.abandon(caller)
		}
		return nil, ctx.Err()
	}

	select {
	case err := <-r.done:
		if err != nil {
			return nil, err
		}
		return &r.reply, nil
	case <-ctx.Done():
		// The batch still runs; its write into r is unobserved and the
		// buffered done channel lets the runner move on.
		return nil, ctx.Err()
	}
}

// Answer answers one query as a batch of one on the caller's
// goroutine, skipping the queue and the collector: the sharded
// coordinator's route for a cross-shard query whose source this
// in-process worker owns. It validates as Submit does, passes the same
// admission (a shed query never runs), and runs through the same
// runBatch, so Limit, QueryTimeout, Totals and OnBatch apply unchanged
// (OnBatch runs before Answer returns); it takes no batch slot. ctx
// cancels the run, and a caller whose ctx fired gets its error, not a
// partial reply.
func (s *Service) Answer(ctx context.Context, caller string, q query.Query, collect bool) (*Reply, error) {
	if err := q.Validate(s.st.Current().Graph()); err != nil {
		return nil, err
	}
	s.closing.RLock()
	if s.closed {
		s.closing.RUnlock()
		return nil, ErrClosed
	}
	if s.adm != nil {
		if err := s.adm.admit(caller); err != nil {
			s.closing.RUnlock()
			return nil, err
		}
		s.adm.dispatched(1)
	}
	// Close waits for the run, as for a dispatched batch.
	s.wg.Add(1)
	s.closing.RUnlock()
	defer s.wg.Done()

	r := &request{q: q, caller: caller, collect: collect, enqueued: time.Now(), done: make(chan error, 1)}
	s.runBatch(ctx, []*request{r})
	if err := <-r.done; err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return &r.reply, nil
}

// CurrentSnapshot pins the store's current snapshot. Snapshots are
// immutable: the caller can keep reading it while later updates move
// the store to newer epochs.
func (s *Service) CurrentSnapshot() *store.Snapshot { return s.st.Current() }

// ApplyUpdates publishes a new graph epoch with dels removed and adds
// inserted (store.Store.ApplyUpdates semantics: deletions first,
// self-loops dropped, absent deletions no-ops, vertex space grows to
// fit adds). Batches already dispatched finish on their old snapshot;
// every batch formed after the call sees the new epoch, whose index
// entries can never be served from a stale generation. Returns the
// epoch now current.
func (s *Service) ApplyUpdates(adds, dels []graph.Edge) (uint64, error) {
	s.closing.RLock()
	defer s.closing.RUnlock()
	if s.closed {
		return s.st.Current().Epoch(), ErrClosed
	}
	snap, err := s.st.ApplyUpdates(adds, dels)
	return snap.Epoch(), err
}

// Checkpoint forces a durable snapshot of the current epoch. It
// returns nil immediately on an in-memory service.
func (s *Service) Checkpoint() error { return s.st.Checkpoint() }

// State identifies the current snapshot — epoch, sizes, and a checksum
// of the canonical CSR serialization — for cross-process comparison
// (e.g. asserting a warm restart reproduced the pre-crash graph).
func (s *Service) State() store.State { return s.st.Current().State() }

// Epoch returns the current graph snapshot's epoch.
func (s *Service) Epoch() uint64 { return s.st.Current().Epoch() }

// Stats returns a snapshot of the service's lifetime totals, including
// the cross-batch index cache's and the versioned store's current
// state.
func (s *Service) Stats() Totals {
	s.mu.Lock()
	t := s.totals
	s.mu.Unlock()
	ps := s.provider.Stats()
	t.IndexWidened = ps.Widened
	t.IndexEvictions = ps.Evictions
	t.IndexCacheBytes = ps.BytesInUse
	ss := s.st.Stats()
	t.Epoch = ss.Epoch
	t.UpdatesApplied = ss.UpdatesApplied
	t.Compactions = ss.Compactions
	t.DeltaEdges = ss.DeltaEdges
	t.WALRecords = ss.WALRecords
	t.Checkpoints = ss.Checkpoints
	t.SnapshotEpoch = ss.SnapshotEpoch
	if s.adm != nil {
		t.Shed = s.adm.shedCount()
	}
	return t
}

// Close dispatches any forming batch, waits for all in-flight batches
// to complete, and releases the collector. On a durable service it
// then writes a final checkpoint and syncs and closes the WAL; the
// returned error reports any failure to make that state durable
// (always nil in-memory). Submissions after Close return ErrClosed;
// Close is idempotent.
func (s *Service) Close() error {
	s.closing.Lock()
	if s.closed {
		s.closing.Unlock()
		return nil
	}
	s.closed = true
	close(s.submit)
	s.closing.Unlock()
	s.wg.Wait()
	// Drains background compactions/checkpoints; durable stores then
	// checkpoint the final epoch.
	return s.st.Close()
}

// collect is the batching loop. It owns the forming batch and the one
// hold timer, and after every event — a submission, a finished batch, the
// timer, shutdown — it absorbs whatever else is already queued and then
// decides: the batch leaves at once while fewer than idle batches run;
// otherwise it is held, still forming, until a running batch finishes,
// or — below the MaxInFlight bound — until it is full or MaxWait old.
// A batch about to leave with room to spare gets one more chance to
// fill: the collector yields to the goroutines already runnable.
func (s *Service) collect() {
	defer s.wg.Done()
	maxBatch, maxWait := s.cfg.maxBatch(), s.cfg.maxWait()
	var (
		batch   []*request
		open    = true // submit not yet closed by Close
		armed   bool   // timer is counting down the held batch's MaxWait
		expired bool   // the held batch is MaxWait old
		timer   = time.NewTimer(maxWait)
	)
	timer.Stop() // armed only while a batch is held; the idle path never touches it
	take := func(r *request, ok bool) {
		if ok {
			batch = append(batch, r)
		} else {
			open = false
		}
	}
	absorb := func() {
		for open && len(batch) < maxBatch {
			select {
			case r, ok := <-s.submit:
				take(r, ok)
			default:
				return
			}
		}
	}
	for open || len(batch) > 0 {
		// A full batch stops receiving: submit's buffer, then Submit
		// itself, hold the excess (the MaxInFlight backpressure).
		submit := s.submit
		if !open || len(batch) >= maxBatch {
			submit = nil
		}
		select {
		case r, ok := <-submit:
			take(r, ok)
		case <-s.wake:
		case <-timer.C:
			armed, expired = false, true
		}
		absorb()
		if len(batch) == 0 {
			continue
		}

		running := int(s.running.Load())
		send := running < s.idle || running < s.limit && (len(batch) >= maxBatch || expired || !open)
		if send && open && len(batch) < maxBatch {
			// Replies go out in bursts, and the callers a burst wakes
			// submit again together; the first submission wakes the
			// collector ahead of the rest. Stepping behind whatever is
			// runnable right now lets them board this batch instead of
			// sending it off with one query aboard. On an idle machine
			// the yield returns at once.
			runtime.Gosched()
			absorb()
		}
		if send {
			if armed {
				timer.Stop()
				armed = false
			}
			expired = false
			s.dispatch(batch)
			batch = nil
		} else if !armed && !expired {
			timer.Reset(time.Until(batch[0].enqueued.Add(maxWait)))
			armed = true
		}
	}
}

// dispatch hands a formed batch to its own runner goroutine; collect is
// the only caller. The slot is returned, and the collector woken, only
// once runBatch has returned — OnBatch callback included.
func (s *Service) dispatch(batch []*request) {
	if s.adm != nil {
		s.adm.dispatched(len(batch))
	}
	s.running.Add(1)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.runBatch(context.Background(), batch)
		s.running.Add(-1)
		select {
		case s.wake <- struct{}{}:
		default: // a wake is already pending; the collector will see this decrement too
		}
	}()
}

// replySink routes a batch's emissions to its callers' replies:
// queries take their batch IDs from their position in the batch.
type replySink []*request

// Emit implements query.Sink, counting the path for every query of the
// class and copying it into the reply arena of each caller that
// collects paths. Each query's emissions come from one goroutine at a
// time (the Sink contract) and each query has its own reply, so replies
// need no locking even while a batch's workers emit for different
// queries.
//
//hcpath:noalloc
func (s replySink) Emit(ids []int, p []graph.VertexID) {
	for _, id := range ids {
		r := s[id]
		r.reply.Count++
		if r.collect {
			r.reply.Paths.Add(p)
		}
	}
}

// runBatch answers one formed batch and resolves its futures; ctx
// cancels the run. The batch binds to the snapshot current at
// dispatch: a concurrent ApplyUpdates never changes a running batch's
// graph, only which snapshot the next batch picks up. The directive
// keeps the BatchStats construction exhaustive: a field added to
// BatchStats must be filled here or excluded explicitly.
//
//hcpath:mergefields BatchStats
func (s *Service) runBatch(ctx context.Context, batch []*request) {
	snap := s.st.Current()
	dispatched := time.Now()
	qs := make([]query.Query, len(batch))
	for i, r := range batch {
		qs[i] = r.q
	}

	engine := s.cfg.Engine
	engine.Provider = s.provider
	engine.Epoch = snap.Epoch()
	t0 := time.Now()
	var deadline time.Time
	if s.cfg.QueryTimeout > 0 {
		deadline = t0.Add(s.cfg.QueryTimeout)
	}
	ctrl := query.NewControl(ctx, deadline, s.cfg.Limit, len(batch))
	st, err := batchenum.Run(snap.Graph(), snap.Reverse(), qs, engine, ctrl, replySink(batch))
	if err != nil && !ctrl.Cancelled() {
		// Submit and Answer pre-validate, so this is systemic, not one
		// query's fault; fail the whole batch. (A blown QueryTimeout
		// deadline is not systemic: the batch resolves below with
		// partial results and per-query errors.)
		err = fmt.Errorf("service: batch of %d failed: %w", len(batch), err)
		for _, r := range batch {
			if s.adm != nil {
				s.adm.resolved(r.caller)
			}
			r.done <- err
		}
		return
	}
	for i, r := range batch {
		r.reply.Truncated = ctrl.Truncated(i)
		r.reply.Err = ctrl.QueryErr(i)
	}

	bs := BatchStats{
		Queries:        len(batch),
		Groups:         st.NumGroups,
		SharedQueries:  st.SharedNodes,
		SplicedPaths:   st.SplicedPaths,
		WaitNanos:      dispatched.Sub(batch[0].enqueued).Nanoseconds(),
		EnumerateNanos: time.Since(t0).Nanoseconds(),
		IndexHits:      st.IndexHits,
		IndexMisses:    st.IndexMisses,
		Truncated:      st.Truncated,
		Phases:         st.Phases,
	}
	for _, r := range batch {
		bs.Paths += r.reply.Count
	}

	// Totals are updated before the futures resolve, so a caller that
	// reads Stats right after its Submit returns sees its own batch.
	s.mu.Lock()
	s.totals.addBatch(bs, ctrl.Err() == context.DeadlineExceeded)
	s.mu.Unlock()

	for _, r := range batch {
		r.reply.Batch = bs
		if s.adm != nil {
			s.adm.resolved(r.caller)
		}
		r.done <- nil
	}

	if s.cfg.OnBatch != nil {
		s.cbMu.Lock()
		//hcpath:locksend-ok cbMu exists solely to serialise OnBatch callbacks; no other code acquires it, so a slow callback delays only other callbacks
		s.cfg.OnBatch(bs)
		s.cbMu.Unlock()
	}
}
