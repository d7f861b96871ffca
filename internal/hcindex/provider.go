// Provider abstraction over index construction. The engines never call
// Build directly any more: they Acquire an Index from a Provider and
// Release it when the batch is answered. Two implementations exist —
// the cold Builder (a fresh build per batch, optionally recycling dense
// arrays through a msbfs.Pool) and the cross-batch Cache (cache.go),
// which amortises the MS-BFS phase across batches that repeat
// endpoints, the dominant pattern of online traffic.
package hcindex

import (
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/msbfs"
	"repro/internal/query"
)

// Provider supplies per-batch distance indexes. Implementations must be
// safe for concurrent Acquire/Release from multiple in-flight batches.
type Provider interface {
	// Acquire returns the index for the batch. Queries must already be
	// validated (query.Batch). epoch identifies the graph version the
	// batch runs on (the versioned store's snapshot epoch; zero for
	// static graphs): caching providers must never serve one epoch's
	// entries to another, even across pointer-identical graphs. The
	// caller owns the result until it calls Release on it.
	Acquire(g, gr *graph.Graph, epoch uint64, queries []query.Query) *Index
	// AcquireOne is Acquire for a batch of the one query q, whose maps
	// need only cover q's k-hop s-t subgraph: every distance they
	// report is exact, they report every vertex with d_s + d_t ≤ k and
	// every vertex within ⌈k/2⌉ hops, and q's enumeration reads nothing
	// else. Their visited sets are not Γ(q)/Γr(q). Two probes, as for
	// Acquire.
	AcquireOne(g, gr *graph.Graph, epoch uint64, q query.Query) *Index
	// Stats returns a snapshot of the provider's lifetime counters.
	Stats() Stats
	// Width returns the most goroutines one build runs on: the cores
	// the provider's owner gives a batch outside its enumeration work
	// list. Algorithm 2's µ matrix runs at the same width.
	Width() int
}

// Stats are a Provider's lifetime counters. For the cold Builder only
// Misses advances; the Cache fills everything.
type Stats struct {
	// Hits and Misses count index probes (two per query: forward and
	// backward) answered from cache vs built fresh.
	Hits, Misses int64
	// Widened counts the subset of Hits served from an entry with a
	// larger hop cap than the query's, through threshold filtering.
	Widened int64
	// Evictions counts cache entries dropped: to stay inside the byte
	// budget, subsumed by a wider build, or with a replaced generation.
	Evictions int64
	// Entries and BytesInUse describe the cache's current contents;
	// BytesBudget is its configured ceiling.
	Entries     int
	BytesInUse  int64
	BytesBudget int64
}

// Builder is the cold Provider: every Acquire runs the two MS-BFS
// passes of Build, every AcquireOne the subgraph build. With pooling
// enabled the dense distance arrays and the traversal scratch are
// recycled through a msbfs.Pool across batches (sparse-reset on
// Release), so repeated batches stop paying the n-byte-per-source
// allocation churn even without result caching.
// What it retains between batches is sized by |V| only: the visited
// lists, sized by each source's reach, go back to the collector.
type Builder struct {
	pooled bool
	width  int

	mu   sync.Mutex
	pool *msbfs.Pool // lazily sized to the graph seen

	misses atomic.Int64
}

// NewBuilder returns a cold Provider that builds serially; pooled
// selects dense-array recycling.
func NewBuilder(pooled bool) *Builder { return NewBuilderWorkers(pooled, 1) }

// NewBuilderWorkers is NewBuilder building on up to workers goroutines:
// the searches of both directions run as one task list. Its
// owner passes the width — the cores its one batch in flight can use.
func NewBuilderWorkers(pooled bool, workers int) *Builder {
	return &Builder{pooled: pooled, width: workers}
}

// Acquire implements Provider with a fresh build; a cold builder has no
// cross-batch state, so the epoch only guards its pool sizing.
func (b *Builder) Acquire(g, gr *graph.Graph, _ uint64, queries []query.Query) *Index {
	pool := b.poolFor(g)
	idx, built := buildIn(g, gr, queries, pool, b.width)
	return b.done(idx, pool, built)
}

// AcquireOne implements Provider with a fresh subgraph build.
func (b *Builder) AcquireOne(g, gr *graph.Graph, _ uint64, q query.Query) *Index {
	pool := b.poolFor(g)
	idx := pairIndex(msbfs.Subgraph(g, gr, q.S, q.T, q.K, pool))
	idx.Misses = 2
	return b.done(idx, pool, idx.maps[:])
}

// poolFor returns the pool for g's vertex count, nil when unpooled.
func (b *Builder) poolFor(g *graph.Graph) *msbfs.Pool {
	if !b.pooled {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.pool == nil || b.pool.NumVertices() != g.NumVertices() {
		b.pool = msbfs.NewPool(g.NumVertices())
	}
	return b.pool
}

// done counts a fresh build's misses and, when pooled, makes its
// Release hand the storage of the maps it built back; built holds each
// map once.
func (b *Builder) done(idx *Index, pool *msbfs.Pool, built [][]*msbfs.DistMap) *Index {
	if pool != nil {
		idx.release = func() {
			for _, maps := range built {
				for _, dm := range maps {
					dm.Release()
				}
			}
			pool.DropVisited()
		}
	}
	b.misses.Add(int64(idx.Misses))
	return idx
}

// Stats implements Provider.
func (b *Builder) Stats() Stats { return Stats{Misses: b.misses.Load()} }

// Width implements Provider.
func (b *Builder) Width() int { return max(b.width, 1) }
