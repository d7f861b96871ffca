package hcindex

import (
	"container/list"
	"sync"

	"repro/internal/graph"
	"repro/internal/msbfs"
	"repro/internal/query"
)

// DefaultCacheBytes is the cache budget selected by a non-positive
// NewCache argument: enough for thousands of entries on the stand-in
// graphs while staying a small fraction of the graphs themselves.
const DefaultCacheBytes = 64 << 20

// maxBindings bounds how many distinct (graph pair, epoch) generations
// the cache serves at once. Live updates swap snapshots while batches
// dispatched on the previous epoch are still in flight, so for a short
// window two (occasionally more) generations coexist; entries of
// generations that fall off the ring are dropped immediately.
const maxBindings = 4

// entryKey identifies one cached hop-distance map: the generation of
// the (graph pair, epoch) binding it was built on, the BFS direction,
// its source vertex (a query's S forward, T backward), and the hop cap
// it was built with. Stale generations can never serve a fresh epoch's
// queries — the gen field keeps their keys disjoint.
type entryKey struct {
	gen uint64
	dir Direction
	v   graph.VertexID
	cap uint8
}

// dirVertex keys the per-endpoint cap set used for widened lookups,
// scoped like entryKey to one generation.
type dirVertex struct {
	gen uint64
	dir Direction
	v   graph.VertexID
}

// entry is one cached DistMap with its LRU seat and pin count.
type entry struct {
	key   entryKey
	dm    *msbfs.DistMap
	bytes int64
	refs  int           // in-flight Indexes holding this entry
	elem  *list.Element // seat in Cache.lru (front = most recent)
	// orphaned marks an entry flushed from the table while still
	// pinned; its storage is released when the last holder lets go.
	orphaned bool
}

// binding is one (graph pair, epoch) generation the cache has served.
type binding struct {
	g, gr *graph.Graph
	epoch uint64
	gen   uint64
	// dropped marks a binding pushed off the ring while one of its
	// batches was still building misses; the batch serves them privately
	// instead of inserting into a retired generation.
	dropped bool
}

// Cache is the cross-batch Provider: a concurrency-safe, ref-counted
// LRU of hop-distance maps keyed by (generation, direction, source
// vertex, hop cap). A query with cap k is served from any cached entry
// of its endpoint with Cap ≥ k through a thresholded view
// (msbfs.DistMap.View), so widening traffic (the same endpoints asked
// with varying k) still hits. Entries pinned by in-flight batches are
// never evicted — their dense arrays are live in enumeration hot loops
// — which lets the byte budget overshoot transiently under heavy
// concurrency; eviction releases the dense arrays into a per-size
// msbfs.Pool for the next misses to reuse.
//
// Generations realise the live-update story: every distinct
// (g, gr, epoch) triple the cache serves gets its own generation, keys
// are generation-scoped, and lookups only ever match the caller's own
// generation — a post-update query can never be answered from a
// pre-update distance map. Stale generations are not flushed eagerly:
// their entries stay pinned-safe for in-flight batches and are evicted
// preferentially (before current-generation LRU victims) as the budget
// demands, which is the "stale entries evict naturally" half of the
// contract.
type Cache struct {
	maxBytes int64

	mu       sync.Mutex
	bindings []*binding // most recently served first
	nextGen  uint64
	pools    map[int]*msbfs.Pool // dense-array pools keyed by |V|
	entries  map[entryKey]*entry
	caps     map[dirVertex][]uint8 // ascending caps present per endpoint
	lru      *list.List
	bytes    int64

	hits, misses, widened, evictions int64
}

// NewCache returns an empty cache bounded by maxBytes of dense-array
// storage; non-positive means DefaultCacheBytes. Misses build serially:
// its owner, a Service, already fills the cores with concurrent batches.
func NewCache(maxBytes int64) *Cache {
	if maxBytes <= 0 {
		maxBytes = DefaultCacheBytes
	}
	return &Cache{
		maxBytes: maxBytes,
		pools:    make(map[int]*msbfs.Pool),
		entries:  make(map[entryKey]*entry),
		caps:     make(map[dirVertex][]uint8),
		lru:      list.New(),
	}
}

// Stats implements Provider.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits: c.hits, Misses: c.misses, Widened: c.widened,
		Evictions: c.evictions,
		Entries:   len(c.entries), BytesInUse: c.bytes, BytesBudget: c.maxBytes,
	}
}

// Acquire implements Provider: cached endpoints of the caller's own
// (graph pair, epoch) generation are pinned and served (through views
// where the cached cap is wider), the rest are built with two pooled
// MS-BFS passes and inserted under that generation. Within one batch
// every distinct (direction, endpoint, cap) resolves to a single
// *DistMap, matching the cold builder's dedup exactly — downstream
// constraint merging keys on map identity.
func (c *Cache) Acquire(g, gr *graph.Graph, epoch uint64, queries []query.Query) *Index {
	idx := &Index{
		fwd: make([]*msbfs.DistMap, len(queries)),
		bwd: make([]*msbfs.DistMap, len(queries)),
	}

	// serving maps each key this batch needs to its pinned cache entry;
	// missSet marks the keys queued for building. View materialisation
	// (O(|Γ|) for a widened hit) happens after the lock is dropped — the
	// pins make that safe.
	serving := make(map[entryKey]*entry)
	missSet := make(map[entryKey]struct{})
	pinned := make(map[*entry]struct{})
	var missKeys []entryKey

	c.mu.Lock()
	b := c.bindLocked(g, gr, epoch)
	pool := c.poolLocked(g.NumVertices())
	for _, q := range queries {
		for _, key := range [2]entryKey{
			{b.gen, Forward, q.S, q.K},
			{b.gen, Backward, q.T, q.K},
		} {
			if _, ok := serving[key]; ok {
				idx.Hits++ // resolved from cache earlier in this batch
				continue
			}
			if _, ok := missSet[key]; ok {
				idx.Misses++ // already queued for building
				continue
			}
			if e := c.lookupLocked(key); e != nil {
				if _, ok := pinned[e]; !ok {
					pinned[e] = struct{}{}
					e.refs++
				}
				c.lru.MoveToFront(e.elem)
				serving[key] = e
				idx.Hits++
				if e.key.cap != key.cap {
					c.widened++
				}
			} else {
				missSet[key] = struct{}{}
				missKeys = append(missKeys, key)
				idx.Misses++
			}
		}
	}
	c.hits += int64(idx.Hits)
	c.misses += int64(idx.Misses)
	c.mu.Unlock()

	// resolved maps each key to the servable DistMap handed to queries.
	resolved := make(map[entryKey]*msbfs.DistMap, len(serving)+len(missKeys))
	for key, e := range serving {
		resolved[key] = e.dm.View(key.cap)
	}

	// Build all misses outside the lock: one MS-BFS pass per direction.
	built := c.buildMisses(g, gr, missKeys, pool)

	var bypass []*msbfs.DistMap
	inserted := make(map[entryKey]*entry, len(missKeys))
	c.mu.Lock()
	if b.dropped {
		// The binding fell off the generation ring while we were
		// building: our maps must not enter a retired generation's table.
		// Serve them privately and release them with the index.
		for j, key := range missKeys {
			resolved[key] = built[j]
		}
		bypass = built
	} else {
		for j, key := range missKeys {
			e := c.insertLocked(key, built[j])
			if _, ok := pinned[e]; !ok {
				pinned[e] = struct{}{}
				e.refs++
			}
			inserted[key] = e
		}
		c.evictLocked()
	}
	c.mu.Unlock()
	for key, e := range inserted {
		resolved[key] = e.dm.View(key.cap) // view in case a wider entry won the insert race
	}

	for i, q := range queries {
		idx.fwd[i] = resolved[entryKey{b.gen, Forward, q.S, q.K}]
		idx.bwd[i] = resolved[entryKey{b.gen, Backward, q.T, q.K}]
	}

	idx.release = func() {
		c.mu.Lock()
		for e := range pinned {
			e.refs--
			if e.refs == 0 && e.orphaned {
				e.dm.Release()
			}
		}
		c.evictLocked()
		c.mu.Unlock()
		for _, dm := range bypass {
			dm.Release()
		}
	}
	return idx
}

// buildMisses builds the missing keys as one two-pass build — forward
// sources on g, backward ones on gr — positionally aligned with keys.
func (c *Cache) buildMisses(g, gr *graph.Graph, keys []entryKey, pool *msbfs.Pool) []*msbfs.DistMap {
	if len(keys) == 0 {
		return nil
	}
	passes := [2]msbfs.Pass{Forward: {G: g}, Backward: {G: gr}}
	for _, key := range keys {
		p := &passes[key.dir]
		p.Sources = append(p.Sources, key.v)
		p.Caps = append(p.Caps, key.cap)
	}
	res := msbfs.RunPasses(passes[:], pool, msbfs.BuildOptions{})
	out := make([]*msbfs.DistMap, len(keys))
	var next [2]int
	for j, key := range keys {
		out[j] = res[key.dir][next[key.dir]]
		next[key.dir]++
	}
	return out
}

// bindLocked returns the generation serving (g, gr, epoch), creating it
// (and retiring the oldest generation past the ring bound) when the
// triple is new. In-flight batches of retired generations keep their
// pinned entries; only the table seats go.
func (c *Cache) bindLocked(g, gr *graph.Graph, epoch uint64) *binding {
	for i, b := range c.bindings {
		if b.g == g && b.gr == gr && b.epoch == epoch {
			if i != 0 {
				copy(c.bindings[1:i+1], c.bindings[:i])
				c.bindings[0] = b
			}
			return b
		}
	}
	b := &binding{g: g, gr: gr, epoch: epoch, gen: c.nextGen}
	c.nextGen++
	c.bindings = append(c.bindings, nil)
	copy(c.bindings[1:], c.bindings)
	c.bindings[0] = b
	if len(c.bindings) > maxBindings {
		victim := c.bindings[len(c.bindings)-1]
		c.bindings = c.bindings[:len(c.bindings)-1]
		victim.dropped = true
		c.dropGenLocked(victim.gen)
		c.prunePoolsLocked()
	}
	return b
}

// poolLocked returns the dense-array pool for graphs of n vertices.
func (c *Cache) poolLocked(n int) *msbfs.Pool {
	p := c.pools[n]
	if p == nil {
		p = msbfs.NewPool(n)
		c.pools[n] = p
	}
	return p
}

// prunePoolsLocked drops pools no live binding can use any more; their
// remaining arrays drain back and are garbage collected.
func (c *Cache) prunePoolsLocked() {
	live := make(map[int]bool, len(c.bindings))
	for _, b := range c.bindings {
		live[b.g.NumVertices()] = true
	}
	for n := range c.pools {
		if !live[n] {
			delete(c.pools, n)
		}
	}
}

// dropGenLocked removes every entry of a retired generation.
func (c *Cache) dropGenLocked(gen uint64) {
	var victims []*entry
	for _, e := range c.entries {
		if e.key.gen == gen {
			victims = append(victims, e)
		}
	}
	for _, e := range victims {
		c.dropLocked(e)
		c.evictions++
	}
}

// lookupLocked returns the servable entry for key: the exact cap if
// present, else the narrowest cached cap above it, always within the
// key's own generation.
func (c *Cache) lookupLocked(key entryKey) *entry {
	if e, ok := c.entries[key]; ok {
		return e
	}
	for _, cp := range c.caps[dirVertex{key.gen, key.dir, key.v}] {
		if cp > key.cap {
			return c.entries[entryKey{key.gen, key.dir, key.v, cp}]
		}
	}
	return nil
}

// insertLocked adds a freshly built map under key, resolving races with
// concurrent builders of the same endpoint: an existing entry with an
// equal or wider cap wins and the new build is discarded; a narrower
// unpinned entry is subsumed (dropped) by the new one. Concurrent
// batches cold-missing the same key thus each pay a build and all but
// one are discarded — a deliberate simplicity tradeoff over per-key
// singleflight, bounded to the cache's warm-up window (and the loser's
// arrays go straight back to the pool). The entry is charged what its
// map holds (DistMap.Bytes), not what it uses: a recycled visited list
// can be longer than the set in it.
func (c *Cache) insertLocked(key entryKey, dm *msbfs.DistMap) *entry {
	if e := c.lookupLocked(key); e != nil {
		dm.Release()
		c.lru.MoveToFront(e.elem)
		return e
	}
	dv := dirVertex{key.gen, key.dir, key.v}
	for _, cp := range append([]uint8(nil), c.caps[dv]...) {
		if cp < key.cap {
			if narrow := c.entries[entryKey{key.gen, key.dir, key.v, cp}]; narrow.refs == 0 {
				c.dropLocked(narrow)
				c.evictions++
			}
		}
	}
	e := &entry{
		key:   key,
		dm:    dm,
		bytes: dm.Bytes(),
	}
	e.elem = c.lru.PushFront(e)
	c.entries[key] = e
	caps := c.caps[dv]
	at := 0
	for at < len(caps) && caps[at] < key.cap {
		at++
	}
	caps = append(caps, 0)
	copy(caps[at+1:], caps[at:])
	caps[at] = key.cap
	c.caps[dv] = caps
	c.bytes += e.bytes
	return e
}

// evictLocked drops unpinned entries until the byte budget holds,
// preferring entries of stale generations (anything but the most
// recently served binding) in LRU order, then current-generation LRU
// victims.
func (c *Cache) evictLocked() {
	frontGen := ^uint64(0)
	if len(c.bindings) > 0 {
		frontGen = c.bindings[0].gen
	}
	for c.bytes > c.maxBytes {
		var victim *entry
		for elem := c.lru.Back(); elem != nil; elem = elem.Prev() {
			if e := elem.Value.(*entry); e.refs == 0 && e.key.gen != frontGen {
				victim = e
				break
			}
		}
		if victim == nil {
			for elem := c.lru.Back(); elem != nil; elem = elem.Prev() {
				if e := elem.Value.(*entry); e.refs == 0 {
					victim = e
					break
				}
			}
		}
		if victim == nil {
			return // everything pinned; transient overshoot
		}
		c.dropLocked(victim)
		c.evictions++
	}
}

// dropLocked removes an entry from the table, LRU and cap set. Unpinned
// storage returns to the pool immediately; pinned entries are orphaned
// and release on their last unpin.
func (c *Cache) dropLocked(e *entry) {
	delete(c.entries, e.key)
	c.lru.Remove(e.elem)
	dv := dirVertex{e.key.gen, e.key.dir, e.key.v}
	caps := c.caps[dv]
	for i, cp := range caps {
		if cp == e.key.cap {
			c.caps[dv] = append(caps[:i], caps[i+1:]...)
			break
		}
	}
	if len(c.caps[dv]) == 0 {
		delete(c.caps, dv)
	}
	c.bytes -= e.bytes
	if e.refs == 0 {
		e.dm.Release()
	} else {
		e.orphaned = true
	}
}
