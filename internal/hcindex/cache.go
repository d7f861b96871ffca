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

// entryKey identifies one cached hop-distance map of the current
// binding: the BFS direction, its source vertex (a query's S forward, T
// backward), the opposite endpoint of a subgraph map (ball for a
// k-ball), and the hop cap it was built with. A subgraph map, keyed by
// both endpoints, can never serve a k-ball lookup.
type entryKey struct {
	dir Direction
	v   graph.VertexID
	to  graph.VertexID
	cap uint8
}

// ball is the to field of a k-ball entry, which serves any query from
// its endpoint.
const ball = graph.NoVertex

// endpoint is the key with its cap cleared: what the per-endpoint cap
// set used for widened lookups is keyed by.
func (k entryKey) endpoint() entryKey {
	k.cap = 0
	return k
}

// withCap is the key with its cap set to cp.
func (k entryKey) withCap(cp uint8) entryKey {
	k.cap = cp
	return k
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

// binding is the (graph pair, epoch) generation the cache serves, with
// the pool its misses draw dense arrays from.
type binding struct {
	g, gr *graph.Graph
	epoch uint64
	pool  *msbfs.Pool
}

// Cache is the cross-batch Provider: a concurrency-safe, ref-counted
// LRU of hop-distance maps keyed by (direction, source vertex,
// opposite endpoint, hop cap), where the opposite endpoint is
// ball for the k-balls Acquire serves and the query's other endpoint
// for the subgraph maps of AcquireOne. A query with cap k is served
// from any cached entry of its key with Cap ≥ k through a thresholded
// view (msbfs.DistMap.View), so widening traffic (the same endpoints
// asked with varying k) still hits. Entries pinned by in-flight
// batches are never evicted — their dense arrays are live in
// enumeration hot loops — which lets the byte budget overshoot
// transiently under heavy concurrency; eviction releases the dense
// arrays into the binding's msbfs.Pool for the next misses to reuse.
//
// The cache holds one generation, the (g, gr, epoch) triple it binds,
// as the paper answers each batch on one graph: a batch binds the
// current snapshot at dispatch, so after an update every later batch
// asks for the new epoch. The first batch on a newer epoch, or on
// another graph pair at an equal or newer epoch, replaces the binding
// and drops every entry (pinned ones stay valid for their holders until
// released), keeping the pool while |V| is unchanged. A straggler on an
// older epoch is built privately and leaves the table alone, so a
// post-update query can never be answered from a pre-update distance
// map, nor a pre-update one from a post-update map.
type Cache struct {
	maxBytes int64

	mu      sync.Mutex
	cur     *binding // nil until the first batch
	entries map[entryKey]*entry
	caps    map[entryKey][]uint8 // ascending caps present per endpoint()
	lru     *list.List
	bytes   int64

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
		entries:  make(map[entryKey]*entry),
		caps:     make(map[entryKey][]uint8),
		lru:      list.New(),
	}
}

// Width implements Provider: a Cache builds serially (see NewCache).
func (c *Cache) Width() int { return 1 }

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

// Acquire implements Provider: cached endpoints are pinned and served
// (through views where the cached cap is wider), the rest are built with
// two pooled MS-BFS passes and inserted. A batch on an older epoch than
// the binding's gets a private Build instead. Within one batch
// every distinct (direction, endpoint, cap) resolves to a single
// *DistMap, matching the cold builder's dedup exactly — downstream
// constraint merging keys on map identity.
func (c *Cache) Acquire(g, gr *graph.Graph, epoch uint64, queries []query.Query) *Index {
	idx := &Index{}

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
	if b == nil {
		c.misses += int64(2 * len(queries))
		c.mu.Unlock()
		return Build(g, gr, queries)
	}
	for _, q := range queries {
		for _, key := range [2]entryKey{
			{Forward, q.S, ball, q.K},
			{Backward, q.T, ball, q.K},
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
	built := c.buildMisses(g, gr, missKeys, b.pool)

	inserted := make(map[entryKey]*entry, len(missKeys))
	c.mu.Lock()
	for j, key := range missKeys {
		e := c.placeLocked(b, key, built[j])
		if _, ok := pinned[e]; !ok {
			pinned[e] = struct{}{}
			e.refs++
		}
		inserted[key] = e
	}
	c.evictLocked()
	c.mu.Unlock()
	for key, e := range inserted {
		resolved[key] = e.dm.View(key.cap) // view in case a wider entry won the insert race
	}

	idx.maps = perQuery(len(queries), func(i int) (fwd, bwd *msbfs.DistMap) {
		q := queries[i]
		return resolved[entryKey{Forward, q.S, ball, q.K}], resolved[entryKey{Backward, q.T, ball, q.K}]
	})
	idx.release = func() {
		c.mu.Lock()
		for e := range pinned {
			c.unpinLocked(e)
		}
		c.evictLocked()
		c.mu.Unlock()
	}
	return idx
}

// AcquireOne implements Provider. It serves, in order: the query's two
// k-balls if both are cached, so a warm endpoint stays on them; else
// its cached subgraph maps, keyed by the opposite endpoint as well and
// read by nothing but AcquireOne; else a fresh msbfs.Subgraph build,
// inserted under those keys. Either side may come from a wider cap
// through a view: a k-ball, or a wider query's subgraph map, covers
// everything the narrower subgraph map must report, with the same
// distances, so the enumeration reads the same. A query on an older
// epoch than the binding's gets a private build, as in Acquire.
func (c *Cache) AcquireOne(g, gr *graph.Graph, epoch uint64, q query.Query) *Index {
	c.mu.Lock()
	b := c.bindLocked(g, gr, epoch)
	if b == nil {
		c.misses += 2
		c.mu.Unlock()
		idx := pairIndex(msbfs.Subgraph(g, gr, q.S, q.T, q.K, nil))
		idx.Misses = 2
		return idx
	}
	keys := [2]entryKey{
		{Forward, q.S, ball, q.K},
		{Backward, q.T, ball, q.K},
	}
	held := [2]*entry{c.lookupLocked(keys[0]), c.lookupLocked(keys[1])}
	if held[0] == nil || held[1] == nil {
		keys[Forward].to, keys[Backward].to = q.T, q.S
		held = [2]*entry{c.lookupLocked(keys[0]), c.lookupLocked(keys[1])}
	}
	hit := held[0] != nil && held[1] != nil
	if hit {
		for _, e := range held {
			e.refs++
			c.lru.MoveToFront(e.elem)
			if e.key.cap != q.K {
				c.widened++
			}
		}
		c.hits += 2
	} else {
		c.misses += 2
	}
	c.mu.Unlock()

	if !hit {
		fwd, bwd := msbfs.Subgraph(g, gr, q.S, q.T, q.K, b.pool)
		c.mu.Lock()
		for d, dm := range [2]*msbfs.DistMap{fwd, bwd} {
			held[d] = c.placeLocked(b, keys[d], dm)
			held[d].refs++
		}
		c.evictLocked()
		c.mu.Unlock()
	}
	// Views: a wider entry may have served the hit or won the insert.
	idx := pairIndex(held[0].dm.View(q.K), held[1].dm.View(q.K))
	if hit {
		idx.Hits = 2
	} else {
		idx.Misses = 2
	}
	idx.release = func() {
		c.mu.Lock()
		for _, e := range held {
			c.unpinLocked(e)
		}
		c.evictLocked()
		c.mu.Unlock()
	}
	return idx
}

// unpinLocked drops one in-flight hold on e; an orphaned entry's
// storage goes back to the pool with its last holder.
func (c *Cache) unpinLocked(e *entry) {
	e.refs--
	if e.refs == 0 && e.orphaned {
		e.dm.Release()
	}
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

// bindLocked returns the binding serving (g, gr, epoch), or nil for a
// straggler on an older epoch, which must not touch the table. Any other
// new triple replaces the binding: every entry is dropped (pinned ones
// are orphaned and release with their last holder), and the pool is kept
// while |V| is unchanged.
func (c *Cache) bindLocked(g, gr *graph.Graph, epoch uint64) *binding {
	cur := c.cur
	if cur != nil {
		if cur.g == g && cur.gr == gr && cur.epoch == epoch {
			return cur
		}
		if epoch < cur.epoch {
			return nil
		}
	}
	b := &binding{g: g, gr: gr, epoch: epoch, pool: msbfs.NewPool(g.NumVertices())}
	if cur != nil && cur.pool.NumVertices() == g.NumVertices() {
		b.pool = cur.pool
	}
	for c.lru.Len() > 0 {
		c.dropLocked(c.lru.Front().Value.(*entry))
		c.evictions++
	}
	c.cur = b
	return b
}

// lookupLocked returns the servable entry for key: the exact cap if
// present, else the narrowest cached cap above it.
func (c *Cache) lookupLocked(key entryKey) *entry {
	if e, ok := c.entries[key]; ok {
		return e
	}
	for _, cp := range c.caps[key.endpoint()] {
		if cp > key.cap {
			return c.entries[key.withCap(cp)]
		}
	}
	return nil
}

// placeLocked inserts a map built for binding b. If b was replaced
// while the map was built, the new generation's table must not take it:
// it becomes an orphan, served privately by its batch and released with
// the last unpin.
func (c *Cache) placeLocked(b *binding, key entryKey, dm *msbfs.DistMap) *entry {
	if c.cur != b {
		return &entry{key: key, dm: dm, orphaned: true}
	}
	return c.insertLocked(key, dm)
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
	dv := key.endpoint()
	for _, cp := range append([]uint8(nil), c.caps[dv]...) {
		if cp < key.cap {
			if narrow := c.entries[key.withCap(cp)]; narrow.refs == 0 {
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

// evictLocked drops unpinned entries in LRU order until the byte budget
// holds.
func (c *Cache) evictLocked() {
	for c.bytes > c.maxBytes {
		var victim *entry
		for elem := c.lru.Back(); elem != nil; elem = elem.Prev() {
			if e := elem.Value.(*entry); e.refs == 0 {
				victim = e
				break
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
	dv := e.key.endpoint()
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
