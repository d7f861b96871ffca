// Package msbfs implements hop-bounded breadth-first searches, including
// the bit-parallel multi-source BFS of Then et al. (VLDB'15) that the
// paper uses for index construction ("we implement their index
// construction following the state-of-the-art multi-source BFSs [36]").
//
// Sources are processed in chunks of 64 so that one machine word carries
// the frontier membership of a whole chunk; a single pass over the
// adjacency lists advances 64 BFSs at once. Each source carries its own
// depth cap (the hop constraint k of its query), enforced with per-level
// bit masks.
//
// The level loop writes only distances and counts each source's visits.
// The hop-constrained neighbour sets Γ (Def. 4.4) fall out of the same
// traversal afterwards: every vertex that enters a frontier sets a bit
// in a per-chunk touched bitmap, and one ascending sweep over the set
// bits appends the vertex to the list of every source that reached it —
// lists allocated once at their exact size and born sorted, nothing
// compared — and zeroes the traversal scratch behind itself, which is
// the clean-scratch invariant the Pool relies on.
//
// There is one kernel, chunkRun, and it is sequential. A build uses
// several cores one level up, by running independent chunks at once
// (parallel.go); nothing inside a chunk is shared, so nothing in the
// kernel is atomic. The build a single query's s-t subgraph needs
// (Subgraph) runs the same kernel with an admission test between a
// level's expansion and its recording.
package msbfs

import (
	"math/bits"
	"sync"

	"repro/internal/graph"
)

// Unreachable is the distance reported for vertices outside a source's
// hop-bounded reach.
const Unreachable = ^uint8(0)

// DistMap holds the hop-bounded BFS result for one source: the distance
// to every vertex within Cap hops, and the visited vertex set (the
// hop-constrained neighbours Γ of Def. 4.4).
//
// Distances live in a dense per-source array: Dist sits on the hot path
// of every enumeration prune check (Lemma 3.1 fires once per candidate
// expansion), where a hash-map lookup would dominate the whole engine.
// The n-byte array per source is the price; at the batch sizes of the
// paper's workloads (hundreds of sources) it stays in the tens of MB.
type DistMap struct {
	Source graph.VertexID
	Cap    uint8

	dist    []uint8          // len n; Unreachable where unvisited
	visited []graph.VertexID // sorted ascending
	pool    *Pool            // nil for unpooled maps and views
}

// Dist returns the shortest-path distance from the source to v, or
// Unreachable if v is farther than Cap hops (or disconnected). The Cap
// comparison makes thresholded Views work on shared storage: a view's
// dist array may hold distances beyond its Cap (written by the wider
// parent map), and they must read as Unreachable.
//
//hcpath:noalloc
func (d *DistMap) Dist(v graph.VertexID) uint8 {
	if dv := d.dist[v]; dv <= d.Cap {
		return dv
	}
	return Unreachable
}

// Contains reports whether v is within Cap hops of the source, i.e.
// v ∈ Γ. It is the O(1) membership probe the similarity estimator uses.
// The explicit Unreachable test matters at Cap = 255, where the Cap
// comparison alone would admit unvisited vertices.
//
//hcpath:noalloc
func (d *DistMap) Contains(v graph.VertexID) bool {
	dv := d.dist[v]
	return dv != Unreachable && dv <= d.Cap
}

// Visited returns the sorted set of vertices within Cap hops of the
// source (including the source itself). The slice aliases internal
// storage and must not be modified.
func (d *DistMap) Visited() []graph.VertexID { return d.visited }

// NumVisited returns |Γ|.
func (d *DistMap) NumVisited() int { return len(d.visited) }

// Bytes returns the storage the map holds: the dense array plus the
// visited list's capacity, which for a list recycled through a Pool can
// exceed its length. It is what a byte-budgeted holder should charge.
func (d *DistMap) Bytes() int64 { return int64(len(d.dist)) + 4*int64(cap(d.visited)) }

// View returns a map equivalent to a fresh BFS from the same source
// bounded at cap ≤ d.Cap: the dense array is shared (Dist thresholds on
// Cap) and the visited set is filtered once here. A cached index entry
// built at a larger cap can thus serve any narrower query without a
// traversal. The view aliases d's storage: it must not outlive d's
// release, and Release on the view itself is a no-op.
func (d *DistMap) View(cap uint8) *DistMap {
	if cap >= d.Cap {
		return d
	}
	vis := make([]graph.VertexID, 0, len(d.visited))
	for _, v := range d.visited {
		if d.dist[v] <= cap {
			vis = append(vis, v)
		}
	}
	return &DistMap{Source: d.Source, Cap: cap, dist: d.dist, visited: vis}
}

// Release returns a pooled map's storage to its Pool for reuse; for
// unpooled maps and views it is a no-op. The dense array is reset
// sparsely — only the visited entries are cleared, far cheaper than an
// n-byte memset when |Γ| ≪ n — restoring the pool's all-Unreachable
// invariant. The map must not be used afterwards.
//
//hcpath:noalloc
func (d *DistMap) Release() {
	p := d.pool
	if p == nil {
		return
	}
	d.pool = nil
	for _, v := range d.visited {
		d.dist[v] = Unreachable
	}
	p.put(d.dist, d.visited[:0])
	d.dist, d.visited = nil, nil
}

// Pool recycles the dense per-source distance arrays (and visited
// slices) of DistMaps for one graph size, killing the n-byte-per-source
// allocation churn of repeated index builds. Free arrays are kept clean
// (every entry Unreachable), so acquisition skips the initialising
// memset too; a recycled visited list too small for its next source is
// replaced by one of the exact size. The pool also recycles per-chunk
// traversal scratch — the seen/frontier/next bit-word arrays, the
// bitmaps and the pre-sized flat frontier vertex arrays — so a build
// neither reallocates nor grows them by append. All methods are safe
// for concurrent use, which is what lets independent 64-source chunks
// build concurrently against one pool.
type Pool struct {
	n int

	mu      sync.Mutex
	dists   [][]uint8          // all entries Unreachable
	visited [][]graph.VertexID // len 0, capacity retained
	scratch []*chunkScratch    // all words zero, vert slices len 0
	allocs  int64
}

// NewPool returns a pool of distance arrays for graphs of n vertices.
func NewPool(n int) *Pool { return &Pool{n: n} }

// NumVertices returns the vertex count the pool's arrays are sized for.
func (p *Pool) NumVertices() int { return p.n }

// Allocs returns how many dense arrays the pool has ever allocated —
// the steady state of a well-sized workload stops growing it.
func (p *Pool) Allocs() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.allocs
}

// fill gives every map of a chunk a clean dist array and, where one is
// free, a recycled visited list, and returns clean traversal scratch
// for the chunk. Only the free-list pops happen under the mutex;
// allocating and memsetting the shortfall — n bytes per array — runs
// outside it, so concurrent cold builds don't serialise on the lock.
func (p *Pool) fill(out []*DistMap) (sc *chunkScratch) {
	p.mu.Lock()
	for _, dm := range out {
		if l := len(p.dists) - 1; l >= 0 {
			dm.dist, p.dists = p.dists[l], p.dists[:l]
		} else {
			p.allocs++
		}
		if l := len(p.visited) - 1; l >= 0 {
			dm.visited, p.visited = p.visited[l], p.visited[:l]
		}
	}
	if l := len(p.scratch) - 1; l >= 0 {
		sc, p.scratch = p.scratch[l], p.scratch[:l]
	}
	p.mu.Unlock()
	for _, dm := range out {
		if dm.dist == nil {
			dm.dist = make([]uint8, p.n)
			for i := range dm.dist {
				dm.dist[i] = Unreachable
			}
		}
	}
	if sc == nil {
		sc = newChunkScratch(p.n)
	}
	return sc
}

//hcpath:noalloc
func (p *Pool) put(dist []uint8, visited []graph.VertexID) {
	p.mu.Lock()
	p.dists = append(p.dists, dist)
	p.visited = append(p.visited, visited)
	p.mu.Unlock()
}

// DropVisited forgets the recycled visited lists, keeping the dense
// arrays and traversal scratch. A visited list is sized by its source's
// reach — up to four bytes per vertex against the dense array's one —
// and recycled lists are handed out in arbitrary order and only give
// way to larger ones, so a pool that keeps them converges on 5·|V|
// bytes per map. A holder that returns a whole batch at once
// (hcindex.Builder) calls this to retain only what is sized by |V|.
func (p *Pool) DropVisited() {
	p.mu.Lock()
	clear(p.visited)
	p.visited = p.visited[:0]
	p.mu.Unlock()
}

// chunkScratch is the per-chunk traversal state: one uint64 word per
// vertex for the seen/frontier/next bit sets, the touched bitmap — a
// bit for every vertex that ever entered a frontier, under two summary
// levels (a bit per word of the level below) so the sweep skips 2¹⁸
// untouched vertices per test — and two flat vertex arrays pre-sized
// to n so the level loop never grows them by append. Free scratch is
// kept clean (words zero, vert slices length 0); sweep restores that.
type chunkScratch struct {
	seen, frontier, next []uint64
	touched              [3][]uint64 // ⌈n/64⌉, ⌈n/64²⌉, ⌈n/64³⌉ words
	frontierVerts        []graph.VertexID
	nextVerts            []graph.VertexID
}

func newChunkScratch(n int) *chunkScratch {
	sc := &chunkScratch{
		seen:          make([]uint64, n),
		frontier:      make([]uint64, n),
		next:          make([]uint64, n),
		frontierVerts: make([]graph.VertexID, 0, n),
		nextVerts:     make([]graph.VertexID, 0, n),
	}
	for l := range sc.touched {
		n = (n + 63) / 64
		sc.touched[l] = make([]uint64, n)
	}
	return sc
}

// touch records that v entered a frontier.
//
//hcpath:noalloc
func (sc *chunkScratch) touch(v graph.VertexID) {
	sc.touched[0][v>>6] |= uint64(1) << (v & 63)
	sc.touched[1][v>>12] |= uint64(1) << (v >> 6 & 63)
	sc.touched[2][v>>18] |= uint64(1) << (v >> 12 & 63)
}

// releaseScratch returns scratch to the pool; the caller must already
// have restored the all-zero invariant. Unpooled scratch is dropped.
//
//hcpath:noalloc
func releaseScratch(p *Pool, s *chunkScratch) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.scratch = append(p.scratch, s)
	p.mu.Unlock()
}

// MultiSource runs hop-bounded BFSs from every source concurrently using
// 64-way bit parallelism. caps[i] is the depth bound for sources[i];
// len(caps) must equal len(sources). Results are positionally aligned
// with sources. Duplicate sources are allowed (each gets its own result).
func MultiSource(g *graph.Graph, sources []graph.VertexID, caps []uint8) []*DistMap {
	return MultiSourceIn(g, sources, caps, nil)
}

// MultiSourceIn is MultiSource drawing each result's storage from pool;
// the returned maps must be Released when no longer needed. A nil pool
// falls back to per-chunk flat allocations (never pooled, Release is a
// no-op).
func MultiSourceIn(g *graph.Graph, sources []graph.VertexID, caps []uint8, pool *Pool) []*DistMap {
	return MultiSourceOpts(g, sources, caps, pool, BuildOptions{})
}

// setupChunk claims the chunk's distance storage and traversal scratch
// (pooled, or one flat allocation and fresh scratch) and returns the
// largest cap of the chunk.
func setupChunk(g *graph.Graph, sources []graph.VertexID, caps []uint8, out []*DistMap, pool *Pool) (maxCap uint8, sc *chunkScratch) {
	n := g.NumVertices()
	k := len(sources)
	if pool != nil {
		// Pooled arrays arrive clean, so no initialisation pass.
		for i := 0; i < k; i++ {
			out[i] = &DistMap{Source: sources[i], Cap: caps[i], pool: pool}
		}
		sc = pool.fill(out)
	} else {
		sc = newChunkScratch(n)
		// One flat allocation for all k distance arrays of the chunk.
		flat := make([]uint8, k*n)
		for i := range flat {
			flat[i] = Unreachable
		}
		for i := 0; i < k; i++ {
			out[i] = &DistMap{
				Source: sources[i],
				Cap:    caps[i],
				dist:   flat[i*n : (i+1)*n],
			}
		}
	}
	for i := 0; i < k; i++ {
		if caps[i] > maxCap {
			maxCap = caps[i]
		}
	}
	return maxCap, sc
}

// seedLevel runs level 0: each source visits itself. Identical sources
// share a vertex word, which is fine — their bits simply travel
// together. Returns the initial frontier vertex list (deduplicated via
// the frontier words themselves).
//
//hcpath:noalloc
func seedLevel(sources []graph.VertexID, out []*DistMap, sc *chunkScratch, counts *[64]int32) []graph.VertexID {
	frontierVerts := sc.frontierVerts[:0]
	for i, s := range sources {
		bit := uint64(1) << uint(i)
		if sc.frontier[s] == 0 {
			frontierVerts = append(frontierVerts, s)
			sc.touch(s)
		}
		sc.seen[s] |= bit
		sc.frontier[s] |= bit
		out[i].dist[s] = 0
		counts[i]++
	}
	return frontierVerts
}

// recordWord writes one next-frontier vertex into every slot whose bit
// is set: dist gets the level depth, the slot's visit count grows.
//
//hcpath:noalloc
func recordWord(out []*DistMap, counts *[64]int32, v graph.VertexID, word uint64, depth uint8) {
	for ; word != 0; word &= word - 1 {
		slot := bits.TrailingZeros64(word)
		out[slot].dist[v] = depth
		counts[slot]++
	}
}

// sizeLists gives every result a visited list that holds its count: a
// recycled list that is large enough, or one allocated at the exact size.
func sizeLists(out []*DistMap, counts *[64]int32) {
	for i, dm := range out {
		if cap(dm.visited) < int(counts[i]) {
			dm.visited = make([]graph.VertexID, 0, counts[i])
		}
	}
}

// sweep emits the visited lists: one ascending pass over the touched
// bitmap appends each vertex to the list of every slot whose seen bit
// is set, in vertex order, into the capacity sizeLists provided, and
// zeroes every scratch word it passes, which is exhaustive because bits
// only enter seen, frontier and next at touched vertices. Cost is
// O(|V|/64³ + touched + Σ|Γ|).
//
//hcpath:noalloc
func sweep(sc *chunkScratch, out []*DistMap) {
	t := &sc.touched
	for i2, w2 := range t[2] {
		for ; w2 != 0; w2 &= w2 - 1 {
			i1 := i2<<6 | bits.TrailingZeros64(w2)
			for w1 := t[1][i1]; w1 != 0; w1 &= w1 - 1 {
				i0 := i1<<6 | bits.TrailingZeros64(w1)
				for w0 := t[0][i0]; w0 != 0; w0 &= w0 - 1 {
					v := graph.VertexID(i0<<6 | bits.TrailingZeros64(w0))
					for lanes := sc.seen[v]; lanes != 0; lanes &= lanes - 1 {
						dm := out[bits.TrailingZeros64(lanes)]
						dm.visited = append(dm.visited, v)
					}
					sc.seen[v], sc.frontier[v], sc.next[v] = 0, 0, 0
				}
				// w0, w1 and w2 are copies: the words can go now.
				t[0][i0], t[1][i1], t[2][i2] = 0, 0, 0
			}
		}
	}
}

// chunkRun advances up to 64 bounded BFSs simultaneously, pushing each
// level's frontier along out-edges. It is the package's one kernel;
// concurrent calls on one Pool are safe, each on its own scratch. A
// non-nil admit confines every lane to the vertices it admits (see
// admission); every build but Subgraph's passes nil.
func chunkRun(g *graph.Graph, sources []graph.VertexID, caps []uint8, admit *admission, out []*DistMap, pool *Pool) {
	k := len(sources)
	maxCap, sc := setupChunk(g, sources, caps, out, pool)
	seen, frontier, next := sc.seen, sc.frontier, sc.next
	var counts [64]int32 // |Γ| so far, per slot
	frontierVerts := seedLevel(sources, out, sc, &counts)
	nextVerts := sc.nextVerts[:0]

	// depth is an int so a 255-hop cap cannot wrap the level counter
	// (uint8 depth overflowed to 0 past level 255, mislabelling
	// distances on graphs of diameter > 255).
	for depth := 1; depth <= int(maxCap) && len(frontierVerts) > 0; depth++ {
		// Only sources whose cap allows another hop keep propagating.
		var active uint64
		for i := 0; i < k; i++ {
			if int(caps[i]) >= depth {
				active |= uint64(1) << uint(i)
			}
		}
		for _, v := range frontierVerts {
			fb := frontier[v] & active
			frontier[v] = 0
			if fb == 0 {
				continue
			}
			for _, w := range g.OutNeighbors(v) {
				fresh := fb &^ seen[w]
				if fresh == 0 {
					continue
				}
				if next[w] == 0 {
					nextVerts = append(nextVerts, w)
				}
				next[w] |= fresh
				seen[w] |= fresh
			}
		}
		if admit != nil {
			nextVerts = admit.filter(nextVerts, seen, next, depth)
		}
		for _, w := range nextVerts {
			sc.touch(w)
			recordWord(out, &counts, w, next[w], uint8(depth))
		}
		frontier, next = next, frontier
		frontierVerts = frontierVerts[:0]
		frontierVerts, nextVerts = nextVerts, frontierVerts
	}
	sizeLists(out, &counts)
	sweep(sc, out)
	sc.frontierVerts, sc.nextVerts = frontierVerts[:0], nextVerts[:0]
	releaseScratch(pool, sc)
}

// Single runs one hop-bounded BFS; it is MultiSource with a single
// source but avoids the chunk bookkeeping in tests and tools.
func Single(g *graph.Graph, source graph.VertexID, cap uint8) *DistMap {
	return MultiSource(g, []graph.VertexID{source}, []uint8{cap})[0]
}

// FullDistances computes exact unbounded shortest distances from source
// to every vertex with a plain queue BFS; unreachable entries are
// Unreachable. Used as a test oracle and by the KSP baselines. Distances
// beyond 254 saturate.
func FullDistances(g *graph.Graph, source graph.VertexID) []uint8 {
	n := g.NumVertices()
	dist := make([]uint8, n)
	for i := range dist {
		dist[i] = Unreachable
	}
	dist[source] = 0
	queue := []graph.VertexID{source}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		dv := dist[v]
		nd := dv + 1
		if nd == Unreachable {
			nd = Unreachable - 1 // saturate
		}
		for _, w := range g.OutNeighbors(v) {
			if dist[w] == Unreachable {
				dist[w] = nd
				queue = append(queue, w)
			}
		}
	}
	return dist
}
