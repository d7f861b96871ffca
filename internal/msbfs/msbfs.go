// Package msbfs implements the hop-bounded breadth-first searches the
// index of §III is built from: one search per (source, cap), its
// distances in a dense array and its visited set Γ (Def. 4.4) as a
// sorted list.
//
// The paper builds the index with the bit-parallel multi-source BFS of
// Then et al. (VLDB'15) ("we implement their index construction
// following the state-of-the-art multi-source BFSs [36]"), which
// advances 64 searches per pass over the adjacency lists. Here each
// source runs its own plain queue BFS instead. On the benchmark's
// batches the 64 lanes barely share work — a frontier vertex carried
// 1.24 lanes on average when its out-edges were scanned on the sparse
// workload and 1.47 on the dense one — while every visit paid for a
// lane word and a write into one of 64 scattered arrays. The maps are
// byte-identical either way: same distances, same sorted lists.
//
// There is one kernel, bfs, and it is sequential. It writes a source's
// distances into its own pooled array and marks every vertex it visits
// in a three-level touched bitmap; one ascending walk over the set bits
// then emits Γ — allocated once at its exact size and born sorted,
// nothing compared — and zeroes the bitmap behind itself, which is the
// clean-scratch invariant the Pool relies on. A build uses several
// cores one level up, by running independent sources at once
// (parallel.go); nothing inside a search is shared, so nothing in the
// kernel is atomic. The build a single query's s-t subgraph needs
// (Subgraph) runs the same kernel with an admission test at the moment
// a vertex is first reached.
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
// v ∈ Γ, in O(1): the membership probe CountContained counts in bulk.
// The explicit Unreachable test matters at Cap = 255, where the Cap
// comparison alone would admit unvisited vertices.
//
//hcpath:noalloc
func (d *DistMap) Contains(v graph.VertexID) bool {
	dv := d.dist[v]
	return dv != Unreachable && dv <= d.Cap
}

// CountContained returns how many of vs Contains admits. It is the
// similarity estimator's probe loop, whose hits and misses follow no
// pattern a branch predictor could learn, so it has no data-dependent
// branch: Contains admits exactly the distances at most
// min(Cap, Unreachable-1), and a subtraction from that limit sets its
// top bit on a miss.
//
//hcpath:noalloc
func (d *DistMap) CountContained(vs []graph.VertexID) int {
	limit := uint(min(d.Cap, Unreachable-1))
	dist := d.dist
	misses := uint(0)
	for _, v := range vs {
		misses += (limit - uint(dist[v])) >> (bits.UintSize - 1)
	}
	return len(vs) - int(misses)
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
// replaced by one of the exact size. The pool also recycles the
// per-worker traversal scratch — a queue and the touched bitmap — so a
// build reallocates neither. All methods are safe for concurrent use,
// which is what lets the sources of one build run on several
// goroutines against one pool.
type Pool struct {
	n int

	mu      sync.Mutex
	dists   [][]uint8          // all entries Unreachable
	visited [][]graph.VertexID // len 0, capacity retained
	scratch []*scratch         // bitmap words zero, queue len 0
	allocs  int64              // dense arrays ever allocated, which the tests check
}

// NewPool returns a pool of distance arrays for graphs of n vertices.
func NewPool(n int) *Pool { return &Pool{n: n} }

// NumVertices returns the vertex count the pool's arrays are sized for.
func (p *Pool) NumVertices() int { return p.n }

// get returns a clean dist array of n entries and, where one is free, a
// recycled visited list; a nil pool allocates the array. Only the
// free-list pops happen under the mutex; allocating and memsetting a
// shortfall array runs outside it, so concurrent cold builds don't
// serialise on the lock.
func (p *Pool) get(n int) (dist []uint8, visited []graph.VertexID) {
	if p != nil {
		p.mu.Lock()
		if l := len(p.dists) - 1; l >= 0 {
			dist, p.dists = p.dists[l], p.dists[:l]
		} else {
			p.allocs++
		}
		if l := len(p.visited) - 1; l >= 0 {
			visited, p.visited = p.visited[l], p.visited[:l]
		}
		p.mu.Unlock()
	}
	if dist == nil {
		dist = make([]uint8, n)
		for i := range dist {
			dist[i] = Unreachable
		}
	}
	return dist, visited
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

// getScratch fills scs with clean traversal scratch for graphs of n
// vertices: free sets from the pool, new ones for the shortfall (all of
// them for a nil pool). Taking a build's sets at once, before any of
// them runs, keeps a width-w build at exactly w sets in its pool.
func (p *Pool) getScratch(n int, scs []*scratch) {
	if p != nil {
		p.mu.Lock()
		for i := range scs {
			if l := len(p.scratch) - 1; l >= 0 {
				scs[i], p.scratch = p.scratch[l], p.scratch[:l]
			}
		}
		p.mu.Unlock()
	}
	for i, sc := range scs {
		if sc == nil {
			scs[i] = newScratch(n)
		}
	}
}

// putScratch returns clean scratch to the pool; a nil pool drops it.
//
//hcpath:noalloc
func (p *Pool) putScratch(scs []*scratch) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.scratch = append(p.scratch, scs...)
	p.mu.Unlock()
}

// scratch is one worker's traversal state, reused by every BFS it runs:
// the queue, and the touched bitmap — a bit for every vertex a BFS
// visited, under two summary levels (a bit per word of the level
// below) so emitting the visited list skips 2¹⁸ untouched vertices per
// test. Free scratch is clean (bitmap words zero, queue length 0);
// emit restores that.
type scratch struct {
	queue   []graph.VertexID
	touched [3][]uint64 // ⌈n/64⌉, ⌈n/64²⌉, ⌈n/64³⌉ words
}

// newScratch lays the three bitmap levels out in one array, so the few
// summary words every visit writes share no cache line with another
// worker's.
func newScratch(n int) *scratch {
	sc := &scratch{queue: make([]graph.VertexID, 0, n)}
	var size [3]int
	for l := range size {
		n = (n + 63) / 64
		size[l] = n
	}
	words := make([]uint64, size[0]+size[1]+size[2])
	for l := range sc.touched {
		sc.touched[l], words = words[:size[l]:size[l]], words[size[l]:]
	}
	return sc
}

// touch records that v was visited.
//
//hcpath:noalloc
func (sc *scratch) touch(v graph.VertexID) {
	sc.touched[0][v>>6] |= uint64(1) << (v & 63)
	sc.touched[1][v>>12] |= uint64(1) << (v >> 6 & 63)
	sc.touched[2][v>>18] |= uint64(1) << (v >> 12 & 63)
}

// emit appends the touched vertices to visited in ascending order and
// zeroes every bitmap word it passes, which is exhaustive because bits
// enter only at touched vertices. Cost is O(|V|/64³ + |Γ|).
//
//hcpath:noalloc
func (sc *scratch) emit(visited []graph.VertexID) []graph.VertexID {
	t := &sc.touched
	for i2, w2 := range t[2] {
		for ; w2 != 0; w2 &= w2 - 1 {
			i1 := i2<<6 | bits.TrailingZeros64(w2)
			for w1 := t[1][i1]; w1 != 0; w1 &= w1 - 1 {
				i0 := i1<<6 | bits.TrailingZeros64(w1)
				for w0 := t[0][i0]; w0 != 0; w0 &= w0 - 1 {
					visited = append(visited, graph.VertexID(i0<<6|bits.TrailingZeros64(w0)))
				}
				// w0, w1 and w2 are copies: the words can go now.
				t[0][i0], t[1][i1], t[2][i2] = 0, 0, 0
			}
		}
	}
	return visited
}

// MultiSource runs a hop-bounded BFS from every source. caps[i] is the
// depth bound for sources[i]; len(caps) must equal len(sources).
// Results are positionally aligned with sources. Duplicate sources are
// allowed (each gets its own result).
func MultiSource(g *graph.Graph, sources []graph.VertexID, caps []uint8) []*DistMap {
	return MultiSourceIn(g, sources, caps, nil)
}

// MultiSourceIn is MultiSource drawing each result's storage from pool;
// the returned maps must be Released when no longer needed. A nil pool
// falls back to plain allocations (never pooled, Release is a no-op).
func MultiSourceIn(g *graph.Graph, sources []graph.VertexID, caps []uint8, pool *Pool) []*DistMap {
	return MultiSourceOpts(g, sources, caps, pool, BuildOptions{})
}

// bfs runs one BFS from s bounded at maxDepth hops on sc, into a map
// drawn from pool. It is the package's one kernel; concurrent calls on
// one Pool are safe, each on its own scratch. A non-nil admit confines
// the search to the vertices it admits (see admission); every build
// but Subgraph's passes nil.
//
// The queue holds the visited vertices in order of depth, so the first
// one at the cap ends the search. A vertex is new while its dist reads
// Unreachable — except that depth 255 writes that very value, so at
// that depth the touched bit tells a visited vertex from a new one.
func bfs(g *graph.Graph, s graph.VertexID, maxDepth uint8, admit *admission, pool *Pool, sc *scratch) *DistMap {
	dist, visited := pool.get(g.NumVertices())
	dist[s] = 0
	sc.touch(s)
	queue := append(sc.queue, s)
	for at := 0; at < len(queue); at++ {
		v := queue[at]
		d := dist[v]
		if d == maxDepth {
			break
		}
		d++
		for _, w := range g.OutNeighbors(v) {
			if dist[w] != Unreachable || d == Unreachable && sc.touched[0][w>>6]&(uint64(1)<<(w&63)) != 0 {
				continue
			}
			if admit != nil && !admit.admits(w, d) {
				continue
			}
			dist[w] = d
			sc.touch(w)
			queue = append(queue, w)
		}
	}
	if cap(visited) < len(queue) {
		visited = make([]graph.VertexID, 0, len(queue))
	}
	sc.queue = queue[:0]
	return &DistMap{Source: s, Cap: maxDepth, dist: dist, visited: sc.emit(visited), pool: pool}
}

// Single runs one hop-bounded BFS; it is MultiSource with a single
// source.
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
