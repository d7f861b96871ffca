// Parallel, direction-optimizing multi-source BFS. Three forms of
// parallelism stack on the bit-parallel kernel of msbfs.go:
//
//   - within a level, the frontier is partitioned across Workers
//     goroutines that advance the shared next/seen words with
//     atomic-fetch-or (a CAS loop on each uint64, in the style of
//     Cluster-BFS's shared seed-set words), so one chunk's level scans
//     run on every core;
//   - each level chooses its direction Beamer-style: sparse frontiers
//     push along out-edges as usual, while a frontier whose out-degree
//     sum crosses a threshold switches to pull — scanning the
//     in-neighbours of not-yet-saturated vertices on the reverse graph,
//     which stops rescanning edges into vertices the search has already
//     absorbed (Ligra's direction-optimizing switch);
//   - independent 64-source chunks of large batches run concurrently,
//     drawing storage from the already-mutexed Pool.
//
// The next frontier is repacked into a flat vertex array with a
// parlay-style pack_index over a per-vertex mark bitmap: per-worker
// popcounts, a prefix sum, then disjoint writes — ascending vertex
// order, deterministic. Draining a mark word also ors it into the
// chunk's touched bitmap, so after the last level the visited lists
// come from the same sweep as the sequential kernel's, its slots
// striped across the workers (every list has one writer) and the
// scratch cleaned in one pass behind them. Results are byte-identical
// to the sequential reference (chunkRun): the same distances, the same
// sorted visited sets.
package msbfs

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
)

// BuildOptions tunes MultiSourceOpts beyond the sequential defaults.
type BuildOptions struct {
	// Workers is the build parallelism: zero or negative selects the
	// single-threaded push-only reference implementation, a positive
	// count runs the level loops on that many goroutines (and processes
	// independent 64-source chunks concurrently).
	Workers int
	// Reverse, when non-nil, must be the exact edge-reverse of the
	// searched graph (edge (u,v) present iff (v,u) is in Reverse); it
	// enables the pull direction for dense frontiers. A nil Reverse —
	// e.g. an overlay snapshot without a cheap reverse at hand — keeps
	// every level push-only, which is always correct. Ignored by the
	// sequential reference path.
	Reverse *graph.Graph
}

// pullDenom sets the direction switch: a level pulls when the
// frontier's out-degree sum (plus the frontier size) exceeds (m+n)/
// pullDenom, the Beamer/Ligra threshold shape with the usual
// denominator of 20.
const pullDenom = 20

// MultiSourceOpts is MultiSourceIn with explicit build options; zero
// options reproduce MultiSourceIn exactly.
func MultiSourceOpts(g *graph.Graph, sources []graph.VertexID, caps []uint8, pool *Pool, opt BuildOptions) []*DistMap {
	if len(sources) != len(caps) {
		panic("msbfs: len(sources) != len(caps)")
	}
	if pool != nil && pool.n != g.NumVertices() {
		panic("msbfs: pool sized for a different graph")
	}
	if opt.Reverse != nil && opt.Reverse.NumVertices() != g.NumVertices() {
		panic("msbfs: reverse graph sized for a different graph")
	}
	results := make([]*DistMap, len(sources))
	nchunks := (len(sources) + 63) / 64
	if opt.Workers <= 0 {
		for c := 0; c < nchunks; c++ {
			lo, hi := chunkBounds(c, len(sources))
			chunkRun(g, sources[lo:hi], caps[lo:hi], results[lo:hi], pool)
		}
		return results
	}
	if nchunks <= 1 {
		if nchunks == 1 {
			chunkRunPar(g, opt.Reverse, sources, caps, results, pool, opt.Workers)
		}
		return results
	}
	// Spread the worker budget over concurrent chunks: chunks are
	// independent (disjoint result slots, pool access is mutexed), so a
	// claim counter keeps every goroutine busy until the batch drains.
	across := min(nchunks, opt.Workers)
	within := max(1, opt.Workers/across)
	var claim atomic.Int64
	var wg sync.WaitGroup
	wg.Add(across)
	for w := 0; w < across; w++ {
		go func() {
			defer wg.Done()
			for {
				c := int(claim.Add(1)) - 1
				if c >= nchunks {
					return
				}
				lo, hi := chunkBounds(c, len(sources))
				chunkRunPar(g, opt.Reverse, sources[lo:hi], caps[lo:hi], results[lo:hi], pool, within)
			}
		}()
	}
	wg.Wait()
	return results
}

// chunkBounds returns the source range of chunk c.
//
//hcpath:noalloc
func chunkBounds(c, total int) (lo, hi int) {
	lo = c * 64
	hi = min(lo+64, total)
	return lo, hi
}

// chunkRunPar advances up to 64 bounded BFSs simultaneously on workers
// goroutines, switching each level between push and pull. rev may be
// nil (push-only). Results are byte-identical to chunkRun's.
func chunkRunPar(g, rev *graph.Graph, sources []graph.VertexID, caps []uint8, out []*DistMap, pool *Pool, workers int) {
	n := g.NumVertices()
	k := len(sources)
	maxCap, sc := setupChunk(g, sources, caps, out, pool)
	seen, frontier, next, marks := sc.seen, sc.frontier, sc.next, sc.marks
	var counts [64]int32
	frontierVerts := seedLevel(sources, out, sc, &counts)
	nextVerts := sc.nextVerts
	numWords := len(marks)
	pullAt := (g.NumEdges() + n) / pullDenom
	// offsets[w]..offsets[w+1] is worker w's slice of the packed next
	// frontier; one allocation per chunk, reused every level.
	offsets := make([]int, workers+1)
	rw := min(workers, k) // goroutines that stripe the result slots

	// depth is an int so a 255-hop cap cannot wrap the level counter
	// (see chunkRun).
	for depth := 1; depth <= int(maxCap) && len(frontierVerts) > 0; depth++ {
		var active uint64
		for i := 0; i < k; i++ {
			if int(caps[i]) >= depth {
				active |= uint64(1) << uint(i)
			}
		}
		if rev != nil && frontierCost(g, frontierVerts) > pullAt {
			// Pull: every worker owns a 64-aligned vertex range, so all
			// its writes (seen, next, marks) are unshared — no atomics.
			parallelFor(workers, func(w int) {
				loW, hiW := splitRange(numWords, workers, w)
				pullRange(rev, min(loW*64, n), min(hiW*64, n), seen, frontier, next, marks[loW:hiW], active)
			})
		} else {
			// Push: frontier words are read-only this level; seen, next
			// and marks advance by atomic fetch-or.
			parallelFor(workers, func(w int) {
				lo, hi := splitRange(len(frontierVerts), workers, w)
				pushRange(g, frontierVerts[lo:hi], seen, frontier, next, marks, active)
			})
		}

		// Repack the next frontier: per-worker popcounts over the mark
		// bitmap, a prefix sum, then disjoint ascending writes
		// (pack_index). fillMarks clears the marks as it drains them
		// into the touched bitmap.
		parallelFor(workers, func(w int) {
			lo, hi := splitRange(numWords, workers, w)
			offsets[w+1] = countMarks(marks[lo:hi])
		})
		for w := 0; w < workers; w++ {
			offsets[w+1] += offsets[w]
		}
		nextVerts = nextVerts[:offsets[workers]]
		parallelFor(workers, func(w int) {
			lo, hi := splitRange(numWords, workers, w)
			fillMarks(sc, lo, hi, nextVerts[offsets[w]:offsets[w+1]])
		})

		// Record distances and visit counts, striping the ≤64 result
		// slots across workers so every slot has one writer.
		parallelFor(rw, func(w int) {
			recordSlots(out, &counts, nextVerts, next, uint8(depth), slotStripeMask(k, rw, w))
		})

		for _, v := range frontierVerts {
			frontier[v] = 0
		}
		frontier, next = next, frontier
		frontierVerts, nextVerts = nextVerts, frontierVerts[:0]
	}
	sizeLists(out, &counts)
	parallelFor(rw, func(w int) {
		sweep(sc, out, slotStripeMask(k, rw, w), rw == 1)
	})
	if rw > 1 {
		sweep(sc, out, 0, true) // the stripes only read; clean behind them
	}
	sc.frontierVerts, sc.nextVerts = frontierVerts[:0], nextVerts[:0]
	releaseScratch(pool, sc)
}

// parallelFor runs fn(0..workers-1) concurrently and waits; one worker
// runs inline.
func parallelFor(workers int, fn func(worker int)) {
	if workers <= 1 {
		fn(0)
		return
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			fn(w)
		}(w)
	}
	fn(0)
	wg.Wait()
}

// splitRange partitions [0, total) into workers near-equal contiguous
// ranges and returns worker w's.
//
//hcpath:noalloc
func splitRange(total, workers, w int) (lo, hi int) {
	lo = total * w / workers
	hi = total * (w + 1) / workers
	return lo, hi
}

// frontierCost estimates a push level's edge-scan cost: the frontier's
// out-degree sum plus its size (Ligra's |F| + outdeg(F)).
//
//hcpath:noalloc
func frontierCost(g *graph.Graph, frontierVerts []graph.VertexID) int {
	cost := len(frontierVerts)
	for _, v := range frontierVerts {
		cost += g.OutDegree(v)
	}
	return cost
}

// fetchOr atomically ors word into *addr and returns the previous
// value: a CAS loop that exits without a write when every bit is
// already present, keeping contended words read-mostly.
//
//hcpath:noalloc
func fetchOr(addr *uint64, word uint64) uint64 {
	for {
		old := atomic.LoadUint64(addr)
		if old&word == word {
			return old
		}
		if atomic.CompareAndSwapUint64(addr, old, old|word) {
			return old
		}
	}
}

// pushRange advances one worker's share of the frontier along
// out-edges. frontier is read-only during the level; seen/next/marks
// words are shared with sibling workers and advance by fetch-or. The
// worker whose fetch-or first populates next[w] marks w for the repack,
// so each next-frontier vertex is marked exactly once.
//
//hcpath:noalloc
func pushRange(g *graph.Graph, verts []graph.VertexID, seen, frontier, next, marks []uint64, active uint64) {
	for _, v := range verts {
		fb := frontier[v] & active
		if fb == 0 {
			continue
		}
		for _, w := range g.OutNeighbors(v) {
			fresh := fb &^ atomic.LoadUint64(&seen[w])
			if fresh == 0 {
				continue
			}
			fresh &^= fetchOr(&seen[w], fresh)
			if fresh == 0 {
				continue
			}
			if fetchOr(&next[w], fresh) == 0 {
				fetchOr(&marks[w>>6], uint64(1)<<(w&63))
			}
		}
	}
}

// pullRange advances vertices [lo, hi) by scanning their in-neighbours
// (rev's out-edges) and gathering frontier bits until the wanted set
// saturates. lo is 64-aligned, so every word this worker touches —
// seen, next, and the mark words — has exactly one writer and no
// atomics are needed; frontier is read-only.
//
//hcpath:noalloc
func pullRange(rev *graph.Graph, lo, hi int, seen, frontier, next, marks []uint64, active uint64) {
	for v := lo; v < hi; v++ {
		want := active &^ seen[v]
		if want == 0 {
			continue
		}
		var gather uint64
		for _, u := range rev.OutNeighbors(graph.VertexID(v)) {
			gather |= frontier[u]
			if gather&want == want {
				break
			}
		}
		fresh := gather & want
		if fresh == 0 {
			continue
		}
		seen[v] |= fresh
		next[v] = fresh
		marks[(v-lo)>>6] |= uint64(1) << (uint(v) & 63)
	}
}

// countMarks popcounts a mark-word range.
//
//hcpath:noalloc
func countMarks(marks []uint64) int {
	total := 0
	for _, word := range marks {
		total += bits.OnesCount64(word)
	}
	return total
}

// fillMarks drains mark words [lo, hi) into out — ascending vertex ids,
// exactly len(out) of them — moving each word into the touched bitmap
// and clearing it behind itself. Sibling workers own disjoint word
// ranges but can share a word of the summary levels, which therefore
// advance by fetch-or.
//
//hcpath:noalloc
func fillMarks(sc *chunkScratch, lo, hi int, out []graph.VertexID) {
	at := 0
	for wi := lo; wi < hi; wi++ {
		word := sc.marks[wi]
		if word == 0 {
			continue
		}
		sc.marks[wi] = 0
		sc.touched[0][wi] |= word
		fetchOr(&sc.touched[1][wi>>6], uint64(1)<<(wi&63))
		fetchOr(&sc.touched[2][wi>>12], uint64(1)<<(wi>>6&63))
		for ; word != 0; word &= word - 1 {
			out[at] = graph.VertexID(wi<<6 | bits.TrailingZeros64(word))
			at++
		}
	}
}

// recordSlots records the level's next frontier into the result slots
// selected by slotMask: each slot's dist entries and visit count are
// written by exactly one worker.
//
//hcpath:noalloc
func recordSlots(out []*DistMap, counts *[64]int32, verts []graph.VertexID, next []uint64, depth uint8, slotMask uint64) {
	for _, v := range verts {
		recordWord(out, counts, v, next[v]&slotMask, depth)
	}
}

// slotStripeMask selects the result slots worker w owns: bits w, w+rw,
// w+2rw, … below k.
//
//hcpath:noalloc
func slotStripeMask(k, rw, w int) uint64 {
	var mask uint64
	for i := w; i < k; i += rw {
		mask |= uint64(1) << uint(i)
	}
	return mask
}
