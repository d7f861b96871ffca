// Source-level parallelism. The searches of a build share nothing but
// the Pool, which is mutexed: each runs the one sequential kernel (bfs)
// on its worker's scratch and writes only its own result slot. So a
// build — the sources of one pass, or of both directions of an index
// (RunPasses) — hands its sources out one at a time to several
// goroutines, with no synchronisation inside the kernel. The sources
// are numbered across the passes and a claim counter hands out the
// next number, the package's only atomic. At width one no goroutine
// starts, and the sources run in order on the caller's goroutine.
package msbfs

import (
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
)

// BuildOptions tunes MultiSourceOpts and RunPasses.
type BuildOptions struct {
	// Workers is the most goroutines, the caller's included, that run
	// the build's searches at once. Zero or one runs every search in
	// order on the calling goroutine. Results do not depend on it.
	Workers int
}

// Pass is one multi-source BFS of a build: hop-bounded searches from
// Sources on G, Caps[i] bounding Sources[i].
type Pass struct {
	G       *graph.Graph
	Sources []graph.VertexID
	Caps    []uint8
}

// MultiSourceOpts is MultiSourceIn with explicit build options; zero
// options reproduce MultiSourceIn exactly.
func MultiSourceOpts(g *graph.Graph, sources []graph.VertexID, caps []uint8, pool *Pool, opt BuildOptions) []*DistMap {
	return RunPasses([]Pass{{G: g, Sources: sources, Caps: caps}}, pool, opt)[0]
}

// RunPasses runs several multi-source BFSs as one build: their sources
// form one task list, so independent passes (an index's forward pass
// on G and backward pass on its reverse) fill the width together. The
// result of pass i is positionally aligned with passes[i].Sources. All
// graphs must have the pool's vertex count when pool is non-nil.
func RunPasses(passes []Pass, pool *Pool, opt BuildOptions) [][]*DistMap {
	out := make([][]*DistMap, len(passes))
	total, n := 0, 0
	for i, p := range passes {
		if len(p.Sources) != len(p.Caps) {
			panic("msbfs: len(sources) != len(caps)")
		}
		if pool != nil && pool.n != p.G.NumVertices() {
			panic("msbfs: pool sized for a different graph")
		}
		out[i] = make([]*DistMap, len(p.Sources))
		total += len(p.Sources)
		n = max(n, p.G.NumVertices())
	}
	if total == 0 {
		return out
	}
	width := min(total, opt.Workers)
	if width <= 1 {
		var sc [1]*scratch
		pool.getScratch(n, sc[:])
		drain(passes, out, pool, sc[0], new(atomic.Int64))
		pool.putScratch(sc[:])
		return out
	}
	scs := make([]*scratch, width)
	pool.getScratch(n, scs)
	// The goroutines read a copy, so a caller's passes stay off the heap.
	shared := slices.Clone(passes)
	var claim atomic.Int64
	var wg sync.WaitGroup
	wg.Add(width - 1)
	for _, sc := range scs[1:] {
		go func() {
			defer wg.Done()
			drain(shared, out, pool, sc, &claim)
		}()
	}
	drain(shared, out, pool, scs[0], &claim)
	wg.Wait()
	pool.putScratch(scs)
	return out
}

// drain claims sources by their number across the passes until none
// is left, and runs each on sc.
func drain(passes []Pass, out [][]*DistMap, pool *Pool, sc *scratch, claim *atomic.Int64) {
	for c := int(claim.Add(1) - 1); ; c = int(claim.Add(1) - 1) {
		i := 0
		for i < len(passes) && c >= len(passes[i].Sources) {
			c -= len(passes[i].Sources)
			i++
		}
		if i == len(passes) {
			return
		}
		p := &passes[i]
		out[i][c] = bfs(p.G, p.Sources[c], p.Caps[c], nil, pool, sc)
	}
}
