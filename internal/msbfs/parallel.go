// Chunk-level parallelism. The 64-source chunks of a build share
// nothing but the Pool, which is mutexed: each chunk runs the one
// sequential kernel (chunkRun) on its own scratch and writes only its
// own result slots. So a build of several chunks — the chunks of one
// pass, or of both directions of an index (RunPasses) — runs them on
// several goroutines with no synchronisation inside the kernel. The
// chunks form one task list that a claim counter hands out, the
// package's only atomic; at width one there is neither task list nor
// goroutine, and the chunks run in order on the caller's goroutine.
package msbfs

import (
	"sync"
	"sync/atomic"

	"repro/internal/graph"
)

// BuildOptions tunes MultiSourceOpts and RunPasses.
type BuildOptions struct {
	// Workers is the most goroutines, the caller's included, that run
	// the build's 64-source chunks at once. Zero or one runs every chunk
	// in order on the calling goroutine. Results do not depend on it.
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

// chunk is one task of a parallel build: up to 64 sources of one pass
// and the result slots they fill.
type chunk struct {
	g       *graph.Graph
	sources []graph.VertexID
	caps    []uint8
	out     []*DistMap
}

// RunPasses runs several multi-source BFSs as one build: their chunks
// form one task list, so independent passes (an index's forward pass
// on G and backward pass on its reverse) fill the width together. The
// result of pass i is positionally aligned with passes[i].Sources. All
// graphs must have the pool's vertex count when pool is non-nil.
func RunPasses(passes []Pass, pool *Pool, opt BuildOptions) [][]*DistMap {
	out := make([][]*DistMap, len(passes))
	nchunks := 0
	for i, p := range passes {
		if len(p.Sources) != len(p.Caps) {
			panic("msbfs: len(sources) != len(caps)")
		}
		if pool != nil && pool.n != p.G.NumVertices() {
			panic("msbfs: pool sized for a different graph")
		}
		out[i] = make([]*DistMap, len(p.Sources))
		nchunks += (len(p.Sources) + 63) / 64
	}
	width := min(nchunks, opt.Workers)
	if width <= 1 {
		for i, p := range passes {
			for lo := 0; lo < len(p.Sources); lo += 64 {
				hi := min(lo+64, len(p.Sources))
				chunkRun(p.G, p.Sources[lo:hi], p.Caps[lo:hi], nil, out[i][lo:hi], pool)
			}
		}
		return out
	}
	tasks := make([]chunk, 0, nchunks)
	for i, p := range passes {
		for lo := 0; lo < len(p.Sources); lo += 64 {
			hi := min(lo+64, len(p.Sources))
			tasks = append(tasks, chunk{p.G, p.Sources[lo:hi], p.Caps[lo:hi], out[i][lo:hi]})
		}
	}
	var claim atomic.Int64
	drain := func() {
		for c := claim.Add(1) - 1; c < int64(len(tasks)); c = claim.Add(1) - 1 {
			t := &tasks[c]
			chunkRun(t.g, t.sources, t.caps, nil, t.out, pool)
		}
	}
	var wg sync.WaitGroup
	wg.Add(width - 1)
	for w := 1; w < width; w++ {
		go func() {
			defer wg.Done()
			drain()
		}()
	}
	drain()
	wg.Wait()
	return out
}
