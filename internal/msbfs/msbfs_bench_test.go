package msbfs

import (
	"sync"
	"testing"

	"repro/internal/graph"
)

// benchGraph is a mid-size community graph shared by the benchmarks.
var benchGraph = graph.GenCommunityPowerLaw(20000, 200, 6, 0.97, 3)

// benchReverse lazily builds benchGraph's reverse for the pull-enabled
// variants, outside any timed region.
var benchReverse = sync.OnceValue(func() *graph.Graph { return benchGraph.Reverse() })

// benchDense is a dense Erdős–Rényi graph (avg out-degree 50) whose
// middle BFS levels cross the Beamer threshold, exercising the pull
// direction the community graph's sparse frontiers never reach.
var benchDense = sync.OnceValue(func() *graph.Graph { return graph.GenErdosRenyi(4000, 200000, 7) })

// benchSparse is the harness's offline_sparse_random graph (the EP
// stand-in at scale 8), where index construction dominates a batch.
var benchSparse = sync.OnceValue(func() *graph.Graph { return graph.GenCommunityPowerLaw(40000, 120, 6, 0.975, 101) })

// benchLarge is a 2²²-vertex community graph: a build that reaches a
// few dozen vertices of it must cost by reach, not by |V|.
var benchLarge = sync.OnceValue(func() *graph.Graph { return graph.GenCommunityPowerLaw(1<<22, 150, 2, 0.95, 5) })

// benchSourcesOn picks nSrc spread-out sources on g, their caps cycling
// over [capLo, capHi].
func benchSourcesOn(g *graph.Graph, nSrc int, capLo, capHi uint8) ([]graph.VertexID, []uint8) {
	n := g.NumVertices()
	sources := make([]graph.VertexID, nSrc)
	caps := make([]uint8, nSrc)
	for i := range sources {
		sources[i] = graph.VertexID(i * (n / nSrc))
		caps[i] = capLo + uint8(i)%(capHi-capLo+1)
	}
	return sources, caps
}

func benchSources() ([]graph.VertexID, []uint8) { return benchSourcesOn(benchGraph, 128, 6, 6) }

// multiSourceCase is one BenchmarkMultiSource configuration with the
// allocs per warm build TestMultiSourceAllocCeilings last recorded for
// it (zero for the cases that are only timed).
type multiSourceCase struct {
	name    string
	g       *graph.Graph
	sources []graph.VertexID
	caps    []uint8
	opt     BuildOptions
	allocs  float64
}

// multiSourceCases are the sequential reference kernel, the parallel
// direction-optimizing engine, and the parallel engine on a dense graph
// where the Beamer heuristic selects pull for the fat middle levels.
func multiSourceCases() []multiSourceCase {
	sources, caps := benchSources()
	dense := benchDense()
	denseSources, denseCaps := benchSourcesOn(dense, 64, 6, 6)
	return []multiSourceCase{
		{"Seq", benchGraph, sources, caps, BuildOptions{}, 150},
		{"Par", benchGraph, sources, caps, BuildOptions{Workers: 4, Reverse: benchReverse()}, 366},
		{"PullDense", dense, denseSources, denseCaps, BuildOptions{Workers: 4, Reverse: dense.Reverse()}, 207},
	}
}

// reachCases time the sequential kernel by what it reaches: the
// harness's sparse batch shape (200 spread endpoints, caps 5–7), and
// one shallow source on a graph large enough that anything done per
// vertex would dominate.
func reachCases() []multiSourceCase {
	sparse, large := benchSparse(), benchLarge()
	sparseSources, sparseCaps := benchSourcesOn(sparse, 200, 5, 7)
	return []multiSourceCase{
		{"Sparse200", sparse, sparseSources, sparseCaps, BuildOptions{}, 0},
		{"OneSourceLargeN", large, []graph.VertexID{graph.VertexID(large.NumVertices() / 2)}, []uint8{2}, BuildOptions{}, 0},
	}
}

// build runs the case once on pool and hands every map back.
func (c multiSourceCase) build(pool *Pool) {
	for _, dm := range MultiSourceOpts(c.g, c.sources, c.caps, pool, c.opt) {
		dm.Release()
	}
}

// BenchmarkMultiSource measures the bit-parallel 64-way BFS, the index
// construction path of every engine (Then et al. [36]). The pool is
// pre-warmed by an untimed iteration, so allocs/op reports the steady
// state rather than warm-up amortised over whatever b.N the timer
// picked.
func BenchmarkMultiSource(b *testing.B) {
	for _, c := range append(multiSourceCases(), reachCases()...) {
		b.Run(c.name, func(b *testing.B) {
			pool := NewPool(c.g.NumVertices())
			c.build(pool)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.build(pool)
			}
		})
	}
}

// TestMultiSourceAllocCeilings keeps the pooled kernels' steady state
// from regrowing allocations: one warm build may allocate at most 1.25×
// its recorded level. (AllocsPerRun's own warm-up call primes the pool;
// nothing here goes through a sync.Pool, so the count holds under -race
// too.)
func TestMultiSourceAllocCeilings(t *testing.T) {
	for _, c := range multiSourceCases() {
		pool := NewPool(c.g.NumVertices())
		got := testing.AllocsPerRun(3, func() { c.build(pool) })
		ceiling := c.allocs * 1.25
		t.Logf("%s: %.0f allocs per build (ceiling %.0f)", c.name, got, ceiling)
		if got > ceiling {
			t.Errorf("%s: %.0f allocs per build exceeds %.0f (recorded %.0f × 1.25)", c.name, got, ceiling, c.allocs)
		}
	}
}

// BenchmarkRepeatedSingle is the ablation: the same work as
// BenchmarkMultiSource but one BFS per source, quantifying the gain of
// sharing adjacency scans across 64 concurrent searches.
func BenchmarkRepeatedSingle(b *testing.B) {
	sources, caps := benchSources()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, s := range sources {
			Single(benchGraph, s, caps[j])
		}
	}
}

// BenchmarkFullDistances measures the unbounded oracle BFS.
func BenchmarkFullDistances(b *testing.B) {
	for i := 0; i < b.N; i++ {
		FullDistances(benchGraph, 0)
	}
}
