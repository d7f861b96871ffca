package msbfs

import (
	"sync"
	"testing"

	"repro/internal/graph"
)

// benchGraph is a mid-size community graph shared by the benchmarks.
var benchGraph = graph.GenCommunityPowerLaw(20000, 200, 6, 0.97, 3)

// benchReverse lazily builds benchGraph's reverse for the two-pass
// cases, outside any timed region.
var benchReverse = sync.OnceValue(func() *graph.Graph { return benchGraph.Reverse() })

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

// multiSourceCase is one BenchmarkMultiSource configuration: passes
// built as one build at width, with the allocs per warm build
// TestMultiSourceAllocCeilings last recorded for it (zero for the cases
// that are only timed).
type multiSourceCase struct {
	name   string
	passes []Pass
	width  int
	allocs float64
}

// multiSourceCases are one pass through the serial path, and an index's
// shape — a forward pass and a backward pass on the reverse, 256
// searches in all — serially and on two goroutines.
func multiSourceCases() []multiSourceCase {
	sources, caps := benchSources()
	fwd := Pass{G: benchGraph, Sources: sources, Caps: caps}
	two := []Pass{fwd, {G: benchReverse(), Sources: sources, Caps: caps}}
	return []multiSourceCase{
		{"Seq", []Pass{fwd}, 1, 151},
		{"TwoPassW1", two, 1, 301},
		{"TwoPassW2", two, 2, 306},
	}
}

// reachCases time the serial kernel by what it reaches: the harness's
// sparse batch shape (200 spread endpoints, caps 5–7), and one shallow
// source on a graph large enough that anything done per vertex would
// dominate.
func reachCases() []multiSourceCase {
	sparse, large := benchSparse(), benchLarge()
	sparseSources, sparseCaps := benchSourcesOn(sparse, 200, 5, 7)
	return []multiSourceCase{
		{"Sparse200", []Pass{{G: sparse, Sources: sparseSources, Caps: sparseCaps}}, 1, 0},
		{"OneSourceLargeN", []Pass{{G: large, Sources: []graph.VertexID{graph.VertexID(large.NumVertices() / 2)}, Caps: []uint8{2}}}, 1, 0},
	}
}

// build runs the case once on pool and hands every map back.
func (c multiSourceCase) build(pool *Pool) {
	for _, res := range RunPasses(c.passes, pool, BuildOptions{Workers: c.width}) {
		for _, dm := range res {
			dm.Release()
		}
	}
}

// BenchmarkMultiSource measures the pooled multi-source build, the
// index construction path of every engine. The pool is
// pre-warmed by an untimed iteration, so allocs/op reports the steady
// state rather than warm-up amortised over whatever b.N the timer
// picked.
func BenchmarkMultiSource(b *testing.B) {
	for _, c := range append(multiSourceCases(), reachCases()...) {
		b.Run(c.name, func(b *testing.B) {
			pool := NewPool(c.passes[0].G.NumVertices())
			c.build(pool)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.build(pool)
			}
		})
	}
}

// TestMultiSourceAllocCeilings keeps the pooled builds' steady state
// from regrowing allocations: one warm build may allocate at most 1.25×
// its recorded level. (AllocsPerRun's own warm-up call primes the pool;
// nothing here goes through a sync.Pool, so the count holds under -race
// too.)
func TestMultiSourceAllocCeilings(t *testing.T) {
	for _, c := range multiSourceCases() {
		pool := NewPool(c.passes[0].G.NumVertices())
		got := testing.AllocsPerRun(3, func() { c.build(pool) })
		ceiling := c.allocs * 1.25
		t.Logf("%s: %.0f allocs per build (ceiling %.0f)", c.name, got, ceiling)
		if got > ceiling {
			t.Errorf("%s: %.0f allocs per build exceeds %.0f (recorded %.0f × 1.25)", c.name, got, ceiling, c.allocs)
		}
	}
}

// BenchmarkRepeatedSingle is the ablation: the same searches as
// BenchmarkMultiSource's Seq case through unpooled Single calls,
// quantifying what the pool and the shared scratch save.
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
