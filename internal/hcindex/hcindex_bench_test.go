package hcindex

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/datasets"
	"repro/internal/graph"
	"repro/internal/msbfs"
	"repro/internal/query"
)

// indexBuildShape is one batch BenchmarkIndexBuild builds an index for.
type indexBuildShape struct {
	name  string
	g, gr *graph.Graph
	qs    []query.Query
}

// indexBuildShapes are the benchmark's two offline batch shapes on its
// own graphs: on the EP stand-in at scale 8, 100 independent random
// queries with k 5–7 (offline_sparse_random: 200 searches that share
// little); on the UK stand-in at scale 1, 20 independent random queries
// beside a seed query from the vertex of largest in-degree repeated
// from 15 of its in-neighbours, all with k 6 (offline_dense_similar's
// distinct searches: the seed's forward searches overlap heavily, its
// backward map is shared). The graphs are the harness's own sizes:
// under fixed caps the searches overlap more as a graph shrinks, which
// favours a kernel that shares work between searches.
func indexBuildShapes(b *testing.B) []indexBuildShape {
	build := func(code string, scale float64) (*graph.Graph, *graph.Graph) {
		sp, err := datasets.ByCode(code)
		if err != nil {
			b.Fatal(err)
		}
		g := sp.Build(scale)
		return g, g.Reverse()
	}
	rng := rand.New(rand.NewSource(41))
	random := func(g *graph.Graph, n int, kLo, kHi int) []query.Query {
		qs := make([]query.Query, n)
		for i := range qs {
			qs[i] = query.Query{
				S: graph.VertexID(rng.Intn(g.NumVertices())),
				T: graph.VertexID(rng.Intn(g.NumVertices())),
				K: uint8(kLo + rng.Intn(kHi-kLo+1)),
			}
		}
		return qs
	}
	batch := func(g *graph.Graph, raw []query.Query) []query.Query {
		qs, err := query.Batch(g, raw)
		if err != nil {
			b.Fatal(err)
		}
		return qs
	}

	ep, epr := build("EP", 8)
	uk, ukr := build("UK", 1)
	const k = 6
	seed := graph.VertexID(0)
	for v := graph.VertexID(1); int(v) < uk.NumVertices(); v++ {
		if ukr.OutDegree(v) > ukr.OutDegree(seed) {
			seed = v
		}
	}
	near := msbfs.Single(uk, seed, k-3).Visited()
	t := near[len(near)-1]
	dense := random(uk, 20, k, k)
	sources := append([]graph.VertexID{seed}, ukr.OutNeighbors(seed)...)
	for _, s := range sources[:min(16, len(sources))] {
		if s != t {
			dense = append(dense, query.Query{S: s, T: t, K: k})
		}
	}
	return []indexBuildShape{
		{"EP-sparse", ep, epr, batch(ep, random(ep, 100, 5, 7))},
		{"UK-dense", uk, ukr, batch(uk, dense)},
	}
}

// BenchmarkIndexBuild times a pooled Builder's index build — both
// directions' searches as one build — on the benchmark's two offline
// batch shapes, serially (a Service's width) and on two goroutines,
// and reports the time per vertex the searches visit, so a change to
// the msbfs kernel reads here without the load harness. The pool is
// warmed by an untimed build first.
func BenchmarkIndexBuild(b *testing.B) {
	for _, sh := range indexBuildShapes(b) {
		for _, width := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/W%d", sh.name, width), func(b *testing.B) {
				bl := NewBuilderWorkers(true, width)
				idx := bl.Acquire(sh.g, sh.gr, 0, sh.qs)
				visited := 0
				seen := map[*msbfs.DistMap]bool{}
				for _, maps := range idx.maps {
					for _, dm := range maps {
						if !seen[dm] {
							seen[dm] = true
							visited += dm.NumVisited()
						}
					}
				}
				idx.Release()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					bl.Acquire(sh.g, sh.gr, 0, sh.qs).Release()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*visited), "ns/visited")
			})
		}
	}
}
