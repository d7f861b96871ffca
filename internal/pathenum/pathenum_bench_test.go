package pathenum

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/msbfs"
	"repro/internal/oracle"
	"repro/internal/query"
)

// benchCase caches one dense-community graph and a mid-range query with
// a non-trivial result set.
type benchCase struct {
	g, gr    *graph.Graph
	q        query.Query
	fwd, bwd *msbfs.DistMap
}

var bc *benchCase

func getCase(b *testing.B) *benchCase {
	b.Helper()
	if bc == nil {
		g := graph.GenCommunityPowerLaw(4000, 150, 7, 0.98, 12)
		gr := g.Reverse()
		q := query.Query{S: 10, T: 90, K: 6}
		bc = &benchCase{
			g: g, gr: gr, q: q,
			fwd: msbfs.Single(g, q.S, q.K),
			bwd: msbfs.Single(gr, q.T, q.K),
		}
	}
	return bc
}

// BenchmarkEnumeratePlain measures PathEnum with the stored neighbour
// order.
func BenchmarkEnumeratePlain(b *testing.B) {
	c := getCase(b)
	var n int
	for i := 0; i < b.N; i++ {
		n = 0
		Enumerate(c.g, c.gr, c.q, c.fwd, c.bwd, Options{}, func([]graph.VertexID) { n++ })
	}
	b.ReportMetric(float64(n), "paths")
}

// BenchmarkEnumerateOptimized measures the "+" variant, the
// cost-balanced cut alone (neighbours expand in stored order), the
// per-query ablation behind BasicEnum+ and BatchEnum+.
func BenchmarkEnumerateOptimized(b *testing.B) {
	c := getCase(b)
	var n int
	for i := 0; i < b.N; i++ {
		n = 0
		Enumerate(c.g, c.gr, c.q, c.fwd, c.bwd, Options{Optimized: true}, func([]graph.VertexID) { n++ })
	}
	b.ReportMetric(float64(n), "paths")
}

// BenchmarkEnumerateStandalone includes the per-query index build,
// matching the original PathEnum's query cost model.
func BenchmarkEnumerateStandalone(b *testing.B) {
	c := getCase(b)
	for i := 0; i < b.N; i++ {
		Enumerate(c.g, c.gr, c.q, msbfs.Single(c.g, c.q.S, c.q.K), msbfs.Single(c.gr, c.q.T, c.q.K), Options{}, func([]graph.VertexID) {})
	}
}

// BenchmarkBruteForce calibrates the oracle's cost against the pruned
// enumerators on the same query.
func BenchmarkBruteForce(b *testing.B) {
	c := getCase(b)
	for i := 0; i < b.N; i++ {
		oracle.Enumerate(c.g, c.q, func([]graph.VertexID) {})
	}
}
