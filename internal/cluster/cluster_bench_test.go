package cluster

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/hcindex"
	"repro/internal/msbfs"
	"repro/internal/query"
)

// clusterFixture caches an index over a 200-query batch, the Algorithm 2
// input size of the paper's larger sweeps. Queries are sampled inline
// (the workload package sits above cluster in the import graph).
type clusterFixture struct {
	idx *hcindex.Index
	qs  []query.Query
}

var fixture *clusterFixture

func getFixture(b *testing.B) *clusterFixture {
	b.Helper()
	if fixture == nil {
		g := graph.GenCommunityPowerLaw(8000, 150, 5, 0.97, 4)
		gr := g.Reverse()
		rng := rand.New(rand.NewSource(2))
		var qs []query.Query
		for len(qs) < 200 {
			s := graph.VertexID(rng.Intn(g.NumVertices()))
			k := uint8(4 + rng.Intn(3))
			reach := msbfs.Single(g, s, k).Visited()
			if len(reach) < 2 {
				continue
			}
			t := reach[rng.Intn(len(reach))]
			if t == s {
				continue
			}
			qs = append(qs, query.Query{S: s, T: t, K: k})
		}
		qs, err := query.Batch(g, qs)
		if err != nil {
			b.Fatal(err)
		}
		fixture = &clusterFixture{idx: hcindex.Build(g, gr, qs), qs: qs}
	}
	return fixture
}

// BenchmarkSimilarityMatrix measures the pairwise µ computation, the
// quadratic part of ClusterQuery.
func BenchmarkSimilarityMatrix(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AvgPairSimilarity(f.idx, f.qs)
	}
}

// BenchmarkClusterQueries measures Algorithm 2 end to end at the
// paper's default γ.
func BenchmarkClusterQueries(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	var groups int
	for i := 0; i < b.N; i++ {
		groups = ClusterQueries(f.idx, f.qs, 0.5).NumGroups()
	}
	b.ReportMetric(float64(groups), "groups")
}
