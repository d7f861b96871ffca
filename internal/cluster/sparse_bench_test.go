package cluster_test

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/datasets"
	"repro/internal/hcindex"
	"repro/internal/query"
	"repro/internal/workload"
)

// BenchmarkClusterSparseBatch measures Algorithm 2 on the shape of one
// offline_sparse_random batch of the load harness: the Epinions
// stand-in at eight times its size, 100 independent random queries
// with k from 5 to 7 (a third each), at widths 1 and 2. Its k-balls
// are thousands of vertices in a graph of 600k, so every probe of the
// µ matrix lands in a distance array far larger than the cache; the
// 8000-vertex fixture of BenchmarkClusterQueries does not show that.
// ns/probe is the time per membership probe of the matrix.
func BenchmarkClusterSparseBatch(b *testing.B) {
	spec, err := datasets.ByCode("EP")
	if err != nil {
		b.Fatal(err)
	}
	g := spec.Build(8)
	var qs []query.Query
	for k := 5; k <= 7; k++ {
		part, err := workload.RandomFixedK(g, 33+k/7, k, int64(k))
		if err != nil {
			b.Fatal(err)
		}
		qs = append(qs, part...)
	}
	qs, err = query.Batch(g, qs)
	if err != nil {
		b.Fatal(err)
	}
	idx := hcindex.Build(g, g.Reverse(), qs)
	defer idx.Release()
	probes := cluster.MatrixProbes(idx, len(qs))
	for _, width := range []int{1, 2} {
		b.Run(fmt.Sprintf("width=%d", width), func(b *testing.B) {
			var groups int
			for b.Loop() {
				groups = cluster.ClusterQueriesWorkers(idx, qs, 0.5, width).NumGroups()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(probes), "ns/probe")
			b.ReportMetric(float64(groups), "groups")
		})
	}
}
