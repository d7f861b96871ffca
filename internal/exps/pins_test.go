package exps

import (
	"fmt"
	"testing"

	"repro/internal/batchenum"
	"repro/internal/datasets"
	"repro/internal/query"
	"repro/internal/workload"
)

// psiShape is what clustering, Ψ detection and shared enumeration
// produce for one batch: Stats counters that depend on neither the
// neighbour order nor the worker count, and the batch's path total.
type psiShape struct {
	NumGroups    int
	SharedNodes  int
	SharingEdges int
	CachedPaths  int64
	SplicedPaths int64
	Paths        int64
}

// TestPsiShapesPinned pins BatchEnum+'s Ψ shape on four fixed Exp-1
// batches (workload.WithSimilarity, 20 queries, k 5, seed 1, µ targets
// 0.4 and 0.9) on the UK and SL stand-ins at scale 0.25, at one and two
// workers. The values were recorded from the engine that still sorted
// each expanded vertex's neighbours by residual distance; that they
// hold without the sort is the evidence that the search order changes
// only the emission order. They are exact: a change may re-record them
// only if it says why Ψ's shape moved.
func TestPsiShapesPinned(t *testing.T) {
	cases := []struct {
		code string
		mu   float64
		want psiShape
	}{
		{"UK", 0.4, psiShape{NumGroups: 8, SharedNodes: 34, SharingEdges: 75, CachedPaths: 9192, SplicedPaths: 3008, Paths: 11067}},
		{"UK", 0.9, psiShape{NumGroups: 2, SharedNodes: 10, SharingEdges: 32, CachedPaths: 116, SplicedPaths: 144, Paths: 92}},
		{"SL", 0.4, psiShape{NumGroups: 1, SharedNodes: 17, SharingEdges: 38, CachedPaths: 1378, SplicedPaths: 147, Paths: 844}},
		{"SL", 0.9, psiShape{NumGroups: 1, SharedNodes: 7, SharingEdges: 21, CachedPaths: 417, SplicedPaths: 154, Paths: 314}},
	}
	for _, c := range cases {
		specs, err := datasets.Select([]string{c.code})
		if err != nil {
			t.Fatal(err)
		}
		g := specs[0].Build(0.25)
		gr := g.Reverse()
		qs, _, err := workload.WithSimilarity(g, gr, workload.SimilarityConfig{
			Config:   workload.Config{N: 20, KMin: 5, KMax: 5, Seed: 1},
			TargetMu: c.mu,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/mu%.1f/w%d", c.code, c.mu, workers), func(t *testing.T) {
				sink := query.NewCountSink(len(qs))
				st, err := batchenum.Run(g, gr, qs, batchenum.Options{Algorithm: batchenum.BatchPlus, Workers: workers}, nil, sink)
				if err != nil {
					t.Fatal(err)
				}
				got := psiShape{st.NumGroups, st.SharedNodes, st.SharingEdges, st.CachedPaths, st.SplicedPaths, sink.Total()}
				if got != c.want {
					t.Errorf("Ψ shape %+v, want %+v", got, c.want)
				}
			})
		}
	}
}
