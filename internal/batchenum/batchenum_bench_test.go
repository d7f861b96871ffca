package batchenum

import (
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/query"
	"repro/internal/sharegraph"
	"repro/internal/workload"
)

// benchSetup caches one graph and a high-similarity workload: the
// regime where sharing matters.
type benchSetup struct {
	g, gr *graph.Graph
	qs    []query.Query
}

var setup *benchSetup

func getSetup(b *testing.B) *benchSetup {
	b.Helper()
	if setup == nil {
		g := graph.GenCommunityPowerLaw(5000, 120, 6, 0.975, 42)
		gr := g.Reverse()
		qs, _, err := workload.WithSimilarity(g, gr, workload.SimilarityConfig{
			Config:   workload.Config{N: 40, KMin: 5, KMax: 7, Seed: 7},
			TargetMu: 0.9,
		})
		if err != nil {
			b.Fatal(err)
		}
		setup = &benchSetup{g: g, gr: gr, qs: qs}
	}
	return setup
}

func benchRun(b *testing.B, opts Options) {
	s := getSetup(b)
	b.ResetTimer()
	var total int64
	for i := 0; i < b.N; i++ {
		sink := query.NewCountSink(len(s.qs))
		if _, err := Run(s.g, s.gr, s.qs, opts, nil, sink); err != nil {
			b.Fatal(err)
		}
		total = sink.Total()
	}
	b.ReportMetric(float64(total), "paths")
}

// The four engines of the evaluation on one workload.
func BenchmarkBasicEnum(b *testing.B) { benchRun(b, Options{Algorithm: Basic}) }
func BenchmarkBasicPlus(b *testing.B) { benchRun(b, Options{Algorithm: BasicPlus}) }
func BenchmarkBatchEnum(b *testing.B) { benchRun(b, Options{Algorithm: Batch}) }
func BenchmarkBatchPlus(b *testing.B) { benchRun(b, Options{Algorithm: BatchPlus}) }

// BenchmarkBatchPlusNoSharing isolates the gain of dominating HC-s path
// query reuse: identical engine, detection disabled.
func BenchmarkBatchPlusNoSharing(b *testing.B) {
	benchRun(b, Options{Algorithm: BatchPlus, Detect: sharegraph.Options{DisableSharing: true}})
}

// BenchmarkGammaSweep quantifies the clustering threshold's cost: γ=1
// never merges (pure overhead), γ=0.1 merges aggressively.
func BenchmarkGammaSweep(b *testing.B) {
	for _, gamma := range []float64{0.1, 0.5, 1.0} {
		b.Run(formatGamma(gamma), func(b *testing.B) {
			benchRun(b, Options{Algorithm: BatchPlus, Gamma: gamma})
		})
	}
}

func formatGamma(g float64) string {
	switch g {
	case 0.1:
		return "gamma=0.1"
	case 0.5:
		return "gamma=0.5"
	default:
		return "gamma=1.0"
	}
}

// dupSetup caches the duplicate-batch fixture: one result-heavy query
// repeated 60 times, the cleanest sharing case (Lemma 4.2 with equal
// halves). The gap between the two engines here is bounded by the join:
// both must emit every output path, so sharing can only remove the
// enumeration share of the per-query cost.
var dupSetup *benchSetup

func getDupSetup(b *testing.B) *benchSetup {
	b.Helper()
	if dupSetup == nil {
		g := graph.GenCommunityPowerLaw(6000, 150, 10, 0.99, 17)
		gr := g.Reverse()
		cands, err := workload.Random(g, workload.Config{N: 20, KMin: 6, KMax: 6, Seed: 3})
		if err != nil {
			b.Fatal(err)
		}
		var best query.Query
		var bestN int64
		for _, q := range cands {
			sink := query.NewCountSink(1)
			if _, err := Run(g, gr, []query.Query{q}, Options{Algorithm: Basic}, nil, sink); err != nil {
				b.Fatal(err)
			}
			if sink.Total() > bestN {
				bestN, best = sink.Total(), q
			}
		}
		qs := make([]query.Query, 60)
		for i := range qs {
			qs[i] = best
		}
		dupSetup = &benchSetup{g: g, gr: gr, qs: qs}
	}
	return dupSetup
}

// BenchmarkDuplicateBatch compares the engines on a batch of identical
// queries — the upper bound of computation sharing.
func BenchmarkDuplicateBatch(b *testing.B) {
	s := getDupSetup(b)
	for _, alg := range []Algorithm{Basic, BatchPlus} {
		b.Run(alg.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sink := query.NewCountSink(len(s.qs))
				if _, err := Run(s.g, s.gr, s.qs, Options{Algorithm: alg}, nil, sink); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelScaling measures worker scaling on one batch.
func BenchmarkParallelScaling(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			benchRun(b, Options{Algorithm: BasicPlus, Workers: workers})
		})
	}
}
