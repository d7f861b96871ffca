// Benchmarks regenerating every table and figure of the paper's
// evaluation (§V), one benchmark per artifact, at a reduced scale that
// keeps a full `go test -bench=. -benchmem` run tractable. The
// cmd/experiments binary runs the same drivers at full stand-in scale
// (`go run ./cmd/experiments -exp all`); a paper-vs-measured record is
// still open work (ROADMAP.md item 7).
//
// The BenchmarkEngines group is the ablation the paper's evaluation
// implies: the four engines on one shared workload, plus BatchEnum+
// with sharing disabled (isolating the gain from dominating HC-s path
// query reuse).
package hcpath

import (
	"testing"

	"repro/internal/batchenum"
	"repro/internal/datasets"
	"repro/internal/exps"
	"repro/internal/query"
	"repro/internal/testgraphs"
	"repro/internal/workload"
)

// benchCfg is the reduced-scale configuration every figure bench uses:
// two contrasting stand-ins (dense EP, sparse BK), small batches.
func benchCfg() exps.Config {
	return exps.Config{
		Datasets:         []string{"EP", "BK"},
		Scale:            0.25,
		QuerySetSize:     20,
		KMin:             3,
		KMax:             5,
		Seed:             1,
		MaxKSPExpansions: 200_000,
	}
}

// BenchmarkTable1Stats regenerates Table I (dataset statistics).
func BenchmarkTable1Stats(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		if _, err := exps.Table1(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3cMaterialize regenerates Fig. 3(c): per-query
// enumeration vs materialised-scan time.
func BenchmarkFig3cMaterialize(b *testing.B) {
	cfg := benchCfg()
	b.ResetTimer()
	var ratio float64
	for i := 0; i < b.N; i++ {
		rows, err := exps.Fig3c(cfg)
		if err != nil {
			b.Fatal(err)
		}
		ratio = rows[0].Ratio
	}
	b.ReportMetric(ratio, "enum/scan-ratio")
}

// BenchmarkExp1Similarity regenerates Fig. 7: the similarity sweep with
// all five algorithms.
func BenchmarkExp1Similarity(b *testing.B) {
	cfg := benchCfg()
	cfg.Datasets = []string{"EP"}
	var speedup float64
	for i := 0; i < b.N; i++ {
		rows, err := exps.Exp1(cfg)
		if err != nil {
			b.Fatal(err)
		}
		speedup = rows[len(rows)-1].Speedup
	}
	b.ReportMetric(speedup, "speedup@0.9")
}

// BenchmarkExp2QuerySetSize regenerates Fig. 8: time vs |Q|.
func BenchmarkExp2QuerySetSize(b *testing.B) {
	cfg := benchCfg()
	cfg.Datasets = []string{"EP"}
	cfg.QuerySetSize = 10 // sweep runs 1x..5x this
	for i := 0; i < b.N; i++ {
		if _, err := exps.Exp2(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExp3Decomposition regenerates Fig. 9: the four-phase time
// decomposition of BatchEnum+.
func BenchmarkExp3Decomposition(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		if _, err := exps.Exp3(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExp4Gamma regenerates Fig. 10: the γ sweep.
func BenchmarkExp4Gamma(b *testing.B) {
	cfg := benchCfg()
	cfg.Datasets = []string{"EP"}
	for i := 0; i < b.N; i++ {
		if _, err := exps.Exp4(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExp5Scalability regenerates Fig. 11: the vertex-sampling
// scalability sweep.
func BenchmarkExp5Scalability(b *testing.B) {
	cfg := benchCfg()
	cfg.Datasets = []string{"EP"}
	for i := 0; i < b.N; i++ {
		if _, err := exps.Exp5(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExp6KSP regenerates Fig. 12: the adapted k-shortest-path
// baselines against BatchEnum+.
func BenchmarkExp6KSP(b *testing.B) {
	cfg := benchCfg()
	cfg.Datasets = []string{"BK"}
	cfg.QuerySetSize = 10
	for i := 0; i < b.N; i++ {
		if _, err := exps.Exp6(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExp7PathCounts regenerates Fig. 13: result-set growth vs k.
func BenchmarkExp7PathCounts(b *testing.B) {
	cfg := benchCfg()
	cfg.Datasets = []string{"EP"}
	cfg.QuerySetSize = 10
	for i := 0; i < b.N; i++ {
		if _, err := exps.Exp7(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// benchFixture caches one graph and one similarity-heavy workload
// shared by the engine ablation benches.
type benchFixture struct {
	g  *Graph
	qs []query.Query
}

var fixture *benchFixture

func engineFixture(b testing.TB) (*Graph, []query.Query) {
	b.Helper()
	if fixture == nil {
		spec, err := datasets.ByCode("EP")
		if err != nil {
			b.Fatal(err)
		}
		raw := spec.Build(0.25)
		qs, _, err := workload.WithSimilarity(raw, raw.Reverse(), workload.SimilarityConfig{
			Config:   workload.Config{N: 20, KMin: 3, KMax: 5, Seed: 1},
			TargetMu: 0.8,
		})
		if err != nil {
			b.Fatal(err)
		}
		fixture = &benchFixture{g: wrap(raw), qs: qs}
	}
	return fixture.g, fixture.qs
}

// engineCases are the four engines, each with the steady-state
// allocs/op recorded for it on engineFixture (re-recorded whenever a
// change moves them).
var engineCases = []struct {
	name   string
	opts   batchenum.Options
	allocs float64
}{
	{"BasicEnum", batchenum.Options{Algorithm: batchenum.Basic}, 508},
	{"BasicEnum+", batchenum.Options{Algorithm: batchenum.BasicPlus}, 656},
	{"BatchEnum", batchenum.Options{Algorithm: batchenum.Batch}, 809},
	{"BatchEnum+", batchenum.Options{Algorithm: batchenum.BatchPlus}, 840},
}

// BenchmarkEngines compares the four engines on one high-similarity
// workload.
func BenchmarkEngines(b *testing.B) {
	g, qs := engineFixture(b)
	for _, c := range engineCases {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sink := query.NewCountSink(len(qs))
				if _, err := batchenum.Run(g.g, g.gr, qs, c.opts, nil, sink); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// oneQueryCases are the batch a lone query on an idle service runs: one
// query on CompleteDAG(10) through the two "+" engines. A one-query
// group runs PathEnum under either, so BatchEnum+ may only add its
// clustering to BasicEnum+'s count.
var oneQueryCases = []struct {
	name   string
	alg    batchenum.Algorithm
	allocs float64
}{
	{"BatchEnum+/one-query", batchenum.BatchPlus, 81},
	{"BasicEnum+/one-query", batchenum.BasicPlus, 75},
}

// TestEngineAllocCeilings keeps the engines' hot loops from regrowing
// allocations: one batch through each engine may allocate at most 1.25×
// its recorded level. Timings are the load harness's business
// (benchmark/); an allocation count is exact, so it can gate in tier-1.
func TestEngineAllocCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under -race; pooled scratch reallocates by design")
	}
	check := func(name string, recorded float64, g *Graph, qs []query.Query, opts batchenum.Options) {
		got := testing.AllocsPerRun(5, func() {
			sink := query.NewCountSink(len(qs))
			if _, err := batchenum.Run(g.g, g.gr, qs, opts, nil, sink); err != nil {
				t.Fatal(err)
			}
		})
		ceiling := recorded * 1.25
		t.Logf("%s: %.0f allocs per batch (ceiling %.0f)", name, got, ceiling)
		if got > ceiling {
			t.Errorf("%s: %.0f allocs per batch exceeds %.0f (recorded %.0f × 1.25)", name, got, ceiling, recorded)
		}
	}
	g, qs := engineFixture(t)
	for _, c := range engineCases {
		check(c.name, c.allocs, g, qs, c.opts)
	}
	dag := wrap(testgraphs.CompleteDAG(10))
	one := []query.Query{{S: 0, T: 9, K: 5}}
	for _, c := range oneQueryCases {
		check(c.name, c.allocs, dag, one, batchenum.Options{Algorithm: c.alg})
	}
}
