package exps

import (
	"fmt"
	"time"

	"repro/internal/batchenum"
	"repro/internal/datasets"
	"repro/internal/graph"
	"repro/internal/ksp"
	"repro/internal/query"
	"repro/internal/workload"
)

// Exp5Fractions are the vertex sample fractions of Fig. 11.
var Exp5Fractions = []float64{0.2, 0.4, 0.6, 0.8, 1.0}

// Exp5Row is one (dataset, fraction) cell of Fig. 11.
type Exp5Row struct {
	Code      string
	Fraction  float64
	V, E      int
	Basic     time.Duration
	BasicPlus time.Duration
	Batch     time.Duration
	BatchPlus time.Duration
}

// Exp5 samples the two largest stand-ins from 20% to 100% of their
// vertices and measures the four engines (Fig. 11). When cfg.Datasets is
// set it overrides the subjects.
func Exp5(cfg Config) ([]Exp5Row, error) {
	subjects := cfg.Datasets
	if len(subjects) == 0 {
		subjects = datasets.Largest()
	}
	specs, err := datasets.Select(subjects)
	if err != nil {
		return nil, err
	}
	var rows []Exp5Row
	for _, spec := range specs {
		full := cfg.build(spec)
		lo, hi := cfg.kRange()
		for _, frac := range Exp5Fractions {
			g := full.g
			if frac < 1.0 {
				g, _ = graph.SampleVertices(full.g, frac, cfg.Seed)
			}
			d := builtDataset{spec: spec, g: g, gr: g.Reverse()}
			qs, err := workload.Random(d.g, workload.Config{
				N: cfg.querySetSize(), KMin: lo, KMax: hi, Seed: cfg.Seed,
			})
			if err != nil {
				// Heavily sampled graphs can lose reachability; report
				// the row as empty rather than fail the sweep.
				rows = append(rows, Exp5Row{Code: spec.Code, Fraction: frac,
					V: d.g.NumVertices(), E: d.g.NumEdges()})
				continue
			}
			row := Exp5Row{Code: spec.Code, Fraction: frac, V: d.g.NumVertices(), E: d.g.NumEdges()}
			for _, alg := range []batchenum.Algorithm{
				batchenum.Basic, batchenum.BasicPlus, batchenum.Batch, batchenum.BatchPlus,
			} {
				elapsed, _, _, err := timeRun(d, qs, batchenum.Options{Algorithm: alg, Gamma: cfg.gamma()})
				if err != nil {
					return nil, err
				}
				switch alg {
				case batchenum.Basic:
					row.Basic = elapsed
				case batchenum.BasicPlus:
					row.BasicPlus = elapsed
				case batchenum.Batch:
					row.Batch = elapsed
				case batchenum.BatchPlus:
					row.BatchPlus = elapsed
				}
			}
			rows = append(rows, row)
		}
	}
	w := cfg.out()
	header(w, "Fig. 11 (Exp-5): processing time vs graph size (vertex sampling)")
	fmt.Fprintf(w, "%-4s %5s %9s %10s %12s %12s %12s %12s\n",
		"Code", "frac", "|V|", "|E|", "Basic", "Basic+", "Batch", "Batch+")
	for _, r := range rows {
		fmt.Fprintf(w, "%-4s %5.0f%% %9d %10d %12s %12s %12s %12s\n",
			r.Code, r.Fraction*100, r.V, r.E,
			fmtDur(r.Basic), fmtDur(r.BasicPlus), fmtDur(r.Batch), fmtDur(r.BatchPlus))
	}
	return rows, nil
}

// Exp6Row compares the adapted KSP baselines against BatchEnum+ on one
// dataset (Fig. 12). OT marks a baseline that exhausted its work budget.
type Exp6Row struct {
	Code       string
	DkSP       time.Duration
	DkSPOT     bool
	OnePass    time.Duration
	OnePassOT  bool
	BatchPlus  time.Duration
	TotalPaths int64
}

// Exp6 measures DkSP, OnePass and BatchEnum+ over a random workload
// with k from 3 to 7 (Fig. 12: the KSP adaptations lose by over two
// orders of magnitude because they lack hop-aware pruning).
func Exp6(cfg Config) ([]Exp6Row, error) {
	specs, err := cfg.specs()
	if err != nil {
		return nil, err
	}
	// The paper draws k from 3 to 7 for this experiment; an explicit
	// cfg range overrides (the smoke tests and benches shrink it).
	lo, hi := 3, 7
	if cfg.KMin > 0 {
		lo, hi = cfg.kRange()
	}
	var rows []Exp6Row
	for _, spec := range specs {
		d := cfg.build(spec)
		qs, err := workload.Random(d.g, workload.Config{
			N: cfg.querySetSize(), KMin: lo, KMax: hi, Seed: cfg.Seed,
		})
		if err != nil {
			return nil, err
		}
		row := Exp6Row{Code: spec.Code}

		budget := &ksp.Budget{MaxExpansions: cfg.kspBudget()}
		t0 := time.Now()
		for _, q := range qs {
			if !ksp.DkSP(d.g, q, budget, nil, func([]graph.VertexID) {}) {
				row.DkSPOT = true
				break
			}
		}
		row.DkSP = time.Since(t0)

		budget = &ksp.Budget{MaxExpansions: cfg.kspBudget()}
		t1 := time.Now()
		for _, q := range qs {
			if !ksp.OnePass(d.g, d.gr, q, budget, nil, func([]graph.VertexID) {}) {
				row.OnePassOT = true
				break
			}
		}
		row.OnePass = time.Since(t1)

		sink := query.NewCountSink(len(qs))
		t2 := time.Now()
		if _, err := batchenum.Run(d.g, d.gr, qs, batchenum.Options{
			Algorithm: batchenum.BatchPlus, Gamma: cfg.gamma(),
		}, nil, sink); err != nil {
			return nil, err
		}
		row.BatchPlus = time.Since(t2)
		row.TotalPaths = sink.Total()
		rows = append(rows, row)
	}
	w := cfg.out()
	header(w, "Fig. 12 (Exp-6): adapted k-shortest-path algorithms vs BatchEnum+")
	fmt.Fprintf(w, "%-4s %14s %14s %14s %12s\n", "Code", "DkSP", "OnePass", "BatchEnum+", "paths")
	for _, r := range rows {
		dk, op := fmtDur(r.DkSP), fmtDur(r.OnePass)
		if r.DkSPOT {
			dk = "OT(" + dk + ")"
		}
		if r.OnePassOT {
			op = "OT(" + op + ")"
		}
		fmt.Fprintf(w, "%-4s %14s %14s %14s %12d\n", r.Code, dk, op, fmtDur(r.BatchPlus), r.TotalPaths)
	}
	return rows, nil
}
