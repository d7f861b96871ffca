// Package exps contains the drivers that regenerate every table and
// figure of the paper's evaluation (§V) on the synthetic stand-in
// datasets: Table I statistics, the Fig. 3(c) enumeration-vs-
// materialisation gap, and experiments Exp-1 through Exp-7. Each driver
// returns typed rows and has a printer producing the same columns the
// paper reports; cmd/experiments and the root benchmark harness are thin
// wrappers around this package; `go run ./cmd/experiments -exp all` runs
// every driver. A paper-vs-measured record is still open work (ROADMAP.md
// item 7).
package exps

import (
	"fmt"
	"io"
	"time"

	"repro/internal/batchenum"
	"repro/internal/datasets"
	"repro/internal/graph"
	"repro/internal/query"
	"repro/internal/workload"
)

// Config controls a driver run. The zero value reproduces the paper's
// defaults at the stand-in scale.
type Config struct {
	// Datasets filters by Table I code; empty means all twelve.
	Datasets []string
	// Scale multiplies every stand-in's vertex count (default 1.0).
	// Exp-5 applies its own sampling on top.
	Scale float64
	// QuerySetSize is |Q| (paper default 100).
	QuerySetSize int
	// KMin and KMax bound the hop constraints (paper default 4..7).
	KMin, KMax int
	// Gamma is the clustering threshold γ (paper default 0.5).
	Gamma float64
	// Seed drives all workload generation.
	Seed int64
	// MaxKSPExpansions bounds the Exp-6 baselines; a run that exhausts
	// it is reported as OT like the paper's 10,000-second cut-off.
	// Zero means 10 million.
	MaxKSPExpansions int64
	// Out receives the printed tables; nil discards them.
	Out io.Writer
}

func (c Config) scale() float64 {
	if c.Scale <= 0 {
		return 1.0
	}
	return c.Scale
}

func (c Config) querySetSize() int {
	if c.QuerySetSize <= 0 {
		return 100
	}
	return c.QuerySetSize
}

func (c Config) kRange() (int, int) {
	lo, hi := c.KMin, c.KMax
	if lo <= 0 {
		lo = 4
	}
	if hi < lo {
		hi = 7
	}
	return lo, hi
}

func (c Config) gamma() float64 {
	if c.Gamma == 0 {
		return 0.5
	}
	return c.Gamma
}

func (c Config) kspBudget() int64 {
	if c.MaxKSPExpansions <= 0 {
		return 10_000_000
	}
	return c.MaxKSPExpansions
}

func (c Config) out() io.Writer {
	if c.Out == nil {
		return io.Discard
	}
	return c.Out
}

func (c Config) specs() ([]datasets.Spec, error) {
	return datasets.Select(c.Datasets)
}

// builtDataset caches one generated stand-in with its reverse graph.
type builtDataset struct {
	spec datasets.Spec
	g    *graph.Graph
	gr   *graph.Graph
}

func (c Config) build(spec datasets.Spec) builtDataset {
	g := spec.Build(c.scale())
	return builtDataset{spec: spec, g: g, gr: g.Reverse()}
}

// defaultWorkload draws the paper's standard query set on d.
func (c Config) defaultWorkload(d builtDataset) ([]query.Query, error) {
	lo, hi := c.kRange()
	return workload.Random(d.g, workload.Config{
		N: c.querySetSize(), KMin: lo, KMax: hi, Seed: c.Seed,
	})
}

// timeRun measures one engine over one batch with a counting sink and
// returns the elapsed wall-clock time, the result count, and the stats.
func timeRun(d builtDataset, qs []query.Query, opts batchenum.Options) (time.Duration, int64, *batchenum.Stats, error) {
	sink := query.NewCountSink(len(qs))
	t0 := time.Now()
	st, err := batchenum.Run(d.g, d.gr, qs, opts, nil, sink)
	return time.Since(t0), sink.Total(), st, err
}

// timeRunBest repeats timeRun and keeps the fastest measurement, the
// standard defence against scheduler noise for the millisecond-scale
// runs of the comparison experiments.
func timeRunBest(d builtDataset, qs []query.Query, opts batchenum.Options, reps int) (time.Duration, *batchenum.Stats, error) {
	var best time.Duration
	var bestStats *batchenum.Stats
	for r := 0; r < reps; r++ {
		elapsed, _, st, err := timeRun(d, qs, opts)
		if err != nil {
			return 0, nil, err
		}
		if bestStats == nil || elapsed < best {
			best, bestStats = elapsed, st
		}
	}
	return best, bestStats, nil
}

// runCount runs the headline engine (BatchEnum+) with a counting sink,
// the cheapest way to size result sets.
func runCount(d builtDataset, qs []query.Query, sink query.Sink) (*batchenum.Stats, error) {
	return batchenum.Run(d.g, d.gr, qs, batchenum.Options{Algorithm: batchenum.BatchPlus}, nil, sink)
}

// fmtDur renders a duration with ms precision for table cells.
func fmtDur(d time.Duration) string {
	return d.Round(10 * time.Microsecond).String()
}

// header prints an underlined section heading.
func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n%s\n", title)
	for range title {
		fmt.Fprint(w, "-")
	}
	fmt.Fprintln(w)
}
