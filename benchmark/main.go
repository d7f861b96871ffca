// Command benchmark is the repository's load harness: six named
// workloads over the offline engine and the four serving deployments,
// a fixed set of end-to-end metrics measured with tracing off, and an
// outside-in per-layer trace. See README.md in this directory.
//
// Through run.sh (which builds it inside the checkout) from the
// repository root:
//
//	bash benchmark/run.sh -seed 1                 every workload, untraced
//	bash benchmark/run.sh -seed 1 -trace 1        the traced set
//	bash benchmark/run.sh -repeat 5               five sets, median and IQR per metric
//	bash benchmark/run.sh -compare a.json b.json  apply BENCHMARK.json's bounds
//	bash benchmark/run.sh --workload serve_hot --seed 7 --seconds 10 --trace 0
//
// The last form is what the acceptance driver runs: one workload, one
// JSON object on the last line of standard output.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
)

func main() {
	var (
		workload = flag.String("workload", "", "run only this workload and print the driver's one-line JSON result")
		seed     = flag.Int64("seed", 1, "traffic seed: same seed, same input files")
		seconds  = flag.Float64("seconds", 10, "measured window per workload, seconds")
		trace    = flag.Int("trace", 0, "1 runs the traced set (per-layer metrics), 0 the measured set (end-to-end metrics)")
		out      = flag.String("out", "benchmark/out", "directory for input files, data dirs, traces and reports")
		repeat   = flag.Int("repeat", 1, "run this many full sets and report per-metric median, IQR and IQR/median")
		compare  = flag.Bool("compare", false, "compare two report files (baseline, candidate) against the bounds in -spec")
		spec     = flag.String("spec", "BENCHMARK.json", "the benchmark definition -compare reads bounds and directions from")
		resultTo = flag.String("result", "", "with -workload: also write the run's full result, spreads included, to this file")
		verbose  = flag.Bool("v", false, "print every slice's readings to standard error")
	)
	flag.Parse()
	// Two cores are what the reference sandbox has; more would change
	// what "64 callers" saturates.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))

	if *compare {
		if flag.NArg() != 2 {
			fatal(errors.New("-compare takes two report files: baseline candidate"))
		}
		ok, err := compareReports(*spec, flag.Arg(0), flag.Arg(1), os.Stdout)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	cfg := runConfig{Seed: *seed, Seconds: *seconds, Trace: *trace != 0, OutDir: *out, GraphScale: 1, SetupReps: 5, Verbose: *verbose}
	if *workload != "" {
		if err := driverRun(*workload, cfg, *resultTo); err != nil {
			fatal(err)
		}
		return
	}
	ok, err := fullRun(cfg, *repeat)
	if err != nil {
		fatal(err)
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// printResult writes one "workload metric value unit" line per metric.
func printResult(r *result) {
	for _, name := range sortedKeys(r.Metrics) {
		m := r.Metrics[name]
		line := fmt.Sprintf("%s %s %.6g %s", r.Workload, name, m.Value, m.Unit)
		if m.Spread != 0 {
			line += fmt.Sprintf(" (slice IQR %.3g, %d samples)", m.Spread, m.Samples)
		}
		fmt.Println(line)
	}
	fmt.Printf("%s attempted %d failed %d\n", r.Workload, r.Attempted, r.Failed)
	for _, f := range r.Failures {
		fmt.Printf("%s FAILED %s\n", r.Workload, f)
	}
}

// checkComplete verifies the run reported exactly the metrics its mode
// owes, each finite.
func checkComplete(r *result, trace bool) error {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	if len(r.Metrics) != len(defs) {
		return fmt.Errorf("%s: %d metrics reported, %d defined", r.Workload, len(r.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := r.Metrics[d.Name]
		if !ok {
			return fmt.Errorf("%s: metric %s missing", r.Workload, d.Name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("%s: metric %s is %v", r.Workload, d.Name, m.Value)
		}
	}
	return nil
}

// driverRun is the acceptance driver's contract: one workload, the
// human-readable lines, then one JSON object as the last line.
func driverRun(name string, cfg runConfig, resultTo string) error {
	w, ok := workloadByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	r, err := runWorkload(w, cfg)
	if err != nil {
		return err
	}
	if err := checkComplete(r, cfg.Trace); err != nil {
		return err
	}
	printResult(r)
	if resultTo != "" {
		data, err := json.Marshal(r)
		if err != nil {
			return err
		}
		if err := os.WriteFile(resultTo, data, 0o644); err != nil {
			return err
		}
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]mv{}}
	for name, m := range r.Metrics {
		line.Metrics[name] = mv{m.Value, m.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}

// stamp records what produced a report, so two reports can be told
// apart and a comparison across different settings refused.
type stamp struct {
	Commit     string             `json:"commit"`
	GoVersion  string             `json:"go_version"`
	NumCPU     int                `json:"nproc"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Seed       int64              `json:"seed"`
	Seconds    float64            `json:"window_seconds"`
	Trace      bool               `json:"trace"`
	GraphScale float64            `json:"graph_scale"`
	RateQPS    map[string]float64 `json:"rate_qps"`
}

func newStamp(cfg runConfig) stamp {
	s := stamp{
		Commit: "unknown", GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: cfg.Seed, Seconds: cfg.Seconds,
		Trace: cfg.Trace, GraphScale: cfg.GraphScale, RateQPS: map[string]float64{},
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				s.Commit = kv.Value
			}
			if kv.Key == "vcs.modified" && kv.Value == "true" {
				s.Commit += "+modified"
			}
		}
	}
	for _, w := range workloads {
		if w.RateQPS > 0 {
			s.RateQPS[w.Name] = w.RateQPS
		}
	}
	return s
}

// metricSummary is one metric across a report's sets. IQR and Rel are
// the run-to-run spread and need at least three sets; with fewer they
// are zero and SliceIQR (one set only) carries the spread across the
// time slices inside the run, which says how steady the window was but
// not how well its median repeats.
type metricSummary struct {
	Median   float64 `json:"median"`
	IQR      float64 `json:"iqr"`
	Rel      float64 `json:"iqr_over_median"`
	SliceIQR float64 `json:"slice_iqr,omitempty"`
	N        int     `json:"n"`
	Unit     string  `json:"unit"`
}

// minSetsForSpread is the fewest sets a run-to-run spread is taken
// from: quartiles of two values are an extrapolation.
const minSetsForSpread = 3

// report is the JSON file a full run writes: every set's raw results
// and, per workload and metric, the median and spread across sets.
type report struct {
	Stamp   stamp                               `json:"stamp"`
	Sets    []map[string]*result                `json:"sets"`
	Summary map[string]map[string]metricSummary `json:"summary"`
	Failed  int64                               `json:"failed"`
}

func (rp *report) summarise() {
	rp.Summary = map[string]map[string]metricSummary{}
	rp.Failed = 0
	for _, set := range rp.Sets {
		for _, r := range set {
			rp.Failed += r.Failed
		}
	}
	if len(rp.Sets) == 0 {
		return
	}
	for wname, first := range rp.Sets[0] {
		rp.Summary[wname] = map[string]metricSummary{}
		for mname, m0 := range first.Metrics {
			var vals []float64
			for _, set := range rp.Sets {
				if r, ok := set[wname]; ok {
					if m, ok := r.Metrics[mname]; ok {
						vals = append(vals, m.Value)
					}
				}
			}
			ms := metricSummary{Median: median(vals), N: len(vals), Unit: m0.Unit}
			if len(vals) >= minSetsForSpread {
				s := summarize(vals)
				ms.IQR, ms.Rel = s.IQR, s.rel()
			} else if len(vals) == 1 {
				ms.SliceIQR = m0.Spread
			}
			rp.Summary[wname][mname] = ms
		}
	}
}

func (rp *report) write(path string) error {
	data, err := json.MarshalIndent(rp, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rp report
	if err := json.Unmarshal(data, &rp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rp, nil
}

// runSet runs every workload once, back to back, each in a process of
// its own (this binary again, with -workload): peak RSS is a per-process
// high-water mark, and one workload's heap should not be the next one's
// starting point.
func runSet(cfg runConfig) (map[string]*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		return nil, err
	}
	set := map[string]*result{}
	for _, w := range workloads {
		resultTo := filepath.Join(cfg.OutDir, "result_"+w.Name+".json")
		trace := "0"
		if cfg.Trace {
			trace = "1"
		}
		args := []string{"-workload", w.Name, "-seed", fmt.Sprint(cfg.Seed), "-seconds", fmt.Sprint(cfg.Seconds),
			"-trace", trace, "-out", cfg.OutDir, "-result", resultTo}
		if cfg.Verbose {
			args = append(args, "-v")
		}
		cmd := exec.Command(self, args...)
		// The child's last line is the driver's JSON object; its readable
		// lines above it are this run's output too.
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		data, err := os.ReadFile(resultTo)
		if err != nil {
			return nil, err
		}
		r := new(result)
		if err := json.Unmarshal(data, r); err != nil {
			return nil, fmt.Errorf("%s: %w", resultTo, err)
		}
		set[w.Name] = r
	}
	return set, nil
}

// fullRun runs repeat sets, writes set_<i>.json per set and
// results.json (or results_trace.json) for all of them, and prints the
// across-set spread when there is more than one.
func fullRun(cfg runConfig, repeat int) (bool, error) {
	all := &report{Stamp: newStamp(cfg)}
	for i := 1; i <= repeat; i++ {
		set, err := runSet(cfg)
		if err != nil {
			return false, err
		}
		all.Sets = append(all.Sets, set)
		if repeat > 1 {
			one := &report{Stamp: all.Stamp, Sets: []map[string]*result{set}}
			one.summarise()
			if err := one.write(filepath.Join(cfg.OutDir, fmt.Sprintf("set_%d.json", i))); err != nil {
				return false, err
			}
		}
	}
	all.summarise()
	name := "results.json"
	if cfg.Trace {
		name = "results_trace.json"
	}
	path := filepath.Join(cfg.OutDir, name)
	if err := all.write(path); err != nil {
		return false, err
	}
	if repeat >= minSetsForSpread {
		fmt.Printf("\n# across %d sets: workload metric median IQR IQR/median unit\n", repeat)
		for _, w := range workloads {
			for _, mname := range sortedKeys(all.Summary[w.Name]) {
				s := all.Summary[w.Name][mname]
				fmt.Printf("%s %s %.6g %.3g %.3f %s\n", w.Name, mname, s.Median, s.IQR, s.Rel, s.Unit)
			}
		}
	}
	fmt.Printf("# wrote %s; %d failed operations\n", path, all.Failed)
	return all.Failed == 0, nil
}

// benchmarkSpec is the part of BENCHMARK.json -compare needs.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareReports applies the spec's bounds and directions to two
// reports. A metric is "regressed" when the candidate's median is worse
// than the baseline's by more than the bound, "unresolved" when either
// side's run-to-run spread (IQR/median across its sets) is wider than
// the bound — the runs cannot tell a change of that size from noise,
// which is not the same as unchanged — and "ok" otherwise. A report of
// fewer than three sets has no run-to-run spread; its metrics can
// regress but not be unresolved, and the spread column reads "n/a". It
// returns false on any regression, unresolved metric or failed
// operation.
func compareReports(specPath, basePath, candPath string, out *os.File) (bool, error) {
	data, err := os.ReadFile(specPath)
	if err != nil {
		return false, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return false, fmt.Errorf("%s: %w", specPath, err)
	}
	base, err := readReport(basePath)
	if err != nil {
		return false, err
	}
	cand, err := readReport(candPath)
	if err != nil {
		return false, err
	}
	if a, b := base.Stamp, cand.Stamp; a.Seconds != b.Seconds || a.GraphScale != b.GraphScale || a.Trace != b.Trace {
		return false, fmt.Errorf("reports were taken with different settings (window %vs vs %vs, scale %v vs %v)", a.Seconds, b.Seconds, a.GraphScale, b.GraphScale)
	}
	ok := base.Failed == 0 && cand.Failed == 0
	fmt.Fprintf(out, "# baseline %s (%s, %d failed)  candidate %s (%s, %d failed)\n",
		basePath, base.Stamp.Commit, base.Failed, candPath, cand.Stamp.Commit, cand.Failed)
	fmt.Fprintln(out, "# workload metric baseline candidate change bound spread verdict")
	for _, w := range workloads {
		for _, m := range spec.EndToEnd {
			b, okB := base.Summary[w.Name][m.Name]
			c, okC := cand.Summary[w.Name][m.Name]
			if !okB || !okC {
				fmt.Fprintf(out, "%s %s missing\n", w.Name, m.Name)
				ok = false
				continue
			}
			// worse > 0 means the candidate is worse, as a share of baseline.
			worse := (c.Median - b.Median) / b.Median
			if m.Better == "higher" {
				worse = -worse
			}
			spread, known := 0.0, "n/a"
			for _, side := range []metricSummary{b, c} {
				if side.N >= minSetsForSpread {
					spread = math.Max(spread, side.Rel)
					known = fmt.Sprintf("%.1f%%", 100*spread)
				}
			}
			verdict := "ok"
			switch {
			case worse > m.Bound:
				verdict, ok = "REGRESSED", false
			case spread > m.Bound:
				verdict, ok = "UNRESOLVED", false
			}
			fmt.Fprintf(out, "%s %s %.6g %.6g %+.1f%% %.0f%% %s %s\n",
				w.Name, m.Name, b.Median, c.Median, 100*(c.Median-b.Median)/b.Median, 100*m.Bound, known, verdict)
		}
	}
	return ok, nil
}

// sortedKeys returns m's keys in order, for deterministic output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
