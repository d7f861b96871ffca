package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the metric and workload registries")

// small shrinks a workload to self-test size: a tenth of the graph and
// proportionally less traffic. Readings at this size mean nothing; the
// test only checks that every code path runs and every answer is right.
func small(w workloadSpec) workloadSpec {
	if w.Batches > 0 {
		w.Batches, w.BatchSize, w.WarmupOps = 3, 20, 1
		if w.TargetPaths > 0 {
			w.KMin, w.KMax, w.TargetPaths = 4, 5, 8000
		}
	}
	if w.StreamLen > 0 {
		w.StreamLen, w.WarmupOps, w.Callers = 512, 128, 16
		w.RateQPS /= 4
	}
	if w.HotPool > 0 {
		w.HotPool = 24
	}
	if w.UpdateEvery > 0 {
		w.UpdateAdds, w.UpdateDels, w.UpdateEvery = 32, 32, 10*time.Millisecond
	}
	return w
}

// TestSelfTest runs all six workloads, measured and traced, at a tenth
// of the graph scale with 300 ms windows, and asserts each mode reports
// exactly its metrics, finite, with no failed operation.
func TestSelfTest(t *testing.T) {
	dir := t.TempDir()
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := runConfig{Seed: 7, Seconds: 0.3, Trace: trace, OutDir: dir, GraphScale: 0.1, SetupReps: 1}
			r, err := runWorkload(small(w), cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if err := checkComplete(r, trace); err != nil {
				t.Error(err)
			}
			if r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d operations failed: %v", w.Name, trace, r.Failed, r.Attempted, r.Failures)
			}
			if !trace {
				for _, d := range endToEnd {
					if r.Metrics[d.Name].Value <= 0 {
						t.Errorf("%s: %s = %v, end-to-end metrics are never zero", w.Name, d.Name, r.Metrics[d.Name].Value)
					}
				}
			}
		}
		if _, err := os.Stat(filepath.Join(dir, "trace_"+w.Name+".json")); err != nil {
			t.Errorf("%s: traced run left no trace file: %v", w.Name, err)
		}
	}
}

// TestInputsFollowSeed: the same seed gives byte-identical input files,
// another seed gives different ones, and the three hot deployments read
// one and the same file.
func TestInputsFollowSeed(t *testing.T) {
	read := func(path string) []byte {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	for _, w := range workloads {
		w := small(w)
		gen := func(seed int64, sub string) (*inputs, []byte, []byte) {
			t.Helper()
			in, err := generate(w, seed, 0.1, filepath.Join(t.TempDir(), sub), 20)
			if err != nil {
				t.Fatalf("%s seed %d: %v", w.Name, seed, err)
			}
			var upd []byte
			if in.updatesPath != "" {
				upd = read(in.updatesPath)
			}
			return in, read(in.queriesPath), upd
		}
		in, q1, u1 := gen(1, "a")
		_, q1again, u1again := gen(1, "b")
		_, q2, u2 := gen(2, "c")
		if !bytes.Equal(q1, q1again) || !bytes.Equal(u1, u1again) {
			t.Errorf("%s: same seed produced different input files", w.Name)
		}
		if bytes.Equal(q1, q2) || (u1 != nil && bytes.Equal(u1, u2)) {
			t.Errorf("%s: different seeds produced identical input files", w.Name)
		}
		if w.Traffic == trafficHot && filepath.Base(in.queriesPath) != "serve_hot.queries" {
			t.Errorf("%s reads %s, want the shared serve_hot.queries", w.Name, in.queriesPath)
		}
	}
}

func TestPercentile(t *testing.T) {
	vals := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {20, 1}, {50, 3}, {80, 4}, {99, 5}, {100, 5}} {
		if got := percentile(vals, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of nothing should be NaN")
	}
	// A failed operation counts as +Inf: it must land beyond p99 of 100.
	lat := make([]float64, 100)
	lat[17] = math.Inf(1)
	if got := percentile(lat, 99); got != 0 {
		t.Errorf("p99 with one failure in 100 = %v, want 0", got)
	}
	if got := percentile(lat, 100); !math.IsInf(got, 1) {
		t.Errorf("p100 with one failure = %v, want +Inf", got)
	}
}

// TestQuartiles pins the estimator to Python's
// statistics.quantiles(values, n=4), which the acceptance driver uses.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		vals   []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 2, 38, 23, 38, 23, 21}, 10, 38},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{4}, 4, 4},
	} {
		q1, q3 := quartiles(c.vals)
		if math.Abs(q1-c.q1) > 1e-9 || math.Abs(q3-c.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.vals, q1, q3, c.q1, c.q3)
		}
	}
	s := summarize([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if s.Median != 5.5 || math.Abs(s.IQR-5.5) > 1e-9 || math.Abs(s.rel()-1) > 1e-9 {
		t.Errorf("summarize = %+v (rel %v), want median 5.5, IQR 5.5", s, s.rel())
	}
}

func TestOverSlicesSkipsEmpty(t *testing.T) {
	t0 := time.Now()
	second := func(ops int) slice {
		return slice{ops: ops, from: procSample{at: t0}, to: procSample{at: t0.Add(time.Second)}}
	}
	ss := []slice{second(10), second(0), second(30)}
	got := overSlices(ss, (*slice).opsPerSecond)
	if got.Median != 20 || got.N != 2 {
		t.Errorf("overSlices = %+v, want median 20 over 2 slices", got)
	}
}

// TestSelfTime: a span's self time is its duration minus the union of
// its children inside it — overlapping children count once, a child
// sticking out of the parent counts only up to the parent's end.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Op: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Op: 1, Name: "call", Start: 10, End: 90},
		{ID: 3, Parent: 2, Op: 1, Name: "a", Start: 10, End: 40},
		{ID: 4, Parent: 2, Op: 1, Name: "b", Start: 30, End: 60},  // overlaps a by 10
		{ID: 5, Parent: 2, Op: 1, Name: "c", Start: 80, End: 120}, // 30 outside call
	}
	lt := selfTimes(spans)
	want := map[string][2]int64{ // total, self
		"root": {100, 20},
		"call": {80, 20}, // covered: [10,60) ∪ [80,90) = 60
		"a":    {30, 30},
		"b":    {30, 30},
		"c":    {40, 40},
	}
	for name, w := range want {
		if got := lt[name]; got.TotalNs != w[0] || got.SelfNs != w[1] || got.Count != 1 {
			t.Errorf("%s: total %d self %d count %d, want total %d self %d", name, got.TotalNs, got.SelfNs, got.Count, w[0], w[1])
		}
	}
}

// TestCompare: a candidate worse than the bound regresses, a spread
// wider than the bound is unresolved, and both fail the comparison.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(spec, []byte(`{"end_to_end":[
		{"name":"lat_p50_ms","unit":"ms","better":"lower","bound":0.1},
		{"name":"queries_per_s","unit":"1/s","better":"higher","bound":0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	mk := func(name string, lat, qps, rel float64, sets int) string {
		rp := report{Summary: map[string]map[string]metricSummary{}}
		for _, w := range workloads {
			rp.Summary[w.Name] = map[string]metricSummary{
				"lat_p50_ms":    {Median: lat, Rel: rel, N: sets, Unit: "ms"},
				"queries_per_s": {Median: qps, Rel: rel, N: sets, Unit: "1/s"},
			}
		}
		path := filepath.Join(dir, name)
		if err := rp.write(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := mk("base.json", 10, 1000, 0.02, 5)
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer null.Close()
	for _, c := range []struct {
		name     string
		lat, qps float64
		rel      float64
		ok       bool
	}{
		{"same", 10.5, 960, 0.02, true},
		{"slower", 11.5, 1000, 0.02, false}, // latency 15% worse
		{"fewer", 10, 850, 0.02, false},     // throughput 15% worse
		{"faster", 8, 1300, 0.02, true},     // better is never a regression
		{"noisy", 10, 1000, 0.3, false},     // cannot tell: unresolved
	} {
		ok, err := compareReports(spec, base, mk(c.name+".json", c.lat, c.qps, c.rel, 5), null)
		if err != nil {
			t.Fatal(err)
		}
		if ok != c.ok {
			t.Errorf("%s: compare ok = %v, want %v", c.name, ok, c.ok)
		}
	}
}

// TestBenchmarkJSON keeps ../BENCHMARK.json and the registries in this
// package saying the same thing; -update rewrites the file.
func TestBenchmarkJSON(t *testing.T) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	var ws []wl
	for _, w := range workloads {
		ws = append(ws, wl{w.Name, w.Why})
	}
	e2e, layers := describeMetrics()
	want, err := json.MarshalIndent(map[string]any{
		"command":     []string{"bash", "benchmark/run.sh"},
		"paths":       []string{"benchmark"},
		"run_seconds": 10,
		"workloads":   ws,
		"end_to_end":  e2e,
		"per_layer":   layers,
	}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	path := filepath.Join("..", "BENCHMARK.json")
	if *update {
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark directory: %v", err)
	}
	var g, w any
	if err := json.Unmarshal(got, &g); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if err := json.Unmarshal(want, &w); err != nil {
		t.Fatal(err)
	}
	gj, _ := json.Marshal(g)
	wj, _ := json.Marshal(w)
	if !bytes.Equal(gj, wj) {
		t.Errorf("%s disagrees with the registries in config.go/layers.go; run `go test -run TestBenchmarkJSON -update` in benchmark/", path)
	}
	for _, wk := range ws {
		if len(wk.Why) > 200 {
			t.Errorf("%s: why is %d characters, the limit is 200", wk.Name, len(wk.Why))
		}
	}
	if len(got) > 64<<10 {
		t.Errorf("%s is %d bytes, the limit is 64 KiB", path, len(got))
	}
}

// describeMetrics renders the registry as BENCHMARK.json's metric lists;
// the self-test checks the committed file against it.
func describeMetrics() (e2e, layers []map[string]any) {
	for _, d := range endToEnd {
		e2e = append(e2e, map[string]any{"name": d.Name, "unit": d.Unit, "better": d.Better, "bound": d.Bound})
	}
	for _, d := range perLayer {
		layers = append(layers, map[string]any{"name": d.Name, "unit": d.Unit, "better": d.Better})
	}
	return e2e, layers
}
