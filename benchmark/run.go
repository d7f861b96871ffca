package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	hcpath "repro"
	"repro/internal/oracle"
	"repro/internal/query"
)

// runConfig is one run's knobs: traffic seed, window length and where
// files go. GraphScale and SetupReps exist for the self-test, which
// shrinks the graphs and sets up once.
type runConfig struct {
	Seed       int64
	Seconds    float64
	Trace      bool
	OutDir     string
	GraphScale float64
	SetupReps  int
	Verbose    bool // print every slice's readings to standard error
}

// metric is one reported value. Spread is the inter-quartile range
// across the time slices (or set-up repetitions) the value is the
// median of; Samples counts the raw observations behind it.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Spread  float64 `json:"spread,omitempty"`
	Samples int     `json:"samples,omitempty"`
}

// result is what one run of one workload reports.
type result struct {
	Workload  string            `json:"workload"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Failures  []string          `json:"failures,omitempty"` // first few, for diagnosis
}

func (r *result) set(defs []metricDef, name string, s summary, samples int) {
	for _, d := range defs {
		if d.Name == name {
			r.Metrics[name] = metric{Value: s.Median, Unit: d.Unit, Spread: s.IQR, Samples: samples}
			return
		}
	}
	panic("benchmark: metric " + name + " is not in the registry")
}

func (r *result) setValue(defs []metricDef, name string, v float64) {
	r.set(defs, name, summary{Median: v}, 1)
}

// tally is the failure accounting: operations attempted and failed
// (error, shed, truncated or wrong answer), with the first few failure
// descriptions kept for the report.
type tally struct {
	attempted, failed atomic.Int64
	mu                sync.Mutex
	first             []string
}

func (t *tally) fail(format string, args ...any) {
	t.failed.Add(1)
	t.mu.Lock()
	if len(t.first) < 8 {
		t.first = append(t.first, fmt.Sprintf(format, args...))
	}
	t.mu.Unlock()
}

// sliceLen is the time slice of a serving phase. Every timed metric is
// computed per slice before the median across slices is taken, so short
// slices keep one stall (a GC cycle, a noisy neighbour) from spoiling
// much of the phase: half a second, stretched in half-second steps until
// a slice holds at least 200 arrivals at the workload's rate (twenty or
// more beyond its 90th percentile), and never more than a fifth of the
// phase.
func sliceLen(phase time.Duration, rate float64) time.Duration {
	const step = 500 * time.Millisecond
	d := step
	for d.Seconds()*rate < 200 {
		d += step
	}
	if d > phase/5 {
		d = phase / 5
	}
	return d
}

// runWorkload generates the inputs, sets the deployment up (several
// times, for a set-up time that repeats), runs the measured or the
// traced window and checks every answer on the way.
func runWorkload(w workloadSpec, cfg runConfig) (*result, error) {
	res := &result{Workload: w.Name, Metrics: map[string]metric{}}
	var t tally

	genStart := time.Now()
	in, err := generate(w, cfg.Seed, cfg.GraphScale, cfg.OutDir, churnBlocks(w, cfg.Seconds))
	if err != nil {
		return nil, err
	}
	inputsTime := time.Since(genStart)

	var tr *tracer
	opt := deployOptions{outDir: cfg.OutDir}
	reps := cfg.SetupReps
	if cfg.Trace {
		tr = newTracer()
		opt.onBatch = tr.onBatch
		reps = 1
	}

	var sys *system
	var setups []float64
	for rep := 0; rep < reps; rep++ {
		if sys != nil {
			if err := sys.close(); err != nil {
				return nil, err
			}
			runtime.GC() // keep repeated set-ups out of the peak-RSS reading
		}
		t0 := time.Now()
		if sys, err = build(in, opt); err != nil {
			return nil, err
		}
		if err := warmUp(sys, &t); err != nil {
			sys.close()
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer sys.close()
	if w.offline() {
		oracleSample(in, sys, &t)
	}

	window := time.Duration(cfg.Seconds * float64(time.Second))
	if cfg.Trace {
		err = runTraced(sys, in, cfg, window, inputsTime, tr, &t, res)
	} else {
		res.set(endToEnd, "setup_s", summarize(setups), len(setups))
		if w.offline() {
			measureOffline(sys, cfg, window, &t, res)
		} else {
			err = measureServing(sys, cfg, window, &t, res)
		}
	}
	if err != nil {
		return nil, err
	}
	res.Attempted, res.Failed = t.attempted.Load(), t.failed.Load()
	res.Failures = t.first
	return res, nil
}

// warmUp runs a fixed amount of the workload's own traffic so caches
// fill and lazy set-up finishes before timing. It is fixed work, not
// fixed time, so that a program that gets slower to warm shows it in
// setup_s.
func warmUp(sys *system, t *tally) error {
	w := sys.spec
	if w.offline() {
		for i := 0; i < w.WarmupOps && i < len(sys.batches); i++ {
			if _, err := countBatch(sys, sys.batches[i], t); err != nil {
				return err
			}
		}
		return nil
	}
	// Serving: the first WarmupOps distinct queries of the stream, each
	// once, so every hot endpoint's index entry is cached before timing
	// (on the hot workloads the stream has fewer distinct queries than
	// that, and the whole working set is warm).
	var distinct []qrec
	seen := make(map[hcpath.Query]bool)
	for _, r := range sys.batches[0] {
		if !seen[r.Q] && len(distinct) < w.WarmupOps {
			seen[r.Q] = true
			distinct = append(distinct, r)
		}
	}
	ctx, cancel := phaseContext(0)
	defer cancel()
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < w.Callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(distinct) {
					return
				}
				askOne(ctx, sys, distinct[i], i, t)
			}
		}()
	}
	wg.Wait()
	return nil
}

// countBatch is one offline operation: Engine.Count on a whole batch,
// every per-query count checked against the answer key.
func countBatch(sys *system, batch []qrec, t *tally) (hcpath.Stats, error) {
	qs := make([]hcpath.Query, len(batch))
	for i, r := range batch {
		qs[i] = r.Q
	}
	t.attempted.Add(int64(len(batch)))
	counts, st, err := sys.eng.Count(qs)
	if err != nil {
		return st, fmt.Errorf("%s: Count: %w", sys.spec.Name, err)
	}
	for i, r := range batch {
		if counts[i] != r.Want {
			t.fail("query %v: %d paths, BasicEnum says %d", r.Q, counts[i], r.Want)
		}
	}
	if st.Truncated != 0 {
		t.fail("batch reported %d truncated queries", st.Truncated)
	}
	return st, nil
}

// askOne is one serving operation: Service.Query, the reply checked
// against the answer key (static graphs) or, one time in fifty, path by
// path (the churn workload, where the graph moves under the query).
// It returns the reply's batch stats and whether the operation passed.
// ctx bounds the wait, so a hung service fails operations instead of
// hanging the run; one context serves a whole phase.
func askOne(ctx context.Context, sys *system, r qrec, seq int, t *tally) (hcpath.BatchStats, bool) {
	t.attempted.Add(1)
	paths, bs, err := sys.svc.Query(ctx, r.Q)
	switch {
	case err != nil:
		t.fail("query %v: %v", r.Q, err)
		return bs, false
	case r.Want >= 0 && int64(len(paths)) != r.Want:
		t.fail("query %v: %d paths, BasicEnum says %d", r.Q, len(paths), r.Want)
		return bs, false
	case r.Want < 0 && seq%50 == 0:
		if msg := invalidPaths(r.Q, paths); msg != "" {
			t.fail("query %v: %s", r.Q, msg)
			return bs, false
		}
	}
	return bs, true
}

// phaseContext bounds every query of one phase: the phase's length plus
// half a minute for the slowest reply. One context per phase rather than
// one per query keeps the harness's own timers and allocations out of
// the per-query cost metrics.
func phaseContext(dur time.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), dur+30*time.Second)
}

// invalidPaths checks a reply structurally: every path runs s→t in at
// most K hops, is simple, and appears once. Edges are not checked — the
// graph the reply was computed on has since been replaced.
func invalidPaths(q hcpath.Query, paths []hcpath.Path) string {
	seen := make(map[string]bool, len(paths))
	for _, p := range paths {
		if len(p) < 2 || p[0] != q.S || p[len(p)-1] != q.T {
			return fmt.Sprintf("path %v does not run s→t", p)
		}
		if p.Len() > q.K {
			return fmt.Sprintf("path %v exceeds %d hops", p, q.K)
		}
		on := make(map[hcpath.VertexID]bool, len(p))
		for _, v := range p {
			if on[v] {
				return fmt.Sprintf("path %v is not simple", p)
			}
			on[v] = true
		}
		key := p.String()
		if seen[key] {
			return fmt.Sprintf("path %v returned twice", p)
		}
		seen[key] = true
	}
	return ""
}

// oracleSample cross-checks the engine against the brute-force oracle
// on twenty of the workload's queries with the hop constraint clamped
// to 4, where exhaustive search is cheap: the answer key itself comes
// from an engine (BasicEnum), so this is the check that does not.
func oracleSample(in *inputs, sys *system, t *tally) {
	rng := rand.New(rand.NewSource(subSeed(0, 9)))
	var qs []hcpath.Query
	for len(qs) < 20 {
		b := sys.batches[rng.Intn(len(sys.batches))]
		q := b[rng.Intn(len(b))].Q
		if q.K > 4 {
			q.K = 4
		}
		qs = append(qs, q)
	}
	t.attempted.Add(int64(len(qs)))
	counts, _, err := sys.eng.Count(qs)
	if err != nil {
		t.fail("oracle sample: %v", err)
		return
	}
	for i, q := range qs {
		want := oracle.Count(in.g, query.Query{S: q.S, T: q.T, K: uint8(q.K)})
		if counts[i] != want {
			t.fail("query %v: %d paths, oracle says %d", q, counts[i], want)
		}
	}
}

// measureOffline cycles the batches for the window, one Engine.Count at
// a time, and reports medians across passes.
func measureOffline(sys *system, cfg runConfig, window time.Duration, t *tally, res *result) {
	slices, _ := offlineWindow(sys, window, t, nil)
	if cfg.Verbose {
		printSlices("pass", slices)
	}
	res.set(endToEnd, "queries_per_s", overSlices(slices, (*slice).opsPerSecond), len(slices))
	setLatencyAndCost(res, slices)
	res.setValue(endToEnd, "rss_peak_mb", peakRSSMiB())
}

// printSlices writes each slice's readings to standard error: the raw
// material of the medians, for judging how steady a window was.
func printSlices(label string, slices []slice) {
	for i := range slices {
		s := &slices[i]
		fmt.Fprintf(os.Stderr, "%s slice %2d: %6d ops %8.1f /s  p50 %7.3f p90 %7.3f ms  cpu %.4f ms/q  %6.1f allocs/q  gc %d\n",
			label, i, s.ops, s.opsPerSecond(), percentile(s.lat, 50), percentile(s.lat, 90), s.cpuMsPerQuery(), s.allocsPerQuery(), s.to.gcCycles-s.from.gcCycles)
	}
}

// setLatencyAndCost reports what one operation cost its caller and the
// machine, over the given slices.
func setLatencyAndCost(res *result, slices []slice) {
	n := 0
	for i := range slices {
		n += len(slices[i].lat)
	}
	res.set(endToEnd, "lat_p50_ms", overSlices(slices, latencyPercentile(50)), n)
	res.set(endToEnd, "lat_p90_ms", overSlices(slices, latencyPercentile(90)), n)
	res.set(endToEnd, "cpu_ms_per_query", overSlices(slices, (*slice).cpuMsPerQuery), len(slices))
	res.set(endToEnd, "allocs_per_query", overSlices(slices, (*slice).allocsPerQuery), len(slices))
	res.set(endToEnd, "alloc_kb_per_query", overSlices(slices, (*slice).allocKBPerQuery), len(slices))
}

// offlineWindow is the offline loop shared by the measured and the
// traced run; tr is nil when tracing is off. One slice is one full pass
// over the batches, so every slice does identical work and what differs
// between slices is the machine, not the batch mix; passes repeat until
// the window has elapsed. It returns the slices and every batch's
// engine stats.
func offlineWindow(sys *system, window time.Duration, t *tally, tr *tracer) ([]slice, []hcpath.Stats) {
	var slices []slice
	var stats []hcpath.Stats
	from := sampleProc()
	for start := from.at; time.Since(start) < window; {
		cur := slice{from: from}
		for _, batch := range sys.batches {
			t0 := time.Now()
			st, err := countBatch(sys, batch, t)
			t1 := time.Now()
			if err != nil {
				t.fail("%v", err)
				return slices, stats
			}
			tr.batchOp(t0, t1, st)
			stats = append(stats, st)
			cur.ops += len(batch)
			cur.lat = append(cur.lat, ms(t1.Sub(t0)))
		}
		cur.to = sampleProc()
		slices = append(slices, cur)
		from = cur.to
	}
	return slices, stats
}

// --- serving ----------------------------------------------------------

// opSample is one served query as the load generator saw it.
type opSample struct {
	due, sent, done time.Duration // offsets from the phase start
	ok              bool
	batch           hcpath.BatchStats
}

// phase is one serving phase's raw observations.
type phase struct {
	ops     []opSample
	samples []procSample // at slice boundaries, first at phase start
	done    []int64      // ops completed at each sample
	backlog int          // in flight when the last arrival was sent (open loop)
	length  time.Duration
}

// openLoop offers Poisson arrivals at rate for dur: one pacing
// goroutine sleeps to each due time and hands the query to a fresh
// goroutine, which parks in Service.Query. Latency is timed from the
// due time, so a stall in the program (or a late pacer) is charged to
// every arrival it delays.
func openLoop(sys *system, dur time.Duration, rate float64, seed int64, offset int, t *tally, tr *tracer) *phase {
	stream := sys.batches[0]
	rng := rand.New(rand.NewSource(subSeed(seed, 5)))
	var dues []time.Duration
	for at := 0.0; ; {
		at += rng.ExpFloat64() / rate
		if d := time.Duration(at * float64(time.Second)); d < dur {
			dues = append(dues, d)
		} else {
			break
		}
	}
	ph := &phase{ops: make([]opSample, len(dues)), length: dur}
	ctx, cancel := phaseContext(dur)
	defer cancel()
	var completed atomic.Int64
	stop := ph.sampleEvery(sliceLen(dur, rate), &completed)
	start := time.Now()
	var wg sync.WaitGroup
	for i, due := range dues {
		if d := due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(i int, due time.Duration) {
			defer wg.Done()
			op := &ph.ops[i]
			op.due, op.sent = due, time.Since(start)
			seq := offset + i
			op.batch, op.ok = askOne(ctx, sys, stream[seq%len(stream)], seq, t)
			op.done = time.Since(start)
			completed.Add(1)
			tr.queryOp(start, op)
		}(i, due)
	}
	ph.backlog = len(dues) - int(completed.Load())
	if d := dur - time.Since(start); d > 0 {
		time.Sleep(d)
	}
	stop()
	wg.Wait()
	return ph
}

// closedLoop keeps callers queries in flight for dur: each caller sends
// its next query when the previous one returns. With callers equal to
// the default MaxBatch, batches dispatch on the size trigger rather
// than the MaxWait timer, so this measures what the program sustains.
func closedLoop(sys *system, dur time.Duration, offset int, t *tally, tr *tracer) *phase {
	callers := sys.spec.Callers
	stream := sys.batches[0]
	ph := &phase{length: dur}
	ctx, cancel := phaseContext(dur)
	defer cancel()
	var completed, next atomic.Int64
	next.Store(int64(offset))
	stop := ph.sampleEvery(sliceLen(dur, sys.spec.RateQPS), &completed)
	start := time.Now()
	per := make([][]opSample, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Since(start) < dur {
				seq := int(next.Add(1)) - 1
				var op opSample
				op.sent = time.Since(start)
				op.due = op.sent
				op.batch, op.ok = askOne(ctx, sys, stream[seq%len(stream)], seq, t)
				op.done = time.Since(start)
				completed.Add(1)
				per[c] = append(per[c], op)
				tr.queryOp(start, &op)
			}
		}(c)
	}
	wg.Wait()
	stop()
	for _, ops := range per {
		ph.ops = append(ph.ops, ops...)
	}
	return ph
}

// sampleEvery reads the process counters now and then every period
// until the returned stop function is called, which takes the closing
// sample.
func (ph *phase) sampleEvery(period time.Duration, completed *atomic.Int64) (stop func()) {
	take := func() {
		ph.done = append(ph.done, completed.Load())
		ph.samples = append(ph.samples, sampleProc())
	}
	take()
	quit, finished := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(finished)
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				take()
			case <-quit:
				return
			}
		}
	}()
	return func() {
		close(quit)
		<-finished
		// Drop a tick that landed within a tenth of a period of the end;
		// the closing sample replaces it.
		if n := len(ph.samples); n > 1 && time.Since(ph.samples[n-1].at) < period/10 {
			ph.samples, ph.done = ph.samples[:n-1], ph.done[:n-1]
		}
		take()
	}
}

// slices cuts the phase at its process samples. Operations are binned
// by key (due time for the open loop, completion for the closed loop);
// a failed operation's latency counts as +Inf, so it lands beyond every
// percentile it could have met.
func (ph *phase) slices(key func(*opSample) time.Duration) []slice {
	n := len(ph.samples) - 1
	out := make([]slice, n)
	t0 := ph.samples[0].at
	bounds := make([]time.Duration, n+1)
	for i := range ph.samples {
		bounds[i] = ph.samples[i].at.Sub(t0)
	}
	for i := 0; i < n; i++ {
		out[i].from, out[i].to = ph.samples[i], ph.samples[i+1]
		out[i].ops = int(ph.done[i+1] - ph.done[i])
	}
	for i := range ph.ops {
		op := &ph.ops[i]
		j := sort.Search(n, func(j int) bool { return bounds[j+1] > key(op) })
		if j >= n {
			j = n - 1
		}
		lat := math.Inf(1)
		if op.ok {
			lat = ms(op.done - op.due)
		}
		out[j].lat = append(out[j].lat, lat)
	}
	return out
}

func byDue(op *opSample) time.Duration  { return op.due }
func byDone(op *opSample) time.Duration { return op.done }

// measureServing runs the two serving phases over the stream — open
// loop first, then closed loop — with the churn writer beside both when
// the workload has one, and finishes the churn workload with its
// restart check.
func measureServing(sys *system, cfg runConfig, window time.Duration, t *tally, res *result) error {
	w := sys.spec
	half := window / 2
	var wr *writer
	if len(sys.updates) > 0 {
		wr = startWriter(sys, t, nil)
	}
	open := openLoop(sys, half, w.RateQPS, cfg.Seed, w.WarmupOps, t, nil)
	// Peak memory is read here, at the end of the fixed-rate phase: what
	// set-up, warm-up and the traffic the service actually carries need.
	// The saturation phase that follows holds 64 replies in flight and its
	// high-water mark follows GC timing, not the program.
	res.setValue(endToEnd, "rss_peak_mb", peakRSSMiB())
	closed := closedLoop(sys, half, w.WarmupOps+len(open.ops), t, nil)
	if wr != nil {
		wr.stop()
	}

	// Latency and per-query cost come from the open loop: a fixed offered
	// load, so the same queries are answered in every run and the numbers
	// are what a caller at that traffic feels. Throughput comes from the
	// closed loop.
	osl := open.slices(byDue)
	setLatencyAndCost(res, osl)
	csl := closed.slices(byDone)
	res.set(endToEnd, "queries_per_s", overSlices(csl, (*slice).opsPerSecond), len(closed.ops))
	if cfg.Verbose {
		printSlices("open", osl)
		printSlices("closed", csl)
	}

	if wr != nil {
		if _, err := finishChurn(sys, wr, t); err != nil {
			return err
		}
	}
	return nil
}

// --- churn ------------------------------------------------------------

// churnBlocks is how many update blocks a run of the given window needs
// (with slack for the phases running long), zero for workloads without
// a writer.
func churnBlocks(w workloadSpec, seconds float64) int {
	if w.UpdateEvery == 0 {
		return 0
	}
	return int((seconds+2)*float64(time.Second)/float64(w.UpdateEvery)) + 16
}

// writer is the churn workload's single update goroutine.
type writer struct {
	quit, finished chan struct{}
	applied        int       // blocks applied
	lat            []float64 // ApplyUpdates wall time, ms
	at             []time.Time
}

// startWriter applies one update block every UpdateEvery until stopped
// or out of blocks, timing each ApplyUpdates call.
func startWriter(sys *system, t *tally, tr *tracer) *writer {
	wr := &writer{quit: make(chan struct{}), finished: make(chan struct{})}
	go func() {
		defer close(wr.finished)
		tick := time.NewTicker(sys.spec.UpdateEvery)
		defer tick.Stop()
		for wr.applied < len(sys.updates) {
			select {
			case <-wr.quit:
				return
			case <-tick.C:
			}
			blk := sys.updates[wr.applied]
			t.attempted.Add(1)
			t0 := time.Now()
			_, err := sys.svc.ApplyUpdates(blk.Adds, blk.Dels)
			t1 := time.Now()
			if err != nil {
				t.fail("update block %d: %v", wr.applied, err)
				return
			}
			tr.updateOp(t0, t1)
			wr.applied++
			wr.lat = append(wr.lat, ms(t1.Sub(t0)))
			wr.at = append(wr.at, t1)
		}
	}()
	return wr
}

func (wr *writer) stop() {
	close(wr.quit)
	<-wr.finished
}

// churnEnd is what the end-of-run durability check measured.
type churnEnd struct {
	restart time.Duration // OpenService(nil, …) on the data dir until State() is readable
	totals  hcpath.ServiceTotals
}

// finishChurn closes the churn workload: the final State must equal an
// in-memory replay of the applied update blocks, and must survive
// Close → OpenService(nil, DataDir) unchanged. The reopened service
// replaces sys.svc.
func finishChurn(sys *system, wr *writer, t *tally) (churnEnd, error) {
	var end churnEnd
	end.totals = sys.svc.Totals()
	before := sys.svc.State()

	t.attempted.Add(1)
	replay := hcpath.NewService(sys.g, nil)
	for _, blk := range sys.updates[:wr.applied] {
		if _, err := replay.ApplyUpdates(blk.Adds, blk.Dels); err != nil {
			replay.Close()
			return end, err
		}
	}
	want := replay.State()
	replay.Close()
	// Epochs differ legitimately — background compactions bump them at
	// moments that depend on timing — the graph content may not.
	if before.NumVertices != want.NumVertices || before.NumEdges != want.NumEdges || before.Checksum != want.Checksum {
		t.fail("state after %d update blocks is %+v, in-memory replay gives %+v", wr.applied, before, want)
	}

	t.attempted.Add(1)
	if err := sys.svc.Close(); err != nil {
		return end, fmt.Errorf("close durable service: %w", err)
	}
	sys.svc = nil
	t0 := time.Now()
	svc, err := hcpath.OpenService(nil, &hcpath.ServiceOptions{DataDir: sys.dataDir})
	if err != nil {
		return end, fmt.Errorf("restart from %s: %w", sys.dataDir, err)
	}
	after := svc.State()
	end.restart = time.Since(t0)
	sys.svc = svc
	// A background compaction still folding when `before` was read bumps
	// the epoch once more before Close's final checkpoint, so the epoch
	// may have moved on; the graph may not have.
	before.Epoch = max(before.Epoch, after.Epoch)
	if after != before {
		t.fail("state after restart is %+v, was %+v", after, before)
	}
	return end, nil
}
