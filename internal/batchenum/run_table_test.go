package batchenum

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/hcindex"
	"repro/internal/query"
	"repro/internal/testgraphs"
	"repro/internal/timing"
)

// tableWorkers are the worker counts every Run row is checked under:
// the inline run, the smallest fan-out, and the machine's own width.
func tableWorkers() []int {
	ws := []int{1, 2}
	if n := runtime.GOMAXPROCS(0); n > 2 {
		ws = append(ws, n)
	}
	return ws
}

// tableLimit is the per-query emission limit of the "limit" rows: small
// enough that the corpora have queries on both sides of it.
const tableLimit = 2

// checkRunTable is the one table behind Run: Workers ∈ {1, 2,
// GOMAXPROCS} × ctrl ∈ {nil, limit, pre-cancelled, cancelled mid-run} ×
// the four algorithms, every row judged against internal/oracle's
// brute-force path sets for the batch.
func checkRunTable(t *testing.T, label string, g *graph.Graph, qs []query.Query) {
	t.Helper()
	gr := g.Reverse()
	want := bruteSet(g, qs)
	wantSet := make([]map[string]bool, len(qs))
	total := 0
	for i := range qs {
		wantSet[i] = map[string]bool{}
		for _, p := range want[i] {
			wantSet[i][p] = true
		}
		total += len(want[i])
	}
	// subset fails unless got holds distinct members of query i's oracle
	// set — what a truncated result set must still be.
	subset := func(row string, i int, got []string) {
		t.Helper()
		seen := map[string]bool{}
		for _, p := range got {
			if !wantSet[i][p] {
				t.Errorf("%s: query %d emitted %s, not an oracle path", row, i, p)
			}
			if seen[p] {
				t.Errorf("%s: query %d emitted %s twice", row, i, p)
			}
			seen[p] = true
		}
	}

	for _, alg := range allAlgorithms {
		for _, workers := range tableWorkers() {
			opts := Options{Algorithm: alg, Workers: workers}
			run := func(ctrl *query.Control, onEmit func()) (resultSet, *Stats, error) {
				// One slot per query: different queries emit
				// concurrently, so the sink keeps no shared state.
				per := make([][]string, len(qs))
				st, err := Run(g, gr, qs, opts, ctrl, query.FuncSink(func(ids []int, p []graph.VertexID) {
					for _, id := range ids {
						per[id] = append(per[id], pathKey(p))
						if onEmit != nil {
							onEmit()
						}
					}
				}))
				got := resultSet{}
				for id, ps := range per {
					if ps != nil {
						sort.Strings(ps)
						got[id] = ps
					}
				}
				return got, st, err
			}
			row := fmt.Sprintf("%s %v workers=%d", label, alg, workers)

			// ctrl = nil: the oracle's result sets exactly.
			got, st, err := run(nil, nil)
			if err != nil {
				t.Fatalf("%s nil: %v", row, err)
			}
			if st.NumQueries != len(qs) || st.Truncated != 0 {
				t.Errorf("%s nil: stats report %d queries, %d truncated", row, st.NumQueries, st.Truncated)
			}
			diffSets(t, row+" nil", want, got, len(qs))

			// limit: min(limit, |P(q)|) distinct oracle paths per query,
			// truncation reported exactly where paths were dropped, and
			// no run-level error.
			ctrl := query.NewControl(context.Background(), time.Time{}, tableLimit, len(qs))
			got, st, err = run(ctrl, nil)
			if err != nil {
				t.Fatalf("%s limit: %v", row, err)
			}
			wantTrunc := 0
			for i := range qs {
				cut := len(want[i]) > tableLimit
				if cut {
					wantTrunc++
				}
				if wantLen := min(len(want[i]), tableLimit); len(got[i]) != wantLen {
					t.Errorf("%s limit: query %d emitted %d paths, want %d of %d", row, i, len(got[i]), wantLen, len(want[i]))
				}
				subset(row+" limit", i, got[i])
				if ctrl.Truncated(i) != cut || errors.Is(ctrl.QueryErr(i), query.ErrLimitReached) != cut {
					t.Errorf("%s limit: query %d Truncated=%v QueryErr=%v, want cut=%v", row, i, ctrl.Truncated(i), ctrl.QueryErr(i), cut)
				}
			}
			if st.Truncated != wantTrunc {
				t.Errorf("%s limit: Stats.Truncated=%d, want %d", row, st.Truncated, wantTrunc)
			}

			// pre-cancelled: nothing emitted, every query truncated, the
			// context's error returned alongside the partial stats.
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			ctrl = query.NewControl(ctx, time.Time{}, 0, len(qs))
			got, st, err = run(ctrl, nil)
			if !errors.Is(err, context.Canceled) || st == nil {
				t.Fatalf("%s pre-cancelled: err=%v stats=%v, want context.Canceled with stats", row, err, st)
			}
			if len(got) != 0 || st.Truncated != len(qs) {
				t.Errorf("%s pre-cancelled: %d queries emitted, %d truncated of %d", row, len(got), st.Truncated, len(qs))
			}

			// cancelled mid-run (at the first emission): whatever was
			// emitted is genuine, a query the engine reports complete has
			// its whole oracle set, the rest carry the context's error.
			ctx, cancel = context.WithCancel(context.Background())
			ctrl = query.NewControl(ctx, time.Time{}, 0, len(qs))
			got, st, err = run(ctrl, cancel)
			cancel()
			if total > 0 && !errors.Is(err, context.Canceled) {
				t.Errorf("%s mid-run: err=%v, want context.Canceled", row, err)
			}
			unfinished := 0
			for i := range qs {
				if qerr := ctrl.QueryErr(i); qerr == nil {
					if len(got[i]) != len(want[i]) {
						t.Errorf("%s mid-run: query %d reported complete with %d of %d paths", row, i, len(got[i]), len(want[i]))
					}
				} else {
					unfinished++
					if !errors.Is(qerr, context.Canceled) {
						t.Errorf("%s mid-run: query %d QueryErr=%v, want context.Canceled", row, i, qerr)
					}
				}
				subset(row+" mid-run", i, got[i])
			}
			if st.Truncated != unfinished {
				t.Errorf("%s mid-run: Stats.Truncated=%d, %d queries carry an error", row, st.Truncated, unfinished)
			}
		}
	}
}

// TestParallelMatchesSequential runs the table on the paper's Fig. 1
// batch: every engine, inline and fanned, under every kind of Control,
// agrees with the oracle.
func TestParallelMatchesSequential(t *testing.T) {
	checkRunTable(t, "paper", testgraphs.Paper(), paperBatch())
}

// TestParallelRandom runs the same table on larger random batches (it
// also exercises the race detector when tests run with -race).
func TestParallelRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 10; trial++ {
		n := 20 + rng.Intn(40)
		g := graph.GenRandom(n, 2.5, int64(trial+50))
		var qs []query.Query
		for len(qs) < 12 {
			s := graph.VertexID(rng.Intn(n))
			tt := graph.VertexID(rng.Intn(n))
			if s == tt {
				continue
			}
			qs = append(qs, query.Query{S: s, T: tt, K: uint8(2 + rng.Intn(4))})
		}
		checkRunTable(t, fmt.Sprintf("random trial %d", trial), g, qs)
	}
}

// TestWorkersSemantics pins what Options.Workers means below the public
// layer — an exact count, never reinterpreted: at most one (zero and
// negative included) runs the groups inline, where each group books its
// own detect phase; more fans them out, where the Enumeration phase is
// the fan-out's wall clock and per-group phases are not summed.
func TestWorkersSemantics(t *testing.T) {
	g := testgraphs.Paper()
	gr := g.Reverse()
	qs := paperBatch()
	for _, workers := range []int{-1, 0, 1, 2, 3} {
		opts := Options{Algorithm: Batch, Gamma: 0.8, Workers: workers}
		st, err := Run(g, gr, qs, opts, nil, query.NewCountSink(len(qs)))
		if err != nil {
			t.Fatal(err)
		}
		detect, enumerate := st.Phases.Get(timing.IdentifySubquery), st.Phases.Get(timing.Enumeration)
		if fanned := workers > 1; fanned {
			if detect != 0 || enumerate <= 0 {
				t.Errorf("workers=%d: fanned run booked detect=%v enumerate=%v, want wall-clock Enumeration only", workers, detect, enumerate)
			}
		} else {
			if detect <= 0 || enumerate <= 0 {
				t.Errorf("workers=%d: inline run booked detect=%v enumerate=%v, want both per group", workers, detect, enumerate)
			}
		}
	}
}

// TestOneQueryGroupRunsPathEnum pins the one routing rule of the sharing
// engines: a group of one query has nothing to share, so it runs
// PathEnum directly — no detection time, no Ψ node, nothing cached —
// and still answers exactly.
func TestOneQueryGroupRunsPathEnum(t *testing.T) {
	g := testgraphs.CompleteDAG(10)
	qs := []query.Query{{S: 0, T: 9, K: 5}}
	for _, alg := range []Algorithm{Batch, BatchPlus} {
		sink := query.NewCountSink(1)
		st, err := Run(g, g.Reverse(), qs, Options{Algorithm: alg}, nil, sink)
		if err != nil {
			t.Fatal(err)
		}
		if d := st.Phases.Get(timing.IdentifySubquery); d != 0 {
			t.Errorf("%v: one-query batch booked %v of detection", alg, d)
		}
		if st.NumGroups != 1 || st.SharedNodes != 0 || st.CachedPaths != 0 {
			t.Errorf("%v: one-query batch: %d groups, %d shared nodes, %d cached paths; want 1, 0, 0",
				alg, st.NumGroups, st.SharedNodes, st.CachedPaths)
		}
		if want := int64(len(bruteSet(g, qs)[0])); sink.Counts()[0] != want {
			t.Errorf("%v: %d paths, want %d", alg, sink.Counts()[0], want)
		}
	}
}

// TestWorkListGroupMatchesInline: one sharing group of eight queries
// drained by four workers — its joins run concurrently — emits each
// query's paths in exactly the order the inline run does: in full,
// under a limit (the same first paths, truncated at the same point),
// and when cancelled mid-run (every query a prefix of its inline
// sequence, whole wherever the engine reports it complete).
func TestWorkListGroupMatchesInline(t *testing.T) {
	g := testgraphs.CompleteDAG(14)
	gr := g.Reverse()
	var qs []query.Query
	for _, s := range []graph.VertexID{0, 1} {
		for _, tt := range []graph.VertexID{12, 13} {
			for _, k := range []uint8{4, 5} {
				qs = append(qs, query.Query{S: s, T: tt, K: k})
			}
		}
	}
	run := func(workers int, ctrl *query.Control, onEmit func()) ([][]string, *Stats) {
		per := make([][]string, len(qs))
		st, err := Run(g, gr, qs, Options{Algorithm: BatchPlus, Gamma: 0.1, Workers: workers}, ctrl,
			query.FuncSink(func(ids []int, p []graph.VertexID) {
				for _, id := range ids {
					per[id] = append(per[id], pathKey(p))
					if onEmit != nil {
						onEmit()
					}
				}
			}))
		if err != nil && !ctrl.Cancelled() {
			t.Fatal(err)
		}
		return per, st
	}
	want, st := run(1, nil, nil)
	if st.NumGroups != 1 {
		t.Fatalf("batch formed %d groups, want one group of %d", st.NumGroups, len(qs))
	}
	total := 0
	for i := range qs {
		total += len(want[i])
	}

	got, _ := run(4, nil, nil)
	for i := range qs {
		if fmt.Sprint(got[i]) != fmt.Sprint(want[i]) {
			t.Errorf("full: query %d emitted %d paths out of the inline order (inline %d)", i, len(got[i]), len(want[i]))
		}
	}

	const limit = 40
	ctrl := query.NewControl(context.Background(), time.Time{}, limit, len(qs))
	got, _ = run(4, ctrl, nil)
	for i := range qs {
		w, cut := want[i], len(want[i]) > limit
		if cut {
			w = w[:limit]
		}
		if fmt.Sprint(got[i]) != fmt.Sprint(w) || ctrl.Truncated(i) != cut {
			t.Errorf("limit: query %d emitted %d paths (truncated %v), want the inline run's first %d (truncated %v)",
				i, len(got[i]), ctrl.Truncated(i), len(w), cut)
		}
	}

	for _, at := range []int64{1, int64(total / 3), int64(total * 2 / 3)} {
		ctx, cancel := context.WithCancel(context.Background())
		ctrl := query.NewControl(ctx, time.Time{}, 0, len(qs))
		var emitted atomic.Int64
		got, _ := run(4, ctrl, func() {
			if emitted.Add(1) == at {
				cancel()
			}
		})
		cancel()
		for i := range qs {
			n := len(got[i])
			if n > len(want[i]) || fmt.Sprint(got[i]) != fmt.Sprint(want[i][:n]) {
				t.Errorf("cancel at %d: query %d's %d paths are not a prefix of the inline run's", at, i, n)
			}
			if ctrl.QueryErr(i) == nil && n != len(want[i]) {
				t.Errorf("cancel at %d: query %d reported complete with %d of %d paths", at, i, n, len(want[i]))
			}
		}
	}
}

// TestSharedJoinClasses: six copies of one query, scattered among three
// other queries of one sharing group, make one class that Run answers
// once. On one worker and on four, every copy emits exactly its lead's
// sequence: in full, under a limit (the lead's first paths, and
// ErrLimitReached on every copy) and cancelled mid-run (one prefix for
// all copies, and none complete unless the class's join finished).
func TestSharedJoinClasses(t *testing.T) {
	g := testgraphs.CompleteDAG(14)
	gr := g.Reverse()
	c := query.Query{S: 0, T: 13, K: 5}
	qs := []query.Query{c, {S: 0, T: 12, K: 5}, c, c, {S: 0, T: 11, K: 4}, c, c, {S: 2, T: 10, K: 4}, c}
	copies := []int{0, 2, 3, 5, 6, 8}
	lead := func(id int) int { // each query's class lead
		if qs[id] == c {
			return 0
		}
		return id
	}
	want := bruteSet(g, qs)
	opts := Options{Algorithm: BatchPlus, Gamma: 0.1}

	for _, workers := range []int{1, 4} {
		opts.Workers = workers
		run := func(ctrl *query.Control, onEmit func(id int)) [][]string {
			per := make([][]string, len(qs))
			st, err := Run(g, gr, qs, opts, ctrl, query.FuncSink(func(ids []int, p []graph.VertexID) {
				for _, id := range ids {
					per[id] = append(per[id], pathKey(p))
					if onEmit != nil {
						onEmit(id)
					}
				}
			}))
			if err != nil && !ctrl.Cancelled() {
				t.Fatal(err)
			}
			if st.NumGroups != 1 {
				t.Fatalf("workers=%d: batch formed %d groups, want one", workers, st.NumGroups)
			}
			return per
		}

		full := run(nil, nil)
		for id := range qs {
			if got := slices.Sorted(slices.Values(full[id])); fmt.Sprint(got) != fmt.Sprint(want[id]) {
				t.Fatalf("workers=%d full: query %d emitted %d paths, the oracle %d", workers, id, len(got), len(want[id]))
			}
			if fmt.Sprint(full[id]) != fmt.Sprint(full[lead(id)]) {
				t.Errorf("workers=%d full: copy %d's sequence differs from its lead's", workers, id)
			}
		}
		if len(full[0]) <= 3 {
			t.Fatalf("the copies have %d paths; the limits below need more than 3", len(full[0]))
		}

		for _, limit := range []int64{1, 3} {
			ctrl := query.NewControl(context.Background(), time.Time{}, limit, len(qs))
			got := run(ctrl, nil)
			for _, id := range copies {
				if fmt.Sprint(got[id]) != fmt.Sprint(full[0][:limit]) || !errors.Is(ctrl.QueryErr(id), query.ErrLimitReached) {
					t.Errorf("workers=%d limit %d: copy %d emitted %d paths (err %v), want the lead's first %d and ErrLimitReached",
						workers, limit, id, len(got[id]), ctrl.QueryErr(id), limit)
				}
			}
		}

		// Cancel at the copies' first emission, then at the last
		// query's (on one worker the copies' join has finished by then:
		// joins run in group order). A join stops at its next poll,
		// after every copy has had the same prefix, and its copies
		// complete together or not at all.
		for _, at := range []int{0, 7} {
			ctx, cancel := context.WithCancel(context.Background())
			ctrl := query.NewControl(ctx, time.Time{}, 0, len(qs))
			got := run(ctrl, func(id int) {
				if lead(id) == at {
					cancel()
				}
			})
			cancel()
			for id := range qs {
				n := len(got[id])
				label := fmt.Sprintf("workers=%d cancelled in query %d's join: query %d", workers, at, id)
				if n > len(full[id]) || fmt.Sprint(got[id]) != fmt.Sprint(full[id][:n]) {
					t.Errorf("%s: its %d paths are not a prefix of its full sequence", label, n)
				}
				if l := lead(id); n != len(got[l]) || ctrl.QueryErr(id) != ctrl.QueryErr(l) {
					t.Errorf("%s: %d paths (err %v), its lead %d (err %v)", label, n, ctrl.QueryErr(id), len(got[l]), ctrl.QueryErr(l))
				}
				if ctrl.QueryErr(id) == nil && n != len(full[id]) {
					t.Errorf("%s: reported complete with %d of %d paths", label, n, len(full[id]))
				}
				if lead(id) == at && !errors.Is(ctrl.QueryErr(id), context.Canceled) {
					t.Errorf("%s: reports %v, want context.Canceled", label, ctrl.QueryErr(id))
				}
			}
			if workers == 1 && at > 0 && ctrl.QueryErr(0) != nil {
				t.Errorf("workers=1 cancelled in the last join: the copies report %v, want complete", ctrl.QueryErr(0))
			}
		}
	}
}

// probes wraps a provider and counts which acquire route each batch
// took.
type probes struct {
	hcindex.Provider
	acquire, one int
}

func (p *probes) Acquire(g, gr *graph.Graph, epoch uint64, qs []query.Query) *hcindex.Index {
	p.acquire++
	return p.Provider.Acquire(g, gr, epoch, qs)
}

func (p *probes) AcquireOne(g, gr *graph.Graph, epoch uint64, q query.Query) *hcindex.Index {
	p.one++
	return p.Provider.AcquireOne(g, gr, epoch, q)
}

// TestRunDedupesCopies: the sharing engines answer each distinct query
// once. Copies scattered through the batch each get the oracle's paths,
// emitted once per path with their whole class (batch order, lead
// first), and every copy completes, those of an unreachable query too;
// NumQueries counts every query and the index probes count the
// distinct ones; a batch of copies of one query takes the one-query
// route. BasicEnum, the independent baseline, keeps one class per
// query.
func TestRunDedupesCopies(t *testing.T) {
	g := testgraphs.Paper()
	gr := g.Reverse()
	pb := paperBatch()
	a, b, c := pb[0], pb[1], pb[3]
	u := query.Query{S: a.S, T: a.T, K: 3} // a's endpoints, out of hop range
	qs := []query.Query{a, b, a, u, c, b, a, u}
	const distinctQueries = 4
	classes := map[string]bool{"[0 2 6]": true, "[1 5]": true, "[4]": true} // u emits nothing
	want := bruteSet(g, qs)
	if len(want[0]) == 0 || len(want[1]) == 0 || len(want[4]) == 0 || len(want[3]) != 0 {
		t.Fatal("a, b and c need paths, u none")
	}
	for _, alg := range allAlgorithms {
		p := &probes{Provider: hcindex.NewBuilder(true)}
		ctx, cancel := context.WithCancel(context.Background())
		ctrl := query.NewControl(ctx, time.Time{}, 0, len(qs))
		rs := resultSet{}
		seen := map[string]bool{}
		st, err := Run(g, gr, qs, Options{Algorithm: alg, Provider: p}, ctrl, query.FuncSink(func(ids []int, path []graph.VertexID) {
			seen[fmt.Sprint(ids)] = true
			for _, id := range ids {
				rs[id] = append(rs[id], pathKey(path))
			}
		}))
		if err != nil {
			t.Fatal(err)
		}
		// Cancelled after the run, a query reports an error unless the
		// engine marked it complete.
		cancel()
		ctrl.Cancelled()
		for id := range qs {
			if err := ctrl.QueryErr(id); err != nil {
				t.Errorf("%v: query %d was never marked complete (%v)", alg, id, err)
			}
		}
		for id := range rs {
			sort.Strings(rs[id])
		}
		diffSets(t, alg.String(), want, rs, len(qs))
		probed := 2 * len(qs)
		if alg.Shared() {
			probed = 2 * distinctQueries
		}
		if st.NumQueries != len(qs) || st.IndexMisses != probed {
			t.Errorf("%v: %d queries, %d index misses; want %d and %d", alg, st.NumQueries, st.IndexMisses, len(qs), probed)
		}
		for ids := range seen {
			if alg.Shared() && !classes[ids] || !alg.Shared() && strings.Contains(ids, " ") {
				t.Errorf("%v: a path was emitted for %s", alg, ids)
			}
		}
		if alg.Shared() && len(seen) != len(classes) {
			t.Errorf("%v: paths went to %d classes, want %d", alg, len(seen), len(classes))
		}

		// Copies only: one lead, the one-query route.
		p = &probes{Provider: hcindex.NewBuilder(true)}
		sink := query.NewCountSink(4)
		st, err = Run(g, gr, []query.Query{b, b, b, b}, Options{Algorithm: alg, Provider: p}, nil, sink)
		if err != nil {
			t.Fatal(err)
		}
		for id, n := range sink.Counts() {
			if n != int64(len(want[1])) {
				t.Errorf("%v copies only: query %d has %d paths, want %d", alg, id, n, len(want[1]))
			}
		}
		if alg.Shared() && (st.IndexMisses != 2 || p.one != 1 || p.acquire != 0) {
			t.Errorf("%v copies only: %d index misses, %d AcquireOne and %d Acquire calls; want 2, 1, 0",
				alg, st.IndexMisses, p.one, p.acquire)
		}
		if st.NumQueries != 4 {
			t.Errorf("%v copies only: %d queries, want 4", alg, st.NumQueries)
		}
	}
}
