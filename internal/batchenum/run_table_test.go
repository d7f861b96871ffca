package batchenum

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/pathjoin"
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

// TestSharedJoinClasses: a group of six identical queries, two that
// share only their source with them and one unrelated query yields one
// join task per distinct join input, the six sharing one. On one worker
// and on four, every member emits exactly the sequence its own join
// emits alone: in full, under a limit (exactly the limit, and
// ErrLimitReached on every member) and cancelled mid-run (no member of
// the cancelled join marked complete, all members holding one prefix).
func TestSharedJoinClasses(t *testing.T) {
	g := testgraphs.CompleteDAG(14)
	gr := g.Reverse()
	qs := make([]query.Query, 6, 9)
	for i := range qs {
		qs[i] = query.Query{ID: i, S: 0, T: 13, K: 5}
	}
	qs = append(qs, query.Query{ID: 6, S: 0, T: 12, K: 5}, query.Query{ID: 7, S: 0, T: 11, K: 4},
		query.Query{ID: 8, S: 2, T: 10, K: 4})
	opts := Options{Algorithm: BatchPlus, Gamma: 0.1}

	// The group as Run forms it, through processGroup directly.
	idx := opts.acquire(g, gr, qs)
	defer idx.Release()
	var st Stats
	groups := partition(qs, idx, opts, &st)
	if len(groups) != 1 {
		t.Fatalf("batch formed %d groups, want one", len(groups))
	}
	b := &batch{g: g, gr: gr, qs: qs, idx: idx, opts: opts}
	joins := b.processGroup(groups[0], &st)
	type input struct {
		fwd       *pathjoin.Store
		bwd       *pathjoin.HashIndex
		k         uint8
		backHeavy bool
	}
	inputs := map[input]bool{}
	class := make([]int, len(qs)) // each query's join task
	alone := make([][]string, len(qs))
	for c, j := range joins {
		in := input{j.fwd, j.bwd, qs[j.members[0]].K, j.backHeavy}
		if inputs[in] {
			t.Errorf("join %d reads the inputs of an earlier join", c)
		}
		inputs[in] = true
		for x, id := range j.members {
			class[id] = c
			if q, lead := qs[id], qs[j.members[0]]; q.S != lead.S || q.T != lead.T || q.K != lead.K {
				t.Errorf("join %d holds queries %v and %v", c, lead, q)
			}
			if x > 0 && id <= j.members[x-1] {
				t.Errorf("join %d lists its members out of group order: %v", c, j.members)
			}
			// The reference: the query's own one-member join of the
			// same inputs.
			pathjoin.JoinHalvesIndexed(j.fwd, j.bwd, qs[id].K, j.backHeavy, nil, func(p []graph.VertexID) {
				alone[id] = append(alone[id], pathKey(p))
			})
		}
	}
	if len(joins) != 4 || len(joins[class[0]].members) != 6 {
		t.Fatalf("group made %d join tasks, the first query's of %d members; want 4, one of 6", len(joins), len(joins[class[0]].members))
	}
	want := bruteSet(g, qs)
	for id := range qs {
		if got := slices.Sorted(slices.Values(alone[id])); fmt.Sprint(got) != fmt.Sprint(want[id]) {
			t.Fatalf("query %d's own join emits %d paths, the oracle %d", id, len(got), len(want[id]))
		}
		if len(alone[id]) <= 3 {
			t.Fatalf("query %d has %d paths; the limits below need more than 3", id, len(alone[id]))
		}
	}

	for _, workers := range []int{1, 4} {
		run := func(ctrl *query.Control, onEmit func(id int)) [][]string {
			per := make([][]string, len(qs))
			opts.Workers = workers
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

		got := run(nil, nil)
		for id := range qs {
			if fmt.Sprint(got[id]) != fmt.Sprint(alone[id]) {
				t.Errorf("workers=%d full: query %d emitted %d paths out of its own join's order (%d)", workers, id, len(got[id]), len(alone[id]))
			}
		}

		for _, limit := range []int64{1, 3} {
			ctrl := query.NewControl(context.Background(), time.Time{}, limit, len(qs))
			got := run(ctrl, nil)
			for id := range qs {
				if fmt.Sprint(got[id]) != fmt.Sprint(alone[id][:limit]) || !errors.Is(ctrl.QueryErr(id), query.ErrLimitReached) {
					t.Errorf("workers=%d limit %d: query %d emitted %d paths (err %v), want its own join's first %d and ErrLimitReached",
						workers, limit, id, len(got[id]), ctrl.QueryErr(id), limit)
				}
			}
		}

		// Cancel at the first emission of the shared join, then of the
		// last join (on one worker the shared join has finished by then).
		// A join stops at its next poll, after every member has had the
		// same prefix, and its members complete together or not at all.
		for _, at := range []int{0, len(qs) - 1} {
			ctx, cancel := context.WithCancel(context.Background())
			ctrl := query.NewControl(ctx, time.Time{}, 0, len(qs))
			got = run(ctrl, func(id int) {
				if class[id] == class[at] {
					cancel()
				}
			})
			cancel()
			for id := range qs {
				n, lead := len(got[id]), joins[class[id]].members[0]
				label := fmt.Sprintf("workers=%d cancelled in query %d's join: query %d", workers, at, id)
				if n > len(alone[id]) || fmt.Sprint(got[id]) != fmt.Sprint(alone[id][:n]) {
					t.Errorf("%s: its %d paths are not a prefix of its own join's", label, n)
				}
				if n != len(got[lead]) || ctrl.QueryErr(id) != ctrl.QueryErr(lead) {
					t.Errorf("%s: %d paths (err %v), its join's lead %d (err %v)", label, n, ctrl.QueryErr(id), len(got[lead]), ctrl.QueryErr(lead))
				}
				if ctrl.QueryErr(id) == nil && n != len(alone[id]) {
					t.Errorf("%s: reported complete with %d of %d paths", label, n, len(alone[id]))
				}
				if class[id] == class[at] && !errors.Is(ctrl.QueryErr(id), context.Canceled) {
					t.Errorf("%s: reports %v, want context.Canceled", label, ctrl.QueryErr(id))
				}
			}
			if workers == 1 && at > 0 && ctrl.QueryErr(0) != nil {
				t.Errorf("workers=1 cancelled in the last join: the shared join reports %v, want complete", ctrl.QueryErr(0))
			}
		}
	}
}
