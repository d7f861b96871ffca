package hcpath

// FuzzEnumerate is the differential oracle harness the early-exit paths
// are proven against: random small graphs and query batches, run
// through all four batch engines (sequential and parallel) and both KSP
// baselines, are checked against internal/oracle's unpruned DFS — in
// full, under a per-query Limit, and under cancellation. The invariants
// are exactly the partial-result contract: a full run matches the
// oracle's path set; a limited run emits min(limit, total) distinct
// oracle paths and reports truncation iff paths were dropped; a
// cancelled run emits only genuine oracle paths, never a duplicate, and
// returns the context's error.

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/batchenum"
	"repro/internal/graph"
	"repro/internal/ksp"
	"repro/internal/oracle"
	"repro/internal/query"
	"repro/internal/testgraphs"
)

// noDeadline marks runs stoppable only by ctx or limit.
var noDeadline time.Time

// fuzzInput decodes the fuzz bytes into a graph and a batch of up to
// three valid queries. Returns ok=false when the bytes cannot yield at
// least one valid query.
func fuzzInput(data []byte) (g *graph.Graph, qs []query.Query, limit int64, ok bool) {
	if len(data) < 8 {
		return nil, nil, 0, false
	}
	n := 2 + int(data[0]%7) // 2..8 vertices
	limit = int64(data[1] % 5)
	b := graph.NewBuilder(n)
	if len(data) > 64 {
		data = data[:64] // bound the oracle's O(n^k) work
	}
	for i := 8; i+1 < len(data); i += 2 {
		u := graph.VertexID(int(data[i]) % n)
		v := graph.VertexID(int(data[i+1]) % n)
		b.AddEdge(u, v) // builder drops self-loops and duplicates
	}
	g = b.Build()
	for qi := 0; qi < 3; qi++ {
		s := graph.VertexID(int(data[2+2*qi]) % n)
		t := graph.VertexID(int(data[3+2*qi]) % n)
		k := uint8(1 + int(data[2+2*qi]>>4)%6) // 1..6 hops
		if s == t {
			continue
		}
		qs = append(qs, query.Query{S: s, T: t, K: k})
	}
	return g, qs, limit, len(qs) > 0
}

// canonicalStrings renders a path set in sorted string form.
func canonicalStrings(paths [][]graph.VertexID) []string {
	out := make([]string, len(paths))
	for i, p := range paths {
		out[i] = fmt.Sprint(p)
	}
	sort.Strings(out)
	return out
}

// checkSubset verifies every got path is a distinct member of the
// oracle's set for the query.
func checkSubset(t *testing.T, label string, qi int, oracleSet map[string]bool, got [][]graph.VertexID) {
	t.Helper()
	seen := map[string]bool{}
	for _, p := range got {
		k := fmt.Sprint(p)
		if !oracleSet[k] {
			t.Fatalf("%s: query %d emitted non-result %s", label, qi, k)
		}
		if seen[k] {
			t.Fatalf("%s: query %d emitted duplicate %s", label, qi, k)
		}
		seen[k] = true
	}
}

func FuzzEnumerate(f *testing.F) {
	f.Add([]byte{3, 2, 0x10, 3, 0x21, 2, 0x30, 1, 0, 1, 1, 2, 2, 3, 0, 2, 1, 3, 0, 3})
	f.Add([]byte{6, 0, 0x57, 6, 0x43, 5, 0x62, 4, 0, 1, 1, 2, 2, 0, 3, 4, 4, 5, 5, 6, 6, 0, 1, 4, 2, 5})
	f.Add([]byte{1, 1, 0x20, 1, 0x12, 0, 0x21, 2, 0, 1, 1, 0, 0, 2, 2, 0, 1, 2, 2, 1})
	f.Add([]byte{7, 3, 0x70, 7, 0x15, 3, 0x36, 5, 0, 1, 0, 2, 0, 3, 1, 4, 2, 4, 3, 4, 4, 5, 4, 6, 5, 7, 6, 7, 1, 7, 2, 6})
	// Two queries 0→3 on one component and one 5→7 on another: the
	// sharing engines cluster them into a group of two (the Ψ pipeline)
	// and a group of one (PathEnum), so both arms run in one batch.
	f.Add([]byte{6, 2, 0x30, 3, 0x20, 3, 0x55, 7, 0, 1, 1, 2, 2, 3, 0, 2, 1, 3, 5, 6, 6, 7, 5, 7, 4, 5})
	// Two identical queries 0→5 and a third 0→7 sharing their source:
	// the sharing engines put the twins in one ⊕ join task that emits
	// to both, checked in full, under a limit of 2 and cancelled.
	f.Add([]byte{6, 2, 0x30, 5, 0x30, 5, 0x38, 7, 0, 1, 1, 2, 2, 5, 0, 2, 1, 5, 0, 3, 3, 5, 3, 7, 2, 7, 5, 7, 1, 3, 4, 5})

	algorithms := []batchenum.Algorithm{
		batchenum.Basic, batchenum.BasicPlus, batchenum.Batch, batchenum.BatchPlus,
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		g, qs, limit, ok := fuzzInput(data)
		if !ok {
			return
		}
		gr := g.Reverse()

		// Leave the shared DFS scratch pool primed by a differently-sized
		// graph, handed back from a cancelled run: the engines below must
		// cope with pooled entries that are too short (replaced), longer
		// than their graph, and stamped with a previous user's memo
		// generations.
		prime := testgraphs.CompleteDAG(3 + int(data[6]%12))
		pctx, pcancel := context.WithCancel(context.Background())
		batchenum.Run(prime, prime.Reverse(),
			[]query.Query{{S: 0, T: graph.VertexID(prime.NumVertices() - 1), K: 5}},
			batchenum.Options{Algorithm: algorithms[int(data[6]>>4)%len(algorithms)]},
			query.NewControl(pctx, noDeadline, 0, 1),
			query.FuncSink(func([]int, []graph.VertexID) { pcancel() }))
		pcancel()

		// Ground truth per query position: want is string-sorted for set
		// comparisons, ordered keeps the oracle's (hops, lex) listing for
		// the KSP baselines' output-order checks.
		want := make([][]string, len(qs))
		ordered := make([][]string, len(qs))
		wantSet := make([]map[string]bool, len(qs))
		for i, q := range qs {
			ps := oracle.Paths(g, q)
			ordered[i] = make([]string, len(ps))
			for j, p := range ps {
				ordered[i][j] = fmt.Sprint(p)
			}
			want[i] = canonicalStrings(ps)
			wantSet[i] = map[string]bool{}
			for _, s := range want[i] {
				wantSet[i][s] = true
			}
		}

		for _, alg := range algorithms {
			opts := batchenum.Options{Algorithm: alg, Gamma: 0.5}
			label := alg.String()

			// 1. Full sequential run: exact per-query equality.
			full := query.NewCollectSink(len(qs))
			if _, err := batchenum.Run(g, gr, qs, opts, nil, full); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			for i := range qs {
				if got := canonicalStrings(full.Paths[i]); !slices.Equal(want[i], got) {
					t.Fatalf("%s: query %d: engine %v != oracle %v", label, i, got, want[i])
				}
			}

			// 1b. Full parallel run: the groups fanned out over two
			// workers reproduce the same result sets.
			popts := opts
			popts.Workers = 2
			par := query.NewCollectSink(len(qs))
			if _, err := batchenum.Run(g, gr, qs, popts, nil, par); err != nil {
				t.Fatalf("%s/par: %v", label, err)
			}
			for i := range qs {
				if got := canonicalStrings(par.Paths[i]); !slices.Equal(want[i], got) {
					t.Fatalf("%s/par: query %d: engine %v != oracle %v", label, i, got, want[i])
				}
			}

			// 2. Limited run (sequential and parallel): min(limit, total)
			// distinct oracle paths, truncation reported iff dropped.
			if limit > 0 {
				runLimited := func(mode string, workers int) {
					ctrl := query.NewControl(context.Background(), noDeadline, limit, len(qs))
					sink := query.NewCollectSink(len(qs))
					lopts := opts
					lopts.Workers = workers
					st, err := batchenum.Run(g, gr, qs, lopts, ctrl, sink)
					if err != nil {
						t.Fatalf("%s/%s limited: %v", label, mode, err)
					}
					wantTrunc := 0
					for i := range qs {
						total := int64(len(want[i]))
						wantLen := total
						if limit < total {
							wantLen = limit
							wantTrunc++
						}
						if int64(len(sink.Paths[i])) != wantLen {
							t.Fatalf("%s/%s limited: query %d emitted %d paths, want %d (total %d, limit %d)",
								label, mode, i, len(sink.Paths[i]), wantLen, total, limit)
						}
						checkSubset(t, label+"/"+mode+" limited", i, wantSet[i], sink.Paths[i])
						if trunc := ctrl.Truncated(i); trunc != (limit < total) {
							t.Fatalf("%s/%s limited: query %d Truncated=%v, want %v", label, mode, i, trunc, limit < total)
						}
						if limit < total && !errors.Is(ctrl.QueryErr(i), query.ErrLimitReached) {
							t.Fatalf("%s/%s limited: query %d QueryErr=%v, want ErrLimitReached", label, mode, i, ctrl.QueryErr(i))
						}
					}
					if st.Truncated != wantTrunc {
						t.Fatalf("%s/%s limited: Stats.Truncated=%d, want %d", label, mode, st.Truncated, wantTrunc)
					}
				}
				runLimited("seq", 1)
				runLimited("par", 2)
			}

			// 3. Cancelled mid-run (after the first emission): only
			// genuine oracle paths, no duplicates, ctx error returned.
			ctx, cancel := context.WithCancel(context.Background())
			ctrl := query.NewControl(ctx, noDeadline, 0, len(qs))
			part := query.NewCollectSink(len(qs))
			_, err := batchenum.Run(g, gr, qs, opts, ctrl,
				query.FuncSink(func(ids []int, p []graph.VertexID) {
					part.Emit(ids, p)
					cancel()
				}))
			cancel()
			if err != nil && !errors.Is(err, context.Canceled) {
				t.Fatalf("%s cancelled: err = %v", label, err)
			}
			for i := range qs {
				checkSubset(t, label+" cancelled", i, wantSet[i], part.Paths[i])
			}
		}

		// 4. KSP baselines on the first query: full equality in
		// canonical order; limited = canonical prefix.
		q0 := qs[0]
		q0.ID = 0
		for _, base := range []struct {
			name string
			run  func(ctrl *query.Control, emit func([]graph.VertexID)) bool
		}{
			{"DkSP", func(ctrl *query.Control, emit func([]graph.VertexID)) bool {
				return ksp.DkSP(g, q0, nil, ctrl, emit)
			}},
			{"OnePass", func(ctrl *query.Control, emit func([]graph.VertexID)) bool {
				return ksp.OnePass(g, gr, q0, nil, ctrl, emit)
			}},
		} {
			var got []string
			if done := base.run(nil, func(p []graph.VertexID) {
				got = append(got, fmt.Sprint(p))
			}); !done {
				t.Fatalf("%s: incomplete without budget", base.name)
			}
			// Both baselines emit in (hops, lex) order, the oracle's
			// canonical order — compare listings directly.
			if !slices.Equal(ordered[0], got) {
				t.Fatalf("%s: %v != oracle %v", base.name, got, ordered[0])
			}
			if limit > 0 {
				ctrl := query.NewControl(context.Background(), noDeadline, limit, 1)
				var lim []string
				if done := base.run(ctrl, func(p []graph.VertexID) {
					lim = append(lim, fmt.Sprint(p))
				}); !done {
					t.Fatalf("%s limited: reported incomplete", base.name)
				}
				wantLen := int64(len(ordered[0]))
				if limit < wantLen {
					wantLen = limit
				}
				if int64(len(lim)) != wantLen || !slices.Equal(ordered[0][:wantLen], lim) {
					t.Fatalf("%s limited: %v != canonical prefix %v", base.name, lim, ordered[0][:wantLen])
				}
			}
		}
	})
}
