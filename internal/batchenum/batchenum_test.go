package batchenum

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/internal/query"
	"repro/internal/testgraphs"
)

// resultSet canonicalises per-query results: sorted path strings.
type resultSet map[int][]string

func pathKey(p []graph.VertexID) string {
	return fmt.Sprint(p)
}

func collect(t *testing.T, g, gr *graph.Graph, qs []query.Query, opts Options) (resultSet, *Stats) {
	t.Helper()
	rs := resultSet{}
	st, err := Run(g, gr, qs, opts, nil, query.FuncSink(func(ids []int, p []graph.VertexID) {
		for _, id := range ids {
			rs[id] = append(rs[id], pathKey(p))
		}
	}))
	if err != nil {
		t.Fatalf("%v: %v", opts.Algorithm, err)
	}
	for id := range rs {
		sort.Strings(rs[id])
	}
	return rs, st
}

func bruteSet(g *graph.Graph, qs []query.Query) resultSet {
	rs := resultSet{}
	for i, q := range qs {
		q.ID = i
		oracle.Enumerate(g, q, func(p []graph.VertexID) {
			rs[i] = append(rs[i], pathKey(p))
		})
		sort.Strings(rs[i])
	}
	return rs
}

func diffSets(t *testing.T, label string, want, got resultSet, nq int) {
	t.Helper()
	for i := 0; i < nq; i++ {
		w, g := want[i], got[i]
		if len(w) != len(g) {
			t.Errorf("%s: query %d: %d paths, want %d", label, i, len(g), len(w))
			continue
		}
		for j := range w {
			if w[j] != g[j] {
				t.Errorf("%s: query %d: path %d = %s, want %s", label, i, j, g[j], w[j])
				break
			}
		}
	}
}

var allAlgorithms = []Algorithm{Basic, BasicPlus, Batch, BatchPlus}

// paperBatch returns the batch Q of Fig. 1.
func paperBatch() []query.Query {
	var qs []query.Query
	for _, d := range testgraphs.PaperQueries() {
		qs = append(qs, query.Query{S: d[0], T: d[1], K: uint8(d[2])})
	}
	return qs
}

// TestPaperExampleAllEngines checks every engine against the path sets
// the paper states for Fig. 1 (3, 3, 1, 2, 2 paths for q0..q4) and
// against BruteForce.
func TestPaperExampleAllEngines(t *testing.T) {
	g := testgraphs.Paper()
	gr := g.Reverse()
	qs := paperBatch()
	want := bruteSet(g, qs)
	wantCounts := []int{3, 3, 1, 2, 2}
	for i, w := range wantCounts {
		if len(want[i]) != w {
			t.Fatalf("brute force disagrees with the paper: q%d has %d paths, want %d", i, len(want[i]), w)
		}
	}
	for _, alg := range allAlgorithms {
		got, _ := collect(t, g, gr, qs, Options{Algorithm: alg})
		diffSets(t, alg.String(), want, got, len(qs))
	}
}

// TestBatchEnumDetectsPaperSharing asserts the engine actually shares on
// the paper batch: shared nodes detected and splices performed.
func TestBatchEnumDetectsPaperSharing(t *testing.T) {
	g := testgraphs.Paper()
	gr := g.Reverse()
	_, st := collect(t, g, gr, paperBatch(), Options{Algorithm: Batch, Gamma: 0.8})
	if st.NumGroups != 2 {
		t.Errorf("NumGroups = %d, want 2 ({q0,q1,q2} and {q3,q4}, Example 4.1)", st.NumGroups)
	}
	if st.SharedNodes == 0 {
		t.Error("no dominating HC-s path queries detected on the paper batch")
	}
	if st.SplicedPaths == 0 {
		t.Error("no cached results spliced on the paper batch")
	}
}

// TestEnginesEquivalentRandom is the central property test: on random
// graphs with random batches, every engine and every γ produces exactly
// the brute-force result set for every query.
func TestEnginesEquivalentRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	gammas := []float64{0.1, 0.5, 0.9, 1.0}
	for trial := 0; trial < 40; trial++ {
		n := 10 + rng.Intn(25)
		davg := 1.5 + rng.Float64()*2.5
		g := graph.GenRandom(n, davg, int64(1000+trial))
		gr := g.Reverse()
		numQ := 1 + rng.Intn(8)
		qs := make([]query.Query, 0, numQ)
		for len(qs) < numQ {
			s := graph.VertexID(rng.Intn(n))
			tt := graph.VertexID(rng.Intn(n))
			if s == tt {
				continue
			}
			qs = append(qs, query.Query{S: s, T: tt, K: uint8(1 + rng.Intn(6))})
		}
		want := bruteSet(g, qs)
		for _, alg := range allAlgorithms {
			opts := Options{Algorithm: alg, Gamma: gammas[trial%len(gammas)]}
			got, _ := collect(t, g, gr, qs, opts)
			diffSets(t, fmt.Sprintf("trial %d %v γ=%.1f", trial, alg, opts.Gamma), want, got, len(qs))
			if t.Failed() {
				t.Fatalf("stopping at first failing trial (n=%d davg=%.1f qs=%v)", n, davg, qs)
			}
		}
	}
}

// TestEnginesEquivalentPowerLaw repeats the equivalence property on
// skewed-degree graphs, where sharing and pruning behave differently.
func TestEnginesEquivalentPowerLaw(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 15; trial++ {
		g := graph.GenPowerLaw(30+rng.Intn(40), 2, int64(trial))
		gr := g.Reverse()
		var qs []query.Query
		for len(qs) < 6 {
			s := graph.VertexID(rng.Intn(g.NumVertices()))
			tt := graph.VertexID(rng.Intn(g.NumVertices()))
			if s == tt {
				continue
			}
			qs = append(qs, query.Query{S: s, T: tt, K: uint8(2 + rng.Intn(4))})
		}
		want := bruteSet(g, qs)
		for _, alg := range []Algorithm{Batch, BatchPlus} {
			got, _ := collect(t, g, gr, qs, Options{Algorithm: alg})
			diffSets(t, fmt.Sprintf("powerlaw trial %d %v", trial, alg), want, got, len(qs))
			if t.Failed() {
				t.FailNow()
			}
		}
	}
}

// TestDuplicateQueries: identical queries in one batch each get their
// own complete result set.
func TestDuplicateQueries(t *testing.T) {
	g := testgraphs.Paper()
	gr := g.Reverse()
	qs := []query.Query{
		{S: 0, T: 11, K: 5},
		{S: 0, T: 11, K: 5},
		{S: 0, T: 11, K: 5},
	}
	for _, alg := range allAlgorithms {
		got, _ := collect(t, g, gr, qs, Options{Algorithm: alg})
		for i := 0; i < 3; i++ {
			if len(got[i]) != 3 {
				t.Errorf("%v: duplicate query %d returned %d paths, want 3", alg, i, len(got[i]))
			}
		}
	}
}

// TestSameSourceDifferentK: the same-vertex different-budget sharing of
// Fig. 5(b) must truncate, not leak longer paths into the smaller query.
func TestSameSourceDifferentK(t *testing.T) {
	g := testgraphs.Paper()
	gr := g.Reverse()
	qs := []query.Query{
		{S: 0, T: 11, K: 5},
		{S: 0, T: 11, K: 3}, // no results: shortest v0→v11 path has 5 hops
		{S: 4, T: 14, K: 4},
		{S: 4, T: 14, K: 2}, // shorter budget than q2's
	}
	want := bruteSet(g, qs)
	for _, alg := range allAlgorithms {
		got, _ := collect(t, g, gr, qs, Options{Algorithm: alg, Gamma: 0.1})
		diffSets(t, alg.String(), want, got, len(qs))
	}
}

// TestUnreachableQuery returns an empty set without touching the sink.
func TestUnreachableQuery(t *testing.T) {
	g := testgraphs.Line(5) // 0→1→2→3→4
	gr := g.Reverse()
	qs := []query.Query{
		{S: 4, T: 0, K: 7}, // against the line's direction
		{S: 0, T: 4, K: 2}, // too few hops
		{S: 0, T: 4, K: 4}, // exactly enough: one path
	}
	for _, alg := range allAlgorithms {
		got, _ := collect(t, g, gr, qs, Options{Algorithm: alg})
		if len(got[0]) != 0 || len(got[1]) != 0 {
			t.Errorf("%v: unreachable queries returned %d and %d paths", alg, len(got[0]), len(got[1]))
		}
		if len(got[2]) != 1 {
			t.Errorf("%v: line query returned %d paths, want 1", alg, len(got[2]))
		}
	}
}

// TestHopConstraintOne exercises the k=1 special case (Alg. 1's line 11
// remark): only the direct edge, if present.
func TestHopConstraintOne(t *testing.T) {
	g := testgraphs.Diamond()
	gr := g.Reverse()
	qs := []query.Query{
		{S: 0, T: 3, K: 1}, // direct edge 0→3 exists
		{S: 1, T: 2, K: 1}, // no direct edge
	}
	for _, alg := range allAlgorithms {
		got, _ := collect(t, g, gr, qs, Options{Algorithm: alg})
		if len(got[0]) != 1 || len(got[1]) != 0 {
			t.Errorf("%v: k=1 results %d/%d, want 1/0", alg, len(got[0]), len(got[1]))
		}
	}
}

// TestInvalidQueriesRejected: validation errors propagate, inline and
// fanned alike.
func TestInvalidQueriesRejected(t *testing.T) {
	g := testgraphs.Diamond()
	gr := g.Reverse()
	bad := [][]query.Query{
		{{S: 0, T: 0, K: 3}},  // s == t
		{{S: 0, T: 99, K: 3}}, // t out of range
		{{S: 99, T: 0, K: 3}}, // s out of range
		{{S: 0, T: 3, K: 0}},  // k == 0
	}
	for i, qs := range bad {
		for _, workers := range []int{1, 2} {
			if _, err := Run(g, gr, qs, Options{Workers: workers}, nil, query.NewCountSink(len(qs))); err == nil {
				t.Errorf("case %d workers=%d: invalid batch accepted", i, workers)
			}
		}
	}
}

// TestEmptyBatch is a no-op returning zeroed stats, inline and fanned
// alike.
func TestEmptyBatch(t *testing.T) {
	g := testgraphs.Diamond()
	gr := g.Reverse()
	for _, workers := range []int{1, 2} {
		st, err := Run(g, gr, nil, Options{Algorithm: BatchPlus, Workers: workers}, nil, query.NewCountSink(0))
		if err != nil || st.NumQueries != 0 {
			t.Fatalf("empty batch workers=%d: st=%+v err=%v", workers, st, err)
		}
	}
}

// TestGammaSweepEquivalence: γ changes grouping, never results.
func TestGammaSweepEquivalence(t *testing.T) {
	g := graph.GenCommunity(60, 3, 3, 0.9, 5)
	gr := g.Reverse()
	rng := rand.New(rand.NewSource(11))
	var qs []query.Query
	for len(qs) < 10 {
		s := graph.VertexID(rng.Intn(60))
		tt := graph.VertexID(rng.Intn(60))
		if s == tt {
			continue
		}
		qs = append(qs, query.Query{S: s, T: tt, K: uint8(3 + rng.Intn(3))})
	}
	want := bruteSet(g, qs)
	for _, gamma := range []float64{0.05, 0.2, 0.4, 0.6, 0.8, 0.99} {
		got, _ := collect(t, g, gr, qs, Options{Algorithm: BatchPlus, Gamma: gamma})
		diffSets(t, fmt.Sprintf("γ=%.2f", gamma), want, got, len(qs))
	}
}

// TestCountSinkTotals: counting matches collecting.
func TestCountSinkTotals(t *testing.T) {
	g := testgraphs.Paper()
	gr := g.Reverse()
	qs := paperBatch()
	cs := query.NewCountSink(len(qs))
	if _, err := Run(g, gr, qs, Options{Algorithm: BatchPlus}, nil, cs); err != nil {
		t.Fatal(err)
	}
	want := []int64{3, 3, 1, 2, 2}
	for i, w := range want {
		if cs.Counts()[i] != w {
			t.Errorf("query %d: count %d, want %d", i, cs.Counts()[i], w)
		}
	}
	if cs.Total() != 11 {
		t.Errorf("total = %d, want 11", cs.Total())
	}
}

// TestStatsPopulated: the phase breakdown and sharing counters are
// filled in for the batch engines.
func TestStatsPopulated(t *testing.T) {
	g := testgraphs.Paper()
	gr := g.Reverse()
	_, st := collect(t, g, gr, paperBatch(), Options{Algorithm: Batch, Gamma: 0.8})
	if st.Phases.Total() <= 0 {
		t.Error("phase breakdown empty")
	}
	if st.CachedPaths == 0 {
		t.Error("no paths materialised into the cache")
	}
	if st.NumQueries != 5 {
		t.Errorf("NumQueries = %d, want 5", st.NumQueries)
	}
}

// TestAlgorithmString covers the Stringer.
func TestAlgorithmString(t *testing.T) {
	want := map[Algorithm]string{
		Basic: "BasicEnum", BasicPlus: "BasicEnum+",
		Batch: "BatchEnum", BatchPlus: "BatchEnum+",
		Algorithm(9): "Algorithm(9)",
	}
	for a, w := range want {
		if a.String() != w {
			t.Errorf("%d.String() = %s, want %s", int(a), a.String(), w)
		}
	}
	if !BatchPlus.Optimized() || Basic.Optimized() {
		t.Error("Optimized flags wrong")
	}
	if !Batch.Shared() || BasicPlus.Shared() {
		t.Error("Shared flags wrong")
	}
}

// TestLongChainBatch exercises deep budgets: k up to 8 on a cycle where
// exactly one simple path exists per (s, t).
func TestLongChainBatch(t *testing.T) {
	g := testgraphs.Cycle(9)
	gr := g.Reverse()
	var qs []query.Query
	for d := 1; d <= 8; d++ {
		qs = append(qs, query.Query{S: 0, T: graph.VertexID(d), K: 8})
	}
	for _, alg := range allAlgorithms {
		got, _ := collect(t, g, gr, qs, Options{Algorithm: alg, Gamma: 0.3})
		for i := range qs {
			if len(got[i]) != 1 {
				t.Errorf("%v: cycle query %d returned %d paths, want 1", alg, i, len(got[i]))
			}
		}
	}
}

// TestCompleteDAGCounts validates against the closed-form path counts of
// the complete DAG: paths 0→n-1 with ≤ k hops = Σ_{h=1..k} C(n-2, h-1).
func TestCompleteDAGCounts(t *testing.T) {
	n := 8
	g := testgraphs.CompleteDAG(n)
	gr := g.Reverse()
	binom := func(n, k int) int64 {
		if k < 0 || k > n {
			return 0
		}
		r := int64(1)
		for i := 0; i < k; i++ {
			r = r * int64(n-i) / int64(i+1)
		}
		return r
	}
	var qs []query.Query
	for k := 1; k <= n-1; k++ {
		qs = append(qs, query.Query{S: 0, T: graph.VertexID(n - 1), K: uint8(k)})
	}
	for _, alg := range allAlgorithms {
		cs := query.NewCountSink(len(qs))
		if _, err := Run(g, gr, qs, Options{Algorithm: alg}, nil, cs); err != nil {
			t.Fatal(err)
		}
		for i, q := range qs {
			var want int64
			for h := 1; h <= int(q.K); h++ {
				want += binom(n-2, h-1)
			}
			if cs.Counts()[i] != want {
				t.Errorf("%v: k=%d count %d, want %d", alg, q.K, cs.Counts()[i], want)
			}
		}
	}
}

// TestQuickEquivalence drives the engine equivalence property through
// testing/quick: arbitrary (seed, size, batch shape) tuples must yield
// brute-force-identical result sets for the headline engine.
func TestQuickEquivalence(t *testing.T) {
	prop := func(seed int64, nRaw, qRaw uint8, gammaRaw uint8) bool {
		n := 8 + int(nRaw%24)
		numQ := 1 + int(qRaw%6)
		gamma := 0.05 + float64(gammaRaw%10)/10
		g := graph.GenRandom(n, 2.2, seed)
		gr := g.Reverse()
		rng := rand.New(rand.NewSource(seed + 1))
		var qs []query.Query
		for len(qs) < numQ {
			s := graph.VertexID(rng.Intn(n))
			tt := graph.VertexID(rng.Intn(n))
			if s == tt {
				continue
			}
			qs = append(qs, query.Query{S: s, T: tt, K: uint8(1 + rng.Intn(5))})
		}
		want := bruteSet(g, qs)
		got := resultSet{}
		_, err := Run(g, gr, qs, Options{Algorithm: BatchPlus, Gamma: gamma}, nil,
			query.FuncSink(func(ids []int, p []graph.VertexID) {
				for _, id := range ids {
					got[id] = append(got[id], pathKey(p))
				}
			}))
		if err != nil {
			return false
		}
		for id := range got {
			sort.Strings(got[id])
		}
		for i := range qs {
			if len(want[i]) != len(got[i]) {
				return false
			}
			for j := range want[i] {
				if want[i][j] != got[i][j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestMultiConsumerSharing crafts a batch whose forward halves all pass
// through one hub, so a single dominating HC-s path query serves many
// consumers; asserts results stay exact and the cache is actually hit
// once per consumer arrival.
func TestMultiConsumerSharing(t *testing.T) {
	// Star-of-chains into a hub, then a small DAG behind it: every
	// query is (leaf_i → sink) and shares the hub's continuation.
	b := graphBuilderStar()
	g := b
	gr := g.Reverse()
	var qs []query.Query
	for leaf := graph.VertexID(0); leaf < 6; leaf++ {
		qs = append(qs, query.Query{S: leaf, T: 13, K: 5})
	}
	want := bruteSet(g, qs)
	rs := resultSet{}
	st, err := Run(g, gr, qs, Options{Algorithm: Batch, Gamma: 0.1}, nil,
		query.FuncSink(func(ids []int, p []graph.VertexID) {
			for _, id := range ids {
				rs[id] = append(rs[id], pathKey(p))
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	for id := range rs {
		sort.Strings(rs[id])
	}
	diffSets(t, "star", want, rs, len(qs))
	if st.SharedNodes == 0 {
		t.Error("hub continuation not detected as a dominating HC-s path query")
	}
	if st.SplicedPaths == 0 {
		t.Error("no splices on a hub-shared batch")
	}
}

// graphBuilderStar: leaves 0..5 → hub 6 → {7,8} → {9,10,11} → 12 → 13.
func graphBuilderStar() *graph.Graph {
	var edges []graph.Edge
	for leaf := graph.VertexID(0); leaf < 6; leaf++ {
		edges = append(edges, graph.Edge{Src: leaf, Dst: 6})
	}
	edges = append(edges,
		graph.Edge{Src: 6, Dst: 7}, graph.Edge{Src: 6, Dst: 8},
		graph.Edge{Src: 7, Dst: 9}, graph.Edge{Src: 7, Dst: 10},
		graph.Edge{Src: 8, Dst: 10}, graph.Edge{Src: 8, Dst: 11},
		graph.Edge{Src: 9, Dst: 12}, graph.Edge{Src: 10, Dst: 12}, graph.Edge{Src: 11, Dst: 12},
		graph.Edge{Src: 12, Dst: 13},
	)
	return graph.FromEdges(14, edges)
}
