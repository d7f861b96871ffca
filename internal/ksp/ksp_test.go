package ksp

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/internal/query"
	"repro/internal/testgraphs"
)

func run(t *testing.T, name string, g, gr *graph.Graph, q query.Query) [][]graph.VertexID {
	t.Helper()
	var out [][]graph.VertexID
	collect := func(p []graph.VertexID) {
		cp := make([]graph.VertexID, len(p))
		copy(cp, p)
		out = append(out, cp)
	}
	var ok bool
	switch name {
	case "DkSP":
		ok = DkSP(g, q, nil, nil, collect)
	case "OnePass":
		ok = OnePass(g, gr, q, nil, nil, collect)
	default:
		t.Fatalf("unknown baseline %s", name)
	}
	if !ok {
		t.Fatalf("%s exceeded an unlimited budget", name)
	}
	return out
}

func setOf(paths [][]graph.VertexID) []string {
	keys := make([]string, len(paths))
	for i, p := range paths {
		keys[i] = fmt.Sprint(p)
	}
	sort.Strings(keys)
	return keys
}

// TestBaselinesMatchBruteForce: both adapted KSP algorithms enumerate
// exactly the HC-s-t path set on the paper graph and random graphs.
func TestBaselinesMatchBruteForce(t *testing.T) {
	type tc struct {
		g *graph.Graph
		q query.Query
	}
	cases := []tc{
		{testgraphs.Paper(), query.Query{S: 0, T: 11, K: 5}},
		{testgraphs.Paper(), query.Query{S: 4, T: 14, K: 4}},
		{testgraphs.Paper(), query.Query{S: 2, T: 13, K: 5}},
		{testgraphs.Diamond(), query.Query{S: 0, T: 3, K: 3}},
		{testgraphs.CompleteDAG(7), query.Query{S: 0, T: 6, K: 4}},
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		g := graph.GenRandom(8+rng.Intn(18), 2.0+rng.Float64()*1.5, int64(trial))
		s := graph.VertexID(rng.Intn(g.NumVertices()))
		tt := graph.VertexID(rng.Intn(g.NumVertices()))
		if s == tt {
			continue
		}
		cases = append(cases, tc{g, query.Query{S: s, T: tt, K: uint8(1 + rng.Intn(5))}})
	}
	for i, c := range cases {
		gr := c.g.Reverse()
		var want [][]graph.VertexID
		oracle.Enumerate(c.g, c.q, func(p []graph.VertexID) {
			cp := make([]graph.VertexID, len(p))
			copy(cp, p)
			want = append(want, cp)
		})
		wantSet := setOf(want)
		for _, name := range []string{"DkSP", "OnePass"} {
			got := setOf(run(t, name, c.g, gr, c.q))
			if len(got) != len(wantSet) {
				t.Errorf("case %d %s %v: %d paths, want %d", i, name, c.q, len(got), len(wantSet))
				continue
			}
			for j := range wantSet {
				if got[j] != wantSet[j] {
					t.Errorf("case %d %s: path %d = %s, want %s", i, name, j, got[j], wantSet[j])
					break
				}
			}
		}
	}
}

// TestLengthOrder: both baselines emit paths in non-decreasing hop order
// (the KSP contract the adaptation preserves).
func TestLengthOrder(t *testing.T) {
	g := testgraphs.Paper()
	gr := g.Reverse()
	q := query.Query{S: 0, T: 11, K: 6}
	for _, name := range []string{"DkSP", "OnePass"} {
		paths := run(t, name, g, gr, q)
		for i := 1; i < len(paths); i++ {
			if len(paths[i]) < len(paths[i-1]) {
				t.Errorf("%s: path %d shorter than its predecessor", name, i)
			}
		}
	}
}

// TestUnreachable: no output, clean return.
func TestUnreachable(t *testing.T) {
	g := testgraphs.Line(4)
	gr := g.Reverse()
	q := query.Query{S: 3, T: 0, K: 5}
	for _, name := range []string{"DkSP", "OnePass"} {
		if got := run(t, name, g, gr, q); len(got) != 0 {
			t.Errorf("%s: unreachable query returned %d paths", name, len(got))
		}
	}
}

// TestHopCutoff: paths longer than k are excluded even when shorter ones
// exist to seed the deviation process.
func TestHopCutoff(t *testing.T) {
	// Diamond: 0→3 direct (1 hop) plus two 2-hop paths.
	g := testgraphs.Diamond()
	gr := g.Reverse()
	for _, name := range []string{"DkSP", "OnePass"} {
		if got := run(t, name, g, gr, query.Query{S: 0, T: 3, K: 1}); len(got) != 1 {
			t.Errorf("%s: k=1 returned %d paths, want 1", name, len(got))
		}
		if got := run(t, name, g, gr, query.Query{S: 0, T: 3, K: 2}); len(got) != 3 {
			t.Errorf("%s: k=2 returned %d paths, want 3", name, len(got))
		}
	}
}

// TestBudgetExhaustion: a tiny budget cuts the run short and reports it.
func TestBudgetExhaustion(t *testing.T) {
	g := testgraphs.CompleteDAG(10)
	gr := g.Reverse()
	q := query.Query{S: 0, T: 9, K: 8}
	b := &Budget{MaxExpansions: 5}
	if OnePass(g, gr, q, b, nil, func([]graph.VertexID) {}) {
		t.Error("OnePass completed under a 5-expansion budget")
	}
	if !b.Exceeded() {
		t.Error("budget not marked exceeded")
	}
	b2 := &Budget{MaxExpansions: 5}
	if DkSP(g, q, b2, nil, func([]graph.VertexID) {}) {
		t.Error("DkSP completed under a 5-expansion budget")
	}
}

// TestNilBudgetUnlimited: a nil budget never trips.
func TestNilBudgetUnlimited(t *testing.T) {
	var b *Budget
	if !b.spend(1 << 40) {
		t.Error("nil budget must be unlimited")
	}
	if b.Exceeded() {
		t.Error("nil budget cannot be exceeded")
	}
}

// TestSortPaths orders by hops then lexicographically.
func TestSortPaths(t *testing.T) {
	paths := [][]graph.VertexID{{0, 2, 3}, {0, 1}, {0, 1, 3}}
	SortPaths(paths)
	if fmt.Sprint(paths) != "[[0 1] [0 1 3] [0 2 3]]" {
		t.Errorf("SortPaths = %v", paths)
	}
}
