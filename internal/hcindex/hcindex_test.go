package hcindex

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/msbfs"
	"repro/internal/query"
	"repro/internal/testgraphs"
)

func paperBatch(t *testing.T) (*graph.Graph, *graph.Graph, []query.Query) {
	t.Helper()
	g := testgraphs.Paper()
	gr := g.Reverse()
	var qs []query.Query
	for _, spec := range testgraphs.PaperQueries() {
		qs = append(qs, query.Query{S: spec[0], T: spec[1], K: uint8(spec[2])})
	}
	qs, err := query.Batch(g, qs)
	if err != nil {
		t.Fatalf("Batch: %v", err)
	}
	return g, gr, qs
}

func TestBuildMatchesSingles(t *testing.T) {
	g, gr, qs := paperBatch(t)
	idx := Build(g, gr, qs)
	for i, q := range qs {
		fwd := msbfs.Single(g, q.S, q.K)
		bwd := msbfs.Single(gr, q.T, q.K)
		for v := 0; v < g.NumVertices(); v++ {
			if idx.DistMapFor(i, Forward).Dist(graph.VertexID(v)) != fwd.Dist(graph.VertexID(v)) {
				t.Fatalf("q%d forward dist(v%d) mismatch", i, v)
			}
			if idx.DistMapFor(i, Backward).Dist(graph.VertexID(v)) != bwd.Dist(graph.VertexID(v)) {
				t.Fatalf("q%d backward dist(v%d) mismatch", i, v)
			}
		}
		if idx.DistMapFor(i, Forward).NumVisited() != fwd.NumVisited() || idx.DistMapFor(i, Backward).NumVisited() != bwd.NumVisited() {
			t.Fatalf("q%d Γ sizes mismatch", i)
		}
	}
}

func TestPaperFig2Backward(t *testing.T) {
	g, gr, qs := paperBatch(t)
	idx := Build(g, gr, qs)
	// q3(v4,v14,4): the Fig 2(b) index entries.
	bwd := idx.DistMapFor(3, Backward)
	want := map[graph.VertexID]uint8{6: 1, 3: 2, 15: 2, 9: 3, 4: 4, 14: 0}
	for v, d := range want {
		if got := bwd.Dist(v); got != d {
			t.Errorf("dist(v%d, t of q3) = %d, want %d", v, got, d)
		}
	}
	if got := bwd.Dist(8); got != Unreachable {
		t.Errorf("dist(v8, t of q3) = %d, want Unreachable", got)
	}
}

func TestGammaCardinalitiesExample41(t *testing.T) {
	// Example 4.1: |Γ(q3)| = 9, |Γ(q4)| = 8 (the paper lists the sets).
	g, gr, qs := paperBatch(t)
	idx := Build(g, gr, qs)
	if gamma := idx.DistMapFor(3, Forward).Visited(); len(gamma) != 9 {
		t.Errorf("|Γ(q3)| = %d, want 9 (%v)", len(gamma), gamma)
	}
	if gamma := idx.DistMapFor(4, Forward).Visited(); len(gamma) != 8 {
		t.Errorf("|Γ(q4)| = %d, want 8 (%v)", len(gamma), gamma)
	}
}

func TestDedupSharesTraversals(t *testing.T) {
	g := testgraphs.Paper()
	gr := g.Reverse()
	qs, err := query.Batch(g, []query.Query{
		{S: 0, T: 11, K: 5},
		{S: 0, T: 13, K: 5}, // same source, same cap: one forward BFS
		{S: 0, T: 11, K: 3}, // same source, smaller cap: separate
		{S: 2, T: 11, K: 5}, // same target+cap as q0: one backward BFS
	})
	if err != nil {
		t.Fatal(err)
	}
	idx := Build(g, gr, qs)
	// Dedup is observable through pointer identity of the DistMaps.
	if idx.DistMapFor(0, Forward) != idx.DistMapFor(1, Forward) {
		t.Error("identical (source, cap) pairs should share a DistMap")
	}
	if idx.DistMapFor(0, Forward) == idx.DistMapFor(2, Forward) {
		t.Error("different caps must not share a DistMap")
	}
	if idx.DistMapFor(0, Backward) != idx.DistMapFor(3, Backward) {
		t.Error("identical (target, cap) pairs should share a DistMap")
	}
}

func TestReachable(t *testing.T) {
	g, gr, qs := paperBatch(t)
	idx := Build(g, gr, qs)
	for i, q := range qs {
		if !idx.Reachable(i, q) {
			t.Errorf("%s should be reachable", q)
		}
	}
	qs2, _ := query.Batch(g, []query.Query{{S: 11, T: 0, K: 7}})
	idx2 := Build(g, gr, qs2)
	if idx2.Reachable(0, qs2[0]) {
		t.Error("v11 cannot reach v0")
	}
}

// levelSizes counts dm's visited vertices at each distance 0..Cap.
func levelSizes(dm *msbfs.DistMap) []int {
	sizes := make([]int, int(dm.Cap)+1)
	for _, v := range dm.Visited() {
		sizes[dm.Dist(v)]++
	}
	return sizes
}

func TestLevelSizes(t *testing.T) {
	g, gr, qs := paperBatch(t)
	idx := Build(g, gr, qs)
	// q4(v9,v14,3): forward levels from v9: {v9} {3,15,8} {6} {11,13,14}.
	sizes := levelSizes(idx.DistMapFor(4, Forward))
	want := []int{1, 3, 1, 3}
	if len(sizes) != len(want) {
		t.Fatalf("level sizes len=%d want %d", len(sizes), len(want))
	}
	for d, w := range want {
		if sizes[d] != w {
			t.Errorf("level %d size %d, want %d", d, sizes[d], w)
		}
	}
	// backward: {14} {6} {3,15} {9}
	sizes = levelSizes(idx.DistMapFor(4, Backward))
	want = []int{1, 1, 2, 1}
	for d, w := range want {
		if sizes[d] != w {
			t.Errorf("bwd level %d size %d, want %d", d, sizes[d], w)
		}
	}
}

func TestDirectionString(t *testing.T) {
	if Forward.String() != "forward" || Backward.String() != "backward" {
		t.Fatal("Direction.String wrong")
	}
}

func TestQueryValidate(t *testing.T) {
	g := testgraphs.Paper()
	cases := []struct {
		q  query.Query
		ok bool
	}{
		{query.Query{S: 0, T: 11, K: 5}, true},
		{query.Query{S: 0, T: 0, K: 5}, false},  // s == t
		{query.Query{S: 99, T: 1, K: 5}, false}, // out of range
		{query.Query{S: 0, T: 99, K: 5}, false},
		{query.Query{S: 0, T: 1, K: 0}, false}, // k == 0
	}
	for i, c := range cases {
		err := c.q.Validate(g)
		if (err == nil) != c.ok {
			t.Errorf("case %d: Validate = %v, want ok=%v", i, err, c.ok)
		}
	}
}
