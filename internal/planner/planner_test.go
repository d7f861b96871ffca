package planner

import (
	"sync"
	"testing"

	"repro/internal/batchenum"
	"repro/internal/graph"
	"repro/internal/hcindex"
	"repro/internal/query"
	"repro/internal/testgraphs"
)

// fixture builds a graph, its index, and a validated batch.
func fixture(t *testing.T, g *graph.Graph, raw []query.Query) (*graph.Graph, *graph.Graph, *hcindex.Index, []query.Query) {
	t.Helper()
	gr := g.Reverse()
	qs, err := query.Batch(g, raw)
	if err != nil {
		t.Fatal(err)
	}
	return g, gr, hcindex.Build(g, gr, qs), qs
}

// TestSingletonGroupGoesSingle: a one-query group can share nothing, so
// the planner must never pay detection for it.
func TestSingletonGroupGoesSingle(t *testing.T) {
	g, gr, idx, qs := fixture(t, testgraphs.Paper(), []query.Query{{S: 0, T: 11, K: 5}})
	m := New(Options{})
	if e := m.PlanGroup(g, gr, idx, qs, []int{0}); e != batchenum.GroupSingle {
		t.Fatalf("singleton group planned as %v, want single", e)
	}
	d := m.Decisions()
	if d.Single != 1 || d.Shared != 0 {
		t.Fatalf("decisions = %+v, want exactly one single", d)
	}
}

// TestOverlapSteersDecision: near-identical queries (the paper's
// µ(q3,q4)=1 pair) must share once the group carries real work, while a
// group of disjoint-reach queries must not. The paper graph is too
// small to clear the cheap-group floor, so work thresholds are bypassed
// with a dense stand-in for the high-overlap side.
func TestOverlapSteersDecision(t *testing.T) {
	// High overlap and enough mass: identical endpoints on a complete
	// DAG — every query's reach is the whole suffix.
	dag := testgraphs.CompleteDAG(24)
	g, gr, idx, qs := fixture(t, dag, []query.Query{
		{S: 0, T: 23, K: 5}, {S: 0, T: 23, K: 5}, {S: 1, T: 23, K: 5},
	})
	m := New(Options{})
	if e := m.PlanGroup(g, gr, idx, qs, []int{0, 1, 2}); e != batchenum.GroupShared {
		t.Fatalf("high-overlap group planned as %v, want shared", e)
	}

	// Disjoint reach sets: two far-apart line segments.
	line := testgraphs.Line(40)
	g2, gr2, idx2, qs2 := fixture(t, line, []query.Query{
		{S: 0, T: 5, K: 5}, {S: 30, T: 35, K: 5},
	})
	if e := m.PlanGroup(g2, gr2, idx2, qs2, []int{0, 1}); e != batchenum.GroupSingle {
		t.Fatalf("disjoint group planned as %v, want single", e)
	}
}

// TestFeedbackShiftsThreshold: when shared groups are observed far
// costlier per query than single ones, a borderline group flips to
// single — and the clamp keeps the shift bounded.
func TestFeedbackShiftsThreshold(t *testing.T) {
	// Two fan-out sources whose target fans overlap by half: o1 = 0.5,
	// o2 = 1 (shared target), so µ = 2/3 — between the unbiased
	// threshold (0.4) and the fully biased one (0.8).
	b := graph.NewBuilder(51)
	for v := 10; v < 30; v++ {
		b.AddEdge(0, graph.VertexID(v))
	}
	for v := 20; v < 40; v++ {
		b.AddEdge(1, graph.VertexID(v))
	}
	for v := 10; v < 40; v++ {
		b.AddEdge(graph.VertexID(v), 50)
	}
	g, gr, idx, qs := fixture(t, b.Build(), []query.Query{
		{S: 0, T: 50, K: 2}, {S: 1, T: 50, K: 2},
	})
	group := []int{0, 1}

	unbiased := New(Options{MinSimilarity: 0.4})
	if e := unbiased.PlanGroup(g, gr, idx, qs, group); e != batchenum.GroupShared {
		t.Skipf("borderline group planned as %v before feedback; fixture drifted", e)
	}

	biased := New(Options{MinSimilarity: 0.4})
	for i := 0; i < 20; i++ {
		biased.ObserveGroup(batchenum.GroupSingle, 1, 1_000)
		biased.ObserveGroup(batchenum.GroupShared, 1, 100_000)
	}
	if e := biased.PlanGroup(g, gr, idx, qs, group); e != batchenum.GroupSingle {
		t.Fatalf("after adverse shared feedback group planned as %v, want single", e)
	}
	d := biased.Decisions()
	if d.SingleNsPerQuery <= 0 || d.SharedNsPerQuery <= 0 {
		t.Fatalf("feedback EWMAs not recorded: %+v", d)
	}
}

// TestDeterministicGivenSameState: identical inputs and feedback state
// produce identical decisions — the property the scenario differential
// harness leans on.
func TestDeterministicGivenSameState(t *testing.T) {
	g, gr, idx, qs := fixture(t, testgraphs.Paper(), []query.Query{
		{S: 0, T: 11, K: 5}, {S: 2, T: 13, K: 5}, {S: 4, T: 14, K: 4},
	})
	group := []int{0, 1, 2}
	a, b := New(Options{}), New(Options{})
	for i := 0; i < 5; i++ {
		if ea, eb := a.PlanGroup(g, gr, idx, qs, group), b.PlanGroup(g, gr, idx, qs, group); ea != eb {
			t.Fatalf("iteration %d: decisions diverge (%v vs %v)", i, ea, eb)
		}
	}
}

// TestConcurrentPlanAndObserve exercises the model's locking under the
// race detector: many goroutines planning and observing at once.
func TestConcurrentPlanAndObserve(t *testing.T) {
	g, gr, idx, qs := fixture(t, testgraphs.Paper(), []query.Query{
		{S: 0, T: 11, K: 5}, {S: 2, T: 13, K: 5},
	})
	m := New(Options{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				e := m.PlanGroup(g, gr, idx, qs, []int{0, 1})
				m.ObserveGroup(e, 2, int64(1000+i))
				m.Decisions()
			}
		}(w)
	}
	wg.Wait()
	d := m.Decisions()
	if d.Single+d.Shared != 8*200 {
		t.Fatalf("decision counters lost updates: %+v", d)
	}
}
