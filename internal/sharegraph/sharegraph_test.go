package sharegraph

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/msbfs"
	"repro/internal/testgraphs"
)

// fwdHalves builds the forward half queries of the paper's cluster
// C0 = {q0, q1, q2} (Example 4.2): roots v0, v2, v5, budget ⌈5/2⌉ = 3.
func paperC0Forward(t *testing.T) (*graph.Graph, []HalfQuery) {
	t.Helper()
	g := testgraphs.Paper()
	gr := g.Reverse()
	type qdef struct {
		s, tt graph.VertexID
		k     uint8
	}
	defs := []qdef{{0, 11, 5}, {2, 13, 5}, {5, 12, 5}}
	halves := make([]HalfQuery, len(defs))
	for i, d := range defs {
		halves[i] = HalfQuery{
			Root:   d.s,
			Budget: (d.k + 1) / 2,
			K:      d.k,
			Other:  msbfs.Single(gr, d.tt, d.k),
			Query:  i,
		}
	}
	return g, halves
}

// TestDetectPaperForward reproduces Fig. 6: detection on (G, C0) finds
// the dominating HC-s path queries q_{v1,2} and q_{v4,2}, with q_{v1,2}
// consumed by all three queries and q_{v4,2} by q0 and q1.
func TestDetectPaperForward(t *testing.T) {
	g, halves := paperC0Forward(t)
	psi := Detect(g, halves)
	if err := psi.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := psi.NumShared(); got != 2 {
		t.Fatalf("NumShared = %d, want 2 (q_{v1,2} and q_{v4,2})", got)
	}
	consumersOf := func(root graph.VertexID, budget uint8) []NodeID {
		for id := NodeID(0); int(id) < psi.NumNodes(); id++ {
			n := psi.Node(id)
			if !n.IsTerminal() && n.Root == root && n.Budget == budget {
				return psi.Consumers(id)
			}
		}
		t.Fatalf("shared node q_{v%d,%d} not found", root, budget)
		return nil
	}
	if got := consumersOf(1, 2); len(got) != 3 {
		t.Errorf("q_{v1,2} has %d consumers %v, want 3", len(got), got)
	}
	if got := consumersOf(4, 2); len(got) != 2 {
		t.Errorf("q_{v4,2} has %d consumers %v, want 2", len(got), got)
	}
}

// TestDetectPaperBackward checks the Fig. 5(b) scenario on Gr: q0 and q1
// arrive at v12 where q2's half q_{v12,2} is already rooted and reuse it
// directly (the paper derives q_{v12,1} from q_{v12,2}; splicing with a
// length cut-off realises the same sharing), and the two arrivals at v6
// spawn the shared node q_{v6,1}.
func TestDetectPaperBackward(t *testing.T) {
	g := testgraphs.Paper()
	gr := g.Reverse()
	type qdef struct {
		s, tt graph.VertexID
		k     uint8
	}
	defs := []qdef{{0, 11, 5}, {2, 13, 5}, {5, 12, 5}}
	halves := make([]HalfQuery, len(defs))
	for i, d := range defs {
		halves[i] = HalfQuery{
			Root:   d.tt,
			Budget: d.k / 2,
			K:      d.k,
			Other:  msbfs.Single(g, d.s, d.k),
			Query:  i,
		}
	}
	psi := Detect(gr, halves)
	if err := psi.Validate(); err != nil {
		t.Fatal(err)
	}
	// q2's terminal half (node 2, rooted v12) must provide for both q0
	// and q1's halves.
	cons := psi.Consumers(2)
	if len(cons) != 2 {
		t.Fatalf("q_{v12,2} has consumers %v, want the halves of q0 and q1", cons)
	}
	// One shared node: q_{v6,1}.
	if got := psi.NumShared(); got != 1 {
		t.Fatalf("NumShared = %d, want 1 (q_{v6,1})", got)
	}
	shared := psi.Node(NodeID(3))
	if shared.Root != 6 || shared.Budget != 1 {
		t.Errorf("shared node is %s, want q_{v6,1}", shared)
	}
}

// TestDetectSingleQuery yields a trivial Ψ with one terminal.
func TestDetectSingleQuery(t *testing.T) {
	g := testgraphs.Paper()
	gr := g.Reverse()
	halves := []HalfQuery{{Root: 0, Budget: 3, K: 5, Other: msbfs.Single(gr, 11, 5), Query: 0}}
	psi := Detect(g, halves)
	if psi.NumNodes() != 1 || psi.NumEdges() != 0 {
		t.Fatalf("got %d nodes %d edges, want 1/0", psi.NumNodes(), psi.NumEdges())
	}
}

// TestDetectIdenticalHalves groups identical (root, budget) halves under
// one shared node so the computation runs once.
func TestDetectIdenticalHalves(t *testing.T) {
	g := testgraphs.Paper()
	gr := g.Reverse()
	other := msbfs.Single(gr, 11, 5)
	halves := []HalfQuery{
		{Root: 0, Budget: 3, K: 5, Other: other, Query: 0},
		{Root: 0, Budget: 3, K: 5, Other: other, Query: 1},
	}
	psi := Detect(g, halves)
	if err := psi.Validate(); err != nil {
		t.Fatal(err)
	}
	found := false
	for id := NodeID(0); int(id) < psi.NumNodes(); id++ {
		n := psi.Node(id)
		if !n.IsTerminal() && n.Root == 0 && n.Budget == 3 {
			found = true
			if len(psi.Consumers(id)) != 2 {
				t.Errorf("shared root node has consumers %v, want both terminals", psi.Consumers(id))
			}
		}
	}
	if !found {
		t.Fatal("identical halves did not produce a shared node at the common root")
	}
	// Both terminals must splice the shared node at their own root.
	for _, id := range []NodeID{0, 1} {
		if _, ok := psi.SpliceAt(id, 0); !ok {
			t.Errorf("terminal %d lacks a root splice", id)
		}
	}
}

// TestDetectAcyclicRandom asserts that Ψ stays a DAG and validates on
// random graphs and batches (the wouldCycle guard's contract).
func TestDetectAcyclicRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		n := 12 + rng.Intn(30)
		g := graph.GenRandom(n, 2.5, int64(trial))
		gr := g.Reverse()
		numQ := 2 + rng.Intn(6)
		halves := make([]HalfQuery, numQ)
		for i := range halves {
			s := graph.VertexID(rng.Intn(n))
			tt := graph.VertexID(rng.Intn(n))
			k := uint8(2 + rng.Intn(5))
			halves[i] = HalfQuery{
				Root:   s,
				Budget: (k + 1) / 2,
				K:      k,
				Other:  msbfs.Single(gr, tt, k),
				Query:  i,
			}
		}
		psi := Detect(g, halves)
		if err := psi.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got := len(psi.TopoOrder()); got != psi.NumNodes() {
			t.Fatalf("trial %d: topo order covers %d of %d nodes", trial, got, psi.NumNodes())
		}
	}
}

// TestConstraintPropagation checks that terminals keep their own exact
// Lemma 3.1 constraint and that shared nodes receive positive slacks.
func TestConstraintPropagation(t *testing.T) {
	g, halves := paperC0Forward(t)
	psi := Detect(g, halves)
	for id := NodeID(0); int(id) < psi.NumNodes(); id++ {
		n := psi.Node(id)
		if n.IsTerminal() {
			found := false
			for _, c := range n.Constraints {
				if c.Other == halves[n.Query].Other && c.Slack == int16(halves[n.Query].K) {
					found = true
				}
			}
			if !found {
				t.Errorf("terminal %s lost its own constraint", n)
			}
		}
		for _, c := range n.Constraints {
			if c.Slack <= 0 {
				t.Errorf("node %s has non-positive slack %d", n, c.Slack)
			}
		}
		if !n.IsTerminal() && !n.Unbounded && len(n.Constraints) == 0 {
			t.Errorf("shared node %s has no constraints and is not unbounded", n)
		}
	}
}

// TestMaxConstraintsFallback forces the constraint cap and expects the
// affected nodes to fall back to budget-only pruning.
func TestMaxConstraintsFallback(t *testing.T) {
	g, halves := paperC0Forward(t)
	psi := detect(g, halves, 1)
	sawUnbounded := false
	for id := NodeID(0); int(id) < psi.NumNodes(); id++ {
		n := psi.Node(id)
		if n.Unbounded {
			sawUnbounded = true
			if !n.PruneOK(0, 99) {
				t.Error("unbounded node must accept every expansion")
			}
		}
	}
	if !sawUnbounded {
		t.Skip("cap of 1 did not trigger on this example; nothing to assert")
	}
}

// TestPruneOK exercises the constraint arithmetic directly.
func TestPruneOK(t *testing.T) {
	g := testgraphs.Line(6) // 0→1→…→5
	gr := g.Reverse()
	other := msbfs.Single(gr, 5, 5) // dist(v, 5) on the line
	n := &Node{Root: 0, Budget: 5, Query: 0, Constraints: []Constraint{{Other: other, Slack: 5}}}
	// depth + dist(w,5) < 5: vertex 1 at depth 0 → 0+4 < 5 ok.
	if !n.PruneOK(0, 1) {
		t.Error("PruneOK(0, v1) = false, want true")
	}
	// vertex 1 at depth 1 → 1+4 = 5, pruned.
	if n.PruneOK(1, 1) {
		t.Error("PruneOK(1, v1) = true, want false")
	}
	// Unreachable vertex never passes.
	un := &Node{Root: 0, Budget: 5, Constraints: []Constraint{{Other: msbfs.Single(gr, 0, 5), Slack: 5}}}
	if un.PruneOK(0, 5) {
		t.Error("vertex unreachable from the constraint endpoint must prune")
	}
}

// TestMinResidual checks the "+" ordering key.
func TestMinResidual(t *testing.T) {
	g := testgraphs.Line(6)
	gr := g.Reverse()
	o1 := msbfs.Single(gr, 5, 5)
	o2 := msbfs.Single(gr, 3, 5)
	n := &Node{Constraints: []Constraint{{Other: o1, Slack: 9}, {Other: o2, Slack: 9}}}
	if got := n.MinResidual(2); got != 1 { // dist(2,3)=1 < dist(2,5)=3
		t.Errorf("MinResidual(v2) = %d, want 1", got)
	}
	if got := n.MinResidual(5); got != 0 {
		t.Errorf("MinResidual(v5) = %d, want 0", got)
	}
}

// TestTopoOrderProvidersFirst asserts the enumeration precondition.
func TestTopoOrderProvidersFirst(t *testing.T) {
	g, halves := paperC0Forward(t)
	psi := Detect(g, halves)
	pos := make(map[NodeID]int, psi.NumNodes())
	for i, id := range psi.TopoOrder() {
		pos[id] = i
	}
	for id := NodeID(0); int(id) < psi.NumNodes(); id++ {
		for _, prov := range psi.Providers(id) {
			if pos[prov] >= pos[id] {
				t.Errorf("provider %s ordered after consumer %s", psi.Node(prov), psi.Node(id))
			}
		}
	}
}

// TestQuickDetectInvariants drives the detector's structural invariants
// through testing/quick: for arbitrary graphs and half-query batches, Ψ
// validates (DAG, splice/budget soundness) and every terminal's
// constraint survives propagation.
func TestQuickDetectInvariants(t *testing.T) {
	prop := func(seed int64, nRaw, qRaw uint8) bool {
		n := 10 + int(nRaw%40)
		numQ := 2 + int(qRaw%7)
		g := graph.GenRandom(n, 2.4, seed)
		gr := g.Reverse()
		rng := rand.New(rand.NewSource(seed + 9))
		halves := make([]HalfQuery, numQ)
		for i := range halves {
			k := uint8(2 + rng.Intn(5))
			halves[i] = HalfQuery{
				Root:   graph.VertexID(rng.Intn(n)),
				Budget: (k + 1) / 2,
				K:      k,
				Other:  msbfs.Single(gr, graph.VertexID(rng.Intn(n)), k),
				Query:  i,
			}
		}
		psi := Detect(g, halves)
		if err := psi.Validate(); err != nil {
			return false
		}
		for id := NodeID(0); int(id) < psi.NumNodes(); id++ {
			node := psi.Node(id)
			if node.IsTerminal() && !node.Unbounded && len(node.Constraints) == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
