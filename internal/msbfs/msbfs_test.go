package msbfs

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/testgraphs"
)

// naiveBounded is the oracle: plain BFS capped at depth.
func naiveBounded(g *graph.Graph, src graph.VertexID, cap uint8) map[graph.VertexID]uint8 {
	dist := map[graph.VertexID]uint8{src: 0}
	frontier := []graph.VertexID{src}
	for d := uint8(1); d <= cap && len(frontier) > 0; d++ {
		var next []graph.VertexID
		for _, v := range frontier {
			for _, w := range g.OutNeighbors(v) {
				if _, ok := dist[w]; !ok {
					dist[w] = d
					next = append(next, w)
				}
			}
		}
		frontier = next
	}
	return dist
}

func paperGraph() *graph.Graph { return testgraphs.Paper() }

func TestSingleAgainstOracle(t *testing.T) {
	g := paperGraph()
	for src := 0; src < g.NumVertices(); src++ {
		for cap := uint8(0); cap <= 6; cap++ {
			got := Single(g, graph.VertexID(src), cap)
			want := naiveBounded(g, graph.VertexID(src), cap)
			if len(got.Visited()) != len(want) {
				t.Fatalf("src=%d cap=%d: visited %d want %d", src, cap, len(got.Visited()), len(want))
			}
			for v, d := range want {
				if got.Dist(v) != d {
					t.Fatalf("src=%d cap=%d v=%d: dist %d want %d", src, cap, v, got.Dist(v), d)
				}
			}
		}
	}
}

func TestPaperFig2Index(t *testing.T) {
	// Fig. 2(b): backward distances to v14 on Gr.
	// dist(v6,v14)=1, dist(v3,v14)=2, dist(v15,v14)=2, dist(v9,v14)=3, dist(v4,v14)=4.
	gr := paperGraph().Reverse()
	d := Single(gr, 14, 4)
	want := map[graph.VertexID]uint8{6: 1, 3: 2, 15: 2, 9: 3, 4: 4}
	for v, dv := range want {
		if d.Dist(v) != dv {
			t.Errorf("dist(v%d, v14) = %d, want %d", v, d.Dist(v), dv)
		}
	}
}

func TestMultiSourceMatchesSingles(t *testing.T) {
	g := graph.GenPowerLaw(400, 3, 5)
	rng := rand.New(rand.NewSource(99))
	// 130 sources, past two 64-bit words of them; varied caps.
	var sources []graph.VertexID
	var caps []uint8
	for i := 0; i < 130; i++ {
		sources = append(sources, graph.VertexID(rng.Intn(g.NumVertices())))
		caps = append(caps, uint8(rng.Intn(6)))
	}
	got := MultiSource(g, sources, caps)
	for i := range sources {
		want := Single(g, sources[i], caps[i])
		if got[i].Source != sources[i] || got[i].Cap != caps[i] {
			t.Fatalf("result %d misaligned", i)
		}
		if got[i].NumVisited() != want.NumVisited() {
			t.Fatalf("source %d: |Γ|=%d want %d", i, got[i].NumVisited(), want.NumVisited())
		}
		for _, v := range want.Visited() {
			if got[i].Dist(v) != want.Dist(v) {
				t.Fatalf("source %d vertex %d: %d want %d", i, v, got[i].Dist(v), want.Dist(v))
			}
		}
	}
}

func TestMultiSourceDuplicateSources(t *testing.T) {
	g := paperGraph()
	res := MultiSource(g,
		[]graph.VertexID{0, 0, 0},
		[]uint8{3, 3, 1})
	if res[0].NumVisited() != res[1].NumVisited() {
		t.Fatal("duplicate sources with equal caps differ")
	}
	if res[2].NumVisited() >= res[0].NumVisited() {
		t.Fatal("smaller cap should visit fewer vertices")
	}
	for _, v := range res[2].Visited() {
		if res[2].Dist(v) != res[0].Dist(v) {
			t.Fatalf("dup sources disagree on v=%d", v)
		}
	}
}

func TestCapZero(t *testing.T) {
	g := paperGraph()
	d := Single(g, 0, 0)
	if d.NumVisited() != 1 || d.Dist(0) != 0 {
		t.Fatalf("cap=0 should visit only the source: %v", d.Visited())
	}
	if d.Dist(1) != Unreachable {
		t.Fatal("neighbour should be unreachable at cap 0")
	}
}

func TestVisitedSorted(t *testing.T) {
	g := graph.GenErdosRenyi(300, 2000, 4)
	vs := Single(g, 7, 4).Visited()
	for i := 1; i < len(vs); i++ {
		if vs[i-1] >= vs[i] {
			t.Fatalf("Visited() not strictly ascending: [%d]=%d, [%d]=%d", i-1, vs[i-1], i, vs[i])
		}
	}
}

func TestIsolatedSource(t *testing.T) {
	g := graph.FromEdges(5, []graph.Edge{{Src: 1, Dst: 2}})
	d := Single(g, 0, 5)
	if d.NumVisited() != 1 {
		t.Fatalf("isolated source visited %d", d.NumVisited())
	}
}

func TestFullDistances(t *testing.T) {
	g := paperGraph()
	dist := FullDistances(g, 0)
	if dist[0] != 0 || dist[1] != 1 || dist[9] != 2 || dist[14] != 5 {
		t.Fatalf("full distances wrong: %v", dist)
	}
	if dist[2] != Unreachable || dist[5] != Unreachable {
		t.Fatal("v2/v5 should be unreachable from v0")
	}
}

func TestQuickMultiVsOracle(t *testing.T) {
	f := func(seed int64, nSrcRaw uint8) bool {
		g := graph.GenRandom(60, 3, seed)
		rng := rand.New(rand.NewSource(seed + 1))
		nSrc := int(nSrcRaw%80) + 1
		var sources []graph.VertexID
		var caps []uint8
		for i := 0; i < nSrc; i++ {
			sources = append(sources, graph.VertexID(rng.Intn(60)))
			caps = append(caps, uint8(rng.Intn(5)))
		}
		res := MultiSource(g, sources, caps)
		for i := range sources {
			want := naiveBounded(g, sources[i], caps[i])
			if res[i].NumVisited() != len(want) {
				return false
			}
			for v, d := range want {
				if res[i].Dist(v) != d {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestLenMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on mismatched lengths")
		}
	}()
	MultiSource(paperGraph(), []graph.VertexID{0, 1}, []uint8{3})
}
