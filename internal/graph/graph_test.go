package graph

import (
	"bytes"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

// paperGraph builds the 16-vertex example graph of Fig. 1 in the paper.
// It is shared by tests across packages via this helper's re-implementation.
func paperGraph() *Graph {
	edges := []Edge{
		{0, 1}, {0, 4}, {2, 1}, {2, 4}, {5, 1}, {5, 8},
		{1, 7}, {1, 8}, {4, 9}, {9, 3}, {9, 15}, {9, 8},
		{7, 10}, {7, 8}, {3, 6}, {15, 6}, {10, 12}, {12, 11},
		{12, 13}, {6, 11}, {6, 13}, {6, 14}, {8, 14}, {13, 14},
	}
	return FromEdges(16, edges)
}

func TestBuilderBasics(t *testing.T) {
	g := FromEdges(4, []Edge{{0, 1}, {1, 2}, {2, 3}, {0, 1}, {1, 1}})
	if got := g.NumVertices(); got != 4 {
		t.Fatalf("NumVertices = %d, want 4", got)
	}
	// duplicate {0,1} collapsed, self loop {1,1} dropped
	if got := g.NumEdges(); got != 3 {
		t.Fatalf("NumEdges = %d, want 3", got)
	}
	if !g.HasEdge(0, 1) || g.HasEdge(1, 0) || g.HasEdge(1, 1) {
		t.Fatalf("HasEdge wrong: %v %v %v", g.HasEdge(0, 1), g.HasEdge(1, 0), g.HasEdge(1, 1))
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestBuilderGrowsVertexSpace(t *testing.T) {
	b := NewBuilder(0)
	b.AddEdge(5, 9)
	g := b.Build()
	if g.NumVertices() != 10 {
		t.Fatalf("NumVertices = %d, want 10", g.NumVertices())
	}
	if !g.HasEdge(5, 9) {
		t.Fatal("edge (5,9) missing")
	}
}

func TestEmptyGraph(t *testing.T) {
	g := FromEdges(0, nil)
	if g.NumVertices() != 0 || g.NumEdges() != 0 {
		t.Fatalf("empty graph: %d vertices %d edges", g.NumVertices(), g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	r := g.Reverse()
	if r.NumVertices() != 0 {
		t.Fatal("reverse of empty graph not empty")
	}
}

func TestIsolatedVertices(t *testing.T) {
	g := FromEdges(100, []Edge{{0, 99}})
	if g.NumVertices() != 100 || g.NumEdges() != 1 {
		t.Fatalf("got %d vertices %d edges", g.NumVertices(), g.NumEdges())
	}
	for v := 1; v < 99; v++ {
		if g.OutDegree(VertexID(v)) != 0 {
			t.Fatalf("vertex %d should be isolated", v)
		}
	}
}

func TestReverseInvolution(t *testing.T) {
	g := paperGraph()
	rr := g.Reverse().Reverse()
	if g.NumEdges() != rr.NumEdges() || g.NumVertices() != rr.NumVertices() {
		t.Fatal("double reverse changed size")
	}
	g.Edges(func(src, dst VertexID) bool {
		if !rr.HasEdge(src, dst) {
			t.Fatalf("edge (%d,%d) lost in double reverse", src, dst)
		}
		return true
	})
}

func TestReverseEdgeCorrespondence(t *testing.T) {
	g := paperGraph()
	r := g.Reverse()
	g.Edges(func(src, dst VertexID) bool {
		if !r.HasEdge(dst, src) {
			t.Fatalf("reverse missing (%d,%d)", dst, src)
		}
		return true
	})
	if err := r.Validate(); err != nil {
		t.Fatalf("reverse Validate: %v", err)
	}
}

func TestReversePropertyRandom(t *testing.T) {
	f := func(seed int64) bool {
		g := GenRandom(50, 4, seed)
		r := g.Reverse()
		if g.NumEdges() != r.NumEdges() {
			return false
		}
		ok := true
		g.Edges(func(src, dst VertexID) bool {
			if !r.HasEdge(dst, src) {
				ok = false
			}
			return ok
		})
		return ok && r.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestStats(t *testing.T) {
	g := FromEdges(4, []Edge{{0, 1}, {0, 2}, {0, 3}, {1, 2}})
	s := ComputeStats(g)
	if s.NumVertices != 4 || s.NumEdges != 4 {
		t.Fatalf("stats size wrong: %+v", s)
	}
	if s.AvgDegree != 1.0 {
		t.Fatalf("AvgDegree = %f, want 1.0", s.AvgDegree)
	}
	if s.MaxDegree != 3 {
		t.Fatalf("MaxDegree = %d, want 3", s.MaxDegree)
	}
	if !strings.Contains(s.String(), "|V|=4") {
		t.Fatalf("String() = %q", s.String())
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := paperGraph()
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatalf("WriteEdgeList: %v", err)
	}
	g2, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatalf("ReadEdgeList: %v", err)
	}
	if g.NumEdges() != g2.NumEdges() {
		t.Fatalf("edge counts differ: %d vs %d", g.NumEdges(), g2.NumEdges())
	}
	g.Edges(func(src, dst VertexID) bool {
		if !g2.HasEdge(src, dst) {
			t.Fatalf("edge (%d,%d) lost in round trip", src, dst)
		}
		return true
	})
}

func TestEdgeListCommentsAndErrors(t *testing.T) {
	in := "# comment\n% another\n\n0 1\n1 2\n"
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ReadEdgeList: %v", err)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", g.NumEdges())
	}
	if _, err := ReadEdgeList(strings.NewReader("0\n")); err == nil {
		t.Fatal("want error for single-field line")
	}
	if _, err := ReadEdgeList(strings.NewReader("a b\n")); err == nil {
		t.Fatal("want error for non-numeric line")
	}
	if _, err := ReadEdgeList(strings.NewReader("-1 2\n")); err == nil {
		t.Fatal("want error for negative id")
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	g := GenPowerLaw(300, 4, 7)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	g2, err := ReadBinary(&buf)
	if err != nil {
		t.Fatalf("ReadBinary: %v", err)
	}
	if !reflect.DeepEqual(g.offsets, g2.offsets) || !reflect.DeepEqual(g.targets, g2.targets) {
		t.Fatal("binary round trip not identical")
	}
}

func TestBinaryRejectsGarbage(t *testing.T) {
	if _, err := ReadBinary(strings.NewReader("not a graph at all......")); err == nil {
		t.Fatal("want error for bad magic")
	}
	if _, err := ReadBinary(strings.NewReader("HC")); err == nil {
		t.Fatal("want error for truncated magic")
	}
}

func TestGenErdosRenyi(t *testing.T) {
	g := GenErdosRenyi(100, 500, 42)
	if g.NumVertices() != 100 {
		t.Fatalf("NumVertices = %d", g.NumVertices())
	}
	if g.NumEdges() == 0 || g.NumEdges() > 500 {
		t.Fatalf("NumEdges = %d, want (0,500]", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// deterministic for a seed
	g2 := GenErdosRenyi(100, 500, 42)
	if g.NumEdges() != g2.NumEdges() {
		t.Fatal("generator not deterministic")
	}
}

func TestGenPowerLawSkew(t *testing.T) {
	g := GenPowerLaw(2000, 3, 1)
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	s := ComputeStats(g)
	if s.MaxDegree < 5*int(s.AvgDegree) {
		t.Fatalf("power-law graph not skewed: dmax=%d davg=%.1f", s.MaxDegree, s.AvgDegree)
	}
}

func TestGenCommunityLocality(t *testing.T) {
	g := GenCommunity(1000, 10, 8, 0.9, 3)
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// most edges should stay within a 100-vertex community block
	in, out := 0, 0
	g.Edges(func(src, dst VertexID) bool {
		if int(src)/100 == int(dst)/100 {
			in++
		} else {
			out++
		}
		return true
	})
	if in <= 3*out {
		t.Fatalf("community structure too weak: in=%d out=%d", in, out)
	}
}

func TestGenGridDistances(t *testing.T) {
	g := GenGrid(4, 3)
	if g.NumVertices() != 12 {
		t.Fatalf("NumVertices = %d", g.NumVertices())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) || !g.HasEdge(0, 4) {
		t.Fatal("grid edges wrong")
	}
	if g.HasEdge(3, 4) { // row wrap must not exist
		t.Fatal("grid wrapped rows")
	}
}

func TestSampleVertices(t *testing.T) {
	g := GenPowerLaw(500, 3, 11)
	sub, oldID := SampleVertices(g, 0.4, 5)
	if got, want := sub.NumVertices(), 200; got != want {
		t.Fatalf("sampled %d vertices, want %d", got, want)
	}
	if len(oldID) != sub.NumVertices() {
		t.Fatal("oldID length mismatch")
	}
	if err := sub.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// every sampled edge must exist between the original endpoints
	sub.Edges(func(src, dst VertexID) bool {
		if !g.HasEdge(oldID[src], oldID[dst]) {
			t.Fatalf("sampled edge (%d,%d) not in original", oldID[src], oldID[dst])
		}
		return true
	})
	// id mapping is strictly increasing (order preserved)
	if !sort.SliceIsSorted(oldID, func(i, j int) bool { return oldID[i] < oldID[j] }) {
		t.Fatal("oldID not sorted")
	}
}

func TestSampleVerticesExtremes(t *testing.T) {
	g := GenGrid(5, 5)
	full, _ := SampleVertices(g, 1.0, 1)
	if full.NumEdges() != g.NumEdges() {
		t.Fatalf("100%% sample lost edges: %d vs %d", full.NumEdges(), g.NumEdges())
	}
	empty, _ := SampleVertices(g, 0, 1)
	if empty.NumVertices() != 0 {
		t.Fatal("0% sample should be empty")
	}
}

func TestEdgesEarlyStop(t *testing.T) {
	g := paperGraph()
	count := 0
	g.Edges(func(src, dst VertexID) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Fatalf("early stop visited %d edges, want 5", count)
	}
}

func TestLoadSaveFile(t *testing.T) {
	g := GenGrid(3, 3)
	dir := t.TempDir()
	for _, name := range []string{dir + "/g.txt", dir + "/g.bin"} {
		if err := SaveFile(name, g); err != nil {
			t.Fatalf("SaveFile(%s): %v", name, err)
		}
		g2, err := LoadFile(name)
		if err != nil {
			t.Fatalf("LoadFile(%s): %v", name, err)
		}
		if g2.NumEdges() != g.NumEdges() {
			t.Fatalf("%s: edges %d want %d", name, g2.NumEdges(), g.NumEdges())
		}
	}
	if _, err := LoadFile(dir + "/missing.txt"); err == nil {
		t.Fatal("want error for missing file")
	}
}

// TestGenCommunityPowerLaw checks the hybrid generator's contract: a
// valid graph, heavy-tailed total degree, and locality (k-hop balls
// bounded well below the graph when pIn is high).
func TestGenCommunityPowerLaw(t *testing.T) {
	g := GenCommunityPowerLaw(3000, 100, 5, 0.97, 9)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	st := ComputeStats(g)
	if st.AvgDegree < 3 || st.AvgDegree > 10 {
		t.Errorf("davg = %.1f outside the expected band", st.AvgDegree)
	}
	if float64(st.MaxDegree) < 3*st.AvgDegree {
		t.Errorf("no degree skew: dmax=%d davg=%.1f", st.MaxDegree, st.AvgDegree)
	}
	// Locality: a 4-hop ball from a random vertex must not swallow the
	// graph (that is the property the stand-ins rely on).
	ball := bfsBallSize(g, 17, 4)
	if ball > g.NumVertices()/2 {
		t.Errorf("4-hop ball covers %d of %d vertices; generator lost locality", ball, g.NumVertices())
	}
	// Degenerate parameters clamp instead of failing.
	small := GenCommunityPowerLaw(10, 50, 2, 0.9, 1)
	if err := small.Validate(); err != nil {
		t.Fatal(err)
	}
	tiny := GenCommunityPowerLaw(3, 1, 1, 0.5, 1)
	if err := tiny.Validate(); err != nil {
		t.Fatal(err)
	}
}

func bfsBallSize(g *Graph, src VertexID, hops int) int {
	dist := map[VertexID]int{src: 0}
	queue := []VertexID{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		if dist[v] >= hops {
			continue
		}
		for _, w := range g.OutNeighbors(v) {
			if _, seen := dist[w]; !seen {
				dist[w] = dist[v] + 1
				queue = append(queue, w)
			}
		}
	}
	return len(dist)
}

// TestReadBinaryCorrupt: truncated and malformed binary inputs fail
// cleanly instead of panicking.
func TestReadBinaryCorrupt(t *testing.T) {
	var buf bytes.Buffer
	g := FromEdges(3, []Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}})
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{0, 1, 4, 8, len(full) - 1} {
		if _, err := ReadBinary(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	// Corrupt magic.
	bad := append([]byte{}, full...)
	bad[0] ^= 0xFF
	if _, err := ReadBinary(bytes.NewReader(bad)); err == nil {
		t.Error("bad magic accepted")
	}
	// Round trip still works on the pristine copy.
	g2, err := ReadBinary(bytes.NewReader(full))
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() {
		t.Errorf("round trip lost edges: %d vs %d", g2.NumEdges(), g.NumEdges())
	}
}
