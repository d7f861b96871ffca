package cluster

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/hcindex"
	"repro/internal/query"
	"repro/internal/testgraphs"
)

func paperSetup(t *testing.T) (*hcindex.Index, []query.Query) {
	t.Helper()
	g := testgraphs.Paper()
	gr := g.Reverse()
	var qs []query.Query
	for _, spec := range testgraphs.PaperQueries() {
		qs = append(qs, query.Query{S: spec[0], T: spec[1], K: uint8(spec[2])})
	}
	qs, err := query.Batch(g, qs)
	if err != nil {
		t.Fatal(err)
	}
	return hcindex.Build(g, gr, qs), qs
}

func TestPaperSimilarities(t *testing.T) {
	idx, _ := paperSetup(t)
	// Example 4.1: µ(q3, q4) = 1.
	if got := Similarity(idx, 3, 4); math.Abs(got-1) > 1e-9 {
		t.Errorf("µ(q3,q4) = %f, want 1", got)
	}
	// Fig. 4: δ({q0},{q1}) = µ(q0,q1) = 0.93 (2 d.p.).
	if got := Similarity(idx, 0, 1); math.Abs(got-0.93) > 0.005 {
		t.Errorf("µ(q0,q1) = %f, want ≈0.93", got)
	}
	// µ(q2,q4) = 0: their backward reach sets are disjoint.
	if got := Similarity(idx, 2, 4); got != 0 {
		t.Errorf("µ(q2,q4) = %f, want 0", got)
	}
	// Cross-group average similarity must stay below γ = 0.8 (the paper
	// reports δ({q0,q1,q2},{q3,q4}) = 0.64, our reconstruction ≈ 0.60).
	var delta float64
	for _, i := range []int{0, 1, 2} {
		for _, j := range []int{3, 4} {
			delta += Similarity(idx, i, j)
		}
	}
	delta /= 6
	if delta >= 0.8 {
		t.Errorf("δ({q0,q1,q2},{q3,q4}) = %f, want < 0.8", delta)
	}
}

func TestSimilarityProperties(t *testing.T) {
	idx, qs := paperSetup(t)
	n := len(qs)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			mu := Similarity(idx, i, j)
			if mu < 0 || mu > 1 {
				t.Fatalf("µ(q%d,q%d) = %f out of [0,1]", i, j, mu)
			}
			if rev := Similarity(idx, j, i); math.Abs(mu-rev) > 1e-12 {
				t.Fatalf("µ not symmetric: %f vs %f", mu, rev)
			}
		}
	}
}

func TestSimilarityDisjointQueries(t *testing.T) {
	// Two separate components: similarity must be exactly 0.
	g := graph.FromEdges(6, []graph.Edge{
		{Src: 0, Dst: 1}, {Src: 1, Dst: 2},
		{Src: 3, Dst: 4}, {Src: 4, Dst: 5},
	})
	gr := g.Reverse()
	qs, _ := query.Batch(g, []query.Query{
		{S: 0, T: 2, K: 3},
		{S: 3, T: 5, K: 3},
	})
	idx := hcindex.Build(g, gr, qs)
	if got := Similarity(idx, 0, 1); got != 0 {
		t.Fatalf("disjoint queries µ = %f, want 0", got)
	}
}

func TestClusterPaperExample(t *testing.T) {
	// Example 4.1 / Fig. 4 with γ = 0.8: groups {q0,q1,q2} and {q3,q4}.
	idx, qs := paperSetup(t)
	c := ClusterQueries(idx, qs, 0.8)
	if c.NumGroups() != 2 {
		t.Fatalf("got %d groups %v, want 2", c.NumGroups(), c.Groups)
	}
	var flat [][]int
	for _, grp := range c.Groups {
		s := append([]int(nil), grp...)
		sort.Ints(s)
		flat = append(flat, s)
	}
	sort.Slice(flat, func(i, j int) bool { return flat[i][0] < flat[j][0] })
	want0, want1 := []int{0, 1, 2}, []int{3, 4}
	if !equalInts(flat[0], want0) || !equalInts(flat[1], want1) {
		t.Fatalf("groups = %v, want [%v %v]", flat, want0, want1)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestClusterGammaOne(t *testing.T) {
	// γ = 1 means µ must strictly exceed 1, which it never does: every
	// query stays alone (the "no sharing" end of Exp-4's sweep).
	idx, qs := paperSetup(t)
	c := ClusterQueries(idx, qs, 1.0)
	if c.NumGroups() != len(qs) {
		t.Fatalf("γ=1: %d groups, want %d singletons", c.NumGroups(), len(qs))
	}
}

func TestClusterGammaZeroMergesReachable(t *testing.T) {
	// γ = 0 merges everything with any positive similarity. On the paper
	// graph all five queries overlap somewhere, so few groups remain.
	idx, qs := paperSetup(t)
	c := ClusterQueries(idx, qs, 0.0)
	if c.NumGroups() >= len(qs) {
		t.Fatalf("γ=0 produced no merges: %v", c.Groups)
	}
}

func TestClusteringIsPartition(t *testing.T) {
	f := func(seed int64, gammaRaw uint8) bool {
		g := graph.GenRandom(40, 3, seed)
		gr := g.Reverse()
		var qs []query.Query
		for i := 0; i < 12; i++ {
			s := graph.VertexID((i * 3) % 40)
			tt := graph.VertexID((i*7 + 11) % 40)
			if s == tt {
				tt = (tt + 1) % 40
			}
			qs = append(qs, query.Query{S: s, T: tt, K: uint8(i%5 + 2)})
		}
		qs, err := query.Batch(g, qs)
		if err != nil {
			return false
		}
		idx := hcindex.Build(g, gr, qs)
		gamma := float64(gammaRaw%11) / 10
		c := ClusterQueries(idx, qs, gamma)
		seen := map[int]bool{}
		for _, grp := range c.Groups {
			if len(grp) == 0 {
				return false
			}
			for _, q := range grp {
				if seen[q] {
					return false // duplicate membership
				}
				seen[q] = true
			}
		}
		return len(seen) == len(qs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestMergedPairsExceedGamma(t *testing.T) {
	// Any group of ≥2 queries must have been merged through δ > γ at
	// some step; with group-average linkage this implies at least one
	// member pair has µ > γ. (Weaker than the full invariant but a good
	// sanity net.)
	idx, qs := paperSetup(t)
	gamma := 0.8
	c := ClusterQueries(idx, qs, gamma)
	for _, grp := range c.Groups {
		if len(grp) < 2 {
			continue
		}
		found := false
		for i := 0; i < len(grp) && !found; i++ {
			for j := i + 1; j < len(grp) && !found; j++ {
				if Similarity(idx, grp[i], grp[j]) > gamma {
					found = true
				}
			}
		}
		if !found {
			t.Fatalf("group %v has no pair with µ > γ", grp)
		}
	}
}

func TestAvgPairSimilarity(t *testing.T) {
	idx, qs := paperSetup(t)
	mu := AvgPairSimilarity(idx, qs)
	if mu <= 0 || mu > 1 {
		t.Fatalf("µ_Q = %f out of (0,1]", mu)
	}
	if got := AvgPairSimilarity(idx, qs[:1]); got != 0 {
		t.Fatalf("single query µ_Q = %f, want 0", got)
	}
	if got := AvgPairSimilarity(idx, nil); got != 0 {
		t.Fatalf("empty µ_Q = %f, want 0", got)
	}
}

func TestClusterEmptyBatch(t *testing.T) {
	c := ClusterQueries(nil, nil, 0.5)
	if c.NumGroups() != 0 {
		t.Fatal("empty batch should produce no groups")
	}
}

// TestTwoQueryClusterAllocs pins what Algorithm 2 allocates for a
// batch of two queries at width one, the smallest batch a serving
// engine clusters: the µ matrix, one buffer for the maps' ranks,
// sample offsets and samples, and the merge's groups and member lists.
func TestTwoQueryClusterAllocs(t *testing.T) {
	idx, qs := paperSetup(t)
	qs = qs[:2]
	var groups int
	allocs := testing.AllocsPerRun(100, func() {
		groups = ClusterQueriesWorkers(idx, qs, 0.5, 1).NumGroups()
	})
	t.Logf("%v allocs per two-query clustering, %d groups", allocs, groups)
	if allocs > 4 {
		t.Errorf("a two-query clustering allocates %v times, want at most 4", allocs)
	}
}
