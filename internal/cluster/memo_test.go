package cluster

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/hcindex"
	"repro/internal/query"
)

// pairwise is the µ matrix the way ClusterQueries filled it before the
// memo: one Similarity call per pair.
func pairwise(idx *hcindex.Index, n int) []float64 {
	mu := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			m := Similarity(idx, i, j)
			mu[i*n+j], mu[j*n+i] = m, m
		}
	}
	return mu
}

// equalGammaGraph has two sources whose one-hop Γ lists are equally
// long (101 vertices) and longer than maxOverlapProbes, so overlap
// samples its first argument and the two orders disagree: 0 reaches
// 10…109, 1 reaches the even vertices 10…208, and every one of them
// reaches 2.
func equalGammaGraph() *graph.Graph {
	var edges []graph.Edge
	for v := graph.VertexID(10); v <= 109; v++ {
		edges = append(edges, graph.Edge{Src: 0, Dst: v})
	}
	for v := graph.VertexID(10); v <= 208; v += 2 {
		edges = append(edges, graph.Edge{Src: 1, Dst: v})
	}
	for v := graph.VertexID(10); v <= 208; v++ {
		edges = append(edges, graph.Edge{Src: v, Dst: 2})
	}
	return graph.FromEdges(209, edges)
}

// memoBatches are the shapes the memo must get right: exact repeats
// (one distinct map for several queries), shared sources with different
// targets (forward maps shared, backward ones not), and two distinct
// maps of equal |Γ| in both positional orders (the one case where
// overlap is not symmetric).
func memoBatches() []struct {
	name string
	g    *graph.Graph
	qs   []query.Query
} {
	random := graph.GenRandom(300, 4, 11)
	equal := equalGammaGraph()
	qa, qb := query.Query{S: 0, T: 2, K: 1}, query.Query{S: 1, T: 2, K: 1}
	return []struct {
		name string
		g    *graph.Graph
		qs   []query.Query
	}{
		{"repeats", random, []query.Query{
			{S: 3, T: 40, K: 4}, {S: 7, T: 90, K: 3}, {S: 3, T: 40, K: 4},
			{S: 7, T: 90, K: 3}, {S: 3, T: 40, K: 4}, {S: 12, T: 5, K: 4},
		}},
		{"shared-source", random, []query.Query{
			{S: 3, T: 40, K: 4}, {S: 3, T: 41, K: 4}, {S: 3, T: 90, K: 4},
			{S: 3, T: 40, K: 3}, {S: 8, T: 40, K: 4}, {S: 8, T: 41, K: 4},
		}},
		{"equal-gamma-ab", equal, []query.Query{qa, qb, qa}},
		{"equal-gamma-ba", equal, []query.Query{qb, qa, qb}},
	}
}

// memoIndexes acquires the batch's index from the cold builder, a cold
// cache, and a cache warmed with every query at K+1, whose hits are all
// widened views.
func memoIndexes(t *testing.T, g *graph.Graph, qs []query.Query) map[string]*hcindex.Index {
	t.Helper()
	gr := g.Reverse()
	wide := make([]query.Query, len(qs))
	for i, q := range qs {
		q.K++
		wide[i] = q
	}
	warm := hcindex.NewCache(0)
	warm.Acquire(g, gr, 0, wide).Release()
	widened := warm.Acquire(g, gr, 0, qs)
	if widened.Misses != 0 || warm.Stats().Widened == 0 {
		t.Fatalf("warmed cache: %d misses, %d widened hits; want only widened hits", widened.Misses, warm.Stats().Widened)
	}
	return map[string]*hcindex.Index{
		"build":         hcindex.Build(g, gr, qs),
		"cache":         hcindex.NewCache(0).Acquire(g, gr, 0, qs),
		"cache-widened": widened,
	}
}

// TestMemoisedSimilaritiesMatchPairwise: µ from overlaps memoised per
// pair of distinct maps is bit-identical to pairwise Similarity, so the
// clustering's groups and Exp-1's µ_Q are too, on both providers.
func TestMemoisedSimilaritiesMatchPairwise(t *testing.T) {
	for _, b := range memoBatches() {
		qs, err := query.Batch(b.g, b.qs)
		if err != nil {
			t.Fatal(err)
		}
		n := len(qs)
		for provider, idx := range memoIndexes(t, b.g, qs) {
			label := fmt.Sprintf("%s/%s", b.name, provider)
			if b.name == "equal-gamma-ab" {
				// The fixture must exercise the asymmetric order.
				fa, fb := idx.DistMapFor(0, hcindex.Forward), idx.DistMapFor(1, hcindex.Forward)
				if fa.NumVisited() != fb.NumVisited() || overlap(fa, fb) == overlap(fb, fa) {
					t.Fatalf("%s: |Γ| %d and %d, overlaps %v and %v: want equal sizes, unequal overlaps",
						label, fa.NumVisited(), fb.NumVisited(), overlap(fa, fb), overlap(fb, fa))
				}
			}
			want := pairwise(idx, n)
			got := similarities(idx, n)
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s: µ(q%d, q%d) = %v memoised, %v pairwise", label, i/n, i%n, got[i], want[i])
				}
			}
			for _, gamma := range []float64{0.2, 0.5, 0.8} {
				ref := merge(pairwise(idx, n), n, gamma)
				if c := ClusterQueries(idx, qs, gamma); !reflect.DeepEqual(c.Groups, ref) {
					t.Errorf("%s γ=%v: groups %v, pairwise %v", label, gamma, c.Groups, ref)
				}
			}
			var sum float64
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					sum += Similarity(idx, i, j)
				}
			}
			mean := sum / float64(n*(n-1)/2)
			if got := AvgPairSimilarity(idx, qs); math.Float64bits(got) != math.Float64bits(mean) {
				t.Errorf("%s: µ_Q = %v memoised, %v pairwise", label, got, mean)
			}
			idx.Release()
		}
	}
}

// TestPaperSimilaritiesMemoised: the memoised matrix reproduces the
// paper's running example (µ(q0,q1) = 0.93, µ(q3,q4) = 1).
func TestPaperSimilaritiesMemoised(t *testing.T) {
	idx, qs := paperSetup(t)
	n := len(qs)
	mu := similarities(idx, n)
	if got := mu[3*n+4]; got != 1 {
		t.Errorf("µ(q3,q4) = %v, want 1", got)
	}
	if got := mu[0*n+1]; math.Abs(got-0.93) > 0.005 {
		t.Errorf("µ(q0,q1) = %v, want ≈0.93", got)
	}
}

// TestClusterSingleQuery: a batch of one is one group of itself.
func TestClusterSingleQuery(t *testing.T) {
	idx, qs := paperSetup(t)
	if c := ClusterQueries(idx, qs[:1], 0.5); !reflect.DeepEqual(c.Groups, [][]int{{0}}) {
		t.Fatalf("groups %v, want [[0]]", c.Groups)
	}
}
