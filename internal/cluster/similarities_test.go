package cluster

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/hcindex"
	"repro/internal/msbfs"
	"repro/internal/query"
)

// Similarity is the per-pair reference the µ matrix must equal bit for
// bit: µ(qa, qb) of Def. 4.5 (see similarities) from one overlap per
// direction, each sample drawn for its pair alone.
func Similarity(idx *hcindex.Index, a, b int) float64 {
	return harmonic(
		overlap(idx.DistMapFor(a, hcindex.Forward), idx.DistMapFor(b, hcindex.Forward)),
		overlap(idx.DistMapFor(a, hcindex.Backward), idx.DistMapFor(b, hcindex.Backward)))
}

// overlap returns (an estimate of) |A∩B| / min(|A|,|B|) for the Γ
// lists of two distance maps, whose Contains probe answers membership
// in O(1). It probes a stride sample of the smaller list (a's when the
// two are equally long) against the other map, so the ratio against
// min(|A|,|B|) is simply the sample hit rate; it is symmetric unless
// |Γa| = |Γb|.
func overlap(a, b *msbfs.DistMap) float64 {
	if a.NumVisited() == 0 || b.NumVisited() == 0 {
		return 0
	}
	small, other := a.Visited(), b
	if b.NumVisited() < a.NumVisited() {
		small, other = b.Visited(), a
	}
	step := (len(small) + maxOverlapProbes - 1) / maxOverlapProbes
	probes, hits := 0, 0
	for i := 0; i < len(small); i += step {
		probes++
		if other.Contains(small[i]) {
			hits++
		}
	}
	return float64(hits) / float64(probes)
}

// pairwise is the µ matrix from one Similarity call per pair.
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

// equalGammaGraph has three sources whose one-hop Γ lists are equally
// long (101 vertices) and longer than maxOverlapProbes, so overlap
// samples its first argument and the two orders of a pair disagree: 0
// reaches 10…109, 1 the even vertices 10…208 and 3 reaches 109…208.
// Beside them, 4 reaches fewer (10…59) and 5 more (10…208). Every one
// of 10…208 reaches 2.
func equalGammaGraph() *graph.Graph {
	var edges []graph.Edge
	for v := graph.VertexID(10); v <= 208; v++ {
		edges = append(edges, graph.Edge{Src: 5, Dst: v}, graph.Edge{Src: v, Dst: 2})
		if v <= 109 {
			edges = append(edges, graph.Edge{Src: 0, Dst: v})
		}
		if v%2 == 0 {
			edges = append(edges, graph.Edge{Src: 1, Dst: v})
		}
		if v >= 109 {
			edges = append(edges, graph.Edge{Src: 3, Dst: v})
		}
		if v <= 59 {
			edges = append(edges, graph.Edge{Src: 4, Dst: v})
		}
	}
	return graph.FromEdges(209, edges)
}

// memoBatches are the shapes the µ matrix must get right: exact
// repeats (one map for several queries), shared sources with different
// targets (forward maps shared, backward ones not), two distinct maps
// of equal |Γ| in both positional orders (the one case where overlap
// is not symmetric), and three maps of equal |Γ| interleaved with a
// smaller and a larger one, so that ranking by (|Γ|, position) differs
// from batch order and the tie rule decides among more than two maps.
func memoBatches() []struct {
	name string
	g    *graph.Graph
	qs   []query.Query
} {
	random := graph.GenRandom(300, 4, 11)
	equal := equalGammaGraph()
	from := func(s graph.VertexID) query.Query { return query.Query{S: s, T: 2, K: 1} }
	qa, qb := from(0), from(1)
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
		{"equal-gamma-three", equal, []query.Query{from(5), from(3), from(4), from(1), from(0)}},
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

// TestMemoisedSimilaritiesMatchPairwise: the µ matrix filled map by map
// is bit-identical to pairwise Similarity at every width, so the
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
			switch b.name {
			case "equal-gamma-ab":
				// The fixture must exercise the asymmetric order.
				requireAsymmetric(t, label, idx, 0, 1)
			case "equal-gamma-three":
				requireAsymmetric(t, label, idx, 1, 3)
				requireAsymmetric(t, label, idx, 1, 4)
				requireAsymmetric(t, label, idx, 3, 4)
			}
			want := pairwise(idx, n)
			for _, width := range []int{1, 2, 4} {
				got := similarities(idx, n, width)
				for i := range got {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s width %d: µ(q%d, q%d) = %v map by map, %v pairwise",
							label, width, i/n, i%n, got[i], want[i])
					}
				}
				for _, gamma := range []float64{0.2, 0.5, 0.8} {
					ref := merge(pairwise(idx, n), n, gamma)
					if c := ClusterQueriesWorkers(idx, qs, gamma, width); !reflect.DeepEqual(c.Groups, ref) {
						t.Errorf("%s width %d γ=%v: groups %v, pairwise %v", label, width, gamma, c.Groups, ref)
					}
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
				t.Errorf("%s: µ_Q = %v map by map, %v pairwise", label, got, mean)
			}
			idx.Release()
		}
	}
}

// requireAsymmetric fails unless queries a and b have forward maps of
// equal |Γ| whose overlap depends on which of the two is sampled.
func requireAsymmetric(t *testing.T, label string, idx *hcindex.Index, a, b int) {
	t.Helper()
	fa, fb := idx.DistMapFor(a, hcindex.Forward), idx.DistMapFor(b, hcindex.Forward)
	if fa.NumVisited() != fb.NumVisited() || overlap(fa, fb) == overlap(fb, fa) {
		t.Fatalf("%s: q%d, q%d: |Γ| %d and %d, overlaps %v and %v: want equal sizes, unequal overlaps",
			label, a, b, fa.NumVisited(), fb.NumVisited(), overlap(fa, fb), overlap(fb, fa))
	}
}

// TestPaperSimilaritiesMemoised: the µ matrix reproduces the paper's
// running example (µ(q0,q1) = 0.93, µ(q3,q4) = 1) at every width.
func TestPaperSimilaritiesMemoised(t *testing.T) {
	idx, qs := paperSetup(t)
	n := len(qs)
	for _, width := range []int{1, 2, 4} {
		mu := similarities(idx, n, width)
		if got := mu[3*n+4]; got != 1 {
			t.Errorf("width %d: µ(q3,q4) = %v, want 1", width, got)
		}
		if got := mu[0*n+1]; math.Abs(got-0.93) > 0.005 {
			t.Errorf("width %d: µ(q0,q1) = %v, want ≈0.93", width, got)
		}
	}
}

// TestClusterSingleQuery: a batch of one is one group of itself.
func TestClusterSingleQuery(t *testing.T) {
	idx, qs := paperSetup(t)
	if c := ClusterQueries(idx, qs[:1], 0.5); !reflect.DeepEqual(c.Groups, [][]int{{0}}) {
		t.Fatalf("groups %v, want [[0]]", c.Groups)
	}
}
