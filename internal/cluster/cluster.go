// Package cluster implements Phase 1 of the paper's common sub-structure
// detection (§IV-B): HC-s-t path query similarity (Def. 4.5) computed
// from the hop-constrained neighbour sets Γ/Γr (Def. 4.4, reused from
// index construction at no extra traversal cost), and the agglomerative
// hierarchical clustering of Algorithm 2 with group-average linkage
// (Def. 4.6) and merge threshold γ.
package cluster

import (
	"repro/internal/hcindex"
	"repro/internal/msbfs"
	"repro/internal/query"
)

// Similarity computes µ(qA, qB) of Def. 4.5 from the two queries'
// hop-constrained neighbour sets.
//
// The paper's footnote for empty intersections is internally
// inconsistent (it can yield µ > 1), so we use the coherent
// harmonic-mean form with the same value on all non-degenerate inputs:
//
//	o1 = |Γ(qA) ∩ Γ(qB)|  / min(|Γ(qA)|, |Γ(qB)|)
//	o2 = |Γr(qA) ∩ Γr(qB)| / min(|Γr(qA)|, |Γr(qB)|)
//	µ  = 2·o1·o2 / (o1 + o2),  µ = 0 when either intersection is empty.
//
// This preserves the three properties claimed in the paper: µ ∈ [0,1];
// µ = 1 when P(qA) ⊆ P(qB); µ = 0 on disjoint reach sets. On the paper's
// running example it reproduces the published values (µ(q0,q1) = 0.93,
// µ(q3,q4) = 1).
func Similarity(idx *hcindex.Index, a, b int) float64 {
	return harmonic(
		overlap(idx.DistMapFor(a, hcindex.Forward), idx.DistMapFor(b, hcindex.Forward)),
		overlap(idx.DistMapFor(a, hcindex.Backward), idx.DistMapFor(b, hcindex.Backward)))
}

// harmonic combines the two directions' overlaps into µ.
func harmonic(o1, o2 float64) float64 {
	if o1 == 0 || o2 == 0 {
		return 0
	}
	return 2 * o1 * o2 / (o1 + o2)
}

// similarities returns the batch's pairwise µ as a flat n×n matrix:
// entries (i, j) and (j, i) both hold Similarity(idx, i, j) for i < j.
// The diagonal is zero.
func similarities(idx *hcindex.Index, n int) []float64 {
	mu := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			m := Similarity(idx, i, j)
			mu[i*n+j], mu[j*n+i] = m, m
		}
	}
	return mu
}

// maxOverlapProbes caps the per-pair cost of the overlap ratio. The
// exact sorted-merge intersection is O(|Γ_A|+|Γ_B|) per pair and turns
// ClusterQuery into the dominant phase on graphs whose k-hop balls are
// large relative to |V| — the opposite of the paper's Fig. 9, where
// ClusterQuery is negligible. Probing a stride sample of the smaller
// set against the other's O(1) distance array estimates the same ratio
// at bounded cost; sets at or below the cap are still measured exactly.
const maxOverlapProbes = 64

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

// Clustering is the result of Algorithm 2: a partition of the batch into
// groups of similar queries. Groups hold positions into the original
// query slice.
type Clustering struct {
	Groups [][]int
}

// NumGroups returns the number of clusters.
func (c *Clustering) NumGroups() int { return len(c.Groups) }

// AvgPairSimilarity computes µ_Q of Exp-1: the average similarity over
// all ordered pairs of distinct queries in the batch. It reads the same
// µ matrix ClusterQueries merges on, so the µ_Q Exp-1 reports is the
// mean of exactly the values clustering sees.
func AvgPairSimilarity(idx *hcindex.Index, qs []query.Query) float64 {
	n := len(qs)
	if n < 2 {
		return 0
	}
	mu := similarities(idx, n)
	var sum float64
	for i := 0; i < n; i++ {
		for _, m := range mu[i*n+i+1 : (i+1)*n] {
			sum += m
		}
	}
	return sum / float64(n*(n-1)/2)
}

// ClusterQueries runs Algorithm 2: start from singleton groups and
// repeatedly merge the pair of groups with the highest group-average
// similarity δ (Def. 4.6) while it exceeds γ.
//
// Group-average linkage admits the Lance–Williams update
// δ(A∪B, C) = (|A|·δ(A,C) + |B|·δ(B,C)) / (|A|+|B|), so the merge loop
// runs in O(|Q|²·merges) over a precomputed pairwise µ matrix instead of
// recomputing δ from scratch each round; the result is identical to the
// literal Algorithm 2. A batch of one query builds none of the matrix.
func ClusterQueries(idx *hcindex.Index, qs []query.Query, gamma float64) *Clustering {
	n := len(qs)
	switch n {
	case 0:
		return &Clustering{}
	case 1:
		return &Clustering{Groups: [][]int{{0}}}
	}
	return &Clustering{Groups: merge(similarities(idx, n), n, gamma)}
}

// merge runs Algorithm 2's merge loop over the pairwise µ matrix of n
// queries (flat, as similarities returns it), which it overwrites: it
// doubles as the live δ matrix between groups, δ(i, j) at delta[i*n+j].
func merge(delta []float64, n int, gamma float64) [][]int {
	// Singleton groups are carved from one array (capped, so a merge's
	// append copies instead of overwriting a neighbour); a merged-away
	// group is nil.
	ints := make([]int, 2*n)
	members, best := ints[:n:n], ints[n:]
	groups := make([][]int, n)
	for i := range groups {
		members[i] = i
		groups[i] = members[i : i+1 : i+1]
	}
	// Cached row maxima: best[i] is i's most similar alive partner, so
	// the global best pair is the maximum over rows — O(n) per round
	// instead of the O(n²) rescan of the literal Algorithm 2, with rows
	// recomputed only when a merge invalidates them. The merge sequence
	// (and so the result) is identical.
	rowBest := func(i int) int {
		b, bv := -1, 0.0
		for j, d := range delta[i*n : (i+1)*n] {
			if j == i || groups[j] == nil {
				continue
			}
			if d > bv {
				bv, b = d, j
			}
		}
		return b
	}
	for i := 0; i < n; i++ {
		best[i] = rowBest(i)
	}
	for {
		bi, bv := -1, gamma
		for i := 0; i < n; i++ {
			if groups[i] == nil || best[i] < 0 {
				continue
			}
			if d := delta[i*n+best[i]]; d > bv {
				bv, bi = d, i
			}
		}
		if bi < 0 {
			break
		}
		bj := best[bi]
		// Merge bj into bi with the Lance–Williams group-average update.
		szI, szJ := float64(len(groups[bi])), float64(len(groups[bj]))
		for c := 0; c < n; c++ {
			if groups[c] == nil || c == bi || c == bj {
				continue
			}
			d := (szI*delta[bi*n+c] + szJ*delta[bj*n+c]) / (szI + szJ)
			delta[bi*n+c], delta[c*n+bi] = d, d
		}
		groups[bi] = append(groups[bi], groups[bj]...)
		groups[bj] = nil
		best[bi] = rowBest(bi)
		for c := 0; c < n; c++ {
			if groups[c] != nil && c != bi && (best[c] == bi || best[c] == bj) {
				best[c] = rowBest(c)
			}
		}
	}
	alive := groups[:0]
	for _, grp := range groups {
		if grp != nil {
			alive = append(alive, grp)
		}
	}
	return alive
}
