// Package cluster implements Phase 1 of the paper's common sub-structure
// detection (§IV-B): HC-s-t path query similarity (Def. 4.5) computed
// from the hop-constrained neighbour sets Γ/Γr (Def. 4.4, reused from
// index construction at no extra traversal cost), and the agglomerative
// hierarchical clustering of Algorithm 2 with group-average linkage
// (Def. 4.6) and merge threshold γ.
package cluster

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/hcindex"
	"repro/internal/query"
)

// similarities returns the batch's pairwise µ as a flat n×n matrix:
// entries (i, j) and (j, i) both hold µ(qi, qj) of Def. 4.5, computed
// from the two queries' hop-constrained neighbour sets. The diagonal
// is zero. Up to workers goroutines, the caller's included, compute
// it; the matrix does not depend on their number.
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
//
// Each overlap is estimated: a stride sample of the smaller Γ list —
// the lower-positioned query's when the two are equally long — probed
// against the other map's O(1) membership test, the ratio being the
// sample's hit rate (see maxOverlapProbes). Rather than pair by pair,
// the matrix is filled map by map. Per direction, the maps are ranked
// by (|Γ|, position), so a pair's sampled map is always its lower-ranked
// one; every map's sample is copied once into one flat buffer; and a
// row — one map in one direction — counts the hits of every
// lower-ranked sample in its map with msbfs.DistMap.CountContained,
// reading one distance array instead of a new one per pair. A pair's
// forward overlap lands above the diagonal, its backward one below, and
// a last pass combines the two. Rows write disjoint cells, so workers
// claim them from a counter, as msbfs.RunPasses claims sources; at
// width one the caller fills them in order.
func similarities(idx *hcindex.Index, n, workers int) []float64 {
	p := newMuPass(idx, n)
	rows := 2 * (n - 1) // a rank-0 row has no lower rank to probe
	if w := min(workers, rows); w > 1 {
		p.fan(w)
	} else {
		for c := range rows {
			p.row(c)
		}
	}
	mu := p.mu
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			m := harmonic(mu[i*n+j], mu[j*n+i])
			mu[i*n+j], mu[j*n+i] = m, m
		}
	}
	return mu
}

// harmonic combines the two directions' overlaps into µ.
func harmonic(o1, o2 float64) float64 {
	if o1 == 0 || o2 == 0 {
		return 0
	}
	return 2 * o1 * o2 / (o1 + o2)
}

// maxOverlapProbes caps the per-pair cost of the overlap ratio. The
// exact sorted-merge intersection is O(|Γ_A|+|Γ_B|) per pair and turns
// ClusterQuery into the dominant phase on graphs whose k-hop balls are
// large relative to |V| — the opposite of the paper's Fig. 9, where
// ClusterQuery is negligible. Probing a stride sample of the smaller
// set against the other's O(1) distance array estimates the same ratio
// at bounded cost; sets at or below the cap are still measured exactly.
const maxOverlapProbes = 64

// muPass is one computation of the µ matrix: per direction, the maps'
// ranking and their samples, and the matrix the rows fill. The ranks,
// the sample offsets and the samples are 4-byte words carved from one
// allocation, so a pass allocates twice: that buffer and the matrix. A
// pass is a value: its workers share only what its slices point to.
type muPass struct {
	idx *hcindex.Index
	n   int
	// rank[d][r] is the position of direction d's r-th map in
	// (|Γ|, position) order.
	rank [2][]uint32
	// The sample of that map is samples[off[d*n+r]:off[d*n+r+1]].
	off     []uint32
	samples []graph.VertexID
	mu      []float64
}

// newMuPass ranks the batch's n maps in each direction and copies
// their samples, in rank order, into one buffer. No row probes the
// top-ranked map's sample, so it is left empty.
func newMuPass(idx *hcindex.Index, n int) muPass {
	size := func(i uint32, d int) int { return idx.DistMapFor(int(i), hcindex.Direction(d)).NumVisited() }
	// Every map but a direction's largest is sampled, and equal sizes
	// sample equally, so the buffer is sized before the maps are ranked.
	probes := 0
	for d := range 2 {
		largest := 0
		for i := range n {
			m := min(size(uint32(i), d), maxOverlapProbes)
			probes += m
			largest = max(largest, m)
		}
		probes -= largest
	}
	words := make([]uint32, 4*n+1+probes)
	p := muPass{idx: idx, n: n, off: words[2*n : 4*n+1], samples: words[4*n+1 : 4*n+1], mu: make([]float64, n*n)}
	for d := range p.rank {
		r := words[d*n : (d+1)*n : (d+1)*n]
		for i := range r {
			r[i] = uint32(i)
		}
		slices.SortStableFunc(r, func(a, b uint32) int { return cmp.Compare(size(a, d), size(b, d)) })
		p.rank[d] = r
	}
	for d, r := range p.rank {
		for k, i := range r[:n-1] {
			p.off[d*n+k] = uint32(len(p.samples))
			vis := idx.DistMapFor(int(i), hcindex.Direction(d)).Visited()
			step := (len(vis) + maxOverlapProbes - 1) / maxOverlapProbes
			for v := 0; v < len(vis); v += step {
				p.samples = append(p.samples, vis[v])
			}
		}
		p.off[d*n+n-1] = uint32(len(p.samples))
	}
	p.off[2*n] = uint32(len(p.samples))
	return p
}

// fan fills the rows on w goroutines, the caller's included, each
// claiming the next row from one counter until none is left.
func (p muPass) fan(w int) {
	var claim atomic.Int64
	var wg sync.WaitGroup
	drain := func() {
		for c := int(claim.Add(1) - 1); c < 2*(p.n-1); c = int(claim.Add(1) - 1) {
			p.row(c)
		}
	}
	for range w - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			drain()
		}()
	}
	drain()
	wg.Wait()
}

// row fills row c, the rows being numbered longest first: row c is the
// rank-y map's, y = n-1-c/2, in direction d = c%2, and holds its
// overlaps with every lower-ranked map — forward above the diagonal,
// backward below — so rank 0 has none. A lower-ranked map with an
// empty Γ has an empty sample and overlap 0, which the zeroed matrix
// already holds.
func (p muPass) row(c int) {
	d, y := hcindex.Direction(c%2), p.n-1-c/2
	n, rank, off := p.n, p.rank[d], p.off[int(d)*p.n:]
	j := int(rank[y])
	m := p.idx.DistMapFor(j, d)
	for x, r := range rank[:y] {
		i := int(r)
		probes := p.samples[off[x]:off[x+1]]
		if len(probes) == 0 {
			continue
		}
		o := float64(m.CountContained(probes)) / float64(len(probes))
		lo, hi := min(i, j), max(i, j)
		if d == hcindex.Forward {
			p.mu[lo*n+hi] = o
		} else {
			p.mu[hi*n+lo] = o
		}
	}
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
	mu := similarities(idx, n, 1)
	var sum float64
	for i := 0; i < n; i++ {
		for _, m := range mu[i*n+i+1 : (i+1)*n] {
			sum += m
		}
	}
	return sum / float64(n*(n-1)/2)
}

// ClusterQueries runs Algorithm 2 on the calling goroutine alone; it is
// ClusterQueriesWorkers at width one.
func ClusterQueries(idx *hcindex.Index, qs []query.Query, gamma float64) *Clustering {
	return ClusterQueriesWorkers(idx, qs, gamma, 1)
}

// ClusterQueriesWorkers runs Algorithm 2 (see groups). It is small
// enough to inline, so a caller that keeps no pointer to the result
// holds it on its stack.
func ClusterQueriesWorkers(idx *hcindex.Index, qs []query.Query, gamma float64, workers int) *Clustering {
	return &Clustering{Groups: groups(idx, qs, gamma, workers)}
}

// groups runs Algorithm 2: start from singleton groups
// and repeatedly merge the pair of groups with the highest group-average
// similarity δ (Def. 4.6) while it exceeds γ. Up to workers goroutines,
// the caller's included, compute the µ matrix; the groups do not depend
// on their number.
//
// Group-average linkage admits the Lance–Williams update
// δ(A∪B, C) = (|A|·δ(A,C) + |B|·δ(B,C)) / (|A|+|B|), so the merge loop
// runs in O(|Q|²·merges) over a precomputed pairwise µ matrix instead of
// recomputing δ from scratch each round; the result is identical to the
// literal Algorithm 2. A batch of one query builds none of the matrix.
func groups(idx *hcindex.Index, qs []query.Query, gamma float64, workers int) [][]int {
	n := len(qs)
	switch n {
	case 0:
		return nil
	case 1:
		return [][]int{{0}}
	}
	return merge(similarities(idx, n, workers), n, gamma)
}

// merge runs Algorithm 2's merge loop over the pairwise µ matrix of n
// queries (flat, as similarities returns it), which it overwrites: it
// doubles as the live δ matrix between groups, δ(i, j) at delta[i*n+j].
func merge(delta []float64, n int, gamma float64) [][]int {
	// A group is named after its first member and its members form a
	// list, so a merge links two lists instead of copying one; the
	// groups are written out at the end, carved from one array (capped,
	// so an append on one copies instead of overwriting a neighbour).
	// size[i] is group i's size, zero once it is merged away.
	ints := make([]int, 5*n)
	best, size, next, last, flat := ints[:n], ints[n:2*n], ints[2*n:3*n], ints[3*n:4*n], ints[4*n:]
	for i := range n {
		size[i], next[i], last[i] = 1, -1, i
	}
	// Cached row maxima: best[i] is i's most similar alive partner, so
	// the global best pair is the maximum over rows — O(n) per round
	// instead of the O(n²) rescan of the literal Algorithm 2, with rows
	// recomputed only when a merge invalidates them. The merge sequence
	// (and so the result) is identical.
	rowBest := func(i int) int {
		b, bv := -1, 0.0
		for j, d := range delta[i*n : (i+1)*n] {
			if j == i || size[j] == 0 {
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
	alive := n
	for {
		bi, bv := -1, gamma
		for i := 0; i < n; i++ {
			if size[i] == 0 || best[i] < 0 {
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
		szI, szJ := float64(size[bi]), float64(size[bj])
		for c := 0; c < n; c++ {
			if size[c] == 0 || c == bi || c == bj {
				continue
			}
			d := (szI*delta[bi*n+c] + szJ*delta[bj*n+c]) / (szI + szJ)
			delta[bi*n+c], delta[c*n+bi] = d, d
		}
		next[last[bi]], last[bi] = bj, last[bj] // bi's members, then bj's
		size[bi] += size[bj]
		size[bj] = 0
		alive--
		best[bi] = rowBest(bi)
		for c := 0; c < n; c++ {
			if size[c] != 0 && c != bi && (best[c] == bi || best[c] == bj) {
				best[c] = rowBest(c)
			}
		}
	}
	groups := make([][]int, 0, alive)
	pos := 0
	for i := range n {
		if size[i] == 0 {
			continue
		}
		first := pos
		for m := i; m >= 0; m = next[m] {
			flat[pos] = m
			pos++
		}
		groups = append(groups, flat[first:pos:pos])
	}
	return groups
}
