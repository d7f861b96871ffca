package graph

import (
	"math/rand"
)

// The generators below produce the synthetic stand-ins for the paper's
// real-world datasets (Table I). The enumeration algorithms only care
// about graph *shape* — degree skew, density, and local clustering drive
// both the search-space size and the amount of inter-query overlap — so
// each stand-in mimics the degree profile of its real counterpart at a
// reduced scale. All generators are deterministic for a given seed.

// GenErdosRenyi generates a directed G(n, m) graph: m edges sampled
// uniformly at random without self-loops (duplicates collapse in Build,
// so the realised edge count can be marginally below m on dense inputs).
func GenErdosRenyi(n, m int, seed int64) *Graph {
	b := NewBuilder(n)
	if n < 2 {
		// No non-self-loop edge exists; without this guard the
		// rejection loop below could never terminate for n == 1, m > 0.
		return b.Build()
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < m; i++ {
		src := VertexID(rng.Intn(n))
		dst := VertexID(rng.Intn(n))
		for dst == src {
			dst = VertexID(rng.Intn(n))
		}
		b.AddEdge(src, dst)
	}
	return b.Build()
}

// GenPowerLaw generates a directed scale-free graph by preferential
// attachment (Barabási–Albert flavour): each new vertex attaches
// outDeg edges whose endpoints are chosen proportionally to current
// degree, and the same number of incoming edges from random earlier
// vertices so that both in- and out-degree distributions are skewed.
// This is the shape of the social/web graphs in Table I (high dmax,
// heavy-tailed degrees).
func GenPowerLaw(n, outDeg int, seed int64) *Graph {
	if n < 2 {
		return FromEdges(n, nil)
	}
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(n)
	// endpoint multiset for preferential attachment; each edge endpoint
	// appears once, so sampling uniformly from it is degree-proportional.
	endpoints := make([]VertexID, 0, 2*n*outDeg)
	// Seed clique among the first outDeg+1 vertices.
	seedSize := outDeg + 1
	if seedSize > n {
		seedSize = n
	}
	for i := 0; i < seedSize; i++ {
		for j := 0; j < seedSize; j++ {
			if i != j {
				b.AddEdge(VertexID(i), VertexID(j))
				endpoints = append(endpoints, VertexID(i), VertexID(j))
			}
		}
	}
	for v := seedSize; v < n; v++ {
		for e := 0; e < outDeg; e++ {
			// Out-edge to a degree-proportional target.
			t := endpoints[rng.Intn(len(endpoints))]
			if t != VertexID(v) {
				b.AddEdge(VertexID(v), t)
				endpoints = append(endpoints, VertexID(v), t)
			}
			// In-edge from a uniformly random earlier vertex keeps the
			// graph strongly navigable in both directions.
			s := VertexID(rng.Intn(v))
			b.AddEdge(s, VertexID(v))
			endpoints = append(endpoints, s, VertexID(v))
		}
	}
	return b.Build()
}

// GenCommunity generates a planted-partition (stochastic block model
// flavoured) graph: n vertices split into numComm communities, each
// vertex receiving deg out-edges, a fraction pIn of which stay inside
// its own community. Community structure concentrates paths, which is
// what creates high inter-query overlap in the similarity-controlled
// workloads of Exp-1.
func GenCommunity(n, numComm, deg int, pIn float64, seed int64) *Graph {
	if numComm < 1 {
		numComm = 1
	}
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(n)
	commSize := (n + numComm - 1) / numComm
	commOf := func(v int) int { return v / commSize }
	randInComm := func(c int) int {
		lo := c * commSize
		hi := lo + commSize
		if hi > n {
			hi = n
		}
		return lo + rng.Intn(hi-lo)
	}
	for v := 0; v < n; v++ {
		for e := 0; e < deg; e++ {
			var t int
			if rng.Float64() < pIn {
				t = randInComm(commOf(v))
			} else {
				t = rng.Intn(n)
			}
			if t != v {
				b.AddEdge(VertexID(v), VertexID(t))
			}
		}
	}
	return b.Build()
}

// GenCommunityPowerLaw combines the two structures that shape real
// social and web graphs: vertices are partitioned into communities of
// ~commSize, each vertex attaches outDeg out-edges, a fraction pIn of
// which pick a degree-proportional target inside the own community
// (heavy-tailed local hubs) while the rest go to uniformly random
// vertices anywhere (weak ties). Locality bounds k-hop ball growth —
// essential for meaningful inter-query similarity levels (Exp-1) on
// reduced-scale stand-ins — while preferential attachment preserves the
// dmax skew of Table I's originals.
func GenCommunityPowerLaw(n, commSize, outDeg int, pIn float64, seed int64) *Graph {
	if commSize < 2 {
		commSize = 2
	}
	if commSize > n {
		commSize = n
	}
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(n)
	numComm := (n + commSize - 1) / commSize
	// Per-community endpoint multisets drive the local preferential
	// attachment; seeded with one ring per community so sampling never
	// starves.
	endpoints := make([][]VertexID, numComm)
	commOf := func(v int) int { return v / commSize }
	for c := 0; c < numComm; c++ {
		lo := c * commSize
		hi := lo + commSize
		if hi > n {
			hi = n
		}
		for v := lo; v < hi; v++ {
			w := v + 1
			if w >= hi {
				w = lo
			}
			if v != w {
				b.AddEdge(VertexID(v), VertexID(w))
				endpoints[c] = append(endpoints[c], VertexID(v), VertexID(w))
			}
		}
	}
	for v := 0; v < n; v++ {
		c := commOf(v)
		for e := 0; e < outDeg; e++ {
			var t VertexID
			if rng.Float64() < pIn && len(endpoints[c]) > 0 {
				t = endpoints[c][rng.Intn(len(endpoints[c]))]
			} else {
				t = VertexID(rng.Intn(n))
			}
			if t == VertexID(v) {
				continue
			}
			b.AddEdge(VertexID(v), t)
			if commOf(int(t)) == c {
				endpoints[c] = append(endpoints[c], VertexID(v), t)
			}
		}
	}
	return b.Build()
}

// GenGrid generates a directed w×h grid with edges right and down plus
// their reverses, a useful worst-case-free topology for unit tests
// (shortest distances are Manhattan distances).
func GenGrid(w, h int) *Graph {
	b := NewBuilder(w * h)
	id := func(x, y int) VertexID { return VertexID(y*w + x) }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				b.AddEdge(id(x, y), id(x+1, y))
				b.AddEdge(id(x+1, y), id(x, y))
			}
			if y+1 < h {
				b.AddEdge(id(x, y), id(x, y+1))
				b.AddEdge(id(x, y+1), id(x, y))
			}
		}
	}
	return b.Build()
}

// GenRandom generates a random directed graph suitable for
// property-based tests: n vertices, average degree davg, mixing
// power-law hubs with uniform edges so that both sparse and skewed
// neighbourhoods appear.
func GenRandom(n int, davg float64, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(n)
	m := int(float64(n) * davg)
	hubs := n/10 + 1
	for i := 0; i < m; i++ {
		var src, dst int
		if rng.Intn(3) == 0 { // hub edge
			src = rng.Intn(hubs)
		} else {
			src = rng.Intn(n)
		}
		dst = rng.Intn(n)
		if src != dst {
			b.AddEdge(VertexID(src), VertexID(dst))
		}
	}
	return b.Build()
}

// SampleVertices returns the induced subgraph on a uniformly random
// fraction of the vertices (Exp-5 follows the paper's "randomly sample
// their vertices ... from 20% to 100%"). Sampled vertices are re-labelled
// densely in [0, n'), preserving relative order; the mapping from new to
// original ids is returned alongside.
func SampleVertices(g *Graph, fraction float64, seed int64) (*Graph, []VertexID) {
	n := g.NumVertices()
	keep := int(float64(n) * fraction)
	if keep > n {
		keep = n
	}
	if keep < 0 {
		keep = 0
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(n)
	chosen := make([]bool, n)
	for _, v := range perm[:keep] {
		chosen[v] = true
	}
	newID := make([]VertexID, n)
	oldID := make([]VertexID, 0, keep)
	next := VertexID(0)
	for v := 0; v < n; v++ {
		if chosen[v] {
			newID[v] = next
			oldID = append(oldID, VertexID(v))
			next++
		} else {
			newID[v] = NoVertex
		}
	}
	b := NewBuilder(keep)
	g.Edges(func(src, dst VertexID) bool {
		if chosen[src] && chosen[dst] {
			b.AddEdge(newID[src], newID[dst])
		}
		return true
	})
	return b.Build(), oldID
}
