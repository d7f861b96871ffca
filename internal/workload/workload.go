// Package workload generates HC-s-t path query batches matching the
// paper's experimental settings (§V): random (s, t) pairs such that s
// reaches t within k hops, hop constraints drawn uniformly from a range,
// and — for Exp-1 — batches whose average pairwise similarity µ_Q is
// steered to a target level by mixing perturbed copies of seed queries
// with independent random queries.
package workload

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/hcindex"
	"repro/internal/msbfs"
	"repro/internal/query"
)

// Config describes a workload.
type Config struct {
	// N is the batch size (the paper's default is 100).
	N int
	// KMin and KMax bound the uniformly drawn hop constraint (paper
	// default: 4 to 7).
	KMin, KMax int
	// Seed makes generation deterministic.
	Seed int64
	// MaxTries bounds the rejection sampling per query; zero means
	// 10000.
	MaxTries int
}

func (c Config) kRange() (int, int) {
	lo, hi := c.KMin, c.KMax
	if lo <= 0 {
		lo = 4
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

func (c Config) maxTries() int {
	if c.MaxTries <= 0 {
		return 10000
	}
	return c.MaxTries
}

// Random generates cfg.N queries with uniformly random reachable (s, t)
// pairs: s is drawn uniformly and t uniformly from the k-hop forward
// reach of s (excluding s), matching "the queries are generated by
// randomly selecting pairs (s,t) such that s can reach t in k hops".
func Random(g *graph.Graph, cfg Config) ([]query.Query, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	lo, hi := cfg.kRange()
	n := g.NumVertices()
	if n < 2 {
		return nil, fmt.Errorf("workload: graph too small (n=%d)", n)
	}
	out := make([]query.Query, 0, cfg.N)
	for tries := 0; len(out) < cfg.N; tries++ {
		if tries > cfg.maxTries()*cfg.N {
			return nil, fmt.Errorf("workload: could not find %d reachable pairs (graph too sparse?)", cfg.N)
		}
		k := uint8(lo + rng.Intn(hi-lo+1))
		s := graph.VertexID(rng.Intn(n))
		reach := msbfs.Single(g, s, k).Visited()
		if len(reach) < 2 {
			continue
		}
		t := reach[rng.Intn(len(reach))]
		if t == s {
			continue
		}
		out = append(out, query.Query{S: s, T: t, K: k})
	}
	return out, nil
}

// RandomFixedK generates n random reachable queries with one fixed hop
// constraint, the workload shape of Exp-6 and Exp-7.
func RandomFixedK(g *graph.Graph, n, k int, seed int64) ([]query.Query, error) {
	return Random(g, Config{N: n, KMin: k, KMax: k, Seed: seed})
}

// SimilarityConfig extends Config for Exp-1 workloads.
type SimilarityConfig struct {
	Config
	// TargetMu is the desired average pairwise similarity µ_Q ∈ [0, 1).
	TargetMu float64
	// Clusters is the number of seed queries the similar fraction is
	// built around; zero derives it from TargetMu: with c equal-sized
	// clusters only ≈1/c of the query pairs are related, so the highest
	// reachable µ_Q is ≈1/c, and c is chosen to leave headroom above
	// the target.
	Clusters int
}

func (c SimilarityConfig) clusters() int {
	if c.Clusters > 0 {
		return c.Clusters
	}
	n := int(0.7 / c.TargetMu)
	if n < 1 {
		n = 1
	}
	if n > 8 {
		n = 8
	}
	return n
}

// WithSimilarity generates a batch whose measured µ_Q approximates
// TargetMu. The construction mirrors how overlap arises in the paper's
// motivating applications (many queries about the same entities): a
// fraction f of the batch consists of perturbed copies of a few seed
// queries — same target, source moved to the seed source or one of its
// in-neighbours — and the rest are independent random queries. Queries
// derived from one seed have µ ≈ 1 while unrelated queries have µ ≈ 0,
// so µ_Q grows monotonically with f; a short binary search on f lands on
// the target. It returns the batch and its measured µ_Q.
func WithSimilarity(g, gr *graph.Graph, cfg SimilarityConfig) ([]query.Query, float64, error) {
	if cfg.TargetMu <= 0 {
		qs, err := Random(g, cfg.Config)
		if err != nil {
			return nil, 0, err
		}
		return qs, MeasureMu(g, gr, qs), nil
	}
	if cfg.TargetMu >= 1 {
		return nil, 0, fmt.Errorf("workload: target µ must be below 1, got %v", cfg.TargetMu)
	}

	seeds, err := heavySeeds(g, gr, cfg.Config, cfg.clusters())
	if err != nil {
		return nil, 0, err
	}
	randCfg := cfg.Config
	randCfg.Seed = cfg.Seed + 1
	randoms, err := Random(g, randCfg)
	if err != nil {
		return nil, 0, err
	}

	rng := rand.New(rand.NewSource(cfg.Seed + 2))
	build := func(f float64) []query.Query {
		nSim := int(f*float64(cfg.N) + 0.5)
		out := make([]query.Query, 0, cfg.N)
		localRng := rand.New(rand.NewSource(cfg.Seed + 3))
		for i := 0; i < nSim; i++ {
			seed := seeds[i%len(seeds)]
			out = append(out, perturb(gr, seed, localRng))
		}
		out = append(out, randoms[:cfg.N-nSim]...)
		return out
	}
	_ = rng

	// Binary search on the similar fraction f: µ_Q(f) is monotone
	// because only within-cluster pairs contribute similarity mass.
	loF, hiF := 0.0, 1.0
	var best []query.Query
	bestMu := -1.0
	for iter := 0; iter < 12; iter++ {
		f := (loF + hiF) / 2
		qs := build(f)
		mu := MeasureMu(g, gr, qs)
		if bestMu < 0 || abs(mu-cfg.TargetMu) < abs(bestMu-cfg.TargetMu) {
			best, bestMu = qs, mu
		}
		if mu < cfg.TargetMu {
			loF = f
		} else {
			hiF = f
		}
	}
	return best, bestMu, nil
}

// heavySeeds picks the c most work-intensive queries out of a larger
// random sample, weighting by |Γ(q) ∩ Γr(q)| — the vertices that can
// lie on a result path, the best O(|Γ|) proxy for enumeration cost.
// High-similarity batches are built from these seeds: without the bias
// a cheap seed would make the whole batch trivially fast, and the Exp-1
// regime (enumeration work dominating fixed batch overheads, as on the
// paper's billion-edge graphs) would be lost at stand-in scale.
func heavySeeds(g, gr *graph.Graph, cfg Config, c int) ([]query.Query, error) {
	sampleCfg := cfg
	sampleCfg.N = 6 * c
	if sampleCfg.N < 40 {
		sampleCfg.N = 40
	}
	cands, err := Random(g, sampleCfg)
	if err != nil {
		return nil, err
	}
	type weighted struct {
		q query.Query
		w int
	}
	ws := make([]weighted, len(cands))
	for i, q := range cands {
		fwd := msbfs.Single(g, q.S, q.K)
		bwd := msbfs.Single(gr, q.T, q.K)
		w := 0
		small, other := fwd, bwd
		if bwd.NumVisited() < fwd.NumVisited() {
			small, other = bwd, fwd
		}
		for _, v := range small.Visited() {
			if other.Contains(v) {
				w++
			}
		}
		ws[i] = weighted{q, w}
	}
	sort.Slice(ws, func(i, j int) bool { return ws[i].w > ws[j].w })
	out := make([]query.Query, 0, c)
	for i := 0; i < c && i < len(ws); i++ {
		out = append(out, ws[i].q)
	}
	return out, nil
}

// perturb derives a high-similarity variant of seed. Half the variants
// repeat the seed exactly — batches in the motivating applications
// (fraud checks on recurring account pairs, KG completion around hub
// entities) naturally contain repeated queries — and the other half
// keep the target but move the source to one of its in-neighbours.
func perturb(gr *graph.Graph, seed query.Query, rng *rand.Rand) query.Query {
	if rng.Intn(2) == 0 {
		return seed
	}
	inNbrs := gr.OutNeighbors(seed.S) // in-neighbours of S on G
	if len(inNbrs) > 0 {
		for attempt := 0; attempt < 4; attempt++ {
			cand := inNbrs[rng.Intn(len(inNbrs))]
			if cand != seed.T && cand != seed.S {
				return query.Query{S: cand, T: seed.T, K: seed.K}
			}
		}
	}
	return seed
}

// MeasureMu computes the batch's average pairwise similarity µ_Q
// (Exp-1's definition) by building the index and averaging Def. 4.5 over
// all unordered pairs.
func MeasureMu(g, gr *graph.Graph, qs []query.Query) float64 {
	batch, err := query.Batch(g, qs)
	if err != nil {
		return 0
	}
	idx := hcindex.Build(g, gr, batch)
	return cluster.AvgPairSimilarity(idx, batch)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
