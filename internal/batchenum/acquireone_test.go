package batchenum

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/hcindex"
	"repro/internal/msbfs"
	"repro/internal/query"
	"repro/internal/testgraphs"
)

// kBalls serves every batch the k-ball index, one-query batches
// included: the index the one-query route must be indistinguishable
// from.
type kBalls struct{ hcindex.Provider }

func (p kBalls) AcquireOne(g, gr *graph.Graph, epoch uint64, q query.Query) *hcindex.Index {
	return p.Acquire(g, gr, epoch, []query.Query{q})
}

// TestAcquireOneEmissionOrder: a one-query batch emits the same path
// sequence, byte for byte, from its s-t subgraph maps as from the two
// k-balls, under all four engines and on both providers: a pooled cold
// builder, and a cache serving it cold, again (a repeated submit), from
// a wider query's subgraph pair, and from cached k-balls (balls first).
func TestAcquireOneEmissionOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for name, g := range map[string]*graph.Graph{
		"paper":     testgraphs.Paper(),
		"dag":       testgraphs.CompleteDAG(10),
		"powerlaw":  graph.GenPowerLaw(400, 3, 5),
		"community": graph.GenCommunityPowerLaw(600, 30, 4, 0.9, 13),
		"erdos":     graph.GenErdosRenyi(300, 1500, 4),
	} {
		gr := g.Reverse()
		t.Run(name, func(t *testing.T) {
			for _, q := range reachableQueries(rng, g, 6) {
				for _, alg := range allAlgorithms {
					run := func(p hcindex.Provider, q query.Query) ([]string, *Stats) {
						var seq []string
						st, err := Run(g, gr, []query.Query{q}, Options{Algorithm: alg, Provider: p, Workers: 1}, nil,
							query.FuncSink(func(_ []int, p []graph.VertexID) { seq = append(seq, pathKey(p)) }))
						if err != nil {
							t.Fatal(err)
						}
						return seq, st
					}
					want, _ := run(kBalls{hcindex.NewBuilder(false)}, q)
					check := func(label string, p hcindex.Provider, hits int) {
						t.Helper()
						got, st := run(p, q)
						if st.IndexHits != hits || st.IndexHits+st.IndexMisses != 2 {
							t.Errorf("%v %v %s: %d hits / %d misses, want %d hits of 2", alg, q, label, st.IndexHits, st.IndexMisses, hits)
						}
						if !slices.Equal(got, want) {
							t.Fatalf("%v %v %s: emitted %d paths %v, want %d in k-ball order %v", alg, q, label, len(got), got, len(want), want)
						}
					}
					check("builder", hcindex.NewBuilder(true), 0)

					cache := hcindex.NewCache(0)
					check("cache cold", cache, 0)
					check("cache repeat", cache, 2)

					widened := hcindex.NewCache(0)
					wide := q
					wide.K += 2
					run(widened, wide)
					check("cache widened pair", widened, 2)

					balls := hcindex.NewCache(0)
					if _, err := Run(g, gr, []query.Query{q, {S: q.T, T: q.S, K: q.K}}, Options{Algorithm: alg, Provider: balls, Workers: 1}, nil, query.NewCountSink(2)); err != nil {
						t.Fatal(err)
					}
					check("cache balls first", balls, 2)
				}
			}
		})
	}
}

// reachableQueries draws n valid queries on g with k = 2…7 whose target
// lies within k hops of the source, so every one has paths to order.
func reachableQueries(rng *rand.Rand, g *graph.Graph, n int) []query.Query {
	var qs []query.Query
	for tries := 0; len(qs) < n && tries < 100*n; tries++ {
		q := query.Query{S: graph.VertexID(rng.Intn(g.NumVertices())), K: uint8(2 + rng.Intn(6))}
		var near []graph.VertexID
		for v, d := range msbfs.FullDistances(g, q.S) {
			if d != 0 && d <= q.K {
				near = append(near, graph.VertexID(v))
			}
		}
		if len(near) == 0 {
			continue
		}
		q.T = near[rng.Intn(len(near))]
		qs = append(qs, q)
	}
	if len(qs) < n {
		panic(fmt.Sprintf("only %d reachable queries", len(qs)))
	}
	return qs
}
