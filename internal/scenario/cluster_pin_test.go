package scenario

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/hcindex"
	"repro/internal/query"
)

// pinnedGroups is Algorithm 2's clustering of every committed
// scenario's waves, each wave one batch on its own epoch's graph, at
// the paper's default γ = 0.5 and at the running example's γ = 0.8.
// A cheaper µ that silently loses or invents sharing moves one of
// them. They were recorded from the pairwise-µ implementation; never
// regenerate them to make a change pass.
var pinnedGroups = map[string]string{
	"paper-1.scenario wave 0 γ=0.5":        "[[0 3 6 7] [1 4] [2 5]]",
	"paper-1.scenario wave 0 γ=0.8":        "[[0 3 6 7] [1] [2 5] [4]]",
	"paper-1.scenario wave 1 γ=0.5":        "[[0] [1]]",
	"paper-1.scenario wave 1 γ=0.8":        "[[0] [1]]",
	"paper-1.scenario wave 2 γ=0.5":        "[[0 1 3 8 2 7] [4 5] [6]]",
	"paper-1.scenario wave 2 γ=0.8":        "[[0 1 3 8] [2 7] [4 5] [6]]",
	"paper-1.scenario wave 3 γ=0.5":        "[[0 1 2 3 6] [4 5]]",
	"paper-1.scenario wave 3 γ=0.8":        "[[0 1 2 3] [4] [5] [6]]",
	"paper-1.scenario wave 4 γ=0.5":        "[[0 1] [2]]",
	"paper-1.scenario wave 4 γ=0.8":        "[[0 1] [2]]",
	"paper-1.scenario wave 5 γ=0.5":        "[[0 7 2 3 6 5] [1 4]]",
	"paper-1.scenario wave 5 γ=0.8":        "[[0 7] [1] [2 3 6 5] [4]]",
	"paper-1.scenario wave 6 γ=0.5":        "[[0 1 2 3 4]]",
	"paper-1.scenario wave 6 γ=0.8":        "[[0 1 2] [3 4]]",
	"paper-1.scenario wave 7 γ=0.5":        "[[0 1 3 5 2 4 6]]",
	"paper-1.scenario wave 7 γ=0.8":        "[[0 1 3 5] [2] [4] [6]]",
	"completeDAG7-2.scenario wave 0 γ=0.5": "[[0 1 2]]",
	"completeDAG7-2.scenario wave 0 γ=0.8": "[[0 1 2]]",
	"completeDAG7-2.scenario wave 1 γ=0.5": "[[0 1 2 3 4 5 6 7 8]]",
	"completeDAG7-2.scenario wave 1 γ=0.8": "[[0 1 2 3 4 5 6 7 8]]",
	"completeDAG7-2.scenario wave 2 γ=0.5": "[[0 1 2 3 4 5]]",
	"completeDAG7-2.scenario wave 2 γ=0.8": "[[0 1 2 3 4 5]]",
	"completeDAG7-2.scenario wave 3 γ=0.5": "[[0]]",
	"completeDAG7-2.scenario wave 3 γ=0.8": "[[0]]",
	"completeDAG7-2.scenario wave 4 γ=0.5": "[[0 1 2 3 4 5 6 7]]",
	"completeDAG7-2.scenario wave 4 γ=0.8": "[[0 1 2 3 4 5 6 7]]",
	"completeDAG7-2.scenario wave 5 γ=0.5": "[[0 1 2 3 4 5 6 7 8 9]]",
	"completeDAG7-2.scenario wave 5 γ=0.8": "[[0 1 2 3 4 5 6 7 8 9]]",
	"cycle8-3.scenario wave 0 γ=0.5":       "[[0 1 5 2 3 4 6]]",
	"cycle8-3.scenario wave 0 γ=0.8":       "[[0 1 5 2 3 4 6]]",
	"cycle8-3.scenario wave 1 γ=0.5":       "[[0 1 3 2]]",
	"cycle8-3.scenario wave 1 γ=0.8":       "[[0 1 3] [2]]",
	"cycle8-3.scenario wave 2 γ=0.5":       "[[0 1 4 3 2]]",
	"cycle8-3.scenario wave 2 γ=0.8":       "[[0 1 4 3] [2]]",
	"cycle8-3.scenario wave 3 γ=0.5":       "[[0 2 4 6 3 1 5 7]]",
	"cycle8-3.scenario wave 3 γ=0.8":       "[[0 2 4 6 3 1 5 7]]",
	"cycle8-3.scenario wave 4 γ=0.5":       "[[0 2 5 6 9 3 7 8 1 4]]",
	"cycle8-3.scenario wave 4 γ=0.8":       "[[0 2 5 6 9] [1] [3 7 8] [4]]",
	"cycle8-3.scenario wave 5 γ=0.5":       "[[0 1]]",
	"cycle8-3.scenario wave 5 γ=0.8":       "[[0] [1]]",
	"line12-4.scenario wave 0 γ=0.5":       "[[0 3] [1] [2]]",
	"line12-4.scenario wave 0 γ=0.8":       "[[0 3] [1] [2]]",
	"line12-4.scenario wave 1 γ=0.5":       "[[0]]",
	"line12-4.scenario wave 1 γ=0.8":       "[[0]]",
	"line12-4.scenario wave 2 γ=0.5":       "[[0 1 2 4 3]]",
	"line12-4.scenario wave 2 γ=0.8":       "[[0 1] [2 4] [3]]",
	"line12-4.scenario wave 3 γ=0.5":       "[[0 1] [2 3]]",
	"line12-4.scenario wave 3 γ=0.8":       "[[0 1] [2 3]]",
	"line12-4.scenario wave 4 γ=0.5":       "[[0 1 2]]",
	"line12-4.scenario wave 4 γ=0.8":       "[[0 1 2]]",
}

// TestClusterGroupsPinned: every scenario wave clusters into its
// pinned groups, from the cold builder's index and from a cache's. A
// new scenario file needs its waves pinned: the failure message prints
// each wave's groups, to be recorded from code whose µ is unchanged.
func TestClusterGroupsPinned(t *testing.T) {
	for _, gf := range golden {
		sc, err := Load(goldenPath(gf.file))
		if err != nil {
			t.Fatal(err)
		}
		graphs, err := sc.waveGraphs()
		if err != nil {
			t.Fatal(err)
		}
		cache := hcindex.NewCache(0)
		for w, wave := range sc.Waves {
			var qs []query.Query
			for _, q := range wave.Queries {
				qs = append(qs, query.Query{S: q.S, T: q.T, K: q.K})
			}
			g := graphs[w]
			qs, err := query.Batch(g, qs)
			if err != nil {
				t.Fatal(err)
			}
			gr := g.Reverse()
			for _, gamma := range []float64{0.5, 0.8} {
				key := fmt.Sprintf("%s wave %d γ=%v", gf.file, w, gamma)
				for provider, idx := range map[string]*hcindex.Index{
					"build": hcindex.Build(g, gr, qs),
					"cache": cache.Acquire(g, gr, uint64(w), qs),
				} {
					got := fmt.Sprint(cluster.ClusterQueries(idx, qs, gamma).Groups)
					idx.Release()
					if want, ok := pinnedGroups[key]; !ok || got != want {
						t.Errorf("%s (%s): groups %s, pinned %s", key, provider, got, want)
					}
				}
			}
		}
	}
}
