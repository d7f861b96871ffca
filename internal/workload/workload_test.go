package workload

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/msbfs"
	"repro/internal/query"
	"repro/internal/testgraphs"
)

func testGraph() (*graph.Graph, *graph.Graph) {
	g := graph.GenCommunity(400, 4, 4, 0.8, 17)
	return g, g.Reverse()
}

// TestRandomValidity: every generated query is well-formed and its
// target lies within the hop budget of its source.
func TestRandomValidity(t *testing.T) {
	g, _ := testGraph()
	qs, err := Random(g, Config{N: 50, KMin: 3, KMax: 6, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 50 {
		t.Fatalf("generated %d queries, want 50", len(qs))
	}
	for i, q := range qs {
		if err := q.Validate(g); err != nil {
			t.Errorf("query %d invalid: %v", i, err)
		}
		if q.K < 3 || q.K > 6 {
			t.Errorf("query %d: k=%d outside [3,6]", i, q.K)
		}
		if d := msbfs.Single(g, q.S, q.K).Dist(q.T); d > q.K {
			t.Errorf("query %d: target %d hops away, budget %d", i, d, q.K)
		}
	}
}

// TestRandomDeterminism: the same seed reproduces the same batch.
func TestRandomDeterminism(t *testing.T) {
	g, _ := testGraph()
	a, err := Random(g, Config{N: 20, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Random(g, Config{N: 20, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("query %d differs: %v vs %v", i, a[i], b[i])
		}
	}
	c, err := Random(g, Config{N: 20, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical batches")
	}
}

// TestRandomTooSmall rejects degenerate graphs.
func TestRandomTooSmall(t *testing.T) {
	g := graph.FromEdges(1, nil)
	if _, err := Random(g, Config{N: 5}); err == nil {
		t.Fatal("expected an error on a single-vertex graph")
	}
}

// TestRandomUnreachable errors out instead of spinning when no pair is
// reachable.
func TestRandomUnreachable(t *testing.T) {
	g := graph.FromEdges(8, nil) // no edges at all
	if _, err := Random(g, Config{N: 3, MaxTries: 10}); err == nil {
		t.Fatal("expected an error on an edgeless graph")
	}
}

// TestWithSimilarityLevels: measured µ_Q tracks the requested level and
// increases monotonically across targets. A large sparse graph keeps the
// baseline overlap of unrelated queries low, as in the paper's datasets.
func TestWithSimilarityLevels(t *testing.T) {
	g := graph.GenRandom(3000, 2.5, 23)
	gr := g.Reverse()
	prev := -1.0
	for _, target := range []float64{0, 0.2, 0.5, 0.8} {
		qs, mu, err := WithSimilarity(g, gr, SimilarityConfig{
			Config:   Config{N: 30, KMin: 3, KMax: 4, Seed: 4},
			TargetMu: target,
		})
		if err != nil {
			t.Fatalf("target %.1f: %v", target, err)
		}
		if len(qs) != 30 {
			t.Fatalf("target %.1f: got %d queries", target, len(qs))
		}
		for i, q := range qs {
			if err := q.Validate(g); err != nil {
				t.Errorf("target %.1f query %d invalid: %v", target, i, err)
			}
		}
		if target > 0 && abs(mu-target) > 0.25 {
			t.Errorf("target %.1f: measured µ=%.3f too far off", target, mu)
		}
		if mu < prev-0.05 {
			t.Errorf("µ decreased across targets: %.3f after %.3f", mu, prev)
		}
		prev = mu
	}
}

// TestWithSimilarityRejectsImpossibleTarget.
func TestWithSimilarityRejectsImpossibleTarget(t *testing.T) {
	g, gr := testGraph()
	if _, _, err := WithSimilarity(g, gr, SimilarityConfig{
		Config: Config{N: 10}, TargetMu: 1.0,
	}); err == nil {
		t.Fatal("µ target of 1.0 must be rejected")
	}
}

// TestMeasureMuBounds: µ_Q of identical queries is 1, of a valid batch
// within [0, 1].
func TestMeasureMuBounds(t *testing.T) {
	g := testgraphs.Paper()
	gr := g.Reverse()
	same := []query.Query{{S: 0, T: 11, K: 5}, {S: 0, T: 11, K: 5}}
	if mu := MeasureMu(g, gr, same); mu < 0.999 {
		t.Errorf("identical queries measure µ=%.3f, want 1", mu)
	}
	qs, err := Random(g, Config{N: 4, KMin: 2, KMax: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if mu := MeasureMu(g, gr, qs); mu < 0 || mu > 1 {
		t.Errorf("µ=%.3f outside [0,1]", mu)
	}
}
