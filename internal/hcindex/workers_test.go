package hcindex

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/query"
)

// workersFixture builds a batch large enough to keep several goroutines
// busy in each direction, with repeated endpoints and mixed caps.
func workersFixture(t *testing.T) (g, gr *graph.Graph, qs []query.Query) {
	t.Helper()
	g = graph.GenCommunityPowerLaw(600, 30, 4, 0.9, 13)
	gr = g.Reverse()
	rng := rand.New(rand.NewSource(17))
	raw := make([]query.Query, 90)
	for i := range raw {
		raw[i] = query.Query{
			S: graph.VertexID(rng.Intn(40)), // few endpoints: dedup kicks in
			T: graph.VertexID(rng.Intn(g.NumVertices())),
			K: uint8(1 + rng.Intn(7)),
		}
	}
	qs, err := query.Batch(g, raw)
	if err != nil {
		t.Fatal(err)
	}
	return g, gr, qs
}

// TestBuilderWorkersMatchesSequential: the width a Builder is given
// must be invisible in the results — at every width, pooled or not,
// both directions' searches built as one task list reproduce the serial
// Build on all distance maps.
func TestBuilderWorkersMatchesSequential(t *testing.T) {
	g, gr, qs := workersFixture(t)
	want := Build(g, gr, qs)
	for _, workers := range []int{1, 2, 4} {
		for _, pooled := range []bool{false, true} {
			b := NewBuilderWorkers(pooled, workers)
			for round := 0; round < 2; round++ { // round 2 exercises pool reuse
				idx := b.Acquire(g, gr, 0, qs)
				indexesAgree(t, "builder", g, want, idx, len(qs))
				idx.Release()
			}
		}
	}
}

// TestProviderWidth: a Builder reports the width its owner gave it (at
// least one), a Cache one — the width Algorithm 2's µ matrix runs at
// beside the build.
func TestProviderWidth(t *testing.T) {
	for _, c := range []struct {
		name string
		p    Provider
		want int
	}{
		{"NewBuilder", NewBuilder(true), 1},
		{"NewBuilderWorkers(4)", NewBuilderWorkers(false, 4), 4},
		{"NewBuilderWorkers(0)", NewBuilderWorkers(true, 0), 1},
		{"NewCache", NewCache(0), 1},
	} {
		if got := c.p.Width(); got != c.want {
			t.Errorf("%s: Width %d, want %d", c.name, got, c.want)
		}
	}
}
