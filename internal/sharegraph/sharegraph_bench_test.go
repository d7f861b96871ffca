package sharegraph

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/msbfs"
)

// benchHalves builds a clustered batch of half queries on a community
// graph: sources concentrated in a few communities so the detector
// actually finds dominating HC-s path queries.
func benchHalves(numQ int) (*graph.Graph, []HalfQuery) {
	g := graph.GenCommunityPowerLaw(10000, 150, 5, 0.97, 9)
	gr := g.Reverse()
	halves := make([]HalfQuery, numQ)
	for i := range halves {
		s := graph.VertexID((i % 8) * 10) // eight hot sources
		t := graph.VertexID(5000 + i)
		halves[i] = HalfQuery{
			Root:   s,
			Budget: 3,
			K:      6,
			Other:  msbfs.Single(gr, t, 6),
			Query:  i,
		}
	}
	return g, halves
}

// BenchmarkDetect measures Algorithm 3 itself (the IdentifySubquery
// phase of Fig. 9) across batch sizes.
func BenchmarkDetect(b *testing.B) {
	for _, numQ := range []int{16, 64, 256} {
		g, halves := benchHalves(numQ)
		b.Run(benchName(numQ), func(b *testing.B) {
			var shared int
			for i := 0; i < b.N; i++ {
				psi := Detect(g, halves)
				shared = psi.NumShared()
			}
			b.ReportMetric(float64(shared), "shared-nodes")
		})
	}
}

// TestDetectAllocCeiling holds Algorithm 3 on BenchmarkDetect's
// 16-query batch to 1.25× its recorded allocation count (re-recorded
// whenever a change moves it), so per-level maps and per-edge copies
// cannot quietly come back: 75 since each node's splice entries went
// from a map to a slice (91 before). Nothing here goes through a
// sync.Pool, so the count holds under -race.
func TestDetectAllocCeiling(t *testing.T) {
	const recorded = 75
	g, halves := benchHalves(16)
	got := testing.AllocsPerRun(20, func() { Detect(g, halves) })
	ceiling := recorded * 1.25
	t.Logf("%.0f allocs per detection (ceiling %.0f)", got, ceiling)
	if got > ceiling {
		t.Errorf("%.0f allocs per detection exceeds %.0f (recorded %d × 1.25)", got, ceiling, recorded)
	}
}

// BenchmarkTopoOrder measures the enumeration-order computation.
func BenchmarkTopoOrder(b *testing.B) {
	g, halves := benchHalves(256)
	psi := Detect(g, halves)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		psi.TopoOrder()
	}
}

func benchName(n int) string {
	switch n {
	case 16:
		return "16-queries"
	case 64:
		return "64-queries"
	default:
		return "256-queries"
	}
}
