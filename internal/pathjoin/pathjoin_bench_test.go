package pathjoin

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// synthHalves builds forward/backward stores shaped like a real
// bidirectional search: many partial paths of mixed lengths meeting at
// a few hundred distinct vertices.
func synthHalves(numPaths, meetVerts int, seed int64) (*Store, *Store) {
	rng := rand.New(rand.NewSource(seed))
	fwd := NewStore(numPaths, numPaths*4)
	bwd := NewStore(numPaths, numPaths*4)
	for i := 0; i < numPaths; i++ {
		meet := graph.VertexID(rng.Intn(meetVerts))
		fp := []graph.VertexID{1000, graph.VertexID(2000 + rng.Intn(500)), meet}
		bp := []graph.VertexID{1001, graph.VertexID(3000 + rng.Intn(500)), meet}
		fwd.Add(fp[:1+rng.Intn(3)])
		fwd.Add(fp)
		bwd.Add(bp[:1+rng.Intn(3)])
		bwd.Add(bp)
	}
	return fwd, bwd
}

// BenchmarkJoinHalves measures the ⊕ concatenation with the
// unique-split rule, the hot loop after every bidirectional search.
func BenchmarkJoinHalves(b *testing.B) {
	fwd, bwd := synthHalves(2000, 200, 1)
	b.ResetTimer()
	count := 0
	for i := 0; i < b.N; i++ {
		count = 0
		JoinHalves(fwd, bwd, 5, false, func([]graph.VertexID) { count++ })
	}
	b.ReportMetric(float64(count), "joined-paths")
}

// BenchmarkStoreAdd measures append throughput into a heap store and
// into an arena's stores of 1000 paths each.
func BenchmarkStoreAdd(b *testing.B) {
	p := []graph.VertexID{1, 2, 3, 4, 5}
	b.Run("heap", func(b *testing.B) {
		s := NewStore(1024, 8192)
		for i := 0; i < b.N; i++ {
			if s.Len() > 1<<20 {
				s = NewStore(1024, 8192)
			}
			s.Add(p)
		}
	})
	b.Run("arena", func(b *testing.B) {
		var a Arena
		s, stores := a.Open(), 0
		for i := 0; i < b.N; i++ {
			if s.Len() == 1000 {
				a.Seal(s)
				if stores++; stores == 1000 {
					a.Release()
					stores = 0
				}
				s = a.Open()
			}
			s.Add(p)
		}
		a.Seal(s)
		a.Release()
	})
}

// BenchmarkBuildHashIndex measures the probe-side index build, its
// arrays allocated or carved from an arena.
func BenchmarkBuildHashIndex(b *testing.B) {
	_, bwd := synthHalves(5000, 300, 2)
	b.Run("heap", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			BuildHashIndex(bwd, nil)
		}
	})
	b.Run("arena", func(b *testing.B) {
		var a Arena
		for i := 0; i < b.N; i++ {
			BuildHashIndex(bwd, &a)
			a.Release()
		}
	})
}

// BenchmarkIsSimple compares the short-path quadratic check against the
// hashed fallback boundary.
func BenchmarkIsSimple(b *testing.B) {
	short := []graph.VertexID{1, 2, 3, 4, 5, 6, 7}
	long := make([]graph.VertexID, 24)
	for i := range long {
		long[i] = graph.VertexID(i * 7)
	}
	b.Run("short", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			IsSimple(short)
		}
	})
	b.Run("long", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			IsSimple(long)
		}
	})
}
