package msbfs

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// FuzzMultiSource differentially checks the task runner against
// the reference BFS (referenceMaps, which shares no code with the
// kernel): for a fuzzed graph size, source multiset, cap mix and width,
// RunPasses must reproduce it byte for byte — one pass, or with
// twoPass a second, backward pass on the reverse with a different
// source count, whose sources join the same task list. Sizes run past
// 4096 vertices and 64 sources, so the fuzzer reaches the second word
// of the touched bitmap's summary and past one 64-bit word of sources.
func FuzzMultiSource(f *testing.F) {
	f.Add(int64(1), uint8(5), uint8(0), false, uint16(58))
	f.Add(int64(2), uint8(130), uint8(3), true, uint16(58))
	f.Add(int64(3), uint8(70), uint8(8), true, uint16(58))
	f.Add(int64(99), uint8(255), uint8(2), false, uint16(58))
	f.Add(int64(4), uint8(100), uint8(0), false, uint16(4095))
	f.Add(int64(5), uint8(139), uint8(2), true, uint16(4200))
	f.Add(int64(6), uint8(65), uint8(4), false, uint16(8190))
	f.Fuzz(func(t *testing.T, seed int64, nSrcRaw, widthRaw uint8, twoPass bool, nRaw uint16) {
		n := int(nRaw)%9000 + 2
		g := graph.GenRandom(n, 3, seed)
		rng := rand.New(rand.NewSource(seed + 1))
		width := int(widthRaw) % 9
		draw := func(nSrc int) ([]graph.VertexID, []uint8) {
			sources := make([]graph.VertexID, nSrc)
			caps := make([]uint8, nSrc)
			for i := range sources {
				sources[i] = graph.VertexID(rng.Intn(n))
				switch rng.Intn(5) {
				case 0:
					caps[i] = 0
				case 1:
					caps[i] = 255
				default:
					caps[i] = uint8(rng.Intn(6))
				}
			}
			return sources, caps
		}
		sources, caps := draw(int(nSrcRaw)%140 + 1) // up to 140 sources
		passes := []Pass{{G: g, Sources: sources, Caps: caps}}
		if twoPass {
			rev := g.Reverse()
			bs, bc := draw((int(nSrcRaw)*7)%140 + 1)
			passes = append(passes, Pass{G: rev, Sources: bs, Caps: bc})
		}
		got := RunPasses(passes, nil, BuildOptions{Workers: width})
		for i, p := range passes {
			requireEqualMaps(t, n, got[i], referenceMaps(p.G, p.Sources, p.Caps))
		}
	})
}

// FuzzAdmitted differentially checks the admitted build against the
// reference BFS restricted by the same predicate (referenceAdmitted,
// which shares no code with the kernel): for a fuzzed graph size,
// source set, free radius and bound, pooled or not, every source must
// match byte for byte and the pool must come back clean. It then holds
// Subgraph's pair for the first source and a fuzzed target to its
// three properties.
func FuzzAdmitted(f *testing.F) {
	f.Add(int64(1), uint8(1), uint8(2), uint8(4), false, uint16(58))
	f.Add(int64(2), uint8(70), uint8(1), uint8(5), true, uint16(58))
	f.Add(int64(3), uint8(3), uint8(0), uint8(0), true, uint16(300))
	f.Add(int64(4), uint8(65), uint8(3), uint8(7), true, uint16(4200))
	f.Fuzz(func(t *testing.T, seed int64, nSrcRaw, freeRaw, kRaw uint8, pooled bool, nRaw uint16) {
		n := int(nRaw)%9000 + 2
		g := graph.GenRandom(n, 3, seed)
		rev := g.Reverse()
		rng := rand.New(rand.NewSource(seed + 1))
		sources, caps := randomSources(rng, n, int(nSrcRaw)%140+1)
		free, k := freeRaw%6, kRaw%12
		a := &admission{other: Single(rev, graph.VertexID(rng.Intn(n)), free), free: free, k: k}
		admit := func(v graph.VertexID, depth int) bool {
			return depth <= int(free) || int(a.other.Dist(v))+depth <= int(k)
		}
		want := make([]*DistMap, len(sources))
		for i, s := range sources {
			want[i] = referenceAdmitted(g, s, caps[i], admit)
		}
		var pool *Pool
		if pooled {
			pool = NewPool(n)
		}
		got := admittedBuild(g, sources, caps, a, pool)
		requireEqualMaps(t, n, got, want)
		for _, dm := range got {
			dm.Release()
		}
		if pool != nil {
			requireCleanPool(t, pool)
		}

		s, tt := sources[0], graph.VertexID(rng.Intn(n))
		fwd, bwd := Subgraph(g, rev, s, tt, max(k, 1), pool)
		if msg := subgraphViolation(g, rev, s, tt, max(k, 1), fwd, bwd); msg != "" {
			t.Fatalf("Subgraph(%d, %d, k=%d): %s", s, tt, max(k, 1), msg)
		}
	})
}
