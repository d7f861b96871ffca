package shard

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/testgraphs"
)

// BenchmarkWireThroughput measures the wire transport under the two
// client flush policies. The RPCs pair drives the mtEpoch RPC — the
// smallest frame in the vocabulary, so the socket round-trip is the
// whole cost — from 64 concurrent goroutines over one shared worker
// connection: Batched is the production configuration (every frame
// queued while a flush syscall is in progress rides the next one, so
// concurrent requests share round-trips), NoBatch flushes every frame
// individually. The rpcs/flush metric is the measured coalescing
// factor — 1.0 by construction on the NoBatch side, above it on the
// Batched side whenever the benchmark machine can actually race
// producers against the flush (on a single-core runner the scheduler
// serializes them and the factor sits near 1). The Queries pair runs
// the same comparison end to end — concurrent count-mode queries
// through the full coordinator — where enumeration and micro-batching
// dilute the transport's share. Only the RPC pair's allocation count
// is gated (TestWireRPCAllocCeiling): a ~6µs loopback round-trip is
// syscall-bound, and its ns/op swings ±30% run to run on shared
// runners while the allocation count stays exact.
func BenchmarkWireThroughput(b *testing.B) {
	const clients = 64

	rpcs := func(b *testing.B, noBatch bool) {
		g := testgraphs.Diamond()
		coord := startCluster(b, g, 2, testConfig(), ConnectOptions{NoBatch: noBatch})
		w := coord.workers[0].(*remoteWorker)
		b.ResetTimer()
		var wg sync.WaitGroup
		var errOnce sync.Once
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for j := c; j < b.N; j += clients {
					if _, err := w.call(context.Background(), mtEpoch, nil); err != nil {
						errOnce.Do(func() { b.Error(err) })
						return
					}
				}
			}(c)
		}
		wg.Wait()
		b.ReportMetric(float64(w.rpcs.Load())/float64(max(w.flushes.Load(), 1)), "rpcs/flush")
	}

	queries := func(b *testing.B, noBatch bool) {
		g := testgraphs.Cycle(16)
		qs := allPairQueries(g, 4, 6)
		cfg := testConfig()
		cfg.MaxBatch = clients
		cfg.MaxWait = 200 * time.Microsecond
		coord := startCluster(b, g, 2, cfg, ConnectOptions{NoBatch: noBatch})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for j := c; j < len(qs); j += clients {
						if _, err := coord.Submit(context.Background(), "", qs[j], false); err != nil {
							b.Error(err)
							return
						}
					}
				}(c)
			}
			wg.Wait()
		}
		b.ReportMetric(float64(b.N)*float64(len(qs))/b.Elapsed().Seconds(), "queries/s")
	}

	b.Run("RPCsBatched", func(b *testing.B) { rpcs(b, false) })
	b.Run("RPCsNoBatch", func(b *testing.B) { rpcs(b, true) })
	b.Run("QueriesBatched", func(b *testing.B) { queries(b, false) })
	b.Run("QueriesNoBatch", func(b *testing.B) { queries(b, true) })
}

// TestWireRPCAllocCeiling keeps the frame encode/flush/decode path from
// regrowing allocations: one mtEpoch round trip — client and in-process
// server sides together — may allocate at most 1.25× the 18 the last
// committed baseline recorded under either flush policy. (Nothing on
// this path goes through a sync.Pool, so the count holds under -race.)
func TestWireRPCAllocCeiling(t *testing.T) {
	const recorded = 18
	for _, noBatch := range []bool{false, true} {
		coord := startCluster(t, testgraphs.Diamond(), 2, testConfig(), ConnectOptions{NoBatch: noBatch})
		w := coord.workers[0].(*remoteWorker)
		got := testing.AllocsPerRun(200, func() {
			if _, err := w.call(context.Background(), mtEpoch, nil); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("NoBatch=%v: %.0f allocs per RPC (ceiling %.1f)", noBatch, got, recorded*1.25)
		if got > recorded*1.25 {
			t.Errorf("NoBatch=%v: %.0f allocs per RPC exceeds %.1f (recorded %d × 1.25)", noBatch, got, recorded*1.25, recorded)
		}
	}
}
