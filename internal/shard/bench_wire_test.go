package shard

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/testgraphs"
)

// BenchmarkWireThroughput measures the wire transport. RPCs drives the
// mtEpoch RPC — the smallest frame in the vocabulary, so the socket
// round-trip is the whole cost — from 64 concurrent goroutines over one
// shared worker connection: every frame queued while a flush syscall is
// in progress rides the next one, so concurrent requests share
// round-trips. The rpcs/flush metric is the measured coalescing factor
// — above 1 whenever the benchmark machine can actually race producers
// against the flush (on a single-core runner the scheduler serializes
// them and the factor sits near 1). Queries runs concurrent count-mode
// queries through the full coordinator, where enumeration and
// micro-batching dilute the transport's share. Only the RPC
// allocation count is gated (TestWireRPCAllocCeiling): a ~6µs loopback
// round-trip is syscall-bound, and its ns/op swings ±30% run to run on
// shared runners while the allocation count stays exact.
func BenchmarkWireThroughput(b *testing.B) {
	const clients = 64

	b.Run("RPCs", func(b *testing.B) {
		g := testgraphs.Diamond()
		coord := startCluster(b, g, 2, testConfig(), ConnectOptions{})
		w := coord.workers[0].(*remoteWorker)
		b.ResetTimer()
		var wg sync.WaitGroup
		var errOnce sync.Once
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for j := c; j < b.N; j += clients {
					id, req := w.begin(mtEpoch)
					if _, err := w.call(context.Background(), id, req); err != nil {
						errOnce.Do(func() { b.Error(err) })
						return
					}
				}
			}(c)
		}
		wg.Wait()
		b.ReportMetric(float64(w.out.frames.Load())/float64(max(w.out.flushes.Load(), 1)), "rpcs/flush")
	})

	b.Run("Queries", func(b *testing.B) {
		g := testgraphs.Cycle(16)
		qs := allPairQueries(g, 4, 6)
		cfg := testConfig()
		cfg.MaxBatch = clients
		cfg.MaxWait = 200 * time.Microsecond
		coord := startCluster(b, g, 2, cfg, ConnectOptions{})
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
	})
}

// TestWireRPCAllocCeiling keeps the frame encode/flush/decode path from
// regrowing allocations: one mtEpoch round trip — client and in-process
// server sides together — may allocate at most 1.25× the recorded
// count. (Nothing on this path goes through a sync.Pool, so the count
// holds under -race.)
func TestWireRPCAllocCeiling(t *testing.T) {
	const recorded = 13
	coord := startCluster(t, testgraphs.Diamond(), 2, testConfig(), ConnectOptions{})
	w := coord.workers[0].(*remoteWorker)
	got := testing.AllocsPerRun(200, func() {
		id, req := w.begin(mtEpoch)
		if _, err := w.call(context.Background(), id, req); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocs per RPC (ceiling %.1f)", got, recorded*1.25)
	if got > recorded*1.25 {
		t.Errorf("%.0f allocs per RPC exceeds %.1f (recorded %d × 1.25)", got, recorded*1.25, recorded)
	}
}
