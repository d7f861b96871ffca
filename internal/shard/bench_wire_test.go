package shard

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/query"
	"repro/internal/service"
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
		coord := startCluster(b, g, 2, testConfig())
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
					if err := w.call(context.Background(), id, req, nil); err != nil {
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
		coord := startCluster(b, g, 2, cfg)
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
// count. Every frame, and the call's reply channel, is recycled through
// a sync.Pool, which drops entries at random under the race detector,
// so the test skips there.
func TestWireRPCAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries at random under the race detector")
	}
	const recorded = 3
	coord := startCluster(t, testgraphs.Diamond(), 2, testConfig())
	w := coord.workers[0].(*remoteWorker)
	got := testing.AllocsPerRun(200, func() {
		id, req := w.begin(mtEpoch)
		if err := w.call(context.Background(), id, req, nil); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocs per RPC (ceiling %.1f)", got, recorded*1.25)
	if got > recorded*1.25 {
		t.Errorf("%.0f allocs per RPC exceeds %.1f (recorded %d × 1.25)", got, recorded*1.25, recorded)
	}
}

// TestWireReplyAllocsPerPath pins what a collected reply costs over the
// wire: the worker encodes it into a pooled frame sized once
// (service.ReplyWireSize) and the coordinator reads it into a pooled
// frame and decodes it into one flat store, so a Submit answering 2510
// paths costs no more allocations than one answering a single path,
// plus a recorded constant: a collection empties the pool, and the
// next large reply allocates its frames again (36 and 37 allocations
// when recorded; 36 and 36 with the collector off). A reply grown path
// by path from an empty frame and read into a fresh buffer read 50 and
// 72.
func TestWireReplyAllocsPerPath(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries at random under the race detector")
	}
	const recorded = 2
	cfg := testConfig()
	cfg.MaxBatch = 1
	coord := startCluster(t, testgraphs.CompleteDAG(14), 2, cfg)
	allocs := func(k uint8, want int) float64 {
		var rep *service.Reply
		got := testing.AllocsPerRun(50, func() {
			var err error
			if rep, err = coord.Submit(context.Background(), "", query.Query{S: 0, T: 13, K: k}, true); err != nil {
				t.Fatal(err)
			}
		})
		if rep.Paths.Len() != want {
			t.Fatalf("k %d: %d paths, want %d", k, rep.Paths.Len(), want)
		}
		return got
	}
	one := allocs(1, 1)
	many := allocs(7, 2510) // every ≤7-hop chain through 12 inner vertices
	t.Logf("Submit over the wire: %.0f allocations for 1 path, %.0f for 2510", one, many)
	if many > one+recorded {
		t.Errorf("Submit over the wire: %.0f allocations for 2510 paths, more than the %.0f for one path plus %d", many, one, recorded)
	}
}
