// Sharded deployment: the same paper-Fig.1 workload served by an
// in-process sharded deployment instead of a single service. Vertices
// are hash-partitioned across N shard workers, each with its own
// versioned store, index cache, and batch pipeline. A query whose
// endpoints hash to the same shard is forwarded unchanged; a
// cross-shard query runs whole on the worker owning its source, as a
// batch of one on the caller's goroutine (every worker holds the full
// edge set). One worker answers each query on one snapshot, so results
// are bit-identical to the single-process service.
//
//	go run ./examples/sharded
package main

import (
	"context"
	"fmt"
	"log"

	hcpath "repro"
)

const shards = 3

func main() {
	// The running-example graph of the paper's Fig. 1.
	g, err := hcpath.NewGraph(16, []hcpath.Edge{
		{Src: 0, Dst: 1}, {Src: 0, Dst: 4},
		{Src: 2, Dst: 1}, {Src: 2, Dst: 4},
		{Src: 5, Dst: 1},
		{Src: 1, Dst: 7}, {Src: 1, Dst: 8},
		{Src: 4, Dst: 9},
		{Src: 9, Dst: 3}, {Src: 9, Dst: 15}, {Src: 9, Dst: 8},
		{Src: 3, Dst: 15},
		{Src: 7, Dst: 10}, {Src: 7, Dst: 8},
		{Src: 3, Dst: 6}, {Src: 15, Dst: 6},
		{Src: 10, Dst: 12},
		{Src: 12, Dst: 11}, {Src: 12, Dst: 13},
		{Src: 6, Dst: 11}, {Src: 6, Dst: 13}, {Src: 6, Dst: 14},
	})
	if err != nil {
		log.Fatal(err)
	}

	svc := hcpath.NewService(g, &hcpath.ServiceOptions{Shards: shards})
	defer svc.Close()
	fmt.Printf("deployment: %d shard workers\n\n", svc.NumShards())

	// Pick one query of each routing class using the public placement
	// function: ShardOf tells us which worker owns each endpoint.
	queries := []hcpath.Query{
		{S: 0, T: 11, K: 5},
		{S: 2, T: 13, K: 5},
		{S: 5, T: 12, K: 5},
		{S: 4, T: 14, K: 4},
		{S: 9, T: 14, K: 3},
		{S: 9, T: 11, K: 3}, // both endpoints hash to one shard
	}
	for _, q := range queries {
		sa, sb := hcpath.ShardOf(q.S, shards), hcpath.ShardOf(q.T, shards)
		class := fmt.Sprintf("cross-shard (whole on shard %d, inline batch of one)", sa)
		if sa == sb {
			class = "single-shard (forwarded unchanged)"
		}
		paths, _, err := svc.Query(context.Background(), q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("q(v%d→v%d, k=%d): shards %d/%d, %s, %d paths\n",
			q.S, q.T, q.K, sa, sb, class, len(paths))
		for _, p := range paths {
			fmt.Printf("   %s\n", p)
		}
	}

	// Live updates fan out to every worker atomically per epoch, so the
	// shards never answer from diverging graph versions.
	if _, err := svc.ApplyUpdates([]hcpath.Edge{{Src: 8, Dst: 10}}, nil); err != nil {
		log.Fatal(err)
	}
	paths, _, err := svc.Query(context.Background(), hcpath.Query{S: 1, T: 12, K: 3})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nafter update (+8→10): q(v1→v12, k=3) has %d paths at epoch %d\n",
		len(paths), svc.Epoch())

	rs := svc.Sharding()
	fmt.Printf("routing: %d single-shard, %d cross-shard, %d shed\n",
		rs.SingleShard, rs.CrossShard, rs.CrossShed)
	// Every query sits in the counters of the one worker that answered it.
	for i, t := range svc.ShardTotals() {
		fmt.Printf("shard %d answered %d queries\n", i, t.Queries)
	}
}
