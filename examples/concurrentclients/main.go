// Concurrent clients: the serving scenario the paper opens with — many
// users issue HC-s-t path queries at the same time, and instead of
// answering them one by one (or "deploying more servers"), the service
// micro-batches whatever is waiting when a core comes free and lets
// BatchEnum+ share the common sub-queries of the coalesced batch.
//
// Forty client goroutines fire similar queries at one Service; the
// OnBatch hook shows each batch's coalescing and sharing as it happens:
// the first arrivals find an idle core and leave as batches of one, and
// everyone who arrives while those run shares the batches that follow.
//
//	go run ./examples/concurrentclients
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"sync"
	"time"

	hcpath "repro"
)

func main() {
	// A random directed graph standing in for a social network.
	const n = 2000
	rng := rand.New(rand.NewSource(7))
	var edges []hcpath.Edge
	for i := 0; i < 6*n; i++ {
		edges = append(edges, hcpath.Edge{
			Src: hcpath.VertexID(rng.Intn(n)),
			Dst: hcpath.VertexID(rng.Intn(n)),
		})
	}
	g, err := hcpath.NewGraph(n, edges)
	if err != nil {
		log.Fatal(err)
	}

	svc := hcpath.NewService(g, &hcpath.ServiceOptions{
		Options:  hcpath.Options{Gamma: 0.8}, // BatchEnum+, parallel across group builds and joins
		MaxBatch: 64,
		OnBatch: func(b hcpath.BatchStats) {
			fmt.Printf("batch: %2d queries coalesced → %2d groups (sharing %.2f), %d shared sub-queries, %d paths in %v\n",
				b.Queries, b.Groups, b.SharingRatio(), b.SharedQueries, b.Paths,
				time.Duration(b.EnumerateNanos).Round(time.Microsecond))
		},
	})
	defer svc.Close()

	// Forty clients, each asking for paths around a handful of popular
	// hubs — the high-similarity traffic batch sharing thrives on.
	hubs := []hcpath.VertexID{11, 42, 99, 250}
	const clients, queriesPerClient = 40, 5
	var wg sync.WaitGroup
	var mu sync.Mutex
	totalPaths := 0
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			for i := 0; i < queriesPerClient; i++ {
				q := hcpath.Query{
					S: hubs[rng.Intn(len(hubs))],
					T: hcpath.VertexID(rng.Intn(n)),
					K: 4 + rng.Intn(2),
				}
				if q.S == q.T {
					continue
				}
				paths, _, err := svc.Query(context.Background(), q)
				if err != nil {
					log.Fatal(err)
				}
				mu.Lock()
				totalPaths += len(paths)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()

	tot := svc.Totals()
	fmt.Printf("\n%d queries answered in %d batches (largest %d, mean %.1f queries/batch), %d paths\n",
		tot.Queries, tot.Batches, tot.LargestBatch,
		float64(tot.Queries)/float64(tot.Batches), totalPaths)
	fmt.Printf("sharing across batches: %d groups, %d shared sub-queries, %d partial paths spliced from cache\n",
		tot.Groups, tot.SharedQueries, tot.SplicedPaths)
}
