// Overload protection: a burst of greedy clients hits a service with
// bounded concurrency, a bounded queue, and a per-caller fairness
// quota. Submissions beyond the bounds are shed at admission with the
// typed ErrOverloaded — nothing ran for them, so the right client-side
// response is exponential backoff and retry, which is exactly what the
// clients here do. Admitted queries are always answered: the summary
// shows every query eventually completing and the service reporting how
// many attempts it shed.
//
//	go run ./examples/overload
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	hcpath "repro"
)

func main() {
	// A random directed graph standing in for a social network.
	const n = 2000
	rng := rand.New(rand.NewSource(11))
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

	// Tight bounds so the burst below actually overloads the service:
	// two batches in flight, a three-seat queue, four outstanding queries
	// per caller.
	svc := hcpath.NewService(g, &hcpath.ServiceOptions{
		MaxBatch:     8,
		MaxWait:      2 * time.Millisecond,
		MaxInFlight:  2,
		MaxQueued:    3,
		MaxPerCaller: 4,
	})
	defer svc.Close()

	const clients = 12
	const queriesPerClient = 25
	var backoffs, answered atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			caller := fmt.Sprintf("client-%d", c)
			crng := rand.New(rand.NewSource(int64(c)))
			for i := 0; i < queriesPerClient; i++ {
				q := hcpath.Query{
					S: hcpath.VertexID(crng.Intn(n)),
					T: hcpath.VertexID(crng.Intn(n-1) + 1),
					K: 3 + crng.Intn(2),
				}
				if q.S == q.T {
					continue
				}
				// Backoff loop: ErrOverloaded means "nothing ran, try
				// later" — wait a growing interval and resubmit.
				delay := time.Millisecond
				for {
					_, _, err := svc.CountFrom(context.Background(), caller, q)
					if errors.Is(err, hcpath.ErrOverloaded) {
						backoffs.Add(1)
						time.Sleep(delay)
						if delay < 32*time.Millisecond {
							delay *= 2
						}
						continue
					}
					if err != nil {
						log.Fatalf("%s: %v", caller, err)
					}
					answered.Add(1)
					break
				}
			}
		}(c)
	}
	wg.Wait()

	tot := svc.Totals()
	fmt.Printf("answered %d queries from %d clients in %v\n",
		answered.Load(), clients, time.Since(start).Round(time.Millisecond))
	fmt.Printf("service shed %d submissions; clients backed off %d times and lost nothing\n",
		tot.Shed, backoffs.Load())
	fmt.Printf("%d batches (largest %d), %d sharing groups\n",
		tot.Batches, tot.LargestBatch, tot.Groups)
	if tot.Queries != answered.Load() {
		log.Fatalf("service answered %d but clients counted %d", tot.Queries, answered.Load())
	}
}
