// Live graph updates: the fraud-detection workload without the process
// restart. Real transaction networks mutate continuously — every
// settled payment is a new edge, chargebacks remove them — while cycle
// checks keep arriving. The versioned store behind Service.ApplyUpdates
// makes both sides cheap: an update merges only the touched adjacency
// rows into a compact delta and swaps the new epoch in atomically, so
// queries in flight finish on their snapshot, the next micro-batch sees
// the new graph, and the cross-batch index cache can never serve a
// stale (pre-update) distance map. When the delta grows past a
// threshold the update that crossed it folds it into a fresh CSR.
//
//	go run ./examples/liveupdates
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"sync"

	hcpath "repro"
)

const (
	numAccounts = 2000
	numPayments = 8000
	maxHops     = 4
	windows     = 6  // settlement windows to process
	windowTxns  = 30 // new payments (edge adds) per window
	windowDrops = 10 // chargebacks (edge deletes) per window
	checks      = 25 // concurrent cycle checks per window
)

func main() {
	rng := rand.New(rand.NewSource(42))
	randomAccount := func() hcpath.VertexID { return hcpath.VertexID(rng.Intn(numAccounts)) }

	var edges []hcpath.Edge
	for i := 0; i < numPayments; i++ {
		if a, b := randomAccount(), randomAccount(); a != b {
			edges = append(edges, hcpath.Edge{Src: a, Dst: b})
		}
	}
	g, err := hcpath.NewGraph(numAccounts, edges)
	if err != nil {
		log.Fatal(err)
	}

	svc := hcpath.NewService(g, &hcpath.ServiceOptions{
		MaxBatch:     checks,
		CompactAfter: 100, // small threshold so the demo shows a fold
	})
	defer svc.Close()

	for w := 0; w < windows; w++ {
		// The window settles: new payments land, some earlier ones are
		// charged back. One ApplyUpdates publishes the whole window.
		var adds, dels []hcpath.Edge
		for i := 0; i < windowTxns; i++ {
			adds = append(adds, hcpath.Edge{Src: randomAccount(), Dst: randomAccount()})
		}
		for i := 0; i < windowDrops; i++ {
			e := edges[rng.Intn(len(edges))]
			dels = append(dels, e)
		}
		epoch, err := svc.ApplyUpdates(adds, dels)
		if err != nil {
			log.Fatal(err)
		}

		// Concurrent cycle checks against the freshly published epoch:
		// each new payment (t → s) asks for s ⇝ t paths; the service
		// micro-batches whatever arrives together.
		var wg sync.WaitGroup
		var mu sync.Mutex
		flagged := 0
		for i := 0; i < checks; i++ {
			tx := adds[rng.Intn(len(adds))]
			if tx.Src == tx.Dst {
				continue
			}
			wg.Add(1)
			go func(q hcpath.Query) {
				defer wg.Done()
				count, _, err := svc.Count(context.Background(), q)
				if err != nil {
					log.Print(err)
					return
				}
				if count > 0 {
					mu.Lock()
					flagged++
					mu.Unlock()
				}
			}(hcpath.Query{S: tx.Dst, T: tx.Src, K: maxHops})
		}
		wg.Wait()
		fmt.Printf("window %d: +%d/−%d edges → epoch %d; %d/%d checks closed a cycle\n",
			w, len(adds), len(dels), epoch, flagged, checks)
	}

	tot := svc.Totals()
	fmt.Printf("\nfinal epoch %d: %d effective edge changes, %d compactions, %d delta edges pending\n",
		tot.Epoch, tot.UpdatesApplied, tot.Compactions, tot.DeltaEdges)
	fmt.Printf("index cache across epochs: %d hits, %d misses (each new epoch replaces the cached generation)\n",
		tot.IndexHits, tot.IndexMisses)
}
