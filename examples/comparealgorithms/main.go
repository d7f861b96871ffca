// Compare the paper's four engines on one batch: a
// transaction-network-style graph with a duplicate-heavy workload, the
// regime where batch sharing pays. Every engine runs on GOMAXPROCS
// workers, the default; a last row runs BatchEnum+ inline on one
// worker, so the serial cost stays visible. Prints a small table of
// wall-clock times and sharing statistics so adopters can judge which
// engine fits their workload.
//
//	go run ./examples/comparealgorithms
package main

import (
	"fmt"
	"log"
	"math/rand"
	"slices"
	"time"

	hcpath "repro"
)

const (
	numVertices = 4000
	numEdges    = 20000
	batchSize   = 80
	hotPairs    = 6 // recurring (s,t) pairs, as in fraud re-checks
	maxHops     = 5
)

func main() {
	rng := rand.New(rand.NewSource(42))
	edges := make([]hcpath.Edge, 0, numEdges)
	for i := 0; i < numEdges; i++ {
		a := hcpath.VertexID(rng.Intn(numVertices))
		b := hcpath.VertexID(rng.Intn(numVertices))
		if a != b {
			edges = append(edges, hcpath.Edge{Src: a, Dst: b})
		}
	}
	g, err := hcpath.NewGraph(numVertices, edges)
	if err != nil {
		log.Fatal(err)
	}

	// The batch: most queries revisit a few hot (s, t) pairs — the
	// shape produced by recurring fraud checks or hub-entity features.
	hot := make([]hcpath.Query, hotPairs)
	for i := range hot {
		hot[i] = hcpath.Query{
			S: hcpath.VertexID(rng.Intn(numVertices)),
			T: hcpath.VertexID(rng.Intn(numVertices)),
			K: maxHops,
		}
	}
	queries := make([]hcpath.Query, batchSize)
	for i := range queries {
		if rng.Intn(4) > 0 { // 75% hot repeats
			queries[i] = hot[rng.Intn(hotPairs)]
		} else {
			queries[i] = hcpath.Query{
				S: hcpath.VertexID(rng.Intn(numVertices)),
				T: hcpath.VertexID(rng.Intn(numVertices)),
				K: maxHops,
			}
		}
		if queries[i].S == queries[i].T {
			queries[i].T = (queries[i].T + 1) % numVertices
		}
	}

	type config struct {
		name string
		opts hcpath.Options
	}
	configs := []config{
		{"BasicEnum", hcpath.Options{Algorithm: hcpath.BasicEnum}},
		{"BasicEnum+", hcpath.Options{Algorithm: hcpath.BasicEnumPlus}},
		{"BatchEnum", hcpath.Options{Algorithm: hcpath.BatchEnum}},
		{"BatchEnum+", hcpath.Options{Algorithm: hcpath.BatchEnumPlus}},
		{"BatchEnum+ (one worker)", hcpath.Options{Algorithm: hcpath.BatchEnumPlus, Workers: 1}},
	}

	var want []int64 // BasicEnum's per-query counts, the first row's
	fmt.Printf("%-26s %12s %10s %8s %8s\n", "engine", "time", "paths", "shared", "spliced")
	for _, c := range configs {
		eng := hcpath.NewEngine(g, &c.opts)
		t0 := time.Now()
		counts, st, err := eng.Count(queries)
		if err != nil {
			log.Fatal(err)
		}
		if want == nil {
			want = counts
		} else if !slices.Equal(counts, want) {
			log.Fatalf("%s: per-query counts differ from BasicEnum's", c.name)
		}
		var total int64
		for _, n := range counts {
			total += n
		}
		fmt.Printf("%-26s %12s %10d %8d %8d\n",
			c.name, time.Since(t0).Round(10*time.Microsecond), total, st.SharedQueries, st.SplicedPaths)
	}
}
