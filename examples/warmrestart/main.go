// Warm restart: a durable query service surviving a crash. The
// liveupdates example keeps its graph in memory — stop the process and
// every settled update is gone. Here the service is opened with a
// DataDir instead: each ApplyUpdates is appended to a CRC-framed
// write-ahead log before its epoch publishes, every fold of the update
// delta writes the fresh CSR as a snapshot file, and reopening the
// directory warm-restarts the service at the exact pre-crash epoch and
// edge set.
//
// The demo runs three "process lifetimes" over one data directory:
//
//	life 0  bootstraps the store from a seed graph, applies updates
//	        and closes cleanly
//	life 1  applies more updates, folding the delta into a snapshot on
//	        the way, then crashes — no Close
//	life 2  reopens from life 1's fold snapshot plus the WAL written
//	        since, and proves the crash lost nothing
//
// Each lifetime records the store's State (epoch, sizes, and a
// checksum over the canonical CSR serialization); the recovery must
// reproduce the pre-crash state field for field.
//
//	go run ./examples/warmrestart
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"os"

	hcpath "repro"
)

const (
	numVertices  = 500
	numEdges     = 2500
	waves        = 40  // update waves per lifetime
	waveSize     = 8   // edge changes per wave
	compactAfter = 400 // edge changes per fold: life 1 crosses one
)

func main() {
	dir, err := os.MkdirTemp("", "hcpath-warmrestart-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	rng := rand.New(rand.NewSource(7))
	randomVertex := func() hcpath.VertexID { return hcpath.VertexID(rng.Intn(numVertices)) }
	var edges []hcpath.Edge
	for i := 0; i < numEdges; i++ {
		if a, b := randomVertex(), randomVertex(); a != b {
			edges = append(edges, hcpath.Edge{Src: a, Dst: b})
		}
	}
	seed, err := hcpath.NewGraph(numVertices, edges)
	if err != nil {
		log.Fatal(err)
	}

	opts := &hcpath.ServiceOptions{
		DataDir: dir,
		// FsyncAlways (the default) makes every acknowledged update
		// crash-proof; FsyncInterval trades a bounded window of recent
		// updates for near-in-memory append latency.
		Fsync: hcpath.FsyncAlways,
		// The update that brings the pending delta to this many edge
		// changes folds it into a fresh base and writes that base as
		// the snapshot file, before it returns.
		CompactAfter: compactAfter,
	}

	// Life 0: bootstrap from the seed graph, apply updates, close
	// cleanly.
	svc, err := hcpath.OpenService(seed, opts)
	if err != nil {
		log.Fatal(err)
	}
	applyWaves(svc, rng, "life 0")
	st0 := svc.State()
	if err := svc.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("life 0 closed at  %s\n", fmtState(st0))

	// Life 1: reopen (the seed graph is ignored — the directory wins),
	// apply more updates, then "crash": the process keeps running, but
	// the service is simply abandoned. No Close; the WAL alone carries
	// everything since the fold's snapshot.
	svc, err = hcpath.OpenService(nil, opts)
	if err != nil {
		log.Fatal(err)
	}
	if got := svc.State(); got != st0 {
		log.Fatalf("clean reopen diverged: %s vs %s", fmtState(got), fmtState(st0))
	}
	applyWaves(svc, rng, "life 1")
	st1 := svc.State()
	tot1 := svc.Totals()
	if tot1.SnapshotEpoch == 0 {
		log.Fatalf("life 1 never folded; lower compactAfter (%d edge changes pending)", tot1.DeltaEdges)
	}
	fmt.Printf("life 1 crashed at %s (folded into the snapshot at epoch %d)\n", fmtState(st1), tot1.SnapshotEpoch)
	// (crash: svc leaks, exactly like a killed process)

	// Life 2: warm restart. Recovery loads the newest valid snapshot —
	// life 1's fold — and replays the WAL tail, reaching the pre-crash
	// state exactly, pending delta included.
	svc, err = hcpath.OpenService(nil, opts)
	if err != nil {
		log.Fatal(err)
	}
	defer svc.Close()
	st2 := svc.State()
	fmt.Printf("life 2 recovered  %s\n", fmtState(st2))
	if st2 != st1 {
		log.Fatalf("recovery lost data: %s vs %s", fmtState(st2), fmtState(st1))
	}

	// The recovered service answers queries like any other.
	q := hcpath.Query{S: 0, T: 11, K: 4}
	count, _, err := svc.Count(context.Background(), q)
	if err != nil {
		log.Fatal(err)
	}
	tot := svc.Totals()
	fmt.Printf("recovered service: %d paths for (s=%d, t=%d, k=%d); %d WAL records, snapshot epoch %d\n",
		count, q.S, q.T, q.K, tot.WALRecords, tot.SnapshotEpoch)
	fmt.Println("warm restart: pre-crash and recovered states match")
}

// applyWaves pushes `waves` random update waves through the service.
func applyWaves(svc *hcpath.Service, rng *rand.Rand, label string) {
	for w := 0; w < waves; w++ {
		var adds, dels []hcpath.Edge
		for i := 0; i < waveSize; i++ {
			a, b := hcpath.VertexID(rng.Intn(numVertices)), hcpath.VertexID(rng.Intn(numVertices))
			if a == b {
				continue
			}
			if i%4 == 3 {
				dels = append(dels, hcpath.Edge{Src: a, Dst: b})
			} else {
				adds = append(adds, hcpath.Edge{Src: a, Dst: b})
			}
		}
		if _, err := svc.ApplyUpdates(adds, dels); err != nil {
			log.Fatalf("%s wave %d: %v", label, w, err)
		}
	}
}

func fmtState(st hcpath.StoreState) string {
	return fmt.Sprintf("epoch %d, n %d, m %d, crc %08x", st.Epoch, st.NumVertices, st.NumEdges, st.Checksum)
}
