package shard

import (
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/service"
	"repro/internal/testgraphs"
)

// TestDurableShardedWarmRestart drives a durable sharded deployment
// through update waves, closes it with a delta pending, and reopens
// from the per-worker directories: the restarted deployment must carry
// the pre-restart State, answer queries identically to a
// single-process service replaying the same update stream, and keep
// matching that service's State, epoch included, as updates go on.
func TestDurableShardedWarmRestart(t *testing.T) {
	g := testgraphs.Cycle(8)
	gr := g.Reverse()
	dir := t.TempDir()

	cfg := testConfig()
	cfg.Shards = 2
	cfg.DataDir = dir
	cfg.CompactAfter = 4

	adds := [][]graph.Edge{
		{{Src: 0, Dst: 8}, {Src: 8, Dst: 4}},
		{{Src: 2, Dst: 6}, {Src: 6, Dst: 1}},
		{{Src: 3, Dst: 9}, {Src: 9, Dst: 0}},
	}
	dels := [][]graph.Edge{
		{{Src: 1, Dst: 2}},
		nil,
		{{Src: 5, Dst: 6}},
	}

	coord, err := Open(g, gr, cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := range adds {
		if _, err := coord.ApplyUpdates(adds[i], dels[i]); err != nil {
			t.Fatalf("wave %d: %v", i, err)
		}
	}
	preState := coord.State()
	if err := coord.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Warm restart: per-worker directories win over the seed graph.
	reopened, err := Open(g, gr, cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer reopened.Close()
	if got := reopened.State(); got != preState {
		t.Fatalf("restarted State %+v, want pre-restart %+v", got, preState)
	}

	// The restarted deployment answers like a single in-memory service
	// driven through the same update stream.
	cfgSingle := testConfig()
	cfgSingle.CompactAfter = 4
	single := service.New(g, gr, cfgSingle)
	defer single.Close()
	for i := range adds {
		if _, err := single.ApplyUpdates(adds[i], dels[i]); err != nil {
			t.Fatalf("single wave %d: %v", i, err)
		}
	}
	cur := single.CurrentSnapshot().Graph()
	qs := allPairQueries(cur, 3, 5)
	diffOutcomes(t, "durable-restart/shards=2", qs, runAll(single, qs), runAll(reopened, qs))

	// And it keeps stepping through the uninterrupted run's epochs: the
	// restart reloaded the pending delta, so the next fold lands where
	// the single service's does.
	if got, want := preState, single.State(); got != want {
		t.Fatalf("pre-restart State %+v, single service %+v", got, want)
	}
	for i := 0; i < 8; i++ {
		add := []graph.Edge{{Src: graph.VertexID(i % 10), Dst: graph.VertexID((3*i + 5) % 10)}}
		del := []graph.Edge{{Src: graph.VertexID((i + 4) % 8), Dst: graph.VertexID((i + 5) % 8)}}
		if _, err := reopened.ApplyUpdates(add, del); err != nil {
			t.Fatalf("post-restart wave %d: %v", i, err)
		}
		if _, err := single.ApplyUpdates(add, del); err != nil {
			t.Fatalf("single post-restart wave %d: %v", i, err)
		}
		if got, want := reopened.State(), single.State(); got != want {
			t.Fatalf("post-restart wave %d: State %+v, uninterrupted single service %+v", i, got, want)
		}
	}
	if got := reopened.Stats().Compactions; got < 2 {
		t.Fatalf("setup: %d folds; the post-restart waves must cross CompactAfter", got)
	}
}

// TestConcurrentUpdatesAndCheckpoint races the update fan-out against
// checkpoints on a durable 2-shard deployment. A checkpoint folds every
// worker, so one landing between two workers' halves of an update
// would leave them a fold apart; the coordinator's lock must keep every
// call succeeding and every worker on one State.
func TestConcurrentUpdatesAndCheckpoint(t *testing.T) {
	g := testgraphs.Cycle(8)
	cfg := testConfig()
	cfg.Shards = 2
	cfg.DataDir = t.TempDir()
	cfg.CompactAfter = 5
	coord, err := Open(g, g.Reverse(), cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer coord.Close()

	const updates, checkpoints = 40, 15
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < updates; i++ {
			add := []graph.Edge{{Src: graph.VertexID(i % 8), Dst: graph.VertexID(8 + i)}}
			if _, err := coord.ApplyUpdates(add, nil); err != nil {
				t.Errorf("update %d: %v", i, err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < checkpoints; i++ {
			if err := coord.Checkpoint(); err != nil {
				t.Errorf("checkpoint %d: %v", i, err)
				return
			}
		}
	}()
	wg.Wait()

	want := coord.workers[0].State()
	for i, w := range coord.workers[1:] {
		if got := w.State(); got != want {
			t.Errorf("shard %d ended on %+v, shard 0 on %+v", i+1, got, want)
		}
	}
	if tot := coord.Stats(); want.Epoch != uint64(updates+tot.Compactions) {
		t.Errorf("epoch %d, want %d updates + %d folds", want.Epoch, updates, tot.Compactions)
	}
}

// TestOpenRefusesDivergedWorkers corrupts the replica invariant —
// one worker directory carries an extra update — and proves Open
// refuses the deployment instead of serving shard-dependent answers.
func TestOpenRefusesDivergedWorkers(t *testing.T) {
	g := testgraphs.Diamond()
	gr := g.Reverse()
	dir := t.TempDir()

	cfg := testConfig()
	cfg.Shards = 2
	cfg.DataDir = dir

	coord, err := Open(g, gr, cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := coord.ApplyUpdates([]graph.Edge{{Src: 0, Dst: 3}}, nil); err != nil {
		t.Fatalf("ApplyUpdates: %v", err)
	}
	if err := coord.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Advance shard-1 alone, as a crash mid-fan-out would.
	wcfg := workerConfig(cfg, 2, true)
	wcfg.DataDir = filepath.Join(dir, "shard-1")
	svc, err := service.Open(nil, nil, wcfg)
	if err != nil {
		t.Fatalf("opening shard-1 alone: %v", err)
	}
	if _, err := svc.ApplyUpdates([]graph.Edge{{Src: 1, Dst: 0}}, nil); err != nil {
		t.Fatalf("diverging shard-1: %v", err)
	}
	if err := svc.Close(); err != nil {
		t.Fatalf("closing shard-1: %v", err)
	}

	if c, err := Open(g, gr, cfg); err == nil {
		c.Close()
		t.Fatal("Open accepted diverged worker directories")
	} else if !strings.Contains(err.Error(), "diverged") {
		t.Fatalf("Open error %q does not name the divergence", err)
	}
}

// TestOpenShardDirLayout pins the on-disk contract: worker i owns
// DataDir/shard-i, the layout the per-process wire deployment
// reproduces with one -datadir flag per worker.
func TestOpenShardDirLayout(t *testing.T) {
	g := testgraphs.Diamond()
	gr := g.Reverse()
	dir := t.TempDir()
	cfg := testConfig()
	cfg.Shards = 3
	cfg.DataDir = dir
	coord, err := Open(g, gr, cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer coord.Close()
	for i := 0; i < 3; i++ {
		sub := filepath.Join(dir, fmt.Sprintf("shard-%d", i))
		if !dirExists(t, sub) {
			t.Errorf("worker %d directory %s missing", i, sub)
		}
	}
}

func dirExists(t *testing.T, path string) bool {
	t.Helper()
	m, err := filepath.Glob(filepath.Join(path, "*"))
	return err == nil && len(m) > 0
}
