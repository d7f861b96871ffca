package shard

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/service"
	"repro/internal/testgraphs"
)

// TestDurableShardedWarmRestart drives a durable sharded deployment
// through update waves, closes it, and reopens from the per-worker
// directories: the restarted deployment must carry the pre-restart
// State and answer queries identically to a single-process service
// replaying the same update stream.
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

	// And it keeps accepting updates at the restored epoch.
	epoch, err := reopened.ApplyUpdates([]graph.Edge{{Src: 7, Dst: 3}}, nil)
	if err != nil {
		t.Fatalf("post-restart update: %v", err)
	}
	if epoch <= preState.Epoch {
		t.Errorf("post-restart epoch %d did not advance past %d", epoch, preState.Epoch)
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
