package scenario

import (
	"bytes"
	"errors"
	"flag"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/batchenum"
	"repro/internal/service"
)

// -update regenerates the committed scenario files from their stamped
// generator inputs (see CONTRIBUTING.md on recording new scenarios).
var update = flag.Bool("update", false, "rewrite testdata scenario files")

// golden is the committed corpus: one scenario per testgraphs family,
// each stamped with the generator inputs that reproduce it.
var golden = []struct {
	file     string
	graphKey string
	seed     int64
	waves    int
}{
	{"paper-1.scenario", "paper", 1, 8},
	{"completeDAG7-2.scenario", "completeDAG:7", 2, 6},
	{"cycle8-3.scenario", "cycle:8", 3, 6},
	{"line12-4.scenario", "line:12", 4, 5},
}

func goldenPath(file string) string { return filepath.Join("testdata", file) }

// TestGenerateRoundTrip: Encode then Parse is the identity, so a
// recorded file loses nothing.
func TestGenerateRoundTrip(t *testing.T) {
	sc, err := Generate("paper", 99, 7)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sc.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sc, back) {
		t.Fatalf("round trip diverged:\n%+v\nvs\n%+v", sc, back)
	}
}

// TestGoldenFilesReproducible: every committed scenario file is exactly
// what its seed stamp regenerates — replays are reproducible from the
// stamp alone, and any generator change forces a deliberate -update.
func TestGoldenFilesReproducible(t *testing.T) {
	for _, g := range golden {
		t.Run(g.file, func(t *testing.T) {
			want, err := Generate(g.graphKey, g.seed, g.waves)
			if err != nil {
				t.Fatal(err)
			}
			if *update {
				if err := want.WriteFile(goldenPath(g.file)); err != nil {
					t.Fatal(err)
				}
				return
			}
			got, err := Load(goldenPath(g.file))
			if err != nil {
				t.Fatalf("%v (run `go test ./internal/scenario -update` to record)", err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("committed scenario diverges from its seed stamp; regenerate with -update")
			}
		})
	}
}

// replayCfg builds the service configuration of one differential arm.
func replayCfg(alg batchenum.Algorithm) service.Config {
	return service.Config{
		MaxBatch: 16,
		MaxWait:  2 * time.Millisecond,
		Engine:   batchenum.Options{Algorithm: alg, Workers: 4},
	}
}

// TestScenarioDifferentialOracle is the harness's reason to exist: on
// every committed scenario — bursts, hostile hop caps, live updates —
// a BatchEnum+ service (one-query groups through PathEnum, larger ones
// through the sharing pipeline) and a BasicEnum+ service (every query
// through PathEnum) must both return the brute-force oracle's count for
// every query at its wave's graph version. Run under -race this also
// proves the service's concurrent paths clean.
func TestScenarioDifferentialOracle(t *testing.T) {
	arms := []struct {
		name string
		cfg  service.Config
	}{
		{"batch+", replayCfg(batchenum.BatchPlus)},
		{"basic+", replayCfg(batchenum.BasicPlus)},
	}
	for _, g := range golden {
		t.Run(g.file, func(t *testing.T) {
			sc, err := Load(goldenPath(g.file))
			if err != nil {
				t.Fatal(err)
			}
			want, err := Oracle(sc)
			if err != nil {
				t.Fatal(err)
			}
			for _, arm := range arms {
				res, err := Replay(sc, arm.cfg)
				if err != nil {
					t.Fatalf("%s: %v", arm.name, err)
				}
				if len(res.Counts) != len(want) {
					t.Fatalf("%s: %d counts, want %d", arm.name, len(res.Counts), len(want))
				}
				for i := range want {
					if res.Errs[i] != nil {
						t.Errorf("%s: query %d failed: %v", arm.name, i, res.Errs[i])
						continue
					}
					if res.Counts[i] != want[i] {
						t.Errorf("%s: query %d count %d, oracle %d", arm.name, i, res.Counts[i], want[i])
					}
				}
				if res.Totals.Queries != int64(sc.NumQueries()) {
					t.Errorf("%s: service answered %d queries, scenario holds %d",
						arm.name, res.Totals.Queries, sc.NumQueries())
				}
			}
		})
	}
}

// TestReplayWithAdmissionControl replays a burst-heavy scenario through
// a service with tight admission bounds and per-caller quotas: shed
// queries report ErrOverloaded, and — the no-drop contract — every
// query the service admitted still matches the oracle.
func TestReplayWithAdmissionControl(t *testing.T) {
	sc, err := Load(goldenPath("paper-1.scenario"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := Oracle(sc)
	if err != nil {
		t.Fatal(err)
	}
	cfg := replayCfg(batchenum.BatchPlus)
	cfg.MaxInFlight = 1
	cfg.MaxQueued = 2
	cfg.MaxPerCaller = 2
	res, err := Replay(sc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	shed := 0
	for i := range want {
		if res.Errs[i] != nil {
			if !errors.Is(res.Errs[i], service.ErrOverloaded) {
				t.Errorf("query %d: non-overload error %v", i, res.Errs[i])
			}
			shed++
			continue
		}
		if res.Counts[i] != want[i] {
			t.Errorf("admitted query %d count %d, oracle %d", i, res.Counts[i], want[i])
		}
	}
	if int64(shed) != res.Totals.Shed {
		t.Errorf("observed %d sheds, Totals.Shed = %d", shed, res.Totals.Shed)
	}
	if res.Totals.Queries+res.Totals.Shed != int64(sc.NumQueries()) {
		t.Errorf("answered %d + shed %d ≠ %d submitted",
			res.Totals.Queries, res.Totals.Shed, sc.NumQueries())
	}
}
