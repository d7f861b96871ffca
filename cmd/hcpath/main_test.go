package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	hcpath "repro"
)

func TestParseAlgo(t *testing.T) {
	cases := map[string]hcpath.Algorithm{
		"batch+":     hcpath.BatchEnumPlus,
		"BatchEnum+": hcpath.BatchEnumPlus,
		"batch":      hcpath.BatchEnum,
		"basic+":     hcpath.BasicEnumPlus,
		"BASIC":      hcpath.BasicEnum,
	}
	for name, want := range cases {
		got, err := parseAlgo(name)
		if err != nil || got != want {
			t.Errorf("parseAlgo(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := parseAlgo("dijkstra"); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestLoadQueriesInline(t *testing.T) {
	qs, err := loadQueries("", "4, 14, 4")
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 1 || qs[0].S != 4 || qs[0].T != 14 || qs[0].K != 4 {
		t.Fatalf("parsed %+v", qs)
	}
	for _, bad := range []string{"1,2", "a,b,c", "1,2,3,4"} {
		if _, err := loadQueries("", bad); err == nil {
			t.Errorf("inline query %q accepted", bad)
		}
	}
}

func TestLoadQueriesFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "q.txt")
	content := "# header\n0 11 5\n\n2 13 5\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	qs, err := loadQueries(path, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 2 || qs[1].S != 2 || qs[1].K != 5 {
		t.Fatalf("parsed %+v", qs)
	}
	// Malformed line.
	badPath := filepath.Join(dir, "bad.txt")
	os.WriteFile(badPath, []byte("1 2\n"), 0o644)
	if _, err := loadQueries(badPath, ""); err == nil {
		t.Error("malformed query file accepted")
	}
	// Empty file.
	emptyPath := filepath.Join(dir, "empty.txt")
	os.WriteFile(emptyPath, []byte("# nothing\n"), 0o644)
	if _, err := loadQueries(emptyPath, ""); err == nil {
		t.Error("empty query file accepted")
	}
	// Missing both sources.
	if _, err := loadQueries("", ""); err == nil {
		t.Error("missing query sources accepted")
	}
}

func TestCacheLine(t *testing.T) {
	if got := cacheLine(hcpath.ServiceTotals{}); got != "index cache: no probes" {
		t.Errorf("empty totals: %q", got)
	}
	got := cacheLine(hcpath.ServiceTotals{
		IndexHits: 150, IndexMisses: 50, IndexWidened: 10,
		IndexEvictions: 3, IndexCacheBytes: 2 << 20,
	})
	want := "index cache: 75.0% hit ratio (150 hits, 50 misses, 10 widened), 3 evictions, 2.0 MiB"
	if got != want {
		t.Errorf("cacheLine = %q, want %q", got, want)
	}
}

func TestLoadOps(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ops.txt")
	content := "# warmup\nquery 0 11 5\nadd 3 7\na 7 3\ndel 0 1\nq 0 11 5\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	ops, err := loadOps(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 5 {
		t.Fatalf("parsed %d ops, want 5", len(ops))
	}
	if !ops[1].add || ops[1].edge != (hcpath.Edge{Src: 3, Dst: 7}) {
		t.Fatalf("op 1 = %+v", ops[1])
	}
	if !ops[3].del || ops[3].edge != (hcpath.Edge{Src: 0, Dst: 1}) {
		t.Fatalf("op 3 = %+v", ops[3])
	}
	if ops[4].add || ops[4].del || ops[4].q.K != 5 {
		t.Fatalf("op 4 = %+v", ops[4])
	}
	for _, bad := range []string{"swap 1 2\n", "add 1\n", "query 1 2\n", "add x y\n"} {
		badPath := filepath.Join(dir, "bad.txt")
		if err := os.WriteFile(badPath, []byte(bad), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := loadOps(badPath); err == nil {
			t.Errorf("ops %q accepted", bad)
		}
	}
}

// TestHelperProcess re-enters main() when the parent test execs this
// binary, turning the test executable into the real CLI. The standard
// helper-process pattern: guarded by an env var so a normal test run
// skips it.
func TestHelperProcess(t *testing.T) {
	if os.Getenv("HCPATH_HELPER") != "1" {
		t.Skip("helper process only")
	}
	os.Args = append([]string{"hcpath"}, strings.Split(os.Getenv("HCPATH_ARGS"), "\n")...)
	flag.CommandLine = flag.NewFlagSet("hcpath", flag.ExitOnError)
	main()
	os.Exit(0) // a clean main() must not fall through to other tests
}

// runCLI execs the CLI (via TestHelperProcess) and returns its combined
// output and exit code.
func runCLI(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=TestHelperProcess")
	cmd.Env = append(os.Environ(), "HCPATH_HELPER=1", "HCPATH_ARGS="+strings.Join(args, "\n"))
	out, err := cmd.CombinedOutput()
	if err != nil {
		var ee *exec.ExitError
		if !errors.As(err, &ee) {
			t.Fatalf("exec: %v\n%s", err, out)
		}
		return string(out), ee.ExitCode()
	}
	return string(out), 0
}

// stateLine extracts the final "state: ..." report from a CLI run.
func stateLine(t *testing.T, out string) string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "state: ") {
			return line
		}
	}
	t.Fatalf("no state line in output:\n%s", out)
	return ""
}

// TestConnectRefusesWorkerFlags: a -connect coordinator only routes, so
// the flags that govern how a query runs are refused there instead of
// being silently ignored — before anything is dialled. Flags with a
// non-zero default are refused when set at all, even to that default.
func TestConnectRefusesWorkerFlags(t *testing.T) {
	for _, flags := range [][]string{
		{"-limit", "5"}, {"-timeout", "1s"}, {"-datadir", "d"},
		{"-maxbatch", "64"}, {"-maxwait", "5ms"}, {"-maxinflight", "2"},
		{"-maxqueued", "8"}, {"-cachemb", "0"}, {"-compactafter", "-1"},
		{"-algo", "basic"}, {"-gamma", "0.5"},
	} {
		args := append([]string{"-connect", "127.0.0.1:1", "-updates", "unused.txt"}, flags...)
		out, code := runCLI(t, args...)
		if code == 0 || !strings.Contains(out, "belong to the workers") {
			t.Errorf("hcpath %s: exit %d, output %q; want a refusal naming the workers", strings.Join(args, " "), code, out)
		}
	}
}

// TestUpdateReplayAdmission: -updates honours -maxinflight and
// -maxqueued as -replay does. One wave of concurrent queries, each
// milliseconds of enumeration, against one batch slot and one queue
// seat must shed, and every shed query must retry until answered.
func TestUpdateReplayAdmission(t *testing.T) {
	dir := t.TempDir()
	graphPath := filepath.Join(dir, "g.txt")
	opsPath := filepath.Join(dir, "ops.txt")
	var g, ops strings.Builder
	for u := 0; u < 9; u++ { // complete digraph: 13 700 paths of ≤ 8 hops per pair
		for v := 0; v < 9; v++ {
			if u != v {
				fmt.Fprintf(&g, "%d %d\n", u, v)
			}
		}
	}
	for i := 0; i < 12; i++ {
		fmt.Fprintf(&ops, "query %d %d 8\n", i%9, (i+4)%9)
	}
	if err := os.WriteFile(graphPath, []byte(g.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(opsPath, []byte(ops.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	out, code := runCLI(t, "-graph", graphPath, "-updates", opsPath, "-maxinflight", "1", "-maxqueued", "1")
	if code != 0 || !strings.Contains(out, " 0 failed") || !strings.Contains(out, "admission:") {
		t.Fatalf("exit %d; want 0 with 0 failed and an admission: line:\n%s", code, out)
	}
}

// TestUpdateReplayRestart is the CLI acceptance test for durability: an
// update replay killed mid-run (repeatedly — crash, resume, crash
// again) must, after its final restart, report exactly the state of an
// uninterrupted run over the same file.
func TestUpdateReplayRestart(t *testing.T) {
	dir := t.TempDir()
	graphPath := filepath.Join(dir, "g.txt")
	opsPath := filepath.Join(dir, "ops.txt")
	if err := os.WriteFile(graphPath, []byte("0 1\n1 2\n2 3\n3 4\n0 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Four mutation blocks separated by query waves.
	ops := `query 0 3 4
add 1 3
add 2 4
query 0 4 4
del 0 2
query 0 3 4
add 0 4
del 1 2
query 0 4 5
add 3 0
query 2 0 4
`
	if err := os.WriteFile(opsPath, []byte(ops), 0o644); err != nil {
		t.Fatal(err)
	}
	// Compaction is on: two folds, each writing the snapshot that the
	// restarts after it recover from.
	common := []string{"-updates", opsPath, "-compactafter", "3", "-fsync", "always"}

	fullOut, code := runCLI(t, append([]string{"-graph", graphPath, "-datadir", filepath.Join(dir, "d-full")}, common...)...)
	if code != 0 {
		t.Fatalf("uninterrupted run exited %d:\n%s", code, fullOut)
	}
	want := stateLine(t, fullOut)
	requireFoldSnapshots(t, fullOut)

	// Crash after every single applied block, resuming each time.
	crashDir := filepath.Join(dir, "d-crash")
	for round := 0; ; round++ {
		if round > 8 {
			t.Fatal("replay never finished despite resuming")
		}
		args := append([]string{"-datadir", crashDir, "-crashafter", "1"}, common...)
		if round == 0 {
			args = append([]string{"-graph", graphPath}, args...)
		}
		out, code := runCLI(t, args...)
		if code == 0 {
			if got := stateLine(t, out); got != want {
				t.Fatalf("state after %d crash/restart rounds:\n  %s\nuninterrupted run:\n  %s", round, got, want)
			}
			if round == 0 {
				t.Fatal("first run finished without crashing; -crashafter did not fire")
			}
			if !strings.Contains(out, "recovered: ") {
				t.Fatalf("final resume did not report recovery:\n%s", out)
			}
			break
		}
		if code != 137 {
			t.Fatalf("round %d exited %d, want 137 (simulated crash):\n%s", round, code, out)
		}
		if !strings.Contains(out, "crash: exiting after 1 applied update blocks") {
			t.Fatalf("round %d crashed without the crash report:\n%s", round, out)
		}
	}
}

// TestUpdateReplaySurvivesSIGKILL is the same property under a real
// kill -9: no simulated exit path, the process is killed from outside
// while applying updates, and the restart must still converge to the
// uninterrupted run's state.
func TestUpdateReplaySurvivesSIGKILL(t *testing.T) {
	dir := t.TempDir()
	graphPath := filepath.Join(dir, "g.txt")
	opsPath := filepath.Join(dir, "ops.txt")
	if err := os.WriteFile(graphPath, []byte("0 1\n1 2\n2 3\n3 4\n0 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Many small blocks so the kill lands mid-replay; a trailing marker
	// block distinguishes a finished run.
	const blocks = 4001
	var sb strings.Builder
	for i := 0; i < (blocks-1)/2; i++ {
		fmt.Fprintf(&sb, "add %d %d\nquery 0 4 4\n", i%5, 5+i%7)
		fmt.Fprintf(&sb, "del %d %d\nquery 0 4 4\n", i%5, 5+i%7)
	}
	sb.WriteString("add 4 11\nquery 0 4 4\n")
	if err := os.WriteFile(opsPath, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	// As in TestUpdateReplayRestart: compaction on, every fold a
	// snapshot. Each block is one edge change, so the replay folds every
	// 200 blocks — about 20 times, each writing a snapshot and pruning
	// two files.
	common := []string{"-updates", opsPath, "-compactafter", "200", "-fsync", "always"}

	fullOut, code := runCLI(t, append([]string{"-graph", graphPath, "-datadir", filepath.Join(dir, "d-full")}, common...)...)
	if code != 0 {
		t.Fatalf("uninterrupted run exited %d:\n%s", code, fullOut)
	}
	want := stateLine(t, fullOut)
	requireFoldSnapshots(t, fullOut)

	crashDir := filepath.Join(dir, "d-kill")
	cmd := exec.Command(os.Args[0], "-test.run=TestHelperProcess")
	args := append([]string{"-graph", graphPath, "-datadir", crashDir}, common...)
	cmd.Env = append(os.Environ(), "HCPATH_HELPER=1", "HCPATH_ARGS="+strings.Join(args, "\n"))
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Kill -9 once the first fold's segment, wal-201, is open: the
	// restart then recovers from that fold's snapshot. A fixed sleep is
	// no use: the whole replay takes about a second.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if newestSegment(crashDir) > 200 {
			break
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatal("replay never filled its WAL")
		}
		time.Sleep(time.Millisecond)
	}
	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	cmd.Wait() // reap; exit status is the signal, not interesting

	out, code := runCLI(t, append([]string{"-datadir", crashDir}, common...)...)
	if code != 0 {
		t.Fatalf("restart exited %d:\n%s", code, out)
	}
	applied := -1
	for _, line := range strings.Split(out, "\n") {
		var epoch, n, m int
		fmt.Sscanf(line, "recovered: epoch %d, %d vertices, %d edges, %d update blocks already applied", &epoch, &n, &m, &applied)
	}
	if applied < 0 || applied >= blocks {
		t.Fatalf("kill -9 did not land mid-replay (%d of %d blocks recovered):\n%s", applied, blocks, out)
	}
	if got := stateLine(t, out); got != want {
		t.Fatalf("state after kill -9 and restart:\n  %s\nuninterrupted run:\n  %s", got, want)
	}
}

// requireFoldSnapshots fails unless a replay's "wal:" line reports a
// snapshot beyond the bootstrap one, so the restarts that follow the
// replay's folds recover from a fold's snapshot.
func requireFoldSnapshots(t *testing.T, out string) {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		var records, checkpoints int
		if n, _ := fmt.Sscanf(line, "wal: %d records, %d checkpoints", &records, &checkpoints); n == 2 {
			if checkpoints < 2 {
				t.Fatalf("uninterrupted run wrote no fold snapshot: %q", line)
			}
			return
		}
	}
	t.Fatalf("no wal: line in:\n%s", out)
}

// newestSegment returns the largest epoch among dir's WAL segment
// names, 0 when there are none yet.
func newestSegment(dir string) uint64 {
	names, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	var newest uint64
	for _, name := range names {
		var epoch uint64
		if _, err := fmt.Sscanf(filepath.Base(name), "wal-%d.log", &epoch); err == nil && epoch > newest {
			newest = epoch
		}
	}
	return newest
}

// TestDebugAddr: the -debugaddr server answers GETs on a free port —
// the mode's totals as JSON at /debug/totals (null before the mode
// installs a reader) and the pprof index under /debug/pprof/.
func TestDebugAddr(t *testing.T) {
	addr, err := serveDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get("http://" + addr.String() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d, %v", path, resp.StatusCode, err)
		}
		return body
	}
	var view struct {
		Mode   string
		Totals *hcpath.ServiceTotals
	}
	debug.set("offline", nil)
	if err := json.Unmarshal(get("/debug/totals"), &view); err != nil || view.Mode != "offline" || view.Totals != nil {
		t.Errorf("before totals exist: %+v, %v; want mode offline, totals null", view, err)
	}
	debug.set("replay", func() any { return hcpath.ServiceTotals{Queries: 7, IndexHits: 3} })
	if err := json.Unmarshal(get("/debug/totals"), &view); err != nil || view.Mode != "replay" || view.Totals == nil || view.Totals.Queries != 7 || view.Totals.IndexHits != 3 {
		t.Errorf("replay totals: %+v, %v; want 7 queries, 3 index hits", view, err)
	}
	if body := get("/debug/pprof/"); !strings.Contains(string(body), "goroutine") {
		t.Errorf("pprof index lists no goroutine profile:\n%s", body)
	}
}
