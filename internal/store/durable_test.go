package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/graph"
)

// crash simulates kill -9 for tests: it releases the WAL file handle
// without syncing or otherwise cleaning up — the data directory is left
// exactly as an interrupted process would leave it.
func crash(s *Store) {
	d := s.dur
	if d.syncStop != nil {
		close(d.syncStop)
		<-d.syncDone
		d.syncStop = nil
	}
	s.mu.Lock()
	if d.f != nil {
		d.f.Close()
		d.f = nil
	}
	s.mu.Unlock()
}

func openT(t *testing.T, dir string, initial *graph.Graph, opts DurableOptions) *Store {
	t.Helper()
	s, err := Open(dir, initial, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s
}

// wave i of the deterministic update stream: every wave is effective
// (adds a fresh edge) and also deletes the edge two waves back.
func wave(i int) (adds, dels []graph.Edge) {
	adds = []graph.Edge{{Src: graph.VertexID(i % 7), Dst: graph.VertexID(7 + i%5)}}
	if i >= 2 {
		j := i - 2
		dels = []graph.Edge{{Src: graph.VertexID(j % 7), Dst: graph.VertexID(7 + j%5)}}
	}
	return adds, dels
}

func seedGraph() *graph.Graph {
	return graph.FromEdges(12, []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3}})
}

// memStates replays n waves on an in-memory store with the same
// options and returns the State after each prefix: states[i] is the
// state a durable store must recover to when exactly i update records
// survive. The transition function is shared (buildNext), so this is
// the ground truth for every crash test below.
func memStates(opts Options, n int) []State {
	ref := New(seedGraph(), opts)
	states := make([]State, n+1)
	states[0] = ref.Current().State()
	for i := 0; i < n; i++ {
		adds, dels := wave(i)
		if _, err := ref.ApplyUpdates(adds, dels); err != nil {
			panic(err)
		}
		states[i+1] = ref.Current().State()
	}
	return states
}

// checkpoint is the store's checkpoint call: a fold, which on a durable
// store also writes the snapshot file.
func checkpoint(s *Store) error {
	_, err := s.Compact()
	return err
}

func requireState(t *testing.T, label string, s *Store, want State) {
	t.Helper()
	if got := s.Current().State(); got != want {
		t.Fatalf("%s: state %+v, want %+v", label, got, want)
	}
}

// TestDurableBootstrapAndReopen: an empty directory bootstraps from
// the initial graph, a clean close/reopen cycle preserves the exact
// state and counters, and the reopened store keeps accepting updates.
func TestDurableBootstrapAndReopen(t *testing.T) {
	dir := t.TempDir()
	opts := DurableOptions{Options: Options{CompactAfter: -1}}
	s := openT(t, dir, seedGraph(), opts)
	want := memStates(opts.Options, 4)

	requireState(t, "bootstrap", s, want[0])
	for i := 0; i < 4; i++ {
		adds, dels := wave(i)
		mustApply(t, s, adds, dels)
	}
	requireState(t, "pre-close", s, want[4])
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2 := openT(t, dir, nil, opts) // initial must be ignored: disk wins
	defer s2.Close()
	requireState(t, "reopened", s2, want[4])
	st := s2.Stats()
	if st.WALRecords != 4 || st.UpdatesApplied == 0 {
		t.Fatalf("reopened stats: %+v", st)
	}
	if st.SnapshotEpoch != 0 {
		t.Fatalf("close writes no snapshot and nothing folded, yet the snapshot is at epoch %d", st.SnapshotEpoch)
	}
	adds, dels := wave(4)
	mustApply(t, s2, adds, dels)
	if got := s2.Current().Epoch(); got != 5 {
		t.Fatalf("epoch after post-reopen update: %d, want 5", got)
	}
}

// TestWarmRestartAfterCrash: a crash with no Close loses nothing under
// FsyncAlways — the reopened store reaches the exact pre-crash epoch,
// edge set, and WALRecords count.
func TestWarmRestartAfterCrash(t *testing.T) {
	dir := t.TempDir()
	opts := DurableOptions{Options: Options{CompactAfter: -1}}
	s := openT(t, dir, seedGraph(), opts)
	for i := 0; i < 5; i++ {
		adds, dels := wave(i)
		mustApply(t, s, adds, dels)
	}
	want := s.Current().State()
	wantRecs := s.Stats().WALRecords
	crash(s)

	s2 := openT(t, dir, nil, opts)
	defer s2.Close()
	requireState(t, "recovered", s2, want)
	if got := s2.Stats().WALRecords; got != wantRecs {
		t.Fatalf("WALRecords after recovery: %d, want %d", got, wantRecs)
	}
}

// TestTornTailEveryByte is the crash matrix core: the WAL is cut at
// every byte position and recovery must land on exactly the state of
// the longest intact record prefix — never an error, never a wrong
// graph. Cuts inside record i's frame recover states[i]; cuts on a
// boundary recover that boundary's state cleanly.
func TestTornTailEveryByte(t *testing.T) {
	const waves = 4
	dir := t.TempDir()
	opts := DurableOptions{
		Options: Options{CompactAfter: -1}, // no fold: every record stays in wal-0
		Fsync:   FsyncOff,
	}
	s := openT(t, dir, seedGraph(), opts)
	for i := 0; i < waves; i++ {
		adds, dels := wave(i)
		mustApply(t, s, adds, dels)
	}
	crash(s)

	wal := walPath(dir, 0)
	data, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	bounds := frameBounds(t, data)
	if len(bounds) != waves+1 {
		t.Fatalf("wal-0 holds %d records, want %d", len(bounds)-1, waves)
	}
	states := memStates(opts.Options, waves)

	for cut := 0; cut <= len(data); cut++ {
		if err := os.WriteFile(wal, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		intact := 0
		for _, b := range bounds[1:] {
			if b <= cut {
				intact++
			}
		}
		r := openT(t, dir, nil, opts)
		if got := r.Current().State(); got != states[intact] {
			crash(r)
			t.Fatalf("cut %d (%d intact records): state %+v, want %+v", cut, intact, got, states[intact])
		}
		if got := r.Stats().WALRecords; got != int64(intact) {
			crash(r)
			t.Fatalf("cut %d: WALRecords %d, want %d", cut, got, intact)
		}
		// Recovery truncated the torn tail: the file must now end on the
		// boundary, and the store must accept appends from there.
		fi, err := os.Stat(wal)
		if err != nil {
			crash(r)
			t.Fatal(err)
		}
		if fi.Size() != int64(bounds[intact]) {
			crash(r)
			t.Fatalf("cut %d: wal is %d bytes after recovery, want %d", cut, fi.Size(), bounds[intact])
		}
		adds, dels := wave(intact)
		mustApply(t, r, adds, dels)
		crash(r)
	}
}

// TestCorruptSnapshotFallsBack: recovery skips a corrupt newest
// snapshot and reaches the same state from the previous generation
// plus a longer chain replay; with every snapshot corrupt, Open fails
// loudly instead of guessing.
func TestCorruptSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	opts := DurableOptions{Options: Options{CompactAfter: -1}, Fsync: FsyncOff}
	s := openT(t, dir, seedGraph(), opts)
	for i := 0; i < 2; i++ {
		adds, dels := wave(i)
		mustApply(t, s, adds, dels)
	}
	if err := checkpoint(s); err != nil { // folds to snap-3, rotates to wal-3
		t.Fatal(err)
	}
	for i := 2; i < 4; i++ {
		adds, dels := wave(i)
		mustApply(t, s, adds, dels)
	}
	if err := checkpoint(s); err != nil { // folds to snap-6, rotates to wal-6
		t.Fatal(err)
	}
	adds, dels := wave(4) // records live in wal-6 only
	mustApply(t, s, adds, dels)
	want := s.Current().State()
	crash(s)

	flip := func(path string, off int64) {
		t.Helper()
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		b[off] ^= 0xff
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	flip(snapPath(dir, 6), snapHeaderSize+3) // corrupt the newest snapshot's graph bytes
	s2 := openT(t, dir, nil, opts)
	requireState(t, "fallback recovery", s2, want)
	crash(s2)

	flip(snapPath(dir, 3), snapHeaderSize+3) // now every snapshot is corrupt
	if _, err := Open(dir, nil, opts); err == nil || !strings.Contains(err.Error(), "no loadable snapshot") {
		t.Fatalf("Open with all snapshots corrupt: %v, want a loud failure", err)
	}
}

// TestMissingSegmentFailsLoudly: a gap in the replay chain means lost
// records; recovery must refuse rather than silently skip epochs.
func TestMissingSegmentFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	opts := DurableOptions{Options: Options{CompactAfter: -1}, Fsync: FsyncOff}
	s := openT(t, dir, seedGraph(), opts)
	for i := 0; i < 2; i++ {
		adds, dels := wave(i)
		mustApply(t, s, adds, dels)
	}
	if err := checkpoint(s); err != nil { // folds to snap-3, rotates to wal-3
		t.Fatal(err)
	}
	adds, dels := wave(2)
	mustApply(t, s, adds, dels)
	crash(s)

	// Force recovery down to the epoch-0 snapshot, whose chain needs
	// wal-0, then delete wal-0: the chain now starts at wal-3.
	b, err := os.ReadFile(snapPath(dir, 3))
	if err != nil {
		t.Fatal(err)
	}
	b[snapHeaderSize+3] ^= 0xff
	if err := os.WriteFile(snapPath(dir, 3), b, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(walPath(dir, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, nil, opts); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Fatalf("Open with a chain gap: %v, want a missing-segment failure", err)
	}
}

// TestCorruptionInNonFinalSegmentFailsLoudly: torn-tail truncation is
// only legitimate on the last segment; the same damage earlier in the
// chain would silently drop records that later segments build on.
func TestCorruptionInNonFinalSegmentFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	opts := DurableOptions{Options: Options{CompactAfter: -1}, Fsync: FsyncOff}
	s := openT(t, dir, seedGraph(), opts)
	for i := 0; i < 2; i++ {
		adds, dels := wave(i)
		mustApply(t, s, adds, dels)
	}
	if err := checkpoint(s); err != nil { // folds to snap-3, rotates to wal-3
		t.Fatal(err)
	}
	adds, dels := wave(2)
	mustApply(t, s, adds, dels)
	crash(s)

	// Corrupt the newest snapshot so recovery must replay wal-0 (no
	// longer the final segment — wal-3 follows it), then tear wal-0.
	b, err := os.ReadFile(snapPath(dir, 3))
	if err != nil {
		t.Fatal(err)
	}
	b[snapHeaderSize+3] ^= 0xff
	if err := os.WriteFile(snapPath(dir, 3), b, 0o644); err != nil {
		t.Fatal(err)
	}
	w, err := os.ReadFile(walPath(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	w[len(w)-1] ^= 0xff
	if err := os.WriteFile(walPath(dir, 0), w, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, nil, opts); err == nil || !errors.Is(err, errTornTail) {
		t.Fatalf("Open with mid-chain corruption: %v, want the torn-tail error surfaced loudly", err)
	}
}

// TestSnapshotNewerThanWAL: a snapshot with no following segments (say
// the segments were archived away) must recover to the snapshot state
// and open a fresh segment at its epoch.
func TestSnapshotNewerThanWAL(t *testing.T) {
	dir := t.TempDir()
	opts := DurableOptions{Options: Options{CompactAfter: -1}, Fsync: FsyncOff}
	s := openT(t, dir, seedGraph(), opts)
	for i := 0; i < 3; i++ {
		adds, dels := wave(i)
		mustApply(t, s, adds, dels)
	}
	if err := checkpoint(s); err != nil {
		t.Fatal(err)
	}
	want := s.Current().State()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	snaps, segs, err := scanDir(dir)
	if err != nil || len(snaps) == 0 {
		t.Fatalf("scanDir: %v, %d snaps", err, len(snaps))
	}
	for _, sg := range segs {
		if err := os.Remove(sg.path); err != nil {
			t.Fatal(err)
		}
	}
	s2 := openT(t, dir, nil, opts)
	defer s2.Close()
	requireState(t, "snapshot-only recovery", s2, want)
	adds, dels := wave(3)
	mustApply(t, s2, adds, dels)
	if got := s2.Current().Epoch(); got != want.Epoch+1 {
		t.Fatalf("epoch after update: %d, want %d", got, want.Epoch+1)
	}
}

// TestRecoverMidCompaction: a crash right after a compaction record is
// logged, before the fold's snapshot file is renamed into place,
// replays the compaction and reaches the same epoch with a flattened
// snapshot.
func TestRecoverMidCompaction(t *testing.T) {
	dir := t.TempDir()
	opts := DurableOptions{Options: Options{CompactAfter: 2}, Fsync: FsyncOff}
	s := openT(t, dir, seedGraph(), opts)
	compacted := false
	for i := 0; i < 6 && !compacted; i++ {
		adds, dels := wave(i)
		snap, err := s.ApplyUpdates(adds, dels)
		if err != nil {
			t.Fatal(err)
		}
		compacted = !snap.Graph().IsOverlay()
	}
	if !compacted {
		t.Fatal("sequence never compacted; lower CompactAfter")
	}
	want := s.Current().State()
	wantCompactions := s.Stats().Compactions
	crash(s)
	// The crash-before-rename window: recovery must reach the fold from
	// snap-0 and the compaction record in wal-0.
	if err := os.Remove(snapPath(dir, want.Epoch)); err != nil {
		t.Fatal(err)
	}

	s2 := openT(t, dir, nil, opts)
	defer s2.Close()
	requireState(t, "post-compaction recovery", s2, want)
	if got := s2.Stats().Compactions; got != wantCompactions {
		t.Fatalf("Compactions after recovery: %d, want %d", got, wantCompactions)
	}
	if s2.Current().Graph().IsOverlay() {
		t.Fatal("replayed compaction left an overlay snapshot")
	}
}

// TestRecoveryFinishesInterruptedFold: a crash after the update that
// crossed the threshold is logged, but before its compaction record is,
// recovers to the state the fold would have reached, logs the fold, and
// then keeps stepping through the uninterrupted run's epochs.
func TestRecoveryFinishesInterruptedFold(t *testing.T) {
	dir := t.TempDir()
	folding := Options{CompactAfter: 2}
	opts := DurableOptions{Options: folding, Fsync: FsyncOff}
	states := memStates(folding, 6)

	// Waves 0 and 1 reach delta 2; a store that never folds logs them
	// exactly as the interrupted run did, minus the compaction record.
	noFold := opts
	noFold.Options = Options{CompactAfter: -1}
	s := openT(t, dir, seedGraph(), noFold)
	for i := 0; i < 2; i++ {
		adds, dels := wave(i)
		if _, err := s.ApplyUpdates(adds, dels); err != nil {
			t.Fatal(err)
		}
	}
	crash(s)

	s = openT(t, dir, nil, opts)
	requireState(t, "recovered mid-fold", s, states[2])
	if got := s.Stats().Compactions; got != 1 {
		t.Fatalf("Compactions after recovery: %d, want 1", got)
	}
	crash(s)

	s = openT(t, dir, nil, opts)
	defer s.Close()
	requireState(t, "fold logged by recovery", s, states[2])
	for i := 2; i < 6; i++ {
		adds, dels := wave(i)
		if _, err := s.ApplyUpdates(adds, dels); err != nil {
			t.Fatal(err)
		}
		requireState(t, "after recovery", s, states[i+1])
	}
}

// TestNoopRecordsKeepSeq: ineffective updates still advance WALRecords
// (the CLI's replay cursor) and survive a crash.
func TestNoopRecordsKeepSeq(t *testing.T) {
	dir := t.TempDir()
	opts := DurableOptions{Options: Options{CompactAfter: -1}, Fsync: FsyncOff}
	s := openT(t, dir, seedGraph(), opts)
	mustApply(t, s, []graph.Edge{{Src: 9, Dst: 10}}, nil)
	// Both a duplicate add and a miss delete are no-ops.
	mustApply(t, s, []graph.Edge{{Src: 9, Dst: 10}}, nil)
	mustApply(t, s, nil, []graph.Edge{{Src: 3, Dst: 9}})
	if got := s.Stats(); got.WALRecords != 3 || got.Epoch != 1 {
		t.Fatalf("pre-crash stats: %+v, want 3 records at epoch 1", got)
	}
	want := s.Current().State()
	crash(s)

	s2 := openT(t, dir, nil, opts)
	defer s2.Close()
	requireState(t, "recovered", s2, want)
	if got := s2.Stats(); got.WALRecords != 3 || got.Epoch != 1 {
		t.Fatalf("post-crash stats: %+v, want 3 records at epoch 1", got)
	}
}

// TestCheckpointPrunes: repeated checkpoints keep at most the two
// newest snapshot generations (plus their segments) and the directory
// stays recoverable throughout.
func TestCheckpointPrunes(t *testing.T) {
	dir := t.TempDir()
	opts := DurableOptions{Options: Options{CompactAfter: -1}, Fsync: FsyncOff}
	s := openT(t, dir, seedGraph(), opts)
	for i := 0; i < 6; i++ {
		adds, dels := wave(i)
		mustApply(t, s, adds, dels)
		if err := checkpoint(s); err != nil {
			t.Fatal(err)
		}
	}
	want := s.Current().State()
	crash(s)

	snaps, segs, err := scanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) > 2 {
		t.Fatalf("%d snapshots survive pruning, want ≤ 2", len(snaps))
	}
	for _, sg := range segs {
		if sg.epoch < snaps[0].epoch {
			t.Fatalf("segment %s predates the oldest kept snapshot (epoch %d)", sg.path, snaps[0].epoch)
		}
	}
	s2 := openT(t, dir, nil, opts)
	defer s2.Close()
	requireState(t, "recovered after pruning", s2, want)
}

// TestFoldWritesSnapshot: the fold is the store's checkpoint. The
// ApplyUpdates that crosses CompactAfter returns with the folded epoch
// already on disk as snap-<epoch>; updates that do not fold write none.
func TestFoldWritesSnapshot(t *testing.T) {
	dir := t.TempDir()
	opts := DurableOptions{Options: Options{CompactAfter: 3}, Fsync: FsyncOff}
	s := openT(t, dir, seedGraph(), opts)
	defer s.Close()
	want := Stats{Checkpoints: 1} // the bootstrap snapshot
	for i := 0; i < 12; i++ {
		adds, dels := wave(i)
		snap, err := s.ApplyUpdates(adds, dels)
		if err != nil {
			t.Fatal(err)
		}
		if !snap.Graph().IsOverlay() {
			want.Checkpoints++
			want.SnapshotEpoch = snap.Epoch()
			if _, err := os.Stat(snapPath(dir, snap.Epoch())); err != nil {
				t.Fatalf("wave %d folded to epoch %d without its snapshot file: %v", i, snap.Epoch(), err)
			}
		}
		if st := s.Stats(); st.Checkpoints != want.Checkpoints || st.SnapshotEpoch != want.SnapshotEpoch {
			t.Fatalf("wave %d: %d checkpoints, snapshot epoch %d; want %d, %d",
				i, st.Checkpoints, st.SnapshotEpoch, want.Checkpoints, want.SnapshotEpoch)
		}
	}
	if want.Checkpoints < 3 {
		t.Fatalf("setup: only %d folds; lower CompactAfter", want.Checkpoints-1)
	}
}

// TestRestartKeepsFoldPoints: a restart must not move the epochs at
// which the store folds. A durable store and an in-memory reference get
// the same waves and checkpoint calls; after each kind of restart the
// durable store keeps taking waves, and after every wave the two must
// agree on State, epoch included. A snapshot that captured a pending
// delta would reload it as zero and fold later than the reference.
func TestRestartKeepsFoldPoints(t *testing.T) {
	folding := Options{CompactAfter: 6}
	opts := DurableOptions{Options: folding, Fsync: FsyncOff}
	cases := []struct {
		name string
		pre  int // waves before the restart
		stop func(t *testing.T, dir string, s, ref *Store)
	}{
		{"close", 6, func(t *testing.T, _ string, s, _ *Store) {
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		}},
		{"checkpoint-crash", 5, func(t *testing.T, _ string, s, ref *Store) {
			if err := checkpoint(s); err != nil {
				t.Fatal(err)
			}
			if err := checkpoint(ref); err != nil {
				t.Fatal(err)
			}
			requireState(t, "after checkpoint", s, ref.Current().State())
			crash(s)
		}},
		{"fold-snapshot-lost", 6, func(t *testing.T, dir string, s, _ *Store) {
			crash(s)
			// The fold's snapshot never reached its name: only a torn
			// temp file is left of it.
			snaps, _, err := scanDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			newest := snaps[len(snaps)-1]
			if newest.epoch == 0 {
				t.Fatal("setup: nothing folded before the crash")
			}
			b, err := os.ReadFile(newest.path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(newest.path+".tmp", b[:len(b)/2], 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.Remove(newest.path); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			s := openT(t, dir, seedGraph(), opts)
			ref := New(seedGraph(), folding)
			step := func(label string, i int) {
				t.Helper()
				adds, dels := wave(i)
				mustApply(t, s, adds, dels)
				mustApply(t, ref, adds, dels)
				requireState(t, fmt.Sprintf("%s wave %d", label, i), s, ref.Current().State())
			}
			for i := 0; i < c.pre; i++ {
				step("before restart", i)
			}
			if s.Current().DeltaEdges() == 0 {
				t.Fatal("setup: the restart must come with a delta pending")
			}
			c.stop(t, dir, s, ref)
			s = openT(t, dir, nil, opts)
			defer s.Close()
			requireState(t, "reopened", s, ref.Current().State())
			for i := c.pre; i < c.pre+12; i++ {
				step("after restart", i)
			}
			if got, want := s.Stats().Compactions, ref.Stats().Compactions; got != want {
				t.Fatalf("%d compactions after restart, reference %d", got, want)
			}
			if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) != 0 {
				t.Errorf("temp files outlive the folds after restart: %v", tmps)
			}
		})
	}
}

// TestFsyncPolicyRoundTrips: every policy survives a clean
// close/reopen (Close syncs regardless of policy).
func TestFsyncPolicyRoundTrips(t *testing.T) {
	for _, p := range []FsyncPolicy{FsyncAlways, FsyncInterval, FsyncOff} {
		t.Run(p.String(), func(t *testing.T) {
			dir := t.TempDir()
			opts := DurableOptions{
				Options: Options{CompactAfter: -1},
				Fsync:   p,
			}
			s := openT(t, dir, seedGraph(), opts)
			for i := 0; i < 3; i++ {
				adds, dels := wave(i)
				mustApply(t, s, adds, dels)
			}
			want := s.Current().State()
			if err := s.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			s2 := openT(t, dir, nil, opts)
			defer s2.Close()
			requireState(t, "reopened", s2, want)
		})
	}
}

// TestParseFsyncPolicy pins the flag spelling both ways.
func TestParseFsyncPolicy(t *testing.T) {
	for _, p := range []FsyncPolicy{FsyncAlways, FsyncInterval, FsyncOff} {
		got, err := ParseFsyncPolicy(p.String())
		if err != nil || got != p {
			t.Fatalf("ParseFsyncPolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParseFsyncPolicy("sometimes"); err == nil {
		t.Fatal("ParseFsyncPolicy accepted garbage")
	}
}

// fuzzWave is one update wave decoded from fuzz bytes.
type fuzzWave struct{ adds, dels []graph.Edge }

// decodeFuzzWave decodes one wave — [nAdds%3, nDels%3, then 2 bytes per
// edge] over 16 vertices — and returns the bytes left. ok is false when
// fewer than two bytes remain.
func decodeFuzzWave(data []byte) (w fuzzWave, rest []byte, ok bool) {
	if len(data) < 2 {
		return w, data, false
	}
	na, nd := int(data[0]%3), int(data[1]%3)
	data = data[2:]
	for i := 0; i < na && len(data) >= 2; i++ {
		src, dst := graph.VertexID(data[0]%16), graph.VertexID(data[1]%16)
		data = data[2:]
		if src != dst {
			w.adds = append(w.adds, graph.Edge{Src: src, Dst: dst})
		}
	}
	for i := 0; i < nd && len(data) >= 2; i++ {
		w.dels = append(w.dels, graph.Edge{Src: graph.VertexID(data[0] % 16), Dst: graph.VertexID(data[1] % 16)})
		data = data[2:]
	}
	return w, data, true
}

// FuzzWALReplay is the differential oracle of recovery: an arbitrary
// byte string goes to the record decoders raw, then is decoded into a
// bounded update stream, applied to a durable store that then crashes,
// and to a plain in-memory store; the recovered store must agree with
// the in-memory reference on epoch, vertex count, edge count, and
// canonical CSR checksum. The bytes left then drive both stores on:
// each step is a control byte — a checkpoint (a fold on both sides),
// a clean Close and reopen of the durable side, or nothing — and one
// more wave, after which the two must still agree, so a restart never
// moves a fold point.
func FuzzWALReplay(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 2, 9, 4, 4})
	f.Add([]byte{2, 1, 0, 1, 1, 2, 0, 1, 3, 0, 1, 5, 2, 7})
	f.Add(bytes.Repeat([]byte{1, 1, 3, 8, 3, 8}, 8))
	// Ten one-add waves fill the first stream; then close/reopen,
	// checkpoint and plain steps, each with a wave.
	f.Add(append(bytes.Repeat([]byte{1, 0, 3, 8}, 10),
		1, 1, 0, 4, 5, 0, 1, 5, 6, 4, 0, 1, 1, 2, 2, 1, 3, 2, 7, 9, 0, 2, 0, 0, 4, 5, 1, 1, 0, 0, 1, 1, 0, 3, 6, 5, 4))
	f.Fuzz(func(t *testing.T, data []byte) {
		// The same bytes as a segment and as a record payload: any error
		// is fine, a panic or a count-sized allocation is not (the frame
		// envelope under scanWAL has its own fuzzer, wirefmt's FuzzFrame).
		scanWAL(data)
		decodeRecord(data)

		var stream []fuzzWave
		for len(stream) < 10 {
			w, rest, ok := decodeFuzzWave(data)
			if !ok {
				break
			}
			stream, data = append(stream, w), rest
		}

		// Compactions are logged and replayed, so let them trigger.
		mem := Options{CompactAfter: 3}
		dir := t.TempDir()
		dopts := DurableOptions{Options: mem, Fsync: FsyncOff}
		ds, err := Open(dir, seedGraph(), dopts)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		ref := New(seedGraph(), mem)
		for _, w := range stream {
			if _, err := ds.ApplyUpdates(w.adds, w.dels); err != nil {
				t.Fatalf("durable ApplyUpdates: %v", err)
			}
			if _, err := ref.ApplyUpdates(w.adds, w.dels); err != nil {
				t.Fatalf("reference ApplyUpdates: %v", err)
			}
		}
		crash(ds)

		rec, err := Open(dir, nil, dopts)
		if err != nil {
			t.Fatalf("recovery Open: %v", err)
		}
		defer func() {
			if rec != nil {
				crash(rec)
			}
		}()
		got, want := rec.Current().State(), ref.Current().State()
		if got != want {
			t.Fatalf("recovered state %+v, reference %+v", got, want)
		}
		if gr, wr := rec.Stats().WALRecords, int64(len(stream)); gr != wr {
			t.Fatalf("recovered WALRecords %d, want %d", gr, wr)
		}

		records := int64(len(stream))
		for step := 0; step < 10 && len(data) > 0; step++ {
			ctrl := data[0]
			w, rest, ok := decodeFuzzWave(data[1:])
			if !ok {
				break
			}
			data = rest
			switch ctrl % 4 {
			case 0:
				if err := checkpoint(rec); err != nil {
					t.Fatalf("step %d: durable checkpoint: %v", step, err)
				}
				if err := checkpoint(ref); err != nil {
					t.Fatalf("step %d: reference checkpoint: %v", step, err)
				}
			case 1:
				if err := rec.Close(); err != nil {
					t.Fatalf("step %d: Close: %v", step, err)
				}
				if rec, err = Open(dir, nil, dopts); err != nil {
					t.Fatalf("step %d: reopen: %v", step, err)
				}
			}
			if _, err := rec.ApplyUpdates(w.adds, w.dels); err != nil {
				t.Fatalf("step %d: durable ApplyUpdates: %v", step, err)
			}
			if _, err := ref.ApplyUpdates(w.adds, w.dels); err != nil {
				t.Fatalf("step %d: reference ApplyUpdates: %v", step, err)
			}
			records++
			if got, want := rec.Current().State(), ref.Current().State(); got != want {
				t.Fatalf("step %d (control %d): state %+v, reference %+v", step, ctrl%4, got, want)
			}
		}
		if got := rec.Stats().WALRecords; got != records {
			t.Fatalf("WALRecords %d after the second stream, want %d", got, records)
		}
	})
}
