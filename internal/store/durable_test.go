package store

import (
	"bytes"
	"errors"
	"os"
	"strings"
	"testing"

	"repro/internal/graph"
)

// crash simulates kill -9 for tests: it releases the WAL file handle
// without checkpointing, syncing, or otherwise cleaning up — the data
// directory is left exactly as an interrupted process would leave it.
func crash(s *Store) {
	s.wg.Wait() // in-flight background checkpoints hold the old handle
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
	if st.SnapshotEpoch != 4 {
		t.Fatalf("close must checkpoint the final epoch; snapshot at %d", st.SnapshotEpoch)
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
		Options:         Options{CompactAfter: -1},
		Fsync:           FsyncOff,
		CheckpointEvery: -1, // keep every record in wal-0
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
	opts := DurableOptions{
		Options:         Options{CompactAfter: -1},
		Fsync:           FsyncOff,
		CheckpointEvery: -1,
	}
	s := openT(t, dir, seedGraph(), opts)
	for i := 0; i < 2; i++ {
		adds, dels := wave(i)
		mustApply(t, s, adds, dels)
	}
	if err := s.Checkpoint(); err != nil { // snap-2, rotates to wal-2
		t.Fatal(err)
	}
	for i := 2; i < 4; i++ {
		adds, dels := wave(i)
		mustApply(t, s, adds, dels)
	}
	if err := s.Checkpoint(); err != nil { // snap-4, rotates to wal-4
		t.Fatal(err)
	}
	adds, dels := wave(4) // records live in wal-4 only
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
	flip(snapPath(dir, 4), snapHeaderSize+3) // corrupt the newest snapshot's graph bytes
	s2 := openT(t, dir, nil, opts)
	requireState(t, "fallback recovery", s2, want)
	crash(s2)

	flip(snapPath(dir, 2), snapHeaderSize+3) // now every snapshot is corrupt
	if _, err := Open(dir, nil, opts); err == nil || !strings.Contains(err.Error(), "no loadable snapshot") {
		t.Fatalf("Open with all snapshots corrupt: %v, want a loud failure", err)
	}
}

// TestMissingSegmentFailsLoudly: a gap in the replay chain means lost
// records; recovery must refuse rather than silently skip epochs.
func TestMissingSegmentFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	opts := DurableOptions{
		Options:         Options{CompactAfter: -1},
		Fsync:           FsyncOff,
		CheckpointEvery: -1,
	}
	s := openT(t, dir, seedGraph(), opts)
	for i := 0; i < 2; i++ {
		adds, dels := wave(i)
		mustApply(t, s, adds, dels)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	adds, dels := wave(2)
	mustApply(t, s, adds, dels)
	crash(s)

	// Force recovery down to the epoch-0 snapshot, whose chain needs
	// wal-0, then delete wal-0: the chain now starts at wal-2.
	b, err := os.ReadFile(snapPath(dir, 2))
	if err != nil {
		t.Fatal(err)
	}
	b[snapHeaderSize+3] ^= 0xff
	if err := os.WriteFile(snapPath(dir, 2), b, 0o644); err != nil {
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
	opts := DurableOptions{
		Options:         Options{CompactAfter: -1},
		Fsync:           FsyncOff,
		CheckpointEvery: -1,
	}
	s := openT(t, dir, seedGraph(), opts)
	for i := 0; i < 2; i++ {
		adds, dels := wave(i)
		mustApply(t, s, adds, dels)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	adds, dels := wave(2)
	mustApply(t, s, adds, dels)
	crash(s)

	// Corrupt the newest snapshot so recovery must replay wal-0 (no
	// longer the final segment — wal-2 follows it), then tear wal-0.
	b, err := os.ReadFile(snapPath(dir, 2))
	if err != nil {
		t.Fatal(err)
	}
	b[snapHeaderSize+3] ^= 0xff
	if err := os.WriteFile(snapPath(dir, 2), b, 0o644); err != nil {
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
// logged (before any checkpoint captures the folded CSR) replays the
// compaction and reaches the same epoch with a flattened snapshot.
func TestRecoverMidCompaction(t *testing.T) {
	dir := t.TempDir()
	opts := DurableOptions{
		Options:         Options{CompactAfter: 2},
		Fsync:           FsyncOff,
		CheckpointEvery: -1, // the recCompact record must stay in the WAL
	}
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
	opts := DurableOptions{Options: folding, Fsync: FsyncOff, CheckpointEvery: -1}
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
	opts := DurableOptions{
		Options:         Options{CompactAfter: -1},
		Fsync:           FsyncOff,
		CheckpointEvery: -1,
	}
	s := openT(t, dir, seedGraph(), opts)
	for i := 0; i < 6; i++ {
		adds, dels := wave(i)
		mustApply(t, s, adds, dels)
		if err := s.Checkpoint(); err != nil {
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

// TestBackgroundCheckpointPressure: with a tiny CheckpointEvery the
// background checkpointer must fire on its own and advance the on-disk
// snapshot epoch without any manual Checkpoint call.
func TestBackgroundCheckpointPressure(t *testing.T) {
	dir := t.TempDir()
	opts := DurableOptions{
		Options:         Options{CompactAfter: -1},
		Fsync:           FsyncOff,
		CheckpointEvery: 2,
	}
	s := openT(t, dir, seedGraph(), opts)
	defer s.Close()
	for i := 0; i < 8; i++ {
		adds, dels := wave(i)
		mustApply(t, s, adds, dels)
	}
	s.wg.Wait() // drain in-flight background checkpoints
	st := s.Stats()
	if st.Checkpoints == 0 || st.SnapshotEpoch == 0 {
		t.Fatalf("background checkpointer never fired: %+v", st)
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

// FuzzWALReplay is the differential oracle of recovery: an arbitrary
// byte string goes to the record decoders raw, then is decoded into a
// bounded update stream, applied to a
// durable store that then crashes, and to a plain in-memory store; the
// recovered store must agree with the in-memory reference on epoch,
// vertex count, edge count, and canonical CSR checksum.
func FuzzWALReplay(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 2, 9, 4, 4})
	f.Add([]byte{2, 1, 0, 1, 1, 2, 0, 1, 3, 0, 1, 5, 2, 7})
	f.Add(bytes.Repeat([]byte{1, 1, 3, 8, 3, 8}, 8))
	f.Fuzz(func(t *testing.T, data []byte) {
		// The same bytes as a segment and as a record payload: any error
		// is fine, a panic or a count-sized allocation is not (the frame
		// envelope under scanWAL has its own fuzzer, wirefmt's FuzzFrame).
		scanWAL(data)
		decodeRecord(data)

		// Decode waves: [nAdds%3, nDels%3, then 2 bytes per edge].
		type waveT struct{ adds, dels []graph.Edge }
		var stream []waveT
		for len(data) >= 2 && len(stream) < 10 {
			na, nd := int(data[0]%3), int(data[1]%3)
			data = data[2:]
			var w waveT
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
			stream = append(stream, w)
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
		defer crash(rec)
		got, want := rec.Current().State(), ref.Current().State()
		if got != want {
			t.Fatalf("recovered state %+v, reference %+v", got, want)
		}
		if gr, wr := rec.Stats().WALRecords, int64(len(stream)); gr != wr {
			t.Fatalf("recovered WALRecords %d, want %d", gr, wr)
		}
	})
}
