package store

import (
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/graph"
)

// The golden tests pin the on-disk formats: existing data directories
// must reopen after any refactor of the encoders. The bytes below and
// under testdata/golden were produced by the PR 17 encoders (e1ba563)
// and must never be regenerated from the code they check.

// TestGoldenWALRecords pins one framed WAL record of each kind.
func TestGoldenWALRecords(t *testing.T) {
	cases := []struct {
		name       string
		kind       byte
		epoch      uint64
		adds, dels []graph.Edge
		want       string
	}{
		{"update", recUpdate, 0x0102030405060708,
			[]graph.Edge{{Src: 1, Dst: 2}, {Src: 0xAABBCCDD, Dst: 3}}, []graph.Edge{{Src: 4, Dst: 5}},
			"2900000097383d5501080706050403020102000000010000000100000002000000ddccbbaa030000000400000005000000"},
		{"compact", recCompact, 9, nil, nil, "110000008e39cd1e0209000000000000000000000000000000"},
		{"noop", recNoop, 10, nil, nil, "110000002285d152030a000000000000000000000000000000"},
	}
	for _, c := range cases {
		var d durability
		d.encodeRecord(c.kind, c.epoch, c.adds, c.dels)
		if got := hex.EncodeToString(d.buf); got != c.want {
			t.Errorf("%s record:\n got %s\nwant %s", c.name, got, c.want)
		}
		recs, valid, err := scanWAL(d.buf)
		if err != nil || valid != len(d.buf) || len(recs) != 1 || recs[0].kind != c.kind || recs[0].epoch != c.epoch {
			t.Errorf("%s record does not scan back: %v, %d of %d bytes, %+v", c.name, err, valid, len(d.buf), recs)
		}
	}
}

// TestGoldenSnapshotHeaderTrailer pins the snapshot file's fixed
// header and its CRC trailer (the graph stream between them is
// graph.WriteBinary's, pinned by that package's own tests).
func TestGoldenSnapshotHeaderTrailer(t *testing.T) {
	const (
		wantHeader  = "4843534e415053310700000000000000887766554433221106000000000000000200000000000000"
		wantTrailer = "89736296"
		wantLen     = 184
	)
	g := seedGraph()
	gr := g.Reverse()
	d := &durability{dir: t.TempDir()}
	snap := &Snapshot{epoch: 7, g: g, gr: gr, base: g, baseR: gr}
	if err := d.writeSnapshot(snap, 0x1122334455667788, 6, 2); err != nil {
		t.Fatal(err)
	}
	path := snapPath(d.dir, 7)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != wantLen {
		t.Fatalf("snapshot file is %d bytes, want %d", len(b), wantLen)
	}
	if got := hex.EncodeToString(b[:40]); got != wantHeader {
		t.Errorf("header:\n got %s\nwant %s", got, wantHeader)
	}
	if got := hex.EncodeToString(b[len(b)-4:]); got != wantTrailer {
		t.Errorf("trailer: got %s, want %s", got, wantTrailer)
	}
	gg, hdr, err := readSnapshotFile(fileEpoch{path: path, epoch: 7})
	if err != nil {
		t.Fatalf("reading the snapshot back: %v", err)
	}
	if hdr != (snapHeader{epoch: 7, seq: 0x1122334455667788, updates: 6, compactions: 2}) || gg.NumEdges() != g.NumEdges() {
		t.Errorf("read back header %+v, %d edges", hdr, gg.NumEdges())
	}
}

// TestGoldenDataDir reopens a data directory written by the PR 17
// store: the bootstrap snapshot of seedGraph and one WAL segment that
// holds an update, a no-op, a compaction and a vertex-growing update,
// followed by a torn tail (the first 21 bytes of a record). Recovery
// must truncate the tail and reach the recorded state.
func TestGoldenDataDir(t *testing.T) {
	want := State{Epoch: 3, NumVertices: 14, NumEdges: 5, Checksum: 0x4ac343ad}
	const wantRecords, wantWALBytes = 3, 132

	dir := t.TempDir()
	for _, name := range []string{"snap-00000000000000000000.snap", "wal-00000000000000000000.log"} {
		b, err := os.ReadFile(filepath.Join("testdata", "golden", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s := openT(t, dir, nil, DurableOptions{Fsync: FsyncOff})
	if got := s.Current().State(); got != want {
		t.Errorf("recovered state %+v, want %+v", got, want)
	}
	if got := s.Stats().WALRecords; got != wantRecords {
		t.Errorf("recovered %d WAL records, want %d", got, wantRecords)
	}
	if fi, err := os.Stat(walPath(dir, 0)); err != nil || fi.Size() != wantWALBytes {
		t.Errorf("segment after recovery: %v bytes (%v), want the torn tail cut back to %d", fi.Size(), err, wantWALBytes)
	}
	// The reopened store keeps appending in the same format: one more
	// update, a clean close, and a second reopen agree with each other.
	if _, err := s.ApplyUpdates([]graph.Edge{{Src: 13, Dst: 0}}, nil); err != nil {
		t.Fatal(err)
	}
	after := s.Current().State()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openT(t, dir, nil, DurableOptions{Fsync: FsyncOff})
	defer s2.Close()
	if got := s2.Current().State(); got != after {
		t.Errorf("second reopen: state %+v, want %+v", got, after)
	}
}
