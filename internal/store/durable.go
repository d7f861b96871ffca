// Durable store: snapshot files, WAL segments, and warm restart.
//
// A data directory holds two kinds of files, both named by the epoch
// they capture (zero-padded so lexical order is numeric order):
//
//	snap-<epoch>.snap  full image of a freshly folded base: header +
//	                   graph.WriteBinary CSR + CRC32-C trailer over
//	                   everything before it
//	wal-<epoch>.log    WAL segment opened by the fold to <epoch>; holds
//	                   only records with epochs after <epoch> (plus
//	                   no-ops at it)
//
// After bootstrap, the fold is the only writer of snapshots: it logs its
// compaction record, syncs the old segment, rotates the WAL and writes
// the snapshot (tmp file, fsync, atomic rename, directory fsync), all
// under the writer's lock. Every snapshot therefore holds zero delta,
// and recovery rebuilds the overlay — and with it the compaction
// pressure — exactly from the WAL, so a restarted store folds at the
// same epochs as one that never stopped. Every crash window is
// recoverable: recovery loads the newest snapshot that passes its CRC
// and replays every segment at-or-after its epoch in order, asserting
// epoch continuity record by record. A torn tail is tolerated — and
// truncated away — only on the final segment, where an interrupted
// append can legitimately leave one; corruption anywhere else fails
// Open loudly rather than ever serving a wrong graph.
package store

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/wirefmt"
)

// syncEvery is the FsyncInterval ticker period.
const syncEvery = 100 * time.Millisecond

// errClosed is returned by durable operations after Close.
var errClosed = errors.New("store: closed")

// DurableOptions tunes a store opened with Open.
type DurableOptions struct {
	Options

	// Fsync selects WAL durability: FsyncAlways (default), FsyncInterval,
	// or FsyncOff. Snapshot files are always fsynced regardless.
	Fsync FsyncPolicy
}

// durability is the file-backed half of a Store. Fields other than the
// atomics are guarded by Store.mu.
type durability struct {
	dir   string
	fsync FsyncPolicy

	f        *os.File // active WAL segment, nil after Close
	segEpoch uint64   // active segment's base epoch (its filename)
	buf      []byte   // reusable record frame
	dirty    bool     // appended since last fsync
	err      error    // sticky first WAL failure; durable writes refuse after

	seq         atomic.Uint64 // update+noop records ever logged (survives restart)
	snapEpoch   atomic.Uint64 // newest on-disk snapshot's epoch
	checkpoints atomic.Int64  // snapshot files written by this instance

	syncStop, syncDone chan struct{} // interval-sync goroutine lifecycle
}

// Open returns a durable store rooted at dir. An empty (or absent)
// directory is bootstrapped from initial (nil means an empty graph):
// epoch 0 is checkpointed immediately so the directory is always
// recoverable. A non-empty directory warm-restarts: the newest valid
// snapshot is loaded, the WAL tail replayed, and the store resumes at
// the exact pre-crash epoch, edge set, and WALRecords count — initial
// is ignored, the on-disk state wins.
func Open(dir string, initial *graph.Graph, opts DurableOptions) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	snaps, segs, err := scanDir(dir)
	if err != nil {
		return nil, err
	}

	d := &durability{dir: dir, fsync: opts.Fsync}
	var s *Store
	if len(snaps) == 0 && len(segs) == 0 {
		s, err = bootstrap(d, initial, opts.Options)
	} else {
		s, err = recoverStore(d, opts.Options, snaps, segs)
	}
	if err != nil {
		return nil, err
	}

	if d.fsync == FsyncInterval {
		d.syncStop, d.syncDone = make(chan struct{}), make(chan struct{})
		go s.syncLoop()
	}
	return s, nil
}

// bootstrap initialises an empty data directory: snapshot first, then
// the epoch-0 WAL segment, so a crash at any point leaves either
// nothing (bootstrap reruns) or a recoverable snapshot.
func bootstrap(d *durability, initial *graph.Graph, opts Options) (*Store, error) {
	if initial == nil {
		initial = graph.FromEdges(0, nil)
	}
	s := New(initial, opts)
	s.dur = d
	cur := s.cur.Load()
	if err := d.writeSnapshot(cur, 0, 0, 0); err != nil {
		return nil, err
	}
	d.snapEpoch.Store(cur.epoch)
	d.checkpoints.Add(1)
	f, err := createSegment(d.dir, cur.epoch)
	if err != nil {
		return nil, err
	}
	d.f, d.segEpoch = f, cur.epoch
	return s, nil
}

// recoverStore rebuilds the pre-crash store from dir's contents.
func recoverStore(d *durability, opts Options, snaps, segs []fileEpoch) (*Store, error) {
	if len(snaps) == 0 {
		return nil, fmt.Errorf("store: %s has WAL segments but no snapshot; refusing to guess a base state", d.dir)
	}

	// Newest snapshot first; fall back past corrupt ones — an older
	// snapshot plus a longer chain replay reaches the same state.
	var (
		g        *graph.Graph
		hdr      snapHeader
		loadErrs []error
	)
	for i := len(snaps) - 1; i >= 0; i-- {
		gg, h, err := readSnapshotFile(snaps[i])
		if err != nil {
			loadErrs = append(loadErrs, err)
			continue
		}
		g, hdr = gg, h
		break
	}
	if g == nil {
		return nil, errors.Join(
			append([]error{fmt.Errorf("store: %s: no loadable snapshot", d.dir)}, loadErrs...)...)
	}

	// The replay chain: every segment at-or-after the snapshot's epoch.
	// Rotation precedes the snapshot write, so wal-<epoch> must exist
	// whenever any later segment does; a gap means lost records.
	first := sort.Search(len(segs), func(i int) bool { return segs[i].epoch >= hdr.epoch })
	chain := segs[first:]
	if len(chain) > 0 && chain[0].epoch != hdr.epoch {
		return nil, fmt.Errorf("store: %s: snapshot at epoch %d but oldest following WAL segment starts at %d; wal-%d is missing",
			d.dir, hdr.epoch, chain[0].epoch, hdr.epoch)
	}

	gr := g.Reverse()
	s := &Store{opts: opts}
	s.cur.Store(&Snapshot{epoch: hdr.epoch, g: g, gr: gr, base: g, baseR: gr})
	s.updates.Store(int64(hdr.updates))
	s.compactions.Store(int64(hdr.compactions))
	s.dur = d
	d.seq.Store(hdr.seq)
	d.snapEpoch.Store(hdr.epoch)

	for i, seg := range chain {
		data, err := os.ReadFile(seg.path)
		if err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		recs, valid, scanErr := scanWAL(data)
		if scanErr != nil {
			if i != len(chain)-1 || !errors.Is(scanErr, errTornTail) {
				return nil, fmt.Errorf("store: %s: %w", seg.path, scanErr)
			}
			// An interrupted append on the live segment: drop the tail
			// so future appends continue from a clean frame boundary.
			if err := os.Truncate(seg.path, int64(valid)); err != nil {
				return nil, fmt.Errorf("store: truncating torn tail: %w", err)
			}
		}
		for _, r := range recs {
			if err := s.replayRecord(r); err != nil {
				return nil, fmt.Errorf("store: %s: %w", seg.path, err)
			}
		}
	}

	// Resume appending to the last segment of the chain (or open a
	// fresh one when the snapshot is newer than every segment).
	if len(chain) > 0 {
		last := chain[len(chain)-1]
		f, err := os.OpenFile(last.path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("store: reopening WAL: %w", err)
		}
		d.f, d.segEpoch = f, last.epoch
	} else {
		f, err := createSegment(d.dir, hdr.epoch)
		if err != nil {
			return nil, err
		}
		d.f, d.segEpoch = f, hdr.epoch
	}
	// A crash between an update record and the fold it triggered leaves
	// the replayed delta at the threshold or past it: finish that fold,
	// as the interrupted ApplyUpdates would have, so the epochs that
	// follow match an uninterrupted run's.
	s.maybeCompactLocked(s.cur.Load())
	return s, nil
}

// replayRecord applies one WAL record during recovery, asserting epoch
// continuity: updates and compactions must transition cur.epoch to
// exactly the recorded epoch, no-ops must match it. Replay runs before
// the store is shared, so no locking.
func (s *Store) replayRecord(r walRecord) error {
	cur := s.cur.Load()
	switch r.kind {
	case recNoop:
		if r.epoch != cur.epoch {
			return fmt.Errorf("no-op record at epoch %d, store at %d", r.epoch, cur.epoch)
		}
		s.dur.seq.Add(1)
	case recUpdate:
		if r.epoch != cur.epoch+1 {
			return fmt.Errorf("update record to epoch %d, store at %d", r.epoch, cur.epoch)
		}
		next, changed := buildNext(cur, r.adds, r.dels)
		if next == nil {
			return fmt.Errorf("update record to epoch %d replays as a no-op", r.epoch)
		}
		s.cur.Store(next)
		s.updates.Add(int64(changed))
		s.dur.seq.Add(1)
	case recCompact:
		if r.epoch != cur.epoch+1 {
			return fmt.Errorf("compaction record to epoch %d, store at %d", r.epoch, cur.epoch)
		}
		flatG, flatR := cur.g.Flatten(), cur.gr.Flatten()
		s.cur.Store(&Snapshot{epoch: r.epoch, g: flatG, gr: flatR, base: flatG, baseR: flatR})
		s.compactions.Add(1)
	default:
		return fmt.Errorf("unknown WAL record kind %d", r.kind)
	}
	return nil
}

// snapshotFoldLocked makes the fold that just published snap its
// durable image: it syncs the segment holding the compaction record (a
// snapshot must never claim state the WAL did not make stable), rotates
// the WAL to wal-<epoch>, writes snap-<epoch> and prunes superseded
// files. Callers hold s.mu. A failure becomes the sticky error: the
// fold stands, and recovery reaches it from the older snapshot plus a
// longer chain.
func (s *Store) snapshotFoldLocked(snap *Snapshot) error {
	d := s.dur
	if d.dirty {
		if err := d.f.Sync(); err != nil {
			return d.fail(fmt.Errorf("store: wal sync: %w", err))
		}
		d.dirty = false
	}
	f, err := createSegment(d.dir, snap.epoch)
	if err != nil {
		return d.fail(err)
	}
	old := d.f
	d.f, d.segEpoch = f, snap.epoch
	if err := old.Close(); err != nil {
		return d.fail(fmt.Errorf("store: closing WAL segment: %w", err))
	}
	if err := d.writeSnapshot(snap, d.seq.Load(), uint64(s.updates.Load()), uint64(s.compactions.Load())); err != nil {
		return d.fail(err)
	}
	d.snapEpoch.Store(snap.epoch)
	d.checkpoints.Add(1)
	d.prune()
	return nil
}

// fail records err as the sticky error and returns it. Callers hold
// s.mu.
func (d *durability) fail(err error) error {
	d.err = err
	return err
}

// closeDurable finishes a durable store: WAL sync, file close.
// Idempotent.
func (s *Store) closeDurable() error {
	d := s.dur
	s.mu.Lock()
	closed := d.f == nil
	s.mu.Unlock()
	if closed {
		return nil
	}
	if d.syncStop != nil {
		close(d.syncStop)
		<-d.syncDone
		d.syncStop = nil
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	var syncErr, closeErr error
	if d.f != nil {
		if d.dirty {
			syncErr = d.f.Sync()
			d.dirty = false
		}
		closeErr = d.f.Close()
		d.f = nil
	}
	return errors.Join(syncErr, closeErr, d.err)
}

// syncLoop is the FsyncInterval ticker: it syncs the active segment
// whenever appends happened since the last tick.
func (s *Store) syncLoop() {
	d := s.dur
	defer close(d.syncDone)
	t := time.NewTicker(syncEvery)
	defer t.Stop()
	for {
		select {
		case <-d.syncStop:
			return
		case <-t.C:
			s.mu.Lock()
			if d.dirty && d.f != nil && d.err == nil {
				if err := d.f.Sync(); err != nil {
					d.err = fmt.Errorf("store: wal sync: %w", err)
				} else {
					d.dirty = false
				}
			}
			s.mu.Unlock()
		}
	}
}

// State identifies a snapshot's logical content for cross-process
// comparison: a recovered store and its pre-crash original must agree
// on all four fields.
type State struct {
	Epoch                 uint64
	NumVertices, NumEdges int
	// Checksum is CRC32-C over the canonical (flattened) CSR
	// serialization, so it is representation-independent: an overlay
	// and its folded equivalent hash identically.
	Checksum uint32
}

// State computes the snapshot's identity. It flattens overlays, so it
// is O(m) — a diagnostic, not a hot-path call.
func (s *Snapshot) State() State {
	h := wirefmt.NewHash()
	if err := graph.WriteBinary(h, s.g); err != nil {
		// The hash writer cannot fail; WriteBinary has no other error path.
		panic(err)
	}
	return State{
		Epoch:       s.epoch,
		NumVertices: s.g.NumVertices(),
		NumEdges:    s.g.NumEdges(),
		Checksum:    h.Sum32(),
	}
}

// --- snapshot files -------------------------------------------------

// snapMagic identifies a snapshot file; the version suffix guards
// against reading a future layout.
var snapMagic = [8]byte{'H', 'C', 'S', 'N', 'A', 'P', 'S', '1'}

// snapHeader is the fixed header after the magic, before the embedded
// graph.WriteBinary stream.
type snapHeader struct {
	epoch       uint64 // the checkpointed epoch
	seq         uint64 // WALRecords at checkpoint time
	updates     uint64 // Stats.UpdatesApplied at checkpoint time
	compactions uint64 // Stats.Compactions at checkpoint time
}

const snapHeaderSize = 8 + 4*8 // magic + four fields

// writeSnapshot atomically writes snap as snap-<epoch>.snap: tmp file,
// CRC32-C trailer over everything before it, fsync, rename, directory
// fsync. Snapshot writes are always synced, whatever the WAL policy —
// they are rare and they anchor recovery.
func (d *durability) writeSnapshot(snap *Snapshot, seq, updates, compactions uint64) (err error) {
	final := snapPath(d.dir, snap.epoch)
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: snapshot: %w", err)
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()

	bw := bufio.NewWriterSize(f, 1<<20)
	h := wirefmt.NewHash()
	w := io.MultiWriter(bw, h)

	hdr := append(make([]byte, 0, snapHeaderSize), snapMagic[:]...)
	hdr = wirefmt.AppendU64(hdr, snap.epoch)
	hdr = wirefmt.AppendU64(hdr, seq)
	hdr = wirefmt.AppendU64(hdr, updates)
	hdr = wirefmt.AppendU64(hdr, compactions)
	if _, err = w.Write(hdr); err != nil {
		return fmt.Errorf("store: snapshot header: %w", err)
	}
	if err = graph.WriteBinary(w, snap.g); err != nil {
		return fmt.Errorf("store: snapshot graph: %w", err)
	}
	if _, err = bw.Write(wirefmt.AppendU32(nil, h.Sum32())); err != nil {
		return fmt.Errorf("store: snapshot trailer: %w", err)
	}
	if err = bw.Flush(); err != nil {
		return fmt.Errorf("store: snapshot flush: %w", err)
	}
	if err = f.Sync(); err != nil {
		return fmt.Errorf("store: snapshot sync: %w", err)
	}
	if err = f.Close(); err != nil {
		return fmt.Errorf("store: snapshot close: %w", err)
	}
	if err = os.Rename(tmp, final); err != nil {
		return fmt.Errorf("store: snapshot rename: %w", err)
	}
	if err = syncDir(d.dir); err != nil {
		return err
	}
	return nil
}

// readSnapshotFile loads and verifies one snapshot file. The CRC
// covers everything before the 4-byte trailer; ReadBinary's internal
// buffering may read ahead of the graph bytes, so the reader tees
// through the hash up to (but excluding) the trailer and drains
// whatever ReadBinary left, guaranteeing the hash saw exactly the
// covered prefix.
func readSnapshotFile(fe fileEpoch) (*graph.Graph, snapHeader, error) {
	var hdr snapHeader
	f, err := os.Open(fe.path)
	if err != nil {
		return nil, hdr, fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, hdr, fmt.Errorf("store: %w", err)
	}
	if st.Size() < snapHeaderSize+4 {
		return nil, hdr, fmt.Errorf("store: %s: %d bytes is too small for a snapshot", fe.path, st.Size())
	}

	h := wirefmt.NewHash()
	r := io.TeeReader(io.LimitReader(f, st.Size()-4), h)

	var raw [snapHeaderSize]byte
	if _, err := io.ReadFull(r, raw[:]); err != nil {
		return nil, hdr, fmt.Errorf("store: %s: header: %w", fe.path, err)
	}
	if [8]byte(raw[:8]) != snapMagic {
		return nil, hdr, fmt.Errorf("store: %s: bad magic %q", fe.path, raw[:8])
	}
	fields := wirefmt.NewReader(raw[8:])
	hdr = snapHeader{epoch: fields.U64(), seq: fields.U64(), updates: fields.U64(), compactions: fields.U64()}
	if hdr.epoch != fe.epoch {
		return nil, hdr, fmt.Errorf("store: %s: header epoch %d does not match filename", fe.path, hdr.epoch)
	}

	g, err := graph.ReadBinary(r)
	if err != nil {
		return nil, hdr, fmt.Errorf("store: %s: %w", fe.path, err)
	}
	if _, err := io.Copy(io.Discard, r); err != nil {
		return nil, hdr, fmt.Errorf("store: %s: %w", fe.path, err)
	}
	var trailer [4]byte
	if _, err := io.ReadFull(f, trailer[:]); err != nil {
		return nil, hdr, fmt.Errorf("store: %s: trailer: %w", fe.path, err)
	}
	if got := wirefmt.NewReader(trailer[:]).U32(); got != h.Sum32() {
		return nil, hdr, fmt.Errorf("store: %s: CRC mismatch (file %08x, computed %08x)", fe.path, got, h.Sum32())
	}
	return g, hdr, nil
}

// --- directory layout -----------------------------------------------

// fileEpoch is one data-directory file and the epoch its name carries.
type fileEpoch struct {
	path  string
	epoch uint64
}

const snapSuffix = ".snap"
const snapPrefix = "snap-"

func snapPath(dir string, epoch uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%020d%s", snapPrefix, epoch, snapSuffix))
}

func walPath(dir string, epoch uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%020d%s", walPrefix, epoch, walSuffix))
}

// scanDir lists the snapshots and WAL segments in dir, each sorted by
// ascending epoch. Unknown files (including .tmp leftovers, which
// prune removes) are ignored.
func scanDir(dir string) (snaps, segs []fileEpoch, err error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("store: %w", err)
	}
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		if ep, ok := parseEpochName(name, snapPrefix, snapSuffix); ok {
			snaps = append(snaps, fileEpoch{path: filepath.Join(dir, name), epoch: ep})
		} else if ep, ok := parseEpochName(name, walPrefix, walSuffix); ok {
			segs = append(segs, fileEpoch{path: filepath.Join(dir, name), epoch: ep})
		}
	}
	byEpoch := func(fs []fileEpoch) func(i, j int) bool {
		return func(i, j int) bool { return fs[i].epoch < fs[j].epoch }
	}
	sort.Slice(snaps, byEpoch(snaps))
	sort.Slice(segs, byEpoch(segs))
	return snaps, segs, nil
}

// parseEpochName extracts the epoch from "<prefix><20 digits><suffix>".
func parseEpochName(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	mid := name[len(prefix) : len(name)-len(suffix)]
	if len(mid) != 20 {
		return 0, false
	}
	ep, err := strconv.ParseUint(mid, 10, 64)
	if err != nil {
		return 0, false
	}
	return ep, true
}

// createSegment opens a fresh WAL segment for the given base epoch.
// O_EXCL: a segment that already exists means the rotation accounting
// is wrong, which must not be papered over by appending to it.
func createSegment(dir string, epoch uint64) (*os.File, error) {
	f, err := os.OpenFile(walPath(dir, epoch), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: creating WAL segment: %w", err)
	}
	if err := syncDir(dir); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// prune removes files superseded by the two newest snapshot
// generations: older snapshots, and segments entirely before the older
// kept snapshot's epoch. Best-effort — recovery only ever needs the
// newest valid generation, the second is kept as a fallback. It also
// removes the temp files of snapshot writes a crash tore: recovery
// replays such a fold from the WAL without writing its snapshot again,
// so nothing else ever replaces them. Callers hold s.mu after a
// successful snapshot, so no write is in flight.
func (d *durability) prune() {
	if ents, err := os.ReadDir(d.dir); err == nil {
		for _, e := range ents {
			if name := e.Name(); strings.HasPrefix(name, snapPrefix) && strings.HasSuffix(name, snapSuffix+".tmp") {
				os.Remove(filepath.Join(d.dir, name))
			}
		}
	}
	snaps, segs, err := scanDir(d.dir)
	if err != nil || len(snaps) <= 2 {
		return
	}
	keep := snaps[len(snaps)-2].epoch
	for _, sn := range snaps[:len(snaps)-2] {
		os.Remove(sn.path)
	}
	for _, sg := range segs {
		if sg.epoch < keep {
			os.Remove(sg.path)
		}
	}
}

// syncDir fsyncs a directory so renames and creations within it are
// durable.
func syncDir(dir string) error {
	df, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer df.Close()
	if err := df.Sync(); err != nil {
		return fmt.Errorf("store: syncing %s: %w", dir, err)
	}
	return nil
}
