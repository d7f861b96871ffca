// Package store is the versioned graph store behind live updates: an
// immutable CSR base plus a compact add/delete edge delta, exposed as
// epoch-numbered immutable Snapshots. Each ApplyUpdates merges the
// changed adjacency rows once (sorted, deduplicated — the same
// invariants CSR rows hold) into one arena and publishes them as a
// successor of the current overlay that copies only the pages those
// rows land in (graph.Overlay), for both the forward graph and its
// reverse, so an update costs O(changed rows) however large the delta
// has grown. The result is published atomically: queries in flight keep
// the snapshot they started on, later batches see the new epoch. The
// ApplyUpdates whose delta crosses a threshold also folds it into a
// fresh CSR base, inline under the writer's lock, so the overlay's pages
// stay few and reads of unchanged rows keep falling through to the CSR.
// Queries never take that lock, so a fold never stalls one; the epoch
// is a pure function of the update sequence.
//
// A store opened with Open is additionally durable: every epoch
// transition is appended to a CRC-framed write-ahead log before the
// snapshot is published, every fold writes the fresh CSR base to a
// snapshot file, and a warm restart replays snapshot + WAL tail back to
// the exact pre-crash epoch, edge set and pending delta, so a restarted
// store folds at the same epochs as one that never stopped (see wal.go
// and durable.go).
//
// The durable on-disk format, in brief: a data directory holds
// epoch-named files (zero-padded so lexical order is numeric order) of
// two kinds. wal-<epoch>.log segments carry length-prefixed, CRC32-C
// framed records — a kind byte (update / compaction / no-op), the
// little-endian epoch the record transitions to, and the add/delete
// edge lists. snap-<epoch>.snap checkpoints carry a magic, a fixed
// header (epoch, WAL cursor, counters), the canonical
// graph.WriteBinary CSR, and a CRC32-C trailer over everything before
// it; they are written only at bootstrap and by a fold, to a temp file,
// fsynced, and atomically renamed. The fold rotates the WAL before it
// writes its snapshot, so every crash window stays recoverable;
// recovery loads the newest CRC-valid snapshot and replays the segments
// at or after its epoch, tolerating a torn tail only on the final
// segment.
package store

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
)

// DefaultCompactFraction triggers compaction once the effective delta
// reaches this fraction of the base's edges (but never below
// MinCompactEdges): the overlay's pages stay a small share of the
// graph's rows while compactions stay rare relative to update volume.
const DefaultCompactFraction = 8

// MinCompactEdges is the smallest delta worth folding; below it a
// compaction would cost more than the overlay probes it saves.
const MinCompactEdges = 4096

// Options tunes a Store.
type Options struct {
	// CompactAfter folds the delta into a fresh CSR base once the number
	// of effective edge changes since the last base reaches it. Zero
	// selects max(MinCompactEdges, baseEdges/DefaultCompactFraction);
	// negative disables automatic compaction (Compact still works). On a
	// durable store every fold also writes the snapshot file, so with
	// automatic compaction disabled nothing is snapshotted after
	// bootstrap until Compact is called.
	CompactAfter int
}

// Snapshot is one immutable epoch of the graph: the forward graph and
// its reverse, both either plain CSRs (after a compaction) or overlays
// over the store's current base. Engines consume Graph()/Reverse()
// directly — overlay graphs answer the same neighbour-access calls.
type Snapshot struct {
	epoch uint64

	g, gr       *graph.Graph
	base, baseR *graph.Graph

	// deltaEdges counts effective edge changes folded into the overlay
	// since base — the compaction pressure. Both directions contribute:
	// each update adds max(changedForward, changedBackward), so
	// backward-heavy divergence exerts the same pressure as forward.
	deltaEdges int
}

// Epoch returns the snapshot's epoch number. Epochs number snapshot
// transitions: every ApplyUpdates that changes the graph bumps it, and
// so does a compaction (content-identical, but a new representation),
// so an epoch uniquely names the (graph, reverse) pair and index-cache
// keys never alias across swaps.
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// Graph returns the forward graph of this epoch.
func (s *Snapshot) Graph() *graph.Graph { return s.g }

// Reverse returns the reverse graph of this epoch.
func (s *Snapshot) Reverse() *graph.Graph { return s.gr }

// NumVertices returns |V| of this epoch.
func (s *Snapshot) NumVertices() int { return s.g.NumVertices() }

// NumEdges returns |E| of this epoch.
func (s *Snapshot) NumEdges() int { return s.g.NumEdges() }

// OutNeighbors returns the sorted merged base∪delta out-neighbour row
// of v. The slice must not be modified.
func (s *Snapshot) OutNeighbors(v graph.VertexID) []graph.VertexID { return s.g.OutNeighbors(v) }

// OutDegree returns v's out-degree in this epoch.
func (s *Snapshot) OutDegree(v graph.VertexID) int { return s.g.OutDegree(v) }

// HasEdge reports whether (u,v) exists in this epoch.
func (s *Snapshot) HasEdge(u, v graph.VertexID) bool { return s.g.HasEdge(u, v) }

// DeltaEdges returns the effective edge changes pending compaction,
// counting whichever direction diverged more.
func (s *Snapshot) DeltaEdges() int { return s.deltaEdges }

// Stats snapshots a store's lifetime counters.
type Stats struct {
	// Epoch is the current snapshot's epoch.
	Epoch uint64
	// DeltaEdges describes the current overlay: effective edge changes
	// since the base (max over the two directions).
	DeltaEdges int
	// UpdatesApplied counts effective edge changes ever applied;
	// Compactions counts base rebuilds. On a durable store both are
	// restored from the newest snapshot header on Open, plus the
	// replayed WAL tail.
	UpdatesApplied, Compactions int64
	// WALRecords counts ApplyUpdates calls logged to the WAL (including
	// no-ops), across restarts; zero on an in-memory store. Callers use
	// it to resume a deterministic update stream after a crash.
	WALRecords int64
	// Checkpoints counts snapshot files written by this store instance:
	// the bootstrap one and one per fold. SnapshotEpoch is the epoch of
	// the newest on-disk snapshot, which a fold advances before its
	// ApplyUpdates or Compact returns. Both are zero on an in-memory
	// store.
	Checkpoints   int64
	SnapshotEpoch uint64
}

// Store owns the version chain. All methods are safe for concurrent
// use; ApplyUpdates and Compact calls are serialised against each
// other, Current is a single atomic load.
type Store struct {
	opts Options

	mu  sync.Mutex // serialises ApplyUpdates, compactions, and WAL appends
	cur atomic.Pointer[Snapshot]

	updates     atomic.Int64
	compactions atomic.Int64

	// dur is nil on in-memory stores; set by Open. All mutations of its
	// file state happen under mu.
	dur *durability
}

// New returns a store whose epoch 0 is g (computing the reverse).
func New(g *graph.Graph, opts Options) *Store {
	return NewWithReverse(g, g.Reverse(), opts)
}

// NewWithReverse is New with a precomputed reverse graph.
func NewWithReverse(g, gr *graph.Graph, opts Options) *Store {
	g, gr = g.Flatten(), gr.Flatten()
	s := &Store{opts: opts}
	s.cur.Store(&Snapshot{g: g, gr: gr, base: g, baseR: gr})
	return s
}

// Current returns the latest published snapshot.
func (s *Store) Current() *Snapshot { return s.cur.Load() }

// Stats returns the store's counters and the current overlay's size.
func (s *Store) Stats() Stats {
	snap := s.cur.Load()
	st := Stats{
		Epoch:          snap.epoch,
		DeltaEdges:     snap.deltaEdges,
		UpdatesApplied: s.updates.Load(),
		Compactions:    s.compactions.Load(),
	}
	if d := s.dur; d != nil {
		st.WALRecords = int64(d.seq.Load())
		st.Checkpoints = d.checkpoints.Load()
		st.SnapshotEpoch = d.snapEpoch.Load()
	}
	return st
}

// ApplyUpdates publishes a new epoch with dels removed and adds
// inserted (deletions apply first, so an edge named in both ends up
// present). Self-loops and duplicates among adds are dropped, deletions
// of absent edges are no-ops, and adds may name vertices beyond the
// current size — the vertex space grows to fit (it never shrinks). If
// nothing effectively changes the current snapshot is returned
// unchanged, with its epoch intact, so no-op updates cost no cache
// warmth downstream. Crossing the compaction threshold folds the delta
// into a fresh base before returning, so the returned snapshot is the
// folded one (one epoch further); on a durable store that fold has also
// written its snapshot file by then.
//
// On a durable store the update (effective or not) is appended to the
// WAL before the snapshot is published; a non-nil error means the
// update was NOT applied and the store refuses further durable writes
// (the log can no longer be trusted). A failure to log or snapshot the
// fold that follows an applied update is not returned: the update
// stands, and the failure is kept to refuse the next durable write.
// In-memory stores never fail.
func (s *Store) ApplyUpdates(adds, dels []graph.Edge) (*Snapshot, error) {
	s.mu.Lock()
	defer s.mu.Unlock()

	prev := s.cur.Load()
	next, changed := buildNext(prev, adds, dels)
	if next == nil {
		// Logged so WALRecords counts every ApplyUpdates call: callers
		// replaying a recorded update stream skip exactly that many
		// batches on restart, no-ops included.
		if err := s.logLocked(recNoop, prev.epoch, nil, nil); err != nil {
			return prev, err
		}
		return prev, nil
	}
	if err := s.logLocked(recUpdate, next.epoch, adds, dels); err != nil {
		return prev, err
	}
	s.cur.Store(next)
	s.updates.Add(int64(changed))
	s.maybeCompactLocked(next)
	return s.cur.Load(), nil
}

// buildNext computes prev's successor snapshot under dels-then-adds,
// sharing unchanged rows structurally. It returns (nil, 0) when nothing
// effectively changes. changed is the effective edge-change count, the
// max over the two directions: forward and backward overlays can
// legitimately diverge in how many rows the same logical change touches,
// and undercounting either side delays compaction.
func buildNext(prev *Snapshot, adds, dels []graph.Edge) (*Snapshot, int) {
	n := prev.g.NumVertices()
	for _, e := range adds {
		if e.Src == e.Dst {
			continue
		}
		if int(e.Src) >= n {
			n = int(e.Src) + 1
		}
		if int(e.Dst) >= n {
			n = int(e.Dst) + 1
		}
	}

	g, changedF := nextGraph(prev.g, n, edgeKeys(adds, false), edgeKeys(dels, false))
	gr, changedB := nextGraph(prev.gr, n, edgeKeys(adds, true), edgeKeys(dels, true))
	if changedF == 0 && changedB == 0 && n == prev.g.NumVertices() {
		return nil, 0
	}
	changed := max(changedF, changedB)

	return &Snapshot{
		epoch:      prev.epoch + 1,
		g:          g,
		gr:         gr,
		base:       prev.base,
		baseR:      prev.baseR,
		deltaEdges: prev.deltaEdges + changed,
	}, changed
}

// threshold returns the compaction trigger for the given base, or -1
// when automatic compaction is disabled.
func (s *Store) threshold(base *graph.Graph) int {
	switch {
	case s.opts.CompactAfter > 0:
		return s.opts.CompactAfter
	case s.opts.CompactAfter < 0:
		return -1
	}
	return max(MinCompactEdges, base.NumEdges()/DefaultCompactFraction)
}

// maybeCompactLocked folds snap's delta into a fresh base, inline under
// s.mu, when it has outgrown the threshold. A failed WAL append or
// snapshot write for the fold is already parked as the durable layer's
// sticky error, so the update that crossed the threshold stays applied
// and the next durable write surfaces the failure.
func (s *Store) maybeCompactLocked(snap *Snapshot) {
	if t := s.threshold(snap.base); t >= 0 && snap.deltaEdges >= t {
		_ = s.swapCompactedLocked(snap)
	}
}

// swapCompactedLocked flattens snap into a fresh CSR pair and publishes
// it as the next epoch. On a durable store it WAL-logs the transition
// first (compactions bump the epoch, so replay must reproduce them to
// reach the same number) and then writes the fresh base as the
// snapshot file.
func (s *Store) swapCompactedLocked(snap *Snapshot) error {
	if err := s.logLocked(recCompact, snap.epoch+1, nil, nil); err != nil {
		return err
	}
	flatG, flatR := snap.g.Flatten(), snap.gr.Flatten()
	next := &Snapshot{
		epoch: snap.epoch + 1,
		g:     flatG, gr: flatR,
		base: flatG, baseR: flatR,
	}
	s.cur.Store(next)
	s.compactions.Add(1)
	if s.dur == nil {
		return nil
	}
	return s.snapshotFoldLocked(next)
}

// Compact folds any pending delta into a fresh base and returns the
// resulting snapshot (the current one when there was nothing to fold).
// A live overlay is folded even when its effective delta nets out to
// zero: adds and deletes that cancel still leave overlay rows that cost
// a probe per neighbour access. On a durable store the fold writes its
// snapshot file before Compact returns, so Compact is also the store's
// checkpoint. The error is non-nil only on a durable store: when the
// WAL append failed no new epoch was published; when the snapshot write
// failed the fold stands and the error is sticky, as in ApplyUpdates.
func (s *Store) Compact() (*Snapshot, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := s.cur.Load()
	if !snap.g.IsOverlay() {
		return snap, nil
	}
	err := s.swapCompactedLocked(snap)
	return s.cur.Load(), err
}

// Close syncs and closes a durable store's WAL and releases the data
// directory; it writes no snapshot, so a restart replays the WAL since
// the last fold. The store remains usable for reads after Close;
// further durable writes fail.
func (s *Store) Close() error {
	if s.dur == nil {
		return nil
	}
	return s.closeDurable()
}

// edgeKeys returns edges as sorted, deduplicated src<<32|dst keys
// (dst<<32|src when reversed), dropping self-loops: the keys of one row
// are then contiguous, in ascending row and neighbour order.
func edgeKeys(edges []graph.Edge, reversed bool) []uint64 {
	keys := make([]uint64, 0, len(edges))
	for _, e := range edges {
		if e.Src == e.Dst {
			continue
		}
		if reversed {
			e.Src, e.Dst = e.Dst, e.Src
		}
		keys = append(keys, uint64(e.Src)<<32|uint64(e.Dst))
	}
	slices.Sort(keys)
	return slices.Compact(keys)
}

// nextGraph returns cur's successor overlay for one direction over n
// vertices: every row the sorted adds/dels keys name is merged against
// its current contents, in ascending row order, into one arena, and the
// rows that changed replace cur's. m moves by the changed rows' length
// differences. changed counts effective edge changes (inserted absent
// + removed present); rows that end up identical are left untouched.
func nextGraph(cur *graph.Graph, n int, adds, dels []uint64) (*graph.Graph, int) {
	// Size the arena once: a merged row is at most its old row plus its
	// adds, so rows sliced from it never move.
	size, named := len(adds), 0
	forRows(adds, dels, func(v graph.VertexID, _, _ []uint64) {
		size += len(rowOf(cur, v))
		named++
	})
	arena := make([]graph.VertexID, 0, size)
	rows := make([]graph.Row, 0, named)
	m, changed := cur.NumEdges(), 0
	forRows(adds, dels, func(v graph.VertexID, adds, dels []uint64) {
		old, start := rowOf(cur, v), len(arena)
		var delta int
		arena, delta = mergeRow(arena, old, adds, dels)
		if delta == 0 {
			arena = arena[:start]
			return
		}
		rows = append(rows, graph.Row{V: v, Nbrs: arena[start:len(arena):len(arena)]})
		m += len(arena) - start - len(old)
		changed += delta
	})
	return graph.Overlay(cur, n, m, rows), changed
}

// rowOf returns v's current row in g, empty for a vertex g does not
// have yet.
func rowOf(g *graph.Graph, v graph.VertexID) []graph.VertexID {
	if int(v) >= g.NumVertices() {
		return nil
	}
	return g.OutNeighbors(v)
}

// forRows calls fn once per row that the sorted adds or dels keys name,
// in ascending row order, with that row's keys.
func forRows(adds, dels []uint64, fn func(v graph.VertexID, adds, dels []uint64)) {
	for len(adds) > 0 || len(dels) > 0 {
		v := uint64(math.MaxUint64)
		if len(adds) > 0 {
			v = adds[0]
		}
		if len(dels) > 0 {
			v = min(v, dels[0])
		}
		v >>= 32
		a, d := 0, 0
		for a < len(adds) && adds[a]>>32 == v {
			a++
		}
		for d < len(dels) && dels[d]>>32 == v {
			d++
		}
		fn(graph.VertexID(v), adds[:a], dels[:d])
		adds, dels = adds[a:], dels[d:]
	}
}

// mergeRow appends to arena the sorted row old with dels removed and
// then adds inserted (both sorted keys of old's row; a neighbour is a
// key's low 32 bits), and returns the grown arena and the number of
// edges that changed. Zero means the row is unchanged — deleting and
// re-adding an edge in one update cancels out.
func mergeRow(arena, old []graph.VertexID, adds, dels []uint64) ([]graph.VertexID, int) {
	changed, i, j := 0, 0, 0
	for i < len(old) || j < len(adds) {
		switch {
		case j == len(adds) || i < len(old) && old[i] < graph.VertexID(adds[j]):
			w := old[i]
			i++
			for len(dels) > 0 && graph.VertexID(dels[0]) < w {
				dels = dels[1:]
			}
			if len(dels) > 0 && graph.VertexID(dels[0]) == w {
				changed++
				continue
			}
			arena = append(arena, w)
		case i == len(old) || graph.VertexID(adds[j]) < old[i]:
			arena = append(arena, graph.VertexID(adds[j]))
			j++
			changed++
		default: // present before and added: the add wins over a delete
			arena = append(arena, old[i])
			i++
			j++
		}
	}
	return arena, changed
}
