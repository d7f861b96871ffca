// Write-ahead log records for the durable store. Every epoch
// transition — effective update, no-op update, compaction — is one
// wirefmt frame appended to the active segment before the snapshot
// publishes:
//
//	payload = kind(1B) | epoch(8B LE) | nAdds(4B LE) | nDels(4B LE) |
//	          adds: nAdds × (src 4B, dst 4B) | dels: nDels × (src 4B, dst 4B)
//
// The epoch stored is the one the record transitions TO (for no-ops,
// the unchanged current epoch), so replay can assert continuity and a
// recovered store provably reaches the exact pre-crash epoch. Records
// carry the raw adds/dels as passed to ApplyUpdates: the snapshot
// transition function (buildNext) is deterministic, so replaying the
// inputs reproduces the outputs bit-for-bit.
package store

import (
	"errors"
	"fmt"

	"repro/internal/graph"
	"repro/internal/wirefmt"
)

// FsyncPolicy selects when WAL appends reach stable storage.
type FsyncPolicy int

const (
	// FsyncAlways fsyncs after every appended record: an acknowledged
	// ApplyUpdates survives any crash. The default.
	FsyncAlways FsyncPolicy = iota
	// FsyncInterval fsyncs on a background ticker (every 100ms):
	// bounded data loss — at most one sync interval of
	// acknowledged updates — for near-in-memory append latency.
	FsyncInterval
	// FsyncOff never fsyncs the WAL except at Close and before a
	// checkpoint: crash loses anything since then. For bulk loads and
	// tests.
	FsyncOff
)

// String names the policy the way the CLI's -fsync flag spells it.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	case FsyncOff:
		return "off"
	}
	return fmt.Sprintf("FsyncPolicy(%d)", int(p))
}

// ParseFsyncPolicy inverts FsyncPolicy.String.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	case "off":
		return FsyncOff, nil
	}
	return 0, fmt.Errorf("unknown fsync policy %q (want always, interval, or off)", s)
}

// WAL record kinds.
const (
	recUpdate  byte = 1 // effective ApplyUpdates: epoch bumped, edges attached
	recCompact byte = 2 // compaction swap: epoch bumped, no edges
	recNoop    byte = 3 // ineffective ApplyUpdates: epoch unchanged, logged for seq
)

const (
	walMinPayload = 1 + 8 + 4 + 4 // kind + epoch + counts
	walSuffix     = ".log"
	walPrefix     = "wal-"
)

// errTornTail marks scan errors that torn-tail truncation repairs: the
// segment's prefix up to the reported offset is intact and the rest is
// an interrupted append. Anything else (a CRC-valid but malformed
// record) is real corruption and recovery fails loudly instead.
var errTornTail = errors.New("torn WAL tail")

// walRecord is one decoded WAL record.
type walRecord struct {
	kind       byte
	epoch      uint64
	adds, dels []graph.Edge
}

// encodeRecord frames one record into d.buf (reused across appends; at
// steady state the buffer has plateaued and appending allocates
// nothing).
//
//hcpath:noalloc
func (d *durability) encodeRecord(kind byte, epoch uint64, adds, dels []graph.Edge) {
	d.buf = wirefmt.BeginFrame(d.buf[:0])
	d.buf = wirefmt.AppendU8(d.buf, kind)
	d.buf = wirefmt.AppendU64(d.buf, epoch)
	d.buf = wirefmt.AppendU32(d.buf, uint32(len(adds)))
	d.buf = wirefmt.AppendU32(d.buf, uint32(len(dels)))
	d.buf = wirefmt.AppendEdges(d.buf, adds)
	d.buf = wirefmt.AppendEdges(d.buf, dels)
	wirefmt.EndFrame(d.buf)
}

// decodeRecord parses one CRC-verified payload. Errors here mean the
// writer and reader disagree on the format — corruption that a CRC
// cannot explain away — and are never treated as a torn tail.
func decodeRecord(p []byte) (walRecord, error) {
	r := wirefmt.NewReader(p)
	rec := walRecord{kind: r.U8(), epoch: r.U64()}
	if rec.kind != recUpdate && rec.kind != recCompact && rec.kind != recNoop {
		return walRecord{}, fmt.Errorf("unknown WAL record kind %d", rec.kind)
	}
	nAdds, nDels := r.U32(), r.U32()
	rec.adds = wirefmt.ReadEdges(r, nAdds)
	rec.dels = wirefmt.ReadEdges(r, nDels)
	if err := r.Close(); err != nil {
		return walRecord{}, fmt.Errorf("%d-byte WAL record payload claiming %d adds + %d dels: %w", len(p), nAdds, nDels, err)
	}
	return rec, nil
}

// scanWAL decodes records from a segment's bytes. It returns the
// records of the longest valid prefix, that prefix's length in bytes,
// and why scanning stopped: nil at a clean end-of-segment, an
// errTornTail-wrapped error when the remainder looks like an
// interrupted append (truncating to the returned length repairs it),
// or a plain error for unrepairable corruption. Every frame-level
// failure counts as torn (an append cut short can also leave stale
// bytes whose length or checksum is garbage); a frame that verifies
// but does not decode cannot be the product of a crash.
func scanWAL(data []byte) ([]walRecord, int, error) {
	var recs []walRecord
	off := 0
	for off < len(data) {
		payload, n, err := wirefmt.ScanFrame(data[off:], walMinPayload, wirefmt.MaxPayload)
		if err != nil {
			return recs, off, fmt.Errorf("%w at offset %d: %v", errTornTail, off, err)
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			return recs, off, fmt.Errorf("WAL record at offset %d: %w", off, err)
		}
		recs = append(recs, rec)
		off += n
	}
	return recs, off, nil
}

// logLocked appends one record to the WAL and applies the fsync
// policy. Callers hold s.mu; on an in-memory store it is a no-op. Any
// I/O failure is sticky: a partial append desynchronises the frame
// stream, so the store refuses all further durable writes rather than
// risk logging records a replay could misparse.
func (s *Store) logLocked(kind byte, epoch uint64, adds, dels []graph.Edge) error {
	d := s.dur
	if d == nil {
		return nil
	}
	if d.err != nil {
		return d.err
	}
	if d.f == nil {
		return errClosed
	}
	d.encodeRecord(kind, epoch, adds, dels)
	if _, err := d.f.Write(d.buf); err != nil {
		d.err = fmt.Errorf("store: wal append: %w", err)
		return d.err
	}
	if d.fsync == FsyncAlways {
		if err := d.f.Sync(); err != nil {
			d.err = fmt.Errorf("store: wal sync: %w", err)
			return d.err
		}
	} else {
		d.dirty = true
	}
	if kind == recUpdate || kind == recNoop {
		d.seq.Add(1)
	}
	if kind == recUpdate {
		d.recsSince++
	}
	return nil
}
