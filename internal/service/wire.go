package service

import (
	"context"
	"errors"
	"math"
	"time"

	"repro/internal/graph"
	"repro/internal/pathjoin"
	"repro/internal/query"
	"repro/internal/timing"
	"repro/internal/wirefmt"
)

// This file defines the portable encodings of the service types that
// cross the sharded deployment's wire — Query in, Reply out, Totals
// for Stats — so a remote worker process and the coordinator exchange
// exactly the structures the in-process deployment passes by pointer.
// Layout is fixed-width little-endian (see wirefmt); the framing,
// integrity, and versioning live in internal/shard. The encoder/decoder
// pairs carry statsmerge exhaustiveness directives, so adding a field
// to BatchStats or Totals without extending its wire encoding fails
// `hcpathvet` rather than silently zeroing the field cluster-wide.

// Reply.Err crosses the wire as a one-byte code: the error values the
// service contract names get stable codes, anything else rides as its
// message.
const (
	wireErrNone = iota
	wireErrLimit
	wireErrDeadline
	wireErrCanceled
	wireErrOther
)

// AppendQueryWire appends q's wire encoding to dst.
func AppendQueryWire(dst []byte, q query.Query) []byte {
	dst = wirefmt.AppendI64(dst, int64(q.ID))
	dst = wirefmt.AppendU32(dst, q.S)
	dst = wirefmt.AppendU32(dst, q.T)
	dst = wirefmt.AppendU8(dst, q.K)
	return dst
}

// ReadQueryWire reads one query from r.
func ReadQueryWire(r *wirefmt.Reader) query.Query {
	return query.Query{
		ID: int(r.I64()),
		S:  r.U32(),
		T:  r.U32(),
		K:  r.U8(),
	}
}

// errWireCode is err's one-byte code; wireErrOther's message follows
// it on the wire.
func errWireCode(err error) byte {
	switch {
	case err == nil:
		return wireErrNone
	case errors.Is(err, query.ErrLimitReached):
		return wireErrLimit
	case errors.Is(err, context.DeadlineExceeded):
		return wireErrDeadline
	case errors.Is(err, context.Canceled):
		return wireErrCanceled
	default:
		return wireErrOther
	}
}

func appendErrWire(dst []byte, err error) []byte {
	code := errWireCode(err)
	dst = wirefmt.AppendU8(dst, code)
	if code == wireErrOther {
		dst = wirefmt.AppendString(dst, err.Error())
	}
	return dst
}

func readErrWire(r *wirefmt.Reader) error {
	switch r.U8() {
	case wireErrNone:
		return nil
	case wireErrLimit:
		return query.ErrLimitReached
	case wireErrDeadline:
		return context.DeadlineExceeded
	case wireErrCanceled:
		return context.Canceled
	default:
		return errors.New(r.String())
	}
}

// The timing breakdown crosses the wire as its four phase durations in
// phase order; the phase set is fixed by Fig. 9, so the layout is too.
var wirePhases = [...]timing.Phase{
	timing.BuildIndex, timing.ClusterQuery, timing.IdentifySubquery, timing.Enumeration,
}

func appendPhasesWire(dst []byte, b timing.Breakdown) []byte {
	for _, ph := range wirePhases {
		dst = wirefmt.AppendI64(dst, int64(b.Get(ph)))
	}
	return dst
}

func readPhasesWire(r *wirefmt.Reader) timing.Breakdown {
	var b timing.Breakdown
	for _, ph := range wirePhases {
		b.Add(ph, time.Duration(r.I64()))
	}
	return b
}

// AppendBatchStatsWire appends bs's wire encoding to dst.
//
//hcpath:mergefields BatchStats
func AppendBatchStatsWire(dst []byte, bs BatchStats) []byte {
	dst = wirefmt.AppendI64(dst, int64(bs.Queries))
	dst = wirefmt.AppendI64(dst, int64(bs.Groups))
	dst = wirefmt.AppendI64(dst, int64(bs.SharedQueries))
	dst = wirefmt.AppendI64(dst, bs.SplicedPaths)
	dst = wirefmt.AppendI64(dst, bs.Paths)
	dst = wirefmt.AppendI64(dst, bs.WaitNanos)
	dst = wirefmt.AppendI64(dst, bs.EnumerateNanos)
	dst = wirefmt.AppendI64(dst, int64(bs.IndexHits))
	dst = wirefmt.AppendI64(dst, int64(bs.IndexMisses))
	dst = wirefmt.AppendI64(dst, int64(bs.Truncated))
	dst = appendPhasesWire(dst, bs.Phases)
	return dst
}

// ReadBatchStatsWire reads one BatchStats from r.
//
//hcpath:mergefields BatchStats
func ReadBatchStatsWire(r *wirefmt.Reader) BatchStats {
	var bs BatchStats
	bs.Queries = int(r.I64())
	bs.Groups = int(r.I64())
	bs.SharedQueries = int(r.I64())
	bs.SplicedPaths = r.I64()
	bs.Paths = r.I64()
	bs.WaitNanos = r.I64()
	bs.EnumerateNanos = r.I64()
	bs.IndexHits = int(r.I64())
	bs.IndexMisses = int(r.I64())
	bs.Truncated = int(r.I64())
	bs.Phases = readPhasesWire(r)
	return bs
}

// AppendReplyWire appends rep's wire encoding to dst: the scalar
// results, the error code, the batch stats, and — only when the caller
// collected — the result paths as a u32 path count, then each path as
// a u16 vertex count plus its vertices (path length is bounded by the
// uint8 hop constraint, so u16 cannot truncate).
func AppendReplyWire(dst []byte, rep *Reply) []byte {
	dst = wirefmt.AppendI64(dst, rep.Count)
	dst = wirefmt.AppendBool(dst, rep.Truncated)
	dst = appendErrWire(dst, rep.Err)
	dst = AppendBatchStatsWire(dst, rep.Batch)
	return appendPathsWire(dst, &rep.Paths)
}

// batchStatsWire is the length of a BatchStats wire encoding: ten
// counters and the phase durations, all eight bytes.
const batchStatsWire = (10 + len(wirePhases)) * 8

// ReplyWireSize returns the length of rep's wire encoding, so that an
// encoder can size its buffer once before AppendReplyWire: the fixed
// fields, the error's message if it travels as one, and the paths,
// which cost 4 bytes for their count plus, per path, 2 bytes of vertex
// count and 4 per vertex.
func ReplyWireSize(rep *Reply) int {
	n := 8 + 1 + 1 + batchStatsWire // Count, Truncated, error code, Batch
	if errWireCode(rep.Err) == wireErrOther {
		n += 2 + min(len(rep.Err.Error()), math.MaxUint16)
	}
	verts, _ := rep.Paths.Raw()
	return n + 4 + 2*rep.Paths.Len() + 4*len(verts)
}

// appendPathsWire encodes a reply's paths straight from its arena.
//
//hcpath:noalloc
func appendPathsWire(dst []byte, paths *pathjoin.Store) []byte {
	n := paths.Len()
	dst = wirefmt.AppendU32(dst, uint32(n))
	for i := 0; i < n; i++ {
		p := paths.Path(i)
		dst = wirefmt.AppendU16(dst, uint16(len(p)))
		for _, v := range p {
			dst = wirefmt.AppendU32(dst, v)
		}
	}
	return dst
}

// ReadReplyWire reads one Reply from r, decoding the paths into one
// flat arena sized up front (no allocation per path). Path counts
// are bounds-checked against the remaining payload before allocation,
// so a corrupt frame cannot force a huge allocation; the caller still
// checks r.Err (or r.Close) before trusting the result.
func ReadReplyWire(r *wirefmt.Reader) *Reply {
	rep := &Reply{}
	rep.Count = r.I64()
	rep.Truncated = r.Bool()
	rep.Err = readErrWire(r)
	rep.Batch = ReadBatchStatsWire(r)
	// Each path costs at least 2 bytes on the wire.
	nPaths := int(r.U32())
	if nPaths == 0 || !r.Claim(uint32(nPaths), 2) {
		return rep
	}
	// What remains after the per-path length prefixes bounds the arena:
	// at 4 bytes a vertex it can never exceed the payload itself.
	rep.Paths = *pathjoin.NewStore(nPaths, (r.Remaining()-2*nPaths)/4)
	// A path of a valid reply has at most 256 vertices (the hop
	// constraint is a uint8), so p never leaves the stack for one.
	var stack [256]graph.VertexID
	p := stack[:0]
	for i := 0; i < nPaths; i++ {
		n := r.U16()
		if !r.Claim(uint32(n), 4) {
			return rep
		}
		p = p[:0]
		for j := uint16(0); j < n; j++ {
			p = append(p, r.U32())
		}
		rep.Paths.Add(p)
	}
	return rep
}

// AppendTotalsWire appends t's wire encoding to dst.
//
//hcpath:mergefields Totals
func AppendTotalsWire(dst []byte, t Totals) []byte {
	dst = wirefmt.AppendI64(dst, t.Batches)
	dst = wirefmt.AppendI64(dst, t.Queries)
	dst = wirefmt.AppendI64(dst, int64(t.LargestBatch))
	dst = wirefmt.AppendI64(dst, t.Groups)
	dst = wirefmt.AppendI64(dst, t.SharedQueries)
	dst = wirefmt.AppendI64(dst, t.SplicedPaths)
	dst = wirefmt.AppendI64(dst, t.Paths)
	dst = wirefmt.AppendI64(dst, t.WaitNanos)
	dst = wirefmt.AppendI64(dst, t.EnumerateNanos)
	dst = wirefmt.AppendI64(dst, t.IndexHits)
	dst = wirefmt.AppendI64(dst, t.IndexMisses)
	dst = wirefmt.AppendI64(dst, t.IndexWidened)
	dst = wirefmt.AppendI64(dst, t.IndexEvictions)
	dst = wirefmt.AppendI64(dst, t.IndexCacheBytes)
	dst = wirefmt.AppendI64(dst, t.Truncated)
	dst = wirefmt.AppendI64(dst, t.DeadlineBatches)
	dst = wirefmt.AppendU64(dst, t.Epoch)
	dst = wirefmt.AppendI64(dst, t.UpdatesApplied)
	dst = wirefmt.AppendI64(dst, t.Compactions)
	dst = wirefmt.AppendI64(dst, int64(t.DeltaEdges))
	dst = wirefmt.AppendI64(dst, t.WALRecords)
	dst = wirefmt.AppendI64(dst, t.Checkpoints)
	dst = wirefmt.AppendU64(dst, t.SnapshotEpoch)
	dst = wirefmt.AppendI64(dst, t.Shed)
	return dst
}

// ReadTotalsWire reads one Totals from r.
//
//hcpath:mergefields Totals
func ReadTotalsWire(r *wirefmt.Reader) Totals {
	var t Totals
	t.Batches = r.I64()
	t.Queries = r.I64()
	t.LargestBatch = int(r.I64())
	t.Groups = r.I64()
	t.SharedQueries = r.I64()
	t.SplicedPaths = r.I64()
	t.Paths = r.I64()
	t.WaitNanos = r.I64()
	t.EnumerateNanos = r.I64()
	t.IndexHits = r.I64()
	t.IndexMisses = r.I64()
	t.IndexWidened = r.I64()
	t.IndexEvictions = r.I64()
	t.IndexCacheBytes = r.I64()
	t.Truncated = r.I64()
	t.DeadlineBatches = r.I64()
	t.Epoch = r.U64()
	t.UpdatesApplied = r.I64()
	t.Compactions = r.I64()
	t.DeltaEdges = int(r.I64())
	t.WALRecords = r.I64()
	t.Checkpoints = r.I64()
	t.SnapshotEpoch = r.U64()
	t.Shed = r.I64()
	return t
}
