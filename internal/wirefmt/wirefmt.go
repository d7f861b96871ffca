// Package wirefmt is the one binary encoding under the WAL, the
// snapshot files and the wire. It has two layers. The frame layer
// (frame.go) owns boundaries and integrity — every WAL record and every
// wire message is
//
//	[4B payload length LE][4B CRC32-C of payload][payload]
//
// built in place (BeginFrame/EndFrame) and read off a stream
// (ReadFrame, or ReadFrameInto a recycled buffer) or out of a buffer
// (ScanFrame) under the same rules —
// plus the single Castagnoli table and the single payload cap. The
// field layer (this file) lays values out inside a payload:
// little-endian fixed-width integers, bools, length-prefixed byte
// strings and u32/edge lists, as append/read pairs, so every encoding
// agrees on byte order and no decoder panics on short or corrupt input
// — a Reader latches its first error and reads zeros from then on. The
// record and message vocabularies stay with their owners
// (internal/store, internal/shard, internal/service).
package wirefmt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/graph"
)

// ErrShort is the latched error of a Reader that ran past the end of
// its buffer: the frame was shorter than its encoding claims.
var ErrShort = errors.New("wirefmt: truncated payload")

// Append helpers: each appends one field to dst and returns the
// extended slice, so encoders compose with zero intermediate copies.

func AppendU8(dst []byte, v uint8) []byte   { return append(dst, v) }
func AppendU16(dst []byte, v uint16) []byte { return binary.LittleEndian.AppendUint16(dst, v) }
func AppendU32(dst []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(dst, v) }
func AppendU64(dst []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(dst, v) }
func AppendI64(dst []byte, v int64) []byte  { return AppendU64(dst, uint64(v)) }

func AppendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// AppendString appends s with a u16 length prefix, truncating at 64 KiB
// — strings on this wire are error messages and caller tags, never
// payload data.
func AppendString(dst []byte, s string) []byte {
	if len(s) > math.MaxUint16 {
		s = s[:math.MaxUint16]
	}
	dst = AppendU16(dst, uint16(len(s)))
	return append(dst, s...)
}

// AppendEdges appends edges as (src, dst) u32 pairs. The WAL puts both
// of a record's counts ahead of both lists, the wire puts each count
// before its list.
func AppendEdges(dst []byte, edges []graph.Edge) []byte {
	for _, e := range edges {
		dst = AppendU32(dst, e.Src)
		dst = AppendU32(dst, e.Dst)
	}
	return dst
}

// Reader consumes a payload field by field. The zero value over a byte
// slice is ready to use; after the first short read every subsequent
// read returns zero and Err reports ErrShort, so decoders can run
// straight-line and check once at the end.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader returns a Reader over b. The slice is aliased, not copied.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Err returns the latched decoding error, nil if every read so far was
// in bounds.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.b) - r.off }

// Close verifies the payload was consumed exactly: it returns the
// latched error, or an error if trailing bytes remain. Decoders call
// it last so a frame that is too long is as corrupt as one too short.
func (r *Reader) Close() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return fmt.Errorf("wirefmt: %d trailing bytes after payload", len(r.b)-r.off)
	}
	return nil
}

// Claim reports whether n more elements of at least size bytes each
// can follow, and latches ErrCorrupt if the remaining payload cannot
// hold them. It is the one place a decoded count is bounded; decoders
// call it before any allocation sized by that count.
func (r *Reader) Claim(n uint32, size int) bool {
	if uint64(n) > uint64(r.Remaining()/size) {
		r.Fail(fmt.Errorf("%w: %d elements of %d bytes claimed in %d bytes", ErrCorrupt, n, size, r.Remaining()))
	}
	return r.err == nil
}

// Fail latches err — ErrShort when nil — so every later read returns
// zero and Err/Close report the failure.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		if err == nil {
			err = ErrShort
		}
		r.err = err
	}
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.b)-r.off < n {
		r.err = ErrShort
		return nil
	}
	b := r.b[r.off : r.off+n]
	r.off += n
	return b
}

func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *Reader) U16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *Reader) I64() int64 { return int64(r.U64()) }

func (r *Reader) Bool() bool { return r.U8() != 0 }

// String reads a u16-length-prefixed string. A length running past the
// payload end latches ErrShort, so a corrupt prefix cannot force an
// allocation of the claimed size.
func (r *Reader) String() string {
	n := int(r.U16())
	if r.err != nil {
		return ""
	}
	return string(r.take(n))
}

// ReadEdges reads n (src, dst) pairs; nil when n is zero or cannot be
// claimed.
func ReadEdges(r *Reader, n uint32) []graph.Edge {
	if n == 0 || !r.Claim(n, 8) {
		return nil
	}
	edges := make([]graph.Edge, n)
	for i := range edges {
		edges[i] = graph.Edge{Src: r.U32(), Dst: r.U32()}
	}
	return edges
}
