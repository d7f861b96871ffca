package shard

import (
	"bufio"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
	"time"

	"repro/internal/graph"
	"repro/internal/hcindex"
	"repro/internal/msbfs"
	"repro/internal/pathjoin"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/wirefmt"
)

// This file is the sharded deployment's wire format: the frame layer
// every connection speaks, the message vocabulary (one type per worker
// RPC), and the body codecs for the payloads the in-process protocol
// passes by pointer — distance maps down, half-path stores up. Frames
// mirror the WAL record format (internal/store): a little-endian
// length, a CRC32-C over the payload, then the payload, so a torn or
// bit-flipped frame is detected before any byte of it is interpreted.
//
//	frame   = [4B payload len LE][4B CRC32-C(payload)][payload]
//	payload = [1B msg type][8B request id LE][body]
//
// Request ids are chosen by the client and echoed by the server, so
// responses demultiplex over one shared connection; the server may
// answer out of order (and does: Submit blocks in the micro-batching
// pipeline while AcquireDist answers from cache).

const (
	// wireMagic opens every connection's hello, versioning the
	// protocol: a worker refuses a client speaking a different format.
	wireMagic uint32 = 0x68637031 // "hcp1"

	frameHeaderSize = 8
	// maxFramePayload is the largest frame an established connection
	// accepts; the length prefix alone never sizes an allocation (see
	// readFrame), so the bound only rejects the implausible.
	maxFramePayload = 1 << 30
	// maxHandshakePayload bounds the frames exchanged before the peer
	// has proved who it is: the 17-byte hello, its 49-byte answer, or a
	// refusal carrying an error message. An unauthenticated TCP peer can
	// make either side buffer at most this much.
	maxHandshakePayload = 1 << 10
	// frameChunk is the step in which a payload buffer grows while it is
	// read, graph.ReadBinary's discipline: memory follows the bytes that
	// actually arrived, so a header claiming a gigabyte with nothing
	// behind it costs one chunk, not the gigabyte.
	frameChunk = 64 << 10
)

var wireCastagnoli = crc32.MakeTable(crc32.Castagnoli)

// Message types. Requests flow coordinator→worker; the worker answers
// each with mtResp (body per RPC) or mtErr (a wire error, below),
// echoing the request id.
const (
	mtHello byte = iota + 1
	mtSubmit
	mtAcquireDist
	mtHalfPaths
	mtApplyUpdates
	mtStats
	mtState
	mtEpoch
	mtCheckpoint

	mtResp byte = 0x40
	mtErr  byte = 0x41
)

// ErrFrameCorrupt marks a frame whose length or checksum is wrong: the
// stream can no longer be trusted, so both ends drop the connection
// rather than resynchronize.
var ErrFrameCorrupt = errors.New("shard: corrupt wire frame")

// ErrWorkerDown marks an RPC that failed because the worker's
// connection is gone — refused, dropped mid-request, or corrupt. A
// cross-shard query in flight when a worker dies fails with it
// immediately instead of hanging on the dead socket.
var ErrWorkerDown = errors.New("shard: worker unreachable")

// WorkerDownError wraps ErrWorkerDown with which worker and why.
type WorkerDownError struct {
	Addr  string
	Shard int
	Cause error
}

func (e *WorkerDownError) Error() string {
	return fmt.Sprintf("shard: worker %d (%s) unreachable: %v", e.Shard, e.Addr, e.Cause)
}

func (e *WorkerDownError) Unwrap() []error { return []error{ErrWorkerDown, e.Cause} }

// EpochMismatchError reports an epoch-carrying RPC that reached a
// worker on a different epoch: the coordinator's pinned epoch went
// stale between scatter phases (an update landed mid-query), or the
// cluster genuinely diverged. The coordinator retries the former; the
// update fan-out fails loudly on the latter.
type EpochMismatchError struct {
	Want, Have uint64
}

func (e *EpochMismatchError) Error() string {
	return fmt.Sprintf("shard: epoch mismatch: request pinned %d, worker at %d", e.Want, e.Have)
}

// OverloadedError is the wire form of a worker's shed: it wraps
// service.ErrOverloaded (errors.Is keeps working across the wire) and
// carries the server's retry-after hint for the client's Backoff.
type OverloadedError struct {
	RetryAfter time.Duration
	msg        string
}

func (e *OverloadedError) Error() string { return e.msg }

func (e *OverloadedError) Unwrap() error { return service.ErrOverloaded }

// appendFrame appends one whole frame to dst.
func appendFrame(dst []byte, typ byte, id uint64, body []byte) []byte {
	payload := 1 + 8 + len(body)
	dst = wirefmt.AppendU32(dst, uint32(payload))
	crc := crc32.Checksum([]byte{typ}, wireCastagnoli)
	var idb [8]byte
	wirefmt.AppendU64(idb[:0], id)
	crc = crc32.Update(crc, wireCastagnoli, idb[:])
	crc = crc32.Update(crc, wireCastagnoli, body)
	dst = wirefmt.AppendU32(dst, crc)
	dst = append(dst, typ)
	dst = append(dst, idb[:]...)
	dst = append(dst, body...)
	return dst
}

// readFrame reads one frame of at most maxPayload payload bytes
// (maxHandshakePayload until the handshake completes, maxFramePayload
// after). Short reads surface as io errors (the peer hung up); a bad
// length or checksum surfaces as ErrFrameCorrupt. The payload is read
// in frameChunk steps, so the buffer never runs more than one chunk
// (amortised: a factor of two) ahead of the bytes received. The
// returned body is freshly allocated and safe to retain.
func readFrame(br *bufio.Reader, maxPayload uint32) (typ byte, id uint64, body []byte, err error) {
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return 0, 0, nil, err
	}
	h := wirefmt.NewReader(hdr[:])
	length, crc := h.U32(), h.U32()
	if length < 9 || length > maxPayload {
		return 0, 0, nil, fmt.Errorf("frame length %d outside [9, %d]: %w", length, maxPayload, ErrFrameCorrupt)
	}
	payload := make([]byte, 0, min(int(length), frameChunk))
	for len(payload) < int(length) {
		c := min(int(length)-len(payload), frameChunk)
		payload = slices.Grow(payload, c)[:len(payload)+c]
		if _, err := io.ReadFull(br, payload[len(payload)-c:]); err != nil {
			// A frame cut off mid-payload: the peer died mid-write. Report
			// the io error (unexpected EOF), which the connection layer
			// folds into worker-down like any other read failure.
			return 0, 0, nil, err
		}
	}
	if got := crc32.Checksum(payload, wireCastagnoli); got != crc {
		return 0, 0, nil, fmt.Errorf("frame checksum %08x, want %08x: %w", got, crc, ErrFrameCorrupt)
	}
	r := wirefmt.NewReader(payload)
	typ = r.U8()
	id = r.U64()
	return typ, id, payload[9:], nil
}

// Wire error codes (mtErr body: [1B code][code-specific fields]).
const (
	weOverloaded byte = iota + 1
	weClosed
	weEpoch
	weString
)

// appendWireError encodes err as an mtErr body. Errors with cross-wire
// semantics (overload with its hint, closed, epoch mismatch) get
// structured codes; everything else travels as its message, so a
// remote failure reads exactly like its local counterpart.
func appendWireError(dst []byte, err error, retryAfter time.Duration) []byte {
	var em *EpochMismatchError
	switch {
	case errors.Is(err, service.ErrOverloaded):
		dst = wirefmt.AppendU8(dst, weOverloaded)
		dst = wirefmt.AppendI64(dst, int64(retryAfter))
		dst = wirefmt.AppendString(dst, err.Error())
	case errors.Is(err, service.ErrClosed):
		dst = wirefmt.AppendU8(dst, weClosed)
	case errors.As(err, &em):
		dst = wirefmt.AppendU8(dst, weEpoch)
		dst = wirefmt.AppendU64(dst, em.Want)
		dst = wirefmt.AppendU64(dst, em.Have)
	default:
		dst = wirefmt.AppendU8(dst, weString)
		dst = wirefmt.AppendString(dst, err.Error())
	}
	return dst
}

// readWireError decodes an mtErr body into the matching client-side
// error.
func readWireError(r *wirefmt.Reader) error {
	switch r.U8() {
	case weOverloaded:
		hint := time.Duration(r.I64())
		return &OverloadedError{RetryAfter: hint, msg: r.String()}
	case weClosed:
		return service.ErrClosed
	case weEpoch:
		return &EpochMismatchError{Want: r.U64(), Have: r.U64()}
	default:
		msg := r.String()
		if r.Err() != nil {
			return fmt.Errorf("undecodable worker error: %w", ErrFrameCorrupt)
		}
		return errors.New(msg)
	}
}

// hcDirection maps a wire byte onto the two search directions.
func hcDirection(b uint8) hcindex.Direction {
	if b == 0 {
		return hcindex.Forward
	}
	return hcindex.Backward
}

// appendDistMap encodes d as its portable contents: the dense-array
// length n (the encoding side's vertex count — DistMap does not carry
// it), then the visited set with its distances.
func appendDistMap(dst []byte, d *msbfs.DistMap, n int) []byte {
	dst = wirefmt.AppendU32(dst, d.Source)
	dst = wirefmt.AppendU8(dst, d.Cap)
	dst = wirefmt.AppendU32(dst, uint32(n))
	vis := d.Visited()
	dst = wirefmt.AppendU32(dst, uint32(len(vis)))
	for _, v := range vis {
		dst = wirefmt.AppendU32(dst, v)
	}
	for _, v := range vis {
		dst = wirefmt.AppendU8(dst, d.Dist(v))
	}
	return dst
}

// readDistMap decodes one distance map into a dense array of localN
// entries — the reader's own vertex count — so the result is probe-safe
// against the local graph whatever vertex space it was built on. The
// sender's length only has to be explicable: honest peers send their
// vertex count, which a reader on the same epoch shares and a reader
// that has since grown exceeds. A larger claim is refused rather than
// allocated (nine bytes must not buy a 4 GiB make), and a visited id the
// local graph does not have fails FromVisited's range check the same
// way — memory follows the reader's graph, never the peer's word.
func readDistMap(r *wirefmt.Reader, localN int) (*msbfs.DistMap, error) {
	source := r.U32()
	cap := r.U8()
	n := int(r.U32())
	nVis := int(r.U32())
	if r.Err() != nil {
		return nil, r.Err()
	}
	if n > localN {
		return nil, fmt.Errorf("distance map claims %d vertices, reader has %d: %w", n, localN, ErrFrameCorrupt)
	}
	// 5 bytes per visited vertex (4 id + 1 dist).
	if nVis > r.Remaining()/5 {
		return nil, fmt.Errorf("distance map claims %d visited vertices in %d bytes: %w",
			nVis, r.Remaining(), ErrFrameCorrupt)
	}
	visited := make([]graph.VertexID, nVis)
	for i := range visited {
		visited[i] = r.U32()
	}
	dists := make([]uint8, nVis)
	for i := range dists {
		dists[i] = r.U8()
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	d, err := msbfs.FromVisited(source, cap, localN, visited, dists)
	if err != nil {
		return nil, fmt.Errorf("%v: %w", err, ErrFrameCorrupt)
	}
	return d, nil
}

// appendStore encodes a half-path arena verbatim: the offsets, then
// the flat vertex array.
func appendStore(dst []byte, s *pathjoin.Store) []byte {
	verts, offs := s.Raw()
	dst = wirefmt.AppendU32(dst, uint32(len(offs)))
	for _, o := range offs {
		dst = wirefmt.AppendU32(dst, uint32(o))
	}
	dst = wirefmt.AppendU32(dst, uint32(len(verts)))
	for _, v := range verts {
		dst = wirefmt.AppendU32(dst, v)
	}
	return dst
}

// readStore decodes one half-path arena, re-validating the offset
// invariants through pathjoin.RestoreStore.
func readStore(r *wirefmt.Reader) (*pathjoin.Store, error) {
	nOffs := int(r.U32())
	if r.Err() != nil {
		return nil, r.Err()
	}
	if nOffs > r.Remaining()/4 {
		return nil, fmt.Errorf("path store claims %d offsets in %d bytes: %w", nOffs, r.Remaining(), ErrFrameCorrupt)
	}
	var offs []int32
	if nOffs > 0 {
		offs = make([]int32, nOffs)
		for i := range offs {
			offs[i] = int32(r.U32())
		}
	}
	nVerts := int(r.U32())
	if r.Err() != nil {
		return nil, r.Err()
	}
	if nVerts > r.Remaining()/4 {
		return nil, fmt.Errorf("path store claims %d vertices in %d bytes: %w", nVerts, r.Remaining(), ErrFrameCorrupt)
	}
	var verts []graph.VertexID
	if nVerts > 0 {
		verts = make([]graph.VertexID, nVerts)
		for i := range verts {
			verts[i] = r.U32()
		}
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	s, err := pathjoin.RestoreStore(verts, offs)
	if err != nil {
		return nil, fmt.Errorf("%v: %w", err, ErrFrameCorrupt)
	}
	return s, nil
}

// appendState / readState carry store.State, the cross-process
// divergence detector.
func appendState(dst []byte, st store.State) []byte {
	dst = wirefmt.AppendU64(dst, st.Epoch)
	dst = wirefmt.AppendI64(dst, int64(st.NumVertices))
	dst = wirefmt.AppendI64(dst, int64(st.NumEdges))
	dst = wirefmt.AppendU32(dst, st.Checksum)
	return dst
}

func readState(r *wirefmt.Reader) store.State {
	return store.State{
		Epoch:       r.U64(),
		NumVertices: int(r.I64()),
		NumEdges:    int(r.I64()),
		Checksum:    r.U32(),
	}
}

// appendEdges / readEdges carry an update batch's edge list.
func appendEdges(dst []byte, edges []graph.Edge) []byte {
	dst = wirefmt.AppendU32(dst, uint32(len(edges)))
	for _, e := range edges {
		dst = wirefmt.AppendU32(dst, e.Src)
		dst = wirefmt.AppendU32(dst, e.Dst)
	}
	return dst
}

func readEdges(r *wirefmt.Reader) ([]graph.Edge, error) {
	n := int(r.U32())
	if r.Err() != nil {
		return nil, r.Err()
	}
	if n > r.Remaining()/8 {
		return nil, fmt.Errorf("edge list claims %d edges in %d bytes: %w", n, r.Remaining(), ErrFrameCorrupt)
	}
	if n == 0 {
		return nil, nil
	}
	edges := make([]graph.Edge, n)
	for i := range edges {
		edges[i] = graph.Edge{Src: r.U32(), Dst: r.U32()}
	}
	return edges, r.Err()
}
