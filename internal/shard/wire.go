package shard

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/wirefmt"
)

// This file is the sharded deployment's wire format: the message
// envelope every connection speaks, the coalescing writer both ends
// send through, the message vocabulary (one type per worker RPC), and
// the wire errors. Query, reply and totals bodies are service's own
// codecs (service/wire.go). A message is one wirefmt frame, the
// envelope WAL records use on disk:
//
//	payload = [1B msg type][8B request id LE][body]
//
// Request ids are chosen by the client and echoed by the server, so
// responses demultiplex over one shared connection; the server may
// answer out of order (and does: Submit blocks in the micro-batching
// pipeline while the stats plane answers at once).

const (
	// wireMagic opens every connection's hello, versioning the
	// protocol: a worker refuses a client speaking a different format.
	// hcp3 retired hcp2's two scatter-gather requests and the vertex
	// counts that rode the hello and update answers for them; the hello
	// answer is the worker's store.State alone. hcp4 dropped the four
	// per-engine group counters from the batch stats in every reply and
	// from the totals.
	wireMagic uint32 = 0x68637034 // "hcp4"

	// msgHeader is the message type and request id ahead of every body.
	msgHeader = 1 + 8
	// maxHandshakePayload bounds the frames exchanged before the peer
	// has proved who it is: the 17-byte hello, its 37-byte answer, or a
	// refusal carrying an error message. An unauthenticated TCP peer can
	// make either side buffer at most this much; an established
	// connection accepts up to wirefmt.MaxPayload.
	maxHandshakePayload = 1 << 10
)

// Message types. Requests flow coordinator→worker; the worker answers
// each with mtResp (body per RPC) or mtErr (a wire error, below),
// echoing the request id.
const (
	mtHello byte = iota + 1
	mtSubmit
	_ // 3 and 4 were hcp2's two scatter-gather legs. The survivors keep
	_ // their numbers; a server answers these two "unknown request type".
	mtApplyUpdates
	mtStats
	mtState
	mtEpoch
	mtCheckpoint

	mtResp byte = 0x40
	mtErr  byte = 0x41
)

// ErrFrameCorrupt marks a frame whose length or checksum is wrong, or
// a body that contradicts itself: the stream can no longer be trusted,
// so both ends drop the connection rather than resynchronize.
var ErrFrameCorrupt = wirefmt.ErrCorrupt

// ErrWorkerDown marks an RPC that failed because the worker's
// connection is gone — refused, dropped mid-request, or corrupt. A
// query in flight when a worker dies fails with it immediately instead
// of hanging on the dead socket.
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

// OverloadedError is the wire form of a worker's shed: it wraps
// service.ErrOverloaded (errors.Is keeps working across the wire) and
// carries the server's retry-after hint for the client's Backoff.
type OverloadedError struct {
	RetryAfter time.Duration
	msg        string
}

func (e *OverloadedError) Error() string { return e.msg }

func (e *OverloadedError) Unwrap() error { return service.ErrOverloaded }

// Every frame either end builds, and every frame it reads once the
// handshake is done, lives in a buffer from one pool: a message is
// begun in getFrame's buffer (newMsg), the writer hands it back once it
// is written, and a read frame's buffer goes back once its body is
// decoded. Whoever puts a buffer must hold the only reference into it,
// so a decoder that hands the buffer back keeps nothing that aliases it
// (every body decoder copies what it keeps).
var framePool, frameBoxes sync.Pool // *[]byte: full boxes, and empty ones

// maxPooledFrame bounds what the pool retains: putFrame drops a buffer
// that grew past it, so a rare huge reply is not kept alive by the pool.
// It is four read chunks, above an ordinary large reply (the 2510 paths
// of a 7-hop query on a 14-vertex complete DAG encode in ~74 KB).
const maxPooledFrame = 4 * wirefmt.FrameChunk

// getFrame returns an empty buffer from the frame pool, nil if it has
// none. The buffer travels out of its box and the box goes to
// frameBoxes, so that neither Get nor Put allocates.
func getFrame() []byte {
	box, _ := framePool.Get().(*[]byte)
	if box == nil {
		return nil
	}
	b := *box
	*box = nil
	frameBoxes.Put(box)
	return b[:0]
}

// putFrame returns b to the frame pool, unless its capacity is past
// maxPooledFrame. The caller must not use b, or anything aliasing it,
// again.
func putFrame(b []byte) {
	if cap(b) == 0 || cap(b) > maxPooledFrame {
		return
	}
	box, _ := frameBoxes.Get().(*[]byte)
	if box == nil {
		box = new([]byte)
	}
	*box = b[:0]
	framePool.Put(box)
}

// beginMsg starts a message in dst: the frame header placeholder, the
// type and the request id. The caller appends the body in place and
// seals the frame with wirefmt.EndFrame.
func beginMsg(dst []byte, typ byte, id uint64) []byte {
	dst = wirefmt.BeginFrame(dst)
	dst = wirefmt.AppendU8(dst, typ)
	return wirefmt.AppendU64(dst, id)
}

// newMsg begins a message in a pooled buffer with room for a body of
// size bytes, so a body of at most that size is encoded without
// regrowing it: on a pool miss the frame costs one allocation.
func newMsg(typ byte, id uint64, size int) []byte {
	return beginMsg(slices.Grow(getFrame(), wirefmt.FrameHeader+msgHeader+size), typ, id)
}

// readFrame reads one message of at most maxPayload payload bytes
// (maxHandshakePayload until the handshake completes, wirefmt.MaxPayload
// after) into a fresh buffer: the body is safe to retain. Short reads
// surface as io errors (the peer hung up); a bad length or checksum
// surfaces as ErrFrameCorrupt.
func readFrame(br *bufio.Reader, maxPayload uint32) (typ byte, id uint64, body []byte, err error) {
	typ, id, body, _, err = readFrameInto(nil, br, maxPayload)
	return typ, id, body, err
}

// readFrameInto is readFrame on the pooled route: it reads the message
// into dst's storage (a getFrame buffer; nil allocates) and also
// returns buf, that storage as the read left it. body aliases buf, so
// it is not safe to retain: the caller hands buf back with putFrame
// once body is decoded, and uses neither after.
func readFrameInto(dst []byte, br *bufio.Reader, maxPayload uint32) (typ byte, id uint64, body, buf []byte, err error) {
	payload, err := wirefmt.ReadFrameInto(dst, br, msgHeader, maxPayload)
	if err != nil {
		return 0, 0, nil, nil, err
	}
	r := wirefmt.NewReader(payload)
	return r.U8(), r.U64(), payload[msgHeader:], payload, nil
}

// frameWriter is the write side of a connection, the same on the
// coordinator and the worker end: any number of goroutines queue sealed
// frames, and one goroutine writes everything queued and then flushes
// once. Frames that arrive while a flush syscall is in progress ride
// the next one, which is what lets N concurrent queries share a
// round-trip. A queued frame belongs to the writer, which hands it
// back to the frame pool once it is written. Once the writer stops —
// shut by its owner, or after a write error — senders are refused
// instead of blocking on a queue nobody drains.
type frameWriter struct {
	// q is deep enough for a burst of concurrent callers to queue while
	// one flush is in progress; beyond it senders wait their turn.
	q    chan []byte
	stop chan struct{}
	once sync.Once

	frames, flushes atomic.Int64 // completed flushes and the frames they carried
}

func newFrameWriter() *frameWriter {
	return &frameWriter{q: make(chan []byte, 256), stop: make(chan struct{})}
}

// send queues one sealed frame, which the caller must not touch again.
// It reports false — and drops the frame — if the writer has stopped or
// cancel fires first.
func (fw *frameWriter) send(frame []byte, cancel <-chan struct{}) bool {
	select {
	case fw.q <- frame:
		return true
	case <-fw.stop:
		return false
	case <-cancel:
		return false
	}
}

// shut stops the writer once it has written what is already queued — a
// handshake refusal is queued and the connection dropped in the same
// breath. Idempotent.
func (fw *frameWriter) shut() { fw.once.Do(func() { close(fw.stop) }) }

// run drains the queue into conn until shut. A write or flush error
// ends it: onErr hears the error first (it tears the connection down),
// then the writer shuts so no sender is left waiting.
func (fw *frameWriter) run(conn io.Writer, onErr func(error)) {
	defer fw.shut()
	bw := bufio.NewWriter(conn)
	for {
		// This goroutine is the only receiver, so a non-empty queue
		// cannot block a receive.
		var frame []byte
		select {
		case <-fw.stop:
			if len(fw.q) == 0 {
				return
			}
			frame = <-fw.q
		case frame = <-fw.q:
		}
		_, err := bw.Write(frame)
		putFrame(frame)
		n := int64(1)
		for ; err == nil && len(fw.q) > 0; n++ {
			frame = <-fw.q
			_, err = bw.Write(frame)
			putFrame(frame)
		}
		if err == nil {
			err = bw.Flush()
		}
		if err != nil {
			onErr(err)
			return
		}
		fw.frames.Add(n)
		fw.flushes.Add(1)
	}
}

// Wire error codes (mtErr body: [1B code][code-specific fields]).
const (
	weOverloaded byte = iota + 1
	weClosed
	weString
)

// appendWireError encodes err as an mtErr body. Errors with cross-wire
// semantics (overload with its hint, closed) get structured codes;
// everything else travels as its message, so a remote failure reads
// exactly like its local counterpart.
func appendWireError(dst []byte, err error, retryAfter time.Duration) []byte {
	switch {
	case errors.Is(err, service.ErrOverloaded):
		dst = wirefmt.AppendU8(dst, weOverloaded)
		dst = wirefmt.AppendI64(dst, int64(retryAfter))
		dst = wirefmt.AppendString(dst, err.Error())
	case errors.Is(err, service.ErrClosed):
		dst = wirefmt.AppendU8(dst, weClosed)
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
	default:
		msg := r.String()
		if r.Err() != nil {
			return fmt.Errorf("undecodable worker error: %w", ErrFrameCorrupt)
		}
		return errors.New(msg)
	}
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
