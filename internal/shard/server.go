package shard

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/wirefmt"
)

// Server speaks the worker side of the wire protocol: it owns one
// shard's service.Service and answers the coordinator RPCs — Submit,
// the update fan-out, and the stats plane — over any number of
// coordinator connections. One process runs one Server (cmd/hcpath
// -serve); the pairing Connect builds a Coordinator over N of them.
//
// Every request frame is handled in its own goroutine, because Submit
// deliberately blocks in the micro-batching pipeline (that is how
// queries from one connection come to share a batch) while the stats
// plane answers at once; responses carry the request id back, so they
// may interleave out of order on the shared connection. Responses queue
// to the connection's frameWriter, which coalesces everything queued
// into one flush — the server half of the batching that lets N
// concurrent queries share a round-trip.
type Server struct {
	svc      *service.Service
	shardIdx int
	shards   int

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// retryAfter is the backpressure hint attached to ErrOverloaded
// responses: how long the server suggests a shedding client wait before
// retrying.
const retryAfter = 5 * time.Millisecond

// NewServer wraps svc as shard shardIdx of shards. The service must
// run with the worker invariant (not itself sharded)
// — use hcpath.NewShardServer or workerConfig to build it.
func NewServer(svc *service.Service, shardIdx, shards int) *Server {
	return &Server{
		svc:      svc,
		shardIdx: shardIdx,
		shards:   shards,
		conns:    make(map[net.Conn]struct{}),
	}
}

// Serve accepts coordinator connections on ln until Close. It returns
// nil after Close, or the listener's error.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return service.ErrClosed
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

// Close stops accepting, drops every connection, and closes the
// underlying service (flushing its durable state). Idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	return s.svc.Close()
}

// Totals returns the worker service's lifetime counters — the local
// view behind the coordinator's merged Stats.
func (s *Server) Totals() service.Totals { return s.svc.Stats() }

// State identifies the worker's current graph snapshot.
func (s *Server) State() store.State { return s.svc.State() }

// Epoch returns the worker's current epoch.
func (s *Server) Epoch() uint64 { return s.svc.Epoch() }

// dropConn unregisters and closes one connection.
func (s *Server) dropConn(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	conn.Close()
}

// serveConn runs one connection: handshake, then a read loop that
// spawns a handler per request. A frame that cannot be trusted —
// corrupt, torn, or protocol-violating — drops the connection; the
// coordinator's pending calls over it fail as worker-down and its
// Backoff owns reconnection policy.
func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer s.dropConn(conn)

	// A failed write closes the connection, which ends the read loop
	// below; handlers still in flight find the writer stopped and drop
	// their responses.
	out := newFrameWriter()
	var writerWG sync.WaitGroup
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		out.run(conn, func(error) { conn.Close() })
	}()
	// Deferred shutdown order (LIFO): handlers drain first, then the
	// writer is shut, then joined.
	defer writerWG.Wait()
	defer out.shut()

	br := bufio.NewReader(conn)
	if !s.handshake(br, out) {
		return
	}

	var handlers sync.WaitGroup
	defer handlers.Wait()
	for {
		typ, id, body, buf, err := readFrameInto(getFrame(), br, wirefmt.MaxPayload)
		if err != nil {
			// io.EOF: the coordinator hung up; anything else: a dead or
			// corrupt stream. Either way the connection is done.
			return
		}
		if typ == mtHello || typ >= mtResp {
			return // protocol violation: drop the connection
		}
		handlers.Add(1)
		go func() {
			defer handlers.Done()
			resp := s.handle(typ, id, body)
			putFrame(buf) // handle decoded the request and kept nothing of it
			out.send(resp, nil)
		}()
	}
}

// handshake requires the connection's first frame to be a well-formed
// hello naming this worker's exact identity (shard index and count):
// a coordinator wired to the wrong address fails loudly at connect
// time instead of serving another shard's traffic.
func (s *Server) handshake(br *bufio.Reader, out *frameWriter) bool {
	typ, id, body, err := readFrame(br, maxHandshakePayload)
	if err != nil || typ != mtHello {
		return false
	}
	r := wirefmt.NewReader(body)
	magic := r.U32()
	idx := int(r.U16())
	n := int(r.U16())
	if err := r.Close(); err != nil || magic != wireMagic {
		out.send(errFrame(id, fmt.Errorf("shard: bad hello (protocol mismatch?)"), 0), nil)
		return false
	}
	if idx != s.shardIdx || n != s.shards {
		out.send(errFrame(id, fmt.Errorf("shard: this worker is shard %d/%d, coordinator expected %d/%d",
			s.shardIdx, s.shards, idx, n), 0), nil)
		return false
	}
	out.send(wirefmt.EndFrame(appendState(newMsg(mtResp, id, controlBody), s.svc.State())), nil)
	return true
}

// controlBody is room for the largest answer of the stats plane, the
// totals (24 fixed-width fields); a state, an epoch and most wire
// errors fit in it too.
const controlBody = 24 * 8

func errFrame(id uint64, err error, retryAfter time.Duration) []byte {
	return wirefmt.EndFrame(appendWireError(newMsg(mtErr, id, controlBody), err, retryAfter))
}

// handle answers one request frame, returning the response frame. It
// keeps no reference into body.
func (s *Server) handle(typ byte, id uint64, body []byte) []byte {
	resp, err := s.dispatch(typ, id, wirefmt.NewReader(body))
	if err != nil {
		return errFrame(id, err, retryAfter)
	}
	return wirefmt.EndFrame(resp)
}

// dispatch runs one request and returns its response message, begun
// and filled but not sealed.
func (s *Server) dispatch(typ byte, id uint64, r *wirefmt.Reader) ([]byte, error) {
	switch typ {
	case mtSubmit:
		caller := r.String()
		collect := r.Bool()
		q := service.ReadQueryWire(r)
		if err := r.Close(); err != nil {
			return nil, err
		}
		rep, err := s.svc.Submit(context.Background(), caller, q, collect)
		if err != nil {
			return nil, err
		}
		return service.AppendReplyWire(newMsg(mtResp, id, service.ReplyWireSize(rep)), rep), nil

	case mtApplyUpdates:
		adds := wirefmt.ReadEdges(r, r.U32())
		dels := wirefmt.ReadEdges(r, r.U32())
		if err := r.Close(); err != nil {
			return nil, err
		}
		epoch, err := s.svc.ApplyUpdates(adds, dels)
		if err != nil {
			return nil, err
		}
		return wirefmt.AppendU64(newMsg(mtResp, id, controlBody), epoch), nil

	case mtStats, mtState, mtEpoch, mtCheckpoint:
		if err := r.Close(); err != nil { // these requests carry no body
			return nil, err
		}
		resp := newMsg(mtResp, id, controlBody)
		switch typ {
		case mtStats:
			return service.AppendTotalsWire(resp, s.svc.Stats()), nil
		case mtState:
			return appendState(resp, s.svc.State()), nil
		case mtEpoch:
			return wirefmt.AppendU64(resp, s.svc.Epoch()), nil
		}
		return resp, s.svc.Checkpoint()

	default:
		return nil, errors.New("shard: unknown request type")
	}
}
