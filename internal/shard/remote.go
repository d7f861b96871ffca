package shard

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/query"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/wirefmt"
)

// dialBackoff paces connection attempts per worker: a worker that has
// not come up within its 5s budget fails the Connect loudly.
var dialBackoff = Backoff{Base: 25 * time.Millisecond, Cap: 500 * time.Millisecond, Total: 5 * time.Second}

// Connect builds a Coordinator over remote workers, one per address,
// address i serving shard i of len(addrs): it dials each worker (with
// the dial Backoff absorbing startup races), performs the hello
// handshake that verifies protocol version and shard identity, and
// checks all replicas report one identical store.State before
// accepting traffic. Connect takes no service.Config: a coordinator
// over remote workers only routes — every query, cross-shard ones
// included, runs whole on one worker under the Limit, QueryTimeout,
// batching and admission config that worker process was started with.
func Connect(ctx context.Context, addrs []string) (*Coordinator, error) {
	if len(addrs) == 0 {
		return nil, errors.New("shard: Connect needs at least one worker address")
	}
	c := &Coordinator{workers: make([]worker, len(addrs))}
	for i, addr := range addrs {
		w, err := dialWorker(ctx, addr, i, len(addrs))
		if err != nil {
			c.Close()
			return nil, err
		}
		c.workers[i] = w
	}
	if err := verifyAligned(c.workers); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// WireStats is one remote worker connection's transport counters.
type WireStats struct {
	Addr string
	// RPCs counts request frames written to the socket; Flushes counts
	// socket flushes. RPCs/Flushes is the coalescing factor: how many
	// concurrent requests shared one round-trip on average.
	RPCs, Flushes int64
}

// Wire returns per-worker transport counters, in shard order, or nil
// for an in-process deployment.
func (c *Coordinator) Wire() []WireStats {
	var out []WireStats
	for _, w := range c.workers {
		if rw, ok := w.(*remoteWorker); ok {
			out = append(out, WireStats{Addr: rw.addr, RPCs: rw.out.frames.Load(), Flushes: rw.out.flushes.Load()})
		}
	}
	return out
}

// controlTimeout bounds the stats-plane RPCs (Stats, State, Epoch at
// connect) that have no caller-supplied context.
const controlTimeout = 10 * time.Second

// errCoordinatorClosed marks a connection torn down by our own Close,
// as opposed to a worker failure.
var errCoordinatorClosed = errors.New("connection closed by coordinator")

// remoteWorker is the client side of one worker connection. Requests
// from any number of coordinator goroutines multiplex over the single
// connection: each call registers a reply channel under its request
// id, queues its frame to the connection's frameWriter — which
// coalesces every frame queued at flush time into one write, the client
// half of the batching — and waits. The receive loop
// demultiplexes responses by id. When the connection dies, every
// pending and future call fails immediately with a WorkerDownError: a
// worker killed mid-query is a typed error, never a hang.
type remoteWorker struct {
	addr     string
	shardIdx int
	conn     net.Conn
	out      *frameWriter // shut by markDown

	mu        sync.Mutex
	pending   map[uint64]chan callResult
	down      bool
	downCause error

	nextID atomic.Uint64
	epoch  atomic.Uint64
}

type callResult struct {
	body []byte
	err  error
}

// dialWorker establishes one worker connection: dial under the
// backoff, handshake synchronously, then start the connection's writer
// and receive loop.
func dialWorker(ctx context.Context, addr string, shardIdx, shards int) (*remoteWorker, error) {
	var d net.Dialer
	sleeper := dialBackoff.Start()
	var conn net.Conn
	for {
		var err error
		conn, err = d.DialContext(ctx, "tcp", addr)
		if err == nil {
			break
		}
		if serr := sleeper.Sleep(ctx, 0); serr != nil {
			return nil, fmt.Errorf("shard: dialing worker %d at %s: %v (gave up: %w)", shardIdx, addr, err, serr)
		}
	}

	hello := wirefmt.AppendU32(beginMsg(nil, mtHello, 1), wireMagic)
	hello = wirefmt.AppendU16(hello, uint16(shardIdx))
	hello = wirefmt.AppendU16(hello, uint16(shards))
	if deadline, ok := ctx.Deadline(); ok {
		conn.SetDeadline(deadline)
	} else {
		conn.SetDeadline(time.Now().Add(controlTimeout))
	}
	if _, err := conn.Write(wirefmt.EndFrame(hello)); err != nil {
		conn.Close()
		return nil, &WorkerDownError{Addr: addr, Shard: shardIdx, Cause: err}
	}
	br := bufio.NewReader(conn)
	typ, _, body, err := readFrame(br, maxHandshakePayload)
	if err != nil {
		conn.Close()
		return nil, &WorkerDownError{Addr: addr, Shard: shardIdx, Cause: err}
	}
	if typ == mtErr {
		conn.Close()
		return nil, fmt.Errorf("shard: worker %d at %s refused the handshake: %w",
			shardIdx, addr, readWireError(wirefmt.NewReader(body)))
	}
	r := wirefmt.NewReader(body)
	st := readState(r) // alignment across workers is checked by Connect via State()
	if typ != mtResp || r.Close() != nil {
		conn.Close()
		return nil, fmt.Errorf("shard: worker %d at %s: malformed handshake response", shardIdx, addr)
	}
	conn.SetDeadline(time.Time{})

	w := &remoteWorker{
		addr:     addr,
		shardIdx: shardIdx,
		conn:     conn,
		out:      newFrameWriter(),
		pending:  make(map[uint64]chan callResult),
	}
	w.nextID.Store(1) // id 1 was the hello
	w.epoch.Store(st.Epoch)
	go w.out.run(conn, w.markDown)
	go w.recvLoop(br)
	return w, nil
}

// markDown fails the connection once: every pending call (and every
// later one) completes with a WorkerDownError wrapping cause.
func (w *remoteWorker) markDown(cause error) {
	w.mu.Lock()
	if w.down {
		w.mu.Unlock()
		return
	}
	w.down = true
	w.downCause = cause
	pend := w.pending
	w.pending = nil
	w.mu.Unlock()
	w.out.shut()
	w.conn.Close()
	err := w.downError()
	for _, ch := range pend {
		ch <- callResult{err: err} // buffered: never blocks
	}
}

func (w *remoteWorker) downError() error {
	return &WorkerDownError{Addr: w.addr, Shard: w.shardIdx, Cause: w.downCause}
}

func (w *remoteWorker) recvLoop(br *bufio.Reader) {
	for {
		typ, id, body, err := readFrame(br, wirefmt.MaxPayload)
		if err != nil {
			w.markDown(err)
			return
		}
		var res callResult
		switch typ {
		case mtResp:
			res = callResult{body: body}
		case mtErr:
			res = callResult{err: readWireError(wirefmt.NewReader(body))}
		default:
			w.markDown(fmt.Errorf("unexpected frame type %#x: %w", typ, ErrFrameCorrupt))
			return
		}
		w.mu.Lock()
		ch, ok := w.pending[id]
		delete(w.pending, id)
		w.mu.Unlock()
		if ok {
			ch <- res // buffered: never blocks
		}
	}
}

// begin starts one RPC's request frame under a fresh request id. The
// caller appends the body in place and hands both to call.
func (w *remoteWorker) begin(typ byte) (id uint64, frame []byte) {
	id = w.nextID.Add(1)
	return id, beginMsg(nil, typ, id)
}

// call runs one RPC begun with begin: register, seal, queue, wait. ctx
// abandons the wait (the late response is discarded on arrival); a
// downed connection fails immediately.
func (w *remoteWorker) call(ctx context.Context, id uint64, frame []byte) ([]byte, error) {
	ch := make(chan callResult, 1)
	w.mu.Lock()
	if w.down {
		w.mu.Unlock()
		return nil, w.downError()
	}
	w.pending[id] = ch
	w.mu.Unlock()

	if !w.out.send(wirefmt.EndFrame(frame), ctx.Done()) {
		w.unregister(id)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return nil, w.downError()
	}

	select {
	case res := <-ch:
		return res.body, res.err
	case <-ctx.Done():
		w.unregister(id)
		return nil, ctx.Err()
	}
}

func (w *remoteWorker) unregister(id uint64) {
	w.mu.Lock()
	delete(w.pending, id)
	w.mu.Unlock()
}

// controlCall is call with the stats-plane timeout, for RPCs whose
// worker-interface signature carries no context.
func (w *remoteWorker) controlCall(id uint64, frame []byte) ([]byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), controlTimeout)
	defer cancel()
	return w.call(ctx, id, frame)
}

func (w *remoteWorker) Submit(ctx context.Context, caller string, q query.Query, collect bool) (*service.Reply, error) {
	id, req := w.begin(mtSubmit)
	req = wirefmt.AppendString(req, caller)
	req = wirefmt.AppendBool(req, collect)
	req = service.AppendQueryWire(req, q)
	resp, err := w.call(ctx, id, req)
	if err != nil {
		return nil, err
	}
	r := wirefmt.NewReader(resp)
	rep := service.ReadReplyWire(r)
	if err := r.Close(); err != nil {
		return nil, &WorkerDownError{Addr: w.addr, Shard: w.shardIdx, Cause: err}
	}
	return rep, nil
}

func (w *remoteWorker) ApplyUpdates(adds, dels []graph.Edge) (uint64, error) {
	id, req := w.begin(mtApplyUpdates)
	req = wirefmt.AppendEdges(wirefmt.AppendU32(req, uint32(len(adds))), adds)
	req = wirefmt.AppendEdges(wirefmt.AppendU32(req, uint32(len(dels))), dels)
	resp, err := w.controlCall(id, req)
	if err != nil {
		return w.Epoch(), err
	}
	r := wirefmt.NewReader(resp)
	epoch := r.U64()
	if err := r.Close(); err != nil {
		return w.Epoch(), &WorkerDownError{Addr: w.addr, Shard: w.shardIdx, Cause: err}
	}
	w.epoch.Store(epoch)
	return epoch, nil
}

// Epoch returns the cached epoch: the value of the last handshake or
// update fan-out. Under the coordinator's aligned-epoch invariant the
// cache is exact — epochs only move inside ApplyUpdates, which updates
// it.
func (w *remoteWorker) Epoch() uint64 { return w.epoch.Load() }

// Stats returns the worker's Totals, or — matching the best a stats
// plane can do against an unreachable process — zero Totals once the
// connection is down.
func (w *remoteWorker) Stats() service.Totals {
	resp, err := w.controlCall(w.begin(mtStats))
	if err != nil {
		return service.Totals{}
	}
	r := wirefmt.NewReader(resp)
	t := service.ReadTotalsWire(r)
	if r.Close() != nil {
		return service.Totals{}
	}
	return t
}

func (w *remoteWorker) State() store.State {
	resp, err := w.controlCall(w.begin(mtState))
	if err != nil {
		return store.State{}
	}
	r := wirefmt.NewReader(resp)
	st := readState(r)
	if r.Close() != nil {
		return store.State{}
	}
	return st
}

func (w *remoteWorker) Checkpoint() error {
	_, err := w.controlCall(w.begin(mtCheckpoint))
	return err
}

// Close tears the connection down. The worker process keeps serving —
// other coordinators may be connected — so Close never propagates to
// the remote service.
func (w *remoteWorker) Close() error {
	w.markDown(errCoordinatorClosed)
	return nil
}
