package shard

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/query"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/testgraphs"
	"repro/internal/wirefmt"
)

// remoteShardCounts is the deployment sizes the wire differential suite
// proves result-identical to the in-process deployments. Smaller than
// shardCounts because every worker is a real TCP server.
var remoteShardCounts = []int{2, 3}

// startCluster launches n workers as real Servers on loopback listeners
// and connects a Coordinator to them, mirroring the cmd/hcpath
// -serve/-connect deployment inside one test process.
func startCluster(t testing.TB, g *graph.Graph, n int, cfg service.Config) *Coordinator {
	t.Helper()
	gr := g.Reverse()
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		svc := service.New(g, gr, workerConfig(cfg, n, false))
		srv := NewServer(svc, i, n)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen worker %d: %v", i, err)
		}
		addrs[i] = ln.Addr().String()
		go srv.Serve(ln)
		t.Cleanup(func() { srv.Close() })
	}
	coord, err := Connect(context.Background(), addrs)
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	t.Cleanup(func() { coord.Close() })
	return coord
}

// TestRemoteDifferentialCorpus proves the wire deployment
// result-identical to both the single-process service and the
// in-process sharded coordinator over the full corpus.
func TestRemoteDifferentialCorpus(t *testing.T) {
	for _, tc := range corpus() {
		gr := tc.g.Reverse()
		single := service.New(tc.g, gr, testConfig())
		want := runAll(single, tc.qs)
		single.Close()
		for _, n := range remoteShardCounts {
			remote := startCluster(t, tc.g, n, testConfig())
			got := runAll(remote, tc.qs)
			diffOutcomes(t, fmt.Sprintf("remote/%s/shards=%d", tc.name, n), tc.qs, want, got)
			rs := remote.Routing()
			if rs.SingleShard+rs.CrossShard != int64(len(tc.qs)) {
				t.Errorf("remote/%s/shards=%d: routed %d single + %d cross, want %d total",
					tc.name, n, rs.SingleShard, rs.CrossShard, len(tc.qs))
			}
			ws := remote.Wire()
			if len(ws) != n {
				t.Errorf("remote/%s/shards=%d: Wire() reported %d workers", tc.name, n, len(ws))
			}
			for _, w := range ws {
				if w.RPCs == 0 {
					t.Errorf("remote/%s/shards=%d: worker %s saw no RPCs", tc.name, n, w.Addr)
				}
				if w.Flushes > w.RPCs {
					t.Errorf("remote/%s/shards=%d: worker %s flushed %d times for %d RPCs",
						tc.name, n, w.Addr, w.Flushes, w.RPCs)
				}
			}
		}
	}
}

// TestRemoteLiveUpdates drives a wire cluster and a single-process
// service through the same update stream, comparing results and epochs
// after every wave — the live-update differential over TCP.
func TestRemoteLiveUpdates(t *testing.T) {
	for _, n := range remoteShardCounts {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			g := testgraphs.Cycle(8)
			cfgSingle := testConfig()
			cfgSingle.CompactAfter = 8
			single := service.New(g, g.Reverse(), cfgSingle)
			defer single.Close()

			cfg := testConfig()
			cfg.CompactAfter = 8
			coord := startCluster(t, g, n, cfg)

			maxV := 8
			for wave := 0; wave < 6; wave++ {
				var adds, dels []graph.Edge
				// Deterministic stream: grow one vertex, rewire an edge,
				// drop one — enough to move epochs and trip compactions.
				adds = append(adds, graph.Edge{Src: graph.VertexID(wave % maxV), Dst: graph.VertexID(maxV)})
				maxV++
				adds = append(adds, graph.Edge{Src: graph.VertexID((wave * 3) % maxV), Dst: graph.VertexID((wave*5 + 1) % maxV)})
				dels = append(dels, graph.Edge{Src: graph.VertexID(wave % 8), Dst: graph.VertexID((wave + 1) % 8)})

				es, err := single.ApplyUpdates(adds, dels)
				if err != nil {
					t.Fatalf("wave %d: single ApplyUpdates: %v", wave, err)
				}
				ec, err := coord.ApplyUpdates(adds, dels)
				if err != nil {
					t.Fatalf("wave %d: remote ApplyUpdates: %v", wave, err)
				}
				if es != ec {
					t.Fatalf("wave %d: epochs diverged: single %d, remote %d", wave, es, ec)
				}
				cur := single.CurrentSnapshot().Graph()
				qs := allPairQueries(cur, 3, uint8(4+wave%3))
				diffOutcomes(t, fmt.Sprintf("remote-live/shards=%d/wave=%d", n, wave), qs,
					runAll(single, qs), runAll(coord, qs))
			}
			if got, want := coord.State(), single.State(); got != want {
				t.Errorf("final state mismatch: remote %+v, single %+v", got, want)
			}
		})
	}
}

// TestRemoteStatsPlane checks the coordinator's merged stats and
// checkpoint plumbing cross the wire. A checkpoint is a fold: with a
// delta pending it moves every worker one epoch, and the coordinator's
// Epoch must follow.
func TestRemoteStatsPlane(t *testing.T) {
	tc := corpus()[0]
	remote := startCluster(t, tc.g, 2, testConfig())
	got := runAll(remote, tc.qs)
	for i, o := range got {
		if o.err != nil {
			t.Fatalf("query %d: %v", i, o.err)
		}
	}
	tot := remote.Stats()
	if tot.Queries != int64(len(tc.qs)) {
		t.Errorf("Stats().Queries = %d, want %d", tot.Queries, len(tc.qs))
	}
	per := remote.ShardTotals()
	if len(per) != 2 {
		t.Fatalf("ShardTotals() returned %d entries", len(per))
	}
	if err := remote.Checkpoint(); err != nil {
		t.Errorf("Checkpoint over the wire: %v", err)
	}
	if remote.Epoch() != 0 {
		t.Errorf("Epoch() = %d, want 0 before any update", remote.Epoch())
	}
	if _, err := remote.ApplyUpdates([]graph.Edge{{Src: 0, Dst: 7}}, nil); err != nil {
		t.Fatalf("ApplyUpdates: %v", err)
	}
	if err := remote.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint with a delta pending: %v", err)
	}
	if got, st := remote.Epoch(), remote.State(); got != 2 || st.Epoch != 2 {
		t.Errorf("after an update and a checkpoint: Epoch() = %d, State().Epoch = %d, want 2 (update + fold)", got, st.Epoch)
	}
}

// TestConnectRejectsWrongShardIdentity wires the coordinator to workers
// in swapped order: the handshake must refuse rather than serve another
// shard's traffic.
func TestConnectRejectsWrongShardIdentity(t *testing.T) {
	g := testgraphs.Diamond()
	gr := g.Reverse()
	cfg := testConfig()
	var addrs [2]string
	for i := 0; i < 2; i++ {
		svc := service.New(g, gr, workerConfig(cfg, 2, false))
		srv := NewServer(svc, i, 2)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		addrs[i] = ln.Addr().String()
		go srv.Serve(ln)
		t.Cleanup(func() { srv.Close() })
	}
	swapped := []string{addrs[1], addrs[0]}
	coord, err := Connect(context.Background(), swapped)
	if err == nil {
		coord.Close()
		t.Fatal("Connect accepted a cluster wired in the wrong shard order")
	}
	if !strings.Contains(err.Error(), "refused the handshake") {
		t.Errorf("swapped-order Connect error %q does not mention the refused handshake", err)
	}
}

// TestConnectDialBackoffGivesUp points Connect at a dead address under
// a 50ms context: the dial loop must give up with the context's error,
// not spin.
func TestConnectDialBackoffGivesUp(t *testing.T) {
	// Reserve a port, then close it so nothing listens there.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	addr := ln.Addr().String()
	ln.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err = Connect(ctx, []string{addr})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Connect to dead address: got %v, want context.DeadlineExceeded", err)
	}
}

// fakeWorker is a scripted worker process: it answers the handshake and
// the alignment check honestly, then runs hook for each further frame.
// It lets the failure-surface tests kill a "worker" at an exact point
// in an RPC without racing a real service.
type fakeWorker struct {
	ln   net.Listener
	hook func(conn net.Conn, typ byte, id uint64, body []byte) bool // false = drop connection

	mu    sync.Mutex
	conns []net.Conn
}

func startFakeWorker(t *testing.T, hook func(conn net.Conn, typ byte, id uint64, body []byte) bool) *fakeWorker {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("fake worker listen: %v", err)
	}
	f := &fakeWorker{ln: ln, hook: hook}
	go f.acceptLoop()
	t.Cleanup(f.Close)
	return f
}

func (f *fakeWorker) addr() string { return f.ln.Addr().String() }

func (f *fakeWorker) Close() {
	f.ln.Close()
	f.mu.Lock()
	for _, c := range f.conns {
		c.Close()
	}
	f.conns = nil
	f.mu.Unlock()
}

func (f *fakeWorker) acceptLoop() {
	for {
		conn, err := f.ln.Accept()
		if err != nil {
			return
		}
		f.mu.Lock()
		f.conns = append(f.conns, conn)
		f.mu.Unlock()
		go f.serve(conn)
	}
}

func (f *fakeWorker) serve(conn net.Conn) {
	br := bufio.NewReader(conn)
	typ, id, _, err := readFrame(br, maxHandshakePayload)
	if err != nil || typ != mtHello {
		conn.Close()
		return
	}
	if _, err := conn.Write(appendFrame(nil, mtResp, id, fakeState())); err != nil {
		conn.Close()
		return
	}
	for {
		typ, id, body, err := readFrame(br, wirefmt.MaxPayload)
		if err != nil {
			conn.Close()
			return
		}
		if !f.hook(conn, typ, id, body) {
			conn.Close()
			return
		}
	}
}

// fakeState is the one store.State blob every fake reports, so
// Connect's alignment check passes.
func fakeState() []byte {
	return appendState(nil, store.State{Epoch: 0, NumVertices: 4, NumEdges: 4, Checksum: 0xfeed})
}

// answer writes one success response frame.
func answer(conn net.Conn, id uint64, body []byte) bool {
	_, err := conn.Write(appendFrame(nil, mtResp, id, body))
	return err == nil
}

// onState answers the stats-plane frames every fake must serve (State
// for Connect's alignment check) and defers the rest to next.
func onState(next func(conn net.Conn, typ byte, id uint64, body []byte) bool) func(conn net.Conn, typ byte, id uint64, body []byte) bool {
	return func(conn net.Conn, typ byte, id uint64, body []byte) bool {
		if typ == mtState {
			return answer(conn, id, fakeState())
		}
		return next(conn, typ, id, body)
	}
}

// connectFakes dials a 2-fake cluster.
func connectFakes(t *testing.T, hook0, hook1 func(conn net.Conn, typ byte, id uint64, body []byte) bool) *Coordinator {
	t.Helper()
	f0 := startFakeWorker(t, onState(hook0))
	f1 := startFakeWorker(t, onState(hook1))
	coord, err := Connect(context.Background(), []string{f0.addr(), f1.addr()})
	if err != nil {
		t.Fatalf("Connect to fakes: %v", err)
	}
	t.Cleanup(func() { coord.Close() })
	return coord
}

// fakeQuery returns a query over the fakes' 4 vertices whose endpoints
// land on different shards of 2 (cross) or on the same one.
func fakeQuery(t *testing.T, cross bool) query.Query {
	t.Helper()
	s, u := findPair(t, testgraphs.Line(4), 2, cross)
	return query.Query{S: s, T: u, K: 4}
}

// TestWorkerKilledMidSubmit kills the worker owning a cross-shard
// query's source while that query's one RPC is in flight: the query
// must fail promptly with a typed ErrWorkerDown — never hang — and the
// worker owning its target must not have been asked for anything.
func TestWorkerKilledMidSubmit(t *testing.T) {
	q := fakeQuery(t, true)
	hooks := [2]func(conn net.Conn, typ byte, id uint64, body []byte) bool{}
	hooks[ShardOf(q.S, 2)] = func(conn net.Conn, typ byte, id uint64, body []byte) bool {
		return false // die with the Submit unanswered: drop the connection
	}
	hooks[ShardOf(q.T, 2)] = func(conn net.Conn, typ byte, id uint64, body []byte) bool {
		t.Errorf("the target's owner was sent a %#x frame; a cross-shard query is one RPC to the source's owner", typ)
		return false
	}
	coord := connectFakes(t, hooks[0], hooks[1])

	done := make(chan error, 1)
	go func() {
		_, err := coord.Submit(context.Background(), "", q, false)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrWorkerDown) {
			t.Fatalf("query against killed worker: got %v, want ErrWorkerDown", err)
		}
		var wd *WorkerDownError
		if !errors.As(err, &wd) {
			t.Fatalf("error %v carries no *WorkerDownError", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("query hung after worker death")
	}

	// The connection is down for good: later calls fail immediately too.
	if _, err := coord.Submit(context.Background(), "", q, false); !errors.Is(err, ErrWorkerDown) {
		t.Fatalf("follow-up query: got %v, want ErrWorkerDown", err)
	}
}

// TestEpochMismatchFanOut makes a worker answer the update fan-out with
// a diverged epoch: ApplyUpdates must fail loudly, naming the shard.
func TestEpochMismatchFanOut(t *testing.T) {
	updatesAt := func(epoch uint64) func(conn net.Conn, typ byte, id uint64, body []byte) bool {
		return func(conn net.Conn, typ byte, id uint64, body []byte) bool {
			if typ == mtApplyUpdates {
				return answer(conn, id, wirefmt.AppendU64(nil, epoch))
			}
			return false
		}
	}
	coord := connectFakes(t, updatesAt(1), updatesAt(7))
	_, err := coord.ApplyUpdates([]graph.Edge{{Src: 0, Dst: 1}}, nil)
	if err == nil {
		t.Fatal("ApplyUpdates accepted a diverged fan-out")
	}
	if !strings.Contains(err.Error(), "epoch diverged") {
		t.Fatalf("fan-out error %q does not mention the divergence", err)
	}
}

// TestRetryAfterHintCrossesWire sheds from a fake worker with
// ErrOverloaded: the client must surface an error that both satisfies
// errors.Is(…, service.ErrOverloaded) and carries the server's
// retry-after hint for the caller's Backoff.
func TestRetryAfterHintCrossesWire(t *testing.T) {
	const hint = 42 * time.Millisecond
	shedding := func(conn net.Conn, typ byte, id uint64, body []byte) bool {
		if typ == mtSubmit {
			_, err := conn.Write(appendFrame(nil, mtErr, id,
				appendWireError(nil, fmt.Errorf("worker shed: %w", service.ErrOverloaded), hint)))
			return err == nil
		}
		return false
	}
	coord := connectFakes(t, shedding, shedding)
	// Both routes must carry the hint: a cross-shard query is forwarded
	// like a single-shard one.
	for _, q := range []query.Query{fakeQuery(t, false), fakeQuery(t, true)} {
		_, err := coord.Submit(context.Background(), "", q, false)
		if !errors.Is(err, service.ErrOverloaded) {
			t.Fatalf("%s shed over the wire: got %v, want errors.Is ErrOverloaded", q, err)
		}
		var oe *OverloadedError
		if !errors.As(err, &oe) {
			t.Fatalf("%s: shed error %v carries no *OverloadedError", q, err)
		}
		if oe.RetryAfter != hint {
			t.Errorf("%s: RetryAfter = %v, want %v", q, oe.RetryAfter, hint)
		}
	}
}
