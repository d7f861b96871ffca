package shard

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/internal/query"
	"repro/internal/service"
	"repro/internal/testgraphs"
	"repro/internal/wirefmt"
)

// serveLoopback runs a shard-0-of-1 Server over the diamond graph on a
// loopback listener until the test ends, and returns its address.
func serveLoopback(tb testing.TB) string {
	tb.Helper()
	g := testgraphs.Diamond()
	srv := NewServer(service.New(g, g.Reverse(), workerConfig(testConfig(), 1, false)), 0, 1)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	go srv.Serve(ln)
	tb.Cleanup(func() { srv.Close() })
	return ln.Addr().String()
}

// appendFrame appends one whole message whose body is already encoded
// — the tests' way to make a frame; production encoders build bodies in
// place between beginMsg and wirefmt.EndFrame.
func appendFrame(dst []byte, typ byte, id uint64, body []byte) []byte {
	start := len(dst)
	dst = append(beginMsg(dst, typ, id), body...)
	wirefmt.EndFrame(dst[start:])
	return dst
}

func TestFrameRoundTrip(t *testing.T) {
	cases := []struct {
		typ  byte
		id   uint64
		body []byte
	}{
		{mtSubmit, 1, []byte("hello")},
		{mtResp, 1<<63 + 7, nil},
		{mtErr, 0, bytes.Repeat([]byte{0xAB}, 4096)},
	}
	for _, c := range cases {
		frame := appendFrame(nil, c.typ, c.id, c.body)
		typ, id, body, err := readFrame(bufio.NewReader(bytes.NewReader(frame)), wirefmt.MaxPayload)
		if err != nil {
			t.Fatalf("readFrame(%#x): %v", c.typ, err)
		}
		if typ != c.typ || id != c.id || !bytes.Equal(body, c.body) {
			t.Errorf("round trip: got (%#x, %d, %d bytes), want (%#x, %d, %d bytes)",
				typ, id, len(body), c.typ, c.id, len(c.body))
		}
	}
}

// TestFrameCorruptionMatrix flips every byte of a frame in turn: each
// corruption must surface as ErrFrameCorrupt (header or payload damage
// the checksum catches) — never as a silently decoded frame.
func TestFrameCorruptionMatrix(t *testing.T) {
	frame := appendFrame(nil, mtSubmit, 42, []byte("payload-bytes"))
	for i := range frame {
		corrupt := bytes.Clone(frame)
		corrupt[i] ^= 0x80
		_, _, _, err := readFrame(bufio.NewReader(bytes.NewReader(corrupt)), wirefmt.MaxPayload)
		if err == nil {
			t.Fatalf("byte %d flipped: frame decoded anyway", i)
		}
		// A flipped length byte can also make the reader wait for more
		// payload than exists — an io error, equally fatal to the
		// connection. Anything else must be the checksum failing.
		if !errors.Is(err, ErrFrameCorrupt) && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("byte %d flipped: got %v, want ErrFrameCorrupt or unexpected EOF", i, err)
		}
	}
}

// TestFrameTruncation cuts a frame off at every length: a torn frame is
// an io error (the peer died mid-write), never a decoded frame.
func TestFrameTruncation(t *testing.T) {
	frame := appendFrame(nil, mtStats, 7, []byte("torn"))
	for n := 0; n < len(frame); n++ {
		_, _, _, err := readFrame(bufio.NewReader(bytes.NewReader(frame[:n])), wirefmt.MaxPayload)
		if err == nil {
			t.Fatalf("frame cut at %d/%d bytes decoded anyway", n, len(frame))
		}
		if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("frame cut at %d: got %v, want an io error", n, err)
		}
	}
}

func TestFrameRejectsImplausibleLength(t *testing.T) {
	var buf []byte
	buf = wirefmt.AppendU32(buf, wirefmt.MaxPayload+1)
	buf = wirefmt.AppendU32(buf, 0)
	buf = append(buf, make([]byte, 64)...)
	_, _, _, err := readFrame(bufio.NewReader(bytes.NewReader(buf)), wirefmt.MaxPayload)
	if !errors.Is(err, ErrFrameCorrupt) {
		t.Fatalf("oversized length: got %v, want ErrFrameCorrupt", err)
	}
	buf = wirefmt.AppendU32(buf[:0], 3) // < 9: too short for type+id
	buf = wirefmt.AppendU32(buf, 0)
	buf = append(buf, 1, 2, 3)
	_, _, _, err = readFrame(bufio.NewReader(bytes.NewReader(buf)), wirefmt.MaxPayload)
	if !errors.Is(err, ErrFrameCorrupt) {
		t.Fatalf("undersized length: got %v, want ErrFrameCorrupt", err)
	}
}

// TestFrameAllocationFollowsBytesReceived is the regression for the
// "eight bytes cost a GiB" bug: a header claiming the largest legal
// payload with almost nothing behind it must fail as a torn frame
// having allocated on the order of one chunk, not the claimed length.
func TestFrameAllocationFollowsBytesReceived(t *testing.T) {
	var buf []byte
	buf = wirefmt.AppendU32(buf, wirefmt.MaxPayload)
	buf = wirefmt.AppendU32(buf, 0)
	buf = append(buf, make([]byte, 100)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, _, err := readFrame(bufio.NewReader(bytes.NewReader(buf)), wirefmt.MaxPayload)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("torn gigabyte frame: got %v, want unexpected EOF", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 4*wirefmt.FrameChunk {
		t.Fatalf("torn gigabyte frame allocated %d bytes, want at most %d", got, 4*wirefmt.FrameChunk)
	}

	// A payload spanning several chunks still round-trips.
	body := bytes.Repeat([]byte{0x5A}, 3*wirefmt.FrameChunk+17)
	_, _, got, err := readFrame(bufio.NewReader(bytes.NewReader(appendFrame(nil, mtResp, 9, body))), wirefmt.MaxPayload)
	if err != nil || !bytes.Equal(got, body) {
		t.Fatalf("multi-chunk frame: err %v, %d of %d bytes", err, len(got), len(body))
	}
}

// TestHandshakeFrameCapped pins the pre-handshake bound on both sides:
// a real Server drops a connection whose first header claims more than
// a hello can hold without waiting for (or buffering) the payload, and
// the dialer refuses an oversized handshake answer the same way.
func TestHandshakeFrameCapped(t *testing.T) {
	if _, _, _, err := readFrame(bufio.NewReader(bytes.NewReader(
		appendFrame(nil, mtHello, 1, make([]byte, maxHandshakePayload)))), maxHandshakePayload); !errors.Is(err, ErrFrameCorrupt) {
		t.Fatalf("oversized hello: got %v, want ErrFrameCorrupt", err)
	}

	conn, err := net.Dial("tcp", serveLoopback(t))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hdr := wirefmt.AppendU32(nil, wirefmt.MaxPayload)
	hdr = wirefmt.AppendU32(hdr, 0)
	if _, err := conn.Write(hdr); err != nil {
		t.Fatal(err)
	}
	// The server must hang up on the header alone; were it waiting for
	// the gigabyte, this read would sit until the deadline.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
		t.Fatalf("server kept an unauthenticated gigabyte frame open: read returned %v, want EOF", err)
	}
}

// TestHandshakeRefusesOldProtocol speaks each earlier wire version at a
// current worker — hcp2, whose coordinators send the two retired
// scatter-gather requests, and hcp3, whose replies carry the per-engine
// group counters — and the hello is refused with the handshake's error
// message, not served.
func TestHandshakeRefusesOldProtocol(t *testing.T) {
	addr := serveLoopback(t)
	for _, c := range []struct {
		name  string
		magic uint32
	}{
		{"hcp2", 0x68637032},
		{"hcp3", 0x68637033},
	} {
		t.Run(c.name, func(t *testing.T) {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			hello := wirefmt.AppendU32(nil, c.magic)
			hello = wirefmt.AppendU16(hello, 0)
			hello = wirefmt.AppendU16(hello, 1)
			conn.SetDeadline(time.Now().Add(5 * time.Second))
			body := exchange(t, conn, bufio.NewReader(conn), appendFrame(nil, mtHello, 1, hello), mtErr, 1)
			if msg := readWireError(wirefmt.NewReader(body)).Error(); !strings.Contains(msg, "bad hello") {
				t.Fatalf("refusal says %q, want the bad-hello protocol mismatch", msg)
			}
		})
	}
}

// gatedWriter announces every Write, blocks it until the gate opens,
// and reports the bytes that got through.
type gatedWriter struct {
	gate             chan struct{}
	entered, written chan int
}

func (g gatedWriter) Write(p []byte) (int, error) {
	g.entered <- len(p)
	<-g.gate
	g.written <- len(p)
	return len(p), nil
}

// TestFrameWriter pins the one coalescing writer: frames queued while a
// flush is in progress ride the next flush together, a frame is counted
// when its flush completes and not when a caller gives up on queueing
// it, and a write error reaches the hook once and leaves no sender
// blocked. A sent frame belongs to the writer, which recycles it, so
// every send takes a frame of its own.
func TestFrameWriter(t *testing.T) {
	frame := func() []byte { return appendFrame(nil, mtEpoch, 7, nil) }
	fw := newFrameWriter()
	w := gatedWriter{gate: make(chan struct{}), entered: make(chan int, 1<<10), written: make(chan int, 1<<10)}
	done := make(chan struct{})
	go func() {
		defer close(done)
		fw.run(w, func(err error) { t.Errorf("unexpected write error: %v", err) })
	}()

	// The first frame is taken at once and its flush parks on the gate;
	// everything sent meanwhile can only queue.
	if !fw.send(frame(), nil) {
		t.Fatal("send refused on a live writer")
	}
	<-w.entered
	queued := cap(fw.q)
	for i := 0; i < queued; i++ {
		if !fw.send(frame(), nil) {
			t.Fatal("send refused on a live writer")
		}
	}
	// The queue is full, so a caller whose context is already done can
	// only give up: its frame never reaches the socket and is not counted.
	gone := make(chan struct{})
	close(gone)
	if fw.send(frame(), gone) {
		t.Fatal("send queued a frame into a full queue")
	}
	if got := fw.frames.Load(); got != 0 {
		t.Fatalf("%d frames counted before any flush completed", got)
	}

	close(w.gate)
	for total, want := 0, (1+queued)*len(frame()); total < want; {
		total += <-w.written
	}
	fw.shut()
	<-done
	if frames, flushes := fw.frames.Load(), fw.flushes.Load(); frames != int64(1+queued) || flushes != 2 {
		t.Fatalf("%d frames in %d flushes, want %d frames in 2 (one alone, the queued ones together)", frames, flushes, 1+queued)
	}
	for fw.send(frame(), nil) {
		// A stopped writer may still let frames queue, but once the queue
		// is full a sender is refused — never left blocked.
	}

	// A failing connection: the hook hears the error, senders are refused.
	fw = newFrameWriter()
	boom := errors.New("boom")
	var hooked []error
	done = make(chan struct{})
	go func() {
		defer close(done)
		fw.run(failingWriter{boom}, func(err error) { hooked = append(hooked, err) })
	}()
	fw.send(frame(), nil)
	<-done
	if len(hooked) != 1 || !errors.Is(hooked[0], boom) {
		t.Fatalf("error hook heard %v, want the write error once", hooked)
	}
	for fw.send(frame(), nil) {
	}
	if frames, flushes := fw.frames.Load(), fw.flushes.Load(); frames != 0 || flushes != 0 {
		t.Fatalf("%d frames in %d flushes counted on a connection that never took one", frames, flushes)
	}
}

type failingWriter struct{ err error }

func (f failingWriter) Write([]byte) (int, error) { return 0, f.err }

func TestWireErrorRoundTrip(t *testing.T) {
	t.Run("overloaded", func(t *testing.T) {
		in := service.ErrOverloaded
		got := readWireError(wirefmt.NewReader(appendWireError(nil, in, 17*time.Millisecond)))
		if !errors.Is(got, service.ErrOverloaded) {
			t.Fatalf("decoded %v, want errors.Is ErrOverloaded", got)
		}
		var oe *OverloadedError
		if !errors.As(got, &oe) || oe.RetryAfter != 17*time.Millisecond {
			t.Fatalf("decoded %v, want OverloadedError with the 17ms hint", got)
		}
	})
	t.Run("closed", func(t *testing.T) {
		got := readWireError(wirefmt.NewReader(appendWireError(nil, service.ErrClosed, 0)))
		if !errors.Is(got, service.ErrClosed) {
			t.Fatalf("decoded %v, want ErrClosed", got)
		}
	})
	t.Run("string", func(t *testing.T) {
		in := errors.New("vertex 99 out of range [0, 10)")
		got := readWireError(wirefmt.NewReader(appendWireError(nil, in, 0)))
		if got.Error() != in.Error() {
			// Message identity is what keeps remote failures reading
			// exactly like local ones in the differential suite.
			t.Fatalf("decoded %q, want %q", got, in)
		}
	})
}

func TestBackoffExhausts(t *testing.T) {
	b := Backoff{Base: time.Microsecond, Cap: 2 * time.Microsecond, Total: 50 * time.Microsecond}
	s := b.Start()
	var err error
	for i := 0; i < 1000; i++ {
		if err = s.Sleep(context.Background(), 0); err != nil {
			break
		}
	}
	if !errors.Is(err, ErrBackoffExhausted) {
		t.Fatalf("after burning the budget: got %v, want ErrBackoffExhausted", err)
	}
	if s.Attempts() == 0 {
		t.Error("gave up before a single sleep")
	}
	if s.slept > b.Total {
		t.Errorf("slept %v, over the %v budget", s.slept, b.Total)
	}
}

func TestBackoffHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := Backoff{Base: time.Hour, Cap: time.Hour, Total: -1}.Start()
	if err := s.Sleep(ctx, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ctx: got %v, want context.Canceled", err)
	}
}

func TestBackoffHintCapped(t *testing.T) {
	b := Backoff{Base: time.Microsecond, Cap: 3 * time.Microsecond, Total: -1}
	s := b.Start()
	start := time.Now()
	// A hostile hint must not make the client sleep past Cap.
	if err := s.Sleep(context.Background(), time.Hour); err != nil {
		t.Fatalf("Sleep: %v", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("hint overrode the cap: slept %v", d)
	}
}

// TestRecycledFramesNeverLeak is the oracle for frame recycling. Many
// concurrent callers on a 2-worker loopback cluster draw replies of
// mixed sizes — one above maxPooledFrame, which the pool must drop —
// beside calls their callers abandon (whose late replies the receive
// loop recycles unread) and sheds the workers answer with mtErr. Every
// reply a caller kept is re-checked against the brute-force oracle
// only once all traffic has stopped, when any frame it could still
// alias has carried other messages.
func TestRecycledFramesNeverLeak(t *testing.T) {
	g := testgraphs.CompleteDAG(17)
	qs := []query.Query{
		{S: 0, T: 16, K: 7}, // 9949 paths: past maxPooledFrame
		{S: 0, T: 16, K: 5}, // 1941
		{S: 1, T: 15, K: 4}, // 378
		{S: 4, T: 12, K: 6},
		{S: 2, T: 9, K: 3},
		{S: 7, T: 16, K: 3},
		{S: 3, T: 16, K: 2},
		{S: 5, T: 6, K: 1},
		{S: 16, T: 0, K: 3}, // no path: edges only run upwards
	}
	want := make([][]string, len(qs))
	for i, q := range qs {
		want[i] = oraclePaths(g, q)
	}
	var huge service.Reply
	oracle.Enumerate(g, qs[0], func(p []graph.VertexID) { huge.Paths.Add(p) })
	if n := service.ReplyWireSize(&huge); n <= maxPooledFrame {
		t.Fatalf("the largest reply encodes in %d bytes, not above the pool's bound %d", n, maxPooledFrame)
	}

	cfg := testConfig()
	cfg.MaxInFlight = 1 // a worker runs one batch at a time,
	cfg.MaxQueued = 2   // and sheds what queues past two queries
	coord := startCluster(t, g, 2, cfg)

	type kept struct {
		q   int
		rep *service.Reply
	}
	const callers, rounds = 12, 16
	var (
		mu              sync.Mutex
		replies         []kept
		shed, abandoned int
		wg              sync.WaitGroup
	)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			for i := 0; i < rounds; i++ {
				qi := rng.Intn(len(qs))
				ctx, cancel := context.WithCancel(context.Background())
				if i%4 == 3 { // the caller gives up after up to 300µs
					ctx, cancel = context.WithTimeout(ctx, time.Duration(rng.Intn(300))*time.Microsecond)
				}
				rep, err := coord.Submit(ctx, "", qs[qi], true)
				cancel()
				mu.Lock()
				switch {
				case err == nil:
					replies = append(replies, kept{qi, rep})
				case errors.Is(err, service.ErrOverloaded):
					shed++
				case errors.Is(err, context.DeadlineExceeded):
					abandoned++
				default:
					t.Errorf("%v: %v", qs[qi], err)
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	t.Logf("%d replies kept, %d shed, %d abandoned", len(replies), shed, abandoned)
	if shed == 0 || abandoned == 0 {
		t.Errorf("%d shed and %d abandoned calls: the mix must include both", shed, abandoned)
	}
	sawHuge := false
	for _, k := range replies {
		got := renderPaths(&k.rep.Paths)
		if k.rep.Err != nil || k.rep.Truncated || k.rep.Count != int64(len(want[k.q])) || !slices.Equal(got, want[k.q]) {
			t.Fatalf("%v: kept reply (count %d, %d paths, err %v) differs from the oracle's %d paths",
				qs[k.q], k.rep.Count, len(got), k.rep.Err, len(want[k.q]))
		}
		sawHuge = sawHuge || k.q == 0
	}
	if !sawHuge {
		t.Error("no reply above the pool's bound was kept")
	}
}
