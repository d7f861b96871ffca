package shard

import (
	"bufio"
	"bytes"
	"errors"
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/pathjoin"
	"repro/internal/query"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/wirefmt"
)

// FuzzWireFrame feeds arbitrary bytes to the wire layer the way a TCP
// peer would, twice over. As a stream, the bytes go through readFrame
// until it refuses one: every accepted message must re-encode to
// exactly the bytes consumed (the frame envelope under it has its own
// fuzzer, wirefmt's FuzzFrame), and one carrying a request type hcp2
// had and hcp3 retired goes to a live Server, which must answer it
// "unknown request type" and keep the connection usable. As a body, the
// same bytes go to every message decoder directly (mutation cannot
// forge a frame's CRC, so the decoders would otherwise stay behind it):
// none may panic, and what decodes must survive an encode/decode round
// trip unchanged.
func FuzzWireFrame(f *testing.F) {
	paths := pathjoin.NewStore(2, 8)
	paths.Add([]graph.VertexID{1, 2, 3})
	paths.Add([]graph.VertexID{1, 9})
	reply := &service.Reply{Count: 2, Truncated: true, Err: query.ErrLimitReached, Paths: *paths}
	bodies := [][]byte{
		nil,
		[]byte("hello"),
		wirefmt.AppendEdges(wirefmt.AppendU32(nil, 2), []graph.Edge{{Src: 1, Dst: 2}, {Src: 7, Dst: 0}}),
		appendWireError(nil, service.ErrOverloaded, 5*time.Millisecond),
		appendWireError(nil, service.ErrClosed, 0),
		appendWireError(nil, errors.New("vertex 99 out of range [0, 10)"), 0),
		service.AppendReplyWire(nil, reply),
		service.AppendTotalsWire(nil, service.Totals{Batches: 3, Paths: 99}),
		appendState(nil, store.State{Epoch: 3, NumVertices: 4, NumEdges: 4, Checksum: 0xfeed}),
		service.AppendQueryWire(nil, query.Query{S: 3, T: 0xAABBCCDD, K: 5}),
	}
	for i, b := range bodies {
		f.Add(b)
		f.Add(appendFrame(nil, mtSubmit+byte(i%8), uint64(i), b))
	}
	// What an hcp2 coordinator would still send: its two scatter-gather
	// requests, as the heads of their bodies (pinned epoch, root, k,
	// direction) under the type bytes 3 and 4.
	leg := wirefmt.AppendU8(wirefmt.AppendU8(wirefmt.AppendU32(wirefmt.AppendU64(nil, 7), 2), 4), 0)
	for _, typ := range retiredTypes {
		f.Add(appendFrame(nil, typ, 11, leg))
	}
	// A header claiming the largest legal payload, and one past it.
	f.Add(wirefmt.AppendU32(wirefmt.AppendU32(nil, wirefmt.MaxPayload), 0))
	f.Add(wirefmt.AppendU32(wirefmt.AppendU32(nil, wirefmt.MaxPayload+1), 0))

	conn, br := dialRaw(f, serveLoopback(f))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			data = data[:1<<16] // bound per-exec work, not coverage
		}

		stream := bufio.NewReader(bytes.NewReader(data))
		rest := data
		for limit := uint32(maxHandshakePayload); ; limit = wirefmt.MaxPayload {
			typ, id, body, err := readFrame(stream, limit)
			if err != nil {
				break
			}
			enc := appendFrame(nil, typ, id, body)
			if !bytes.HasPrefix(rest, enc) {
				t.Fatalf("frame (%#x, %d, %d bytes) re-encodes to different bytes than were read", typ, id, len(body))
			}
			rest = rest[len(enc):]
			if slices.Contains(retiredTypes, typ) {
				conn.SetDeadline(time.Now().Add(5 * time.Second))
				msg := exchange(t, conn, br, enc, mtErr, id)
				if got := readWireError(wirefmt.NewReader(msg)).Error(); !strings.Contains(got, "unknown request type") {
					t.Fatalf("retired request type %#x answered %q, want unknown request type", typ, got)
				}
				exchange(t, conn, br, appendFrame(nil, mtEpoch, id+1, nil), mtResp, id+1)
			}
		}

		readWireError(wirefmt.NewReader(data)) // any error value is fine; a panic is not
		readState(wirefmt.NewReader(data))
		service.ReadQueryWire(wirefmt.NewReader(data))
		service.ReadTotalsWire(wirefmt.NewReader(data))

		r := wirefmt.NewReader(data)
		if edges := wirefmt.ReadEdges(r, r.U32()); r.Err() == nil {
			r2 := wirefmt.NewReader(wirefmt.AppendEdges(nil, edges))
			if again := wirefmt.ReadEdges(r2, uint32(len(edges))); r2.Close() != nil || !slices.Equal(again, edges) {
				t.Fatalf("edge list round trip: %v became %v (%v)", edges, again, r2.Err())
			}
		}
		r = wirefmt.NewReader(data)
		if rep := service.ReadReplyWire(r); r.Err() == nil {
			if int64(rep.Paths.Len()) > int64(len(data)) {
				t.Fatalf("reply decoded %d paths from %d bytes", rep.Paths.Len(), len(data))
			}
			r2 := wirefmt.NewReader(service.AppendReplyWire(nil, rep))
			again := service.ReadReplyWire(r2)
			if r2.Close() != nil || again.Count != rep.Count || !sameStore(&rep.Paths, &again.Paths) {
				t.Fatalf("reply round trip changed the reply (%v)", r2.Err())
			}
		}
	})
}

// retiredTypes are the request type bytes of hcp2's two scatter-gather
// legs, the gaps in the vocabulary since hcp3.
var retiredTypes = []byte{3, 4}

// dialRaw opens a connection to a shard-0-of-1 Server and completes the
// hello by hand, for tests that then speak frames the client never
// would.
func dialRaw(tb testing.TB, addr string) (net.Conn, *bufio.Reader) {
	tb.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { conn.Close() })
	hello := wirefmt.AppendU32(nil, wireMagic)
	hello = wirefmt.AppendU16(hello, 0)
	hello = wirefmt.AppendU16(hello, 1)
	br := bufio.NewReader(conn)
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	exchange(tb, conn, br, appendFrame(nil, mtHello, 1, hello), mtResp, 1)
	return conn, br
}

// exchange writes one request frame and returns the body of its answer,
// which must be a frame of the wanted type echoing id.
func exchange(tb testing.TB, conn net.Conn, br *bufio.Reader, frame []byte, wantTyp byte, id uint64) []byte {
	tb.Helper()
	if _, err := conn.Write(frame); err != nil {
		tb.Fatalf("write: %v", err)
	}
	typ, gotID, body, err := readFrame(br, wirefmt.MaxPayload)
	if err != nil || typ != wantTyp || gotID != id {
		tb.Fatalf("answer: type %#x id %d err %v, want type %#x id %d", typ, gotID, err, wantTyp, id)
	}
	return body
}

func sameStore(a, b *pathjoin.Store) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		if !slices.Equal(a.Path(i), b.Path(i)) {
			return false
		}
	}
	return true
}
