package shard

import (
	"bufio"
	"bytes"
	"slices"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/pathjoin"
	"repro/internal/query"
	"repro/internal/service"
	"repro/internal/wirefmt"
)

// FuzzWireFrame feeds arbitrary bytes to the wire layer the way a TCP
// peer would, twice over. As a stream, the bytes go through readFrame
// until it refuses one: every accepted message must re-encode to
// exactly the bytes consumed (the frame envelope under it has its own
// fuzzer, wirefmt's FuzzFrame). As a body, the same bytes go
// to every message decoder directly (mutation cannot forge a frame's
// CRC, so the decoders would otherwise stay behind it): none may panic,
// and what decodes must survive an encode/decode round trip unchanged.
func FuzzWireFrame(f *testing.F) {
	paths := pathjoin.NewStore(2, 8)
	paths.Add([]graph.VertexID{1, 2, 3})
	paths.Add([]graph.VertexID{1, 9})
	reply := &service.Reply{Count: 2, Truncated: true, Err: query.ErrLimitReached, Paths: *paths}
	bodies := [][]byte{
		nil,
		[]byte("hello"),
		appendStore(nil, paths),
		wirefmt.AppendEdges(wirefmt.AppendU32(nil, 2), []graph.Edge{{Src: 1, Dst: 2}, {Src: 7, Dst: 0}}),
		appendWireError(nil, service.ErrOverloaded, 5*time.Millisecond),
		appendWireError(nil, &EpochMismatchError{Want: 3, Have: 4}, 0),
		service.AppendReplyWire(nil, reply),
		service.AppendTotalsWire(nil, service.Totals{Batches: 3, Paths: 99}),
		fakeDistBody(2),
	}
	for i, b := range bodies {
		f.Add(b)
		f.Add(appendFrame(nil, mtSubmit+byte(i%8), uint64(i), b))
	}
	// Nine bytes asking the distance-map decoder for a 4 GiB dense array.
	f.Add(oversizedDistMap())
	// A header claiming the largest legal payload, and one past it.
	f.Add(wirefmt.AppendU32(wirefmt.AppendU32(nil, wirefmt.MaxPayload), 0))
	f.Add(wirefmt.AppendU32(wirefmt.AppendU32(nil, wirefmt.MaxPayload+1), 0))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			data = data[:1<<16] // bound per-exec work, not coverage
		}

		br := bufio.NewReader(bytes.NewReader(data))
		rest := data
		for limit := uint32(maxHandshakePayload); ; limit = wirefmt.MaxPayload {
			typ, id, body, err := readFrame(br, limit)
			if err != nil {
				break
			}
			enc := appendFrame(nil, typ, id, body)
			if !bytes.HasPrefix(rest, enc) {
				t.Fatalf("frame (%#x, %d, %d bytes) re-encodes to different bytes than were read", typ, id, len(body))
			}
			rest = rest[len(enc):]
		}

		readWireError(wirefmt.NewReader(data)) // any error value is fine; a panic is not
		readState(wirefmt.NewReader(data))
		service.ReadQueryWire(wirefmt.NewReader(data))
		service.ReadTotalsWire(wirefmt.NewReader(data))

		if s, err := readStore(wirefmt.NewReader(data)); err == nil {
			again, err := readStore(wirefmt.NewReader(appendStore(nil, s)))
			if err != nil || !sameStore(s, again) {
				t.Fatalf("path store round trip: %v", err)
			}
		}
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
		// The reader's own vertex count — not the harness — is what keeps
		// a forged dense-array length or visited id from sizing an
		// allocation.
		const localN = 1 << 10
		if d, err := readDistMap(wirefmt.NewReader(data), localN); err == nil {
			again, err := readDistMap(wirefmt.NewReader(appendDistMap(nil, d, localN)), localN)
			if err != nil || again.NumVisited() != d.NumVisited() {
				t.Fatalf("distance map round trip: %v", err)
			}
		}
	})
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
