package wirefmt

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"slices"
	"testing"

	"repro/internal/graph"
)

// frame builds one whole frame around payload.
func frame(payload []byte) []byte {
	return EndFrame(append(BeginFrame(nil), payload...))
}

// TestScanFrameTornVsCorrupt pins the scanner's two verdicts: a buffer
// that ends inside a frame is torn, a frame whose length or checksum
// is wrong is corrupt — and the stream reader agrees, reporting torn
// as the stream's own EOF.
func TestScanFrameTornVsCorrupt(t *testing.T) {
	good := frame([]byte("payload"))
	for cut := 0; cut < len(good); cut++ {
		if _, _, err := ScanFrame(good[:cut], 1, MaxPayload); !errors.Is(err, ErrTorn) {
			t.Errorf("cut at %d: ScanFrame err = %v, want ErrTorn", cut, err)
		}
		_, err := ReadFrame(bytes.NewReader(good[:cut]), 1, MaxPayload)
		if want := io.ErrUnexpectedEOF; cut == 0 && err != io.EOF || cut > 0 && err != want {
			t.Errorf("cut at %d: ReadFrame err = %v, want EOF on the boundary, unexpected EOF inside", cut, err)
		}
	}
	flipped := bytes.Clone(good)
	flipped[len(flipped)-1] ^= 1
	short := frame([]byte("x"))
	for name, c := range map[string]struct {
		buf      []byte
		min, max uint32
	}{
		"checksum":  {flipped, 1, MaxPayload},
		"below min": {short, 2, MaxPayload},
		"above max": {good, 1, 3},
	} {
		if _, _, err := ScanFrame(c.buf, c.min, c.max); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: ScanFrame err = %v, want ErrCorrupt", name, err)
		}
		if _, err := ReadFrame(bytes.NewReader(c.buf), c.min, c.max); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: ReadFrame err = %v, want ErrCorrupt", name, err)
		}
	}
	payload, n, err := ScanFrame(append(good, 0xEE), 1, MaxPayload)
	if err != nil || n != len(good) || string(payload) != "payload" {
		t.Errorf("frame with trailing bytes: %q, %d, %v", payload, n, err)
	}
}

func TestEdgesCodec(t *testing.T) {
	in := []graph.Edge{{Src: 1, Dst: 2}, {Src: 0, Dst: 9}}
	r := NewReader(AppendEdges(nil, in))
	if got := ReadEdges(r, 2); r.Close() != nil || !slices.Equal(got, in) {
		t.Fatalf("decoded %v (%v), want %v", got, r.Err(), in)
	}

	// nil edge list (a pure-delete or pure-add batch) round-trips.
	r = NewReader(AppendEdges(nil, nil))
	if got := ReadEdges(r, 0); got != nil || r.Close() != nil {
		t.Fatalf("nil edges: %v, %v", got, r.Err())
	}

	// A count the payload cannot hold is refused before allocation.
	r = NewReader(AppendEdges(nil, in))
	if got := ReadEdges(r, 1<<30); got != nil || !errors.Is(r.Err(), ErrCorrupt) {
		t.Fatalf("absurd edge count: %d edges, err %v, want ErrCorrupt", len(got), r.Err())
	}
}

// FuzzFrame reads arbitrary bytes as a sequence of frames three times
// — off a stream with ReadFrame, off a second stream with ReadFrameInto
// a recycled buffer, and out of the buffer with ScanFrame — under
// bounds the input also chooses. All must accept the same frames with
// the same payloads and stop at the same place for the same reason;
// every accepted frame re-encodes to the bytes it was read from; the
// recycled buffer's stale bytes never reach a payload, and a prefix
// already in it survives the read; and both stream readers' memory
// follows the bytes received, whatever a header claims (measured
// process-wide, so with a few chunks of slack).
func FuzzFrame(f *testing.F) {
	two := append(frame([]byte("first")), frame(nil)...)
	f.Add(two, uint8(0), uint32(MaxPayload))
	f.Add(two[:len(two)-3], uint8(0), uint32(MaxPayload))
	f.Add(frame(bytes.Repeat([]byte{7}, 300)), uint8(9), uint32(1<<10))
	f.Add(AppendU32(AppendU32(nil, MaxPayload), 0), uint8(0), uint32(MaxPayload))
	f.Add(AppendU32(AppendU32(nil, MaxPayload+1), 0), uint8(0), uint32(MaxPayload))
	f.Add(append(frame(bytes.Repeat([]byte{1}, 100)), frame([]byte("ab"))...), uint8(0), uint32(MaxPayload))

	f.Fuzz(func(t *testing.T, data []byte, minPayload uint8, maxPayload uint32) {
		maxPayload = min(maxPayload, MaxPayload)
		stream, into := bytes.NewReader(data), bytes.NewReader(data)
		// buf is the recycled buffer: before each read its whole
		// capacity holds 0xA5, and every other read keeps a 3-byte
		// prefix of it ahead of the payload.
		buf := make([]byte, 0, 16)
		off := 0
		for i := 0; ; i++ {
			// A header promising more than the input holds: the read must
			// fail having allocated for the bytes that exist, not the claim.
			rest := data[off:]
			overclaims := len(rest) >= FrameHeader && uint64(NewReader(rest).U32()) > uint64(len(rest))
			allocBound := uint64(2*len(rest) + 4*FrameChunk)
			var before, after runtime.MemStats
			if overclaims {
				runtime.ReadMemStats(&before)
			}
			fromStream, rerr := ReadFrame(stream, uint32(minPayload), maxPayload)
			if overclaims {
				runtime.ReadMemStats(&after)
				if got := after.TotalAlloc - before.TotalAlloc; got > allocBound {
					t.Fatalf("at offset %d: reading a torn frame with %d bytes behind it allocated %d", off, len(rest), got)
				}
			}

			buf = buf[:cap(buf)]
			for j := range buf {
				buf[j] = 0xA5
			}
			pre := 3 * (i % 2)
			if overclaims {
				runtime.ReadMemStats(&before)
			}
			got, ierr := ReadFrameInto(buf[:pre], into, uint32(minPayload), maxPayload)
			if overclaims {
				runtime.ReadMemStats(&after)
				if n := after.TotalAlloc - before.TotalAlloc; n > allocBound {
					t.Fatalf("at offset %d: reading a torn frame into a buffer with %d bytes behind it allocated %d", off, len(rest), n)
				}
			}
			if (rerr == nil) != (ierr == nil) || rerr != nil && rerr.Error() != ierr.Error() {
				t.Fatalf("at offset %d: ReadFrame err %v, ReadFrameInto err %v", off, rerr, ierr)
			}

			fromBuf, n, serr := ScanFrame(data[off:], uint32(minPayload), maxPayload)
			if (rerr == nil) != (serr == nil) {
				t.Fatalf("at offset %d: ReadFrame err %v, ScanFrame err %v", off, rerr, serr)
			}
			if rerr != nil {
				torn := rerr == io.EOF || rerr == io.ErrUnexpectedEOF
				if torn != errors.Is(serr, ErrTorn) || errors.Is(rerr, ErrCorrupt) != errors.Is(serr, ErrCorrupt) || torn == errors.Is(rerr, ErrCorrupt) {
					t.Fatalf("at offset %d: verdicts differ: ReadFrame %v, ScanFrame %v", off, rerr, serr)
				}
				return
			}
			if !bytes.Equal(fromStream, fromBuf) {
				t.Fatalf("at offset %d: stream payload %x, buffer payload %x", off, fromStream, fromBuf)
			}
			if !bytes.Equal(got[:pre], []byte{0xA5, 0xA5, 0xA5}[:pre]) || !bytes.Equal(got[pre:], fromStream) {
				t.Fatalf("at offset %d: read into a %d-byte prefix as %x, want the prefix and then %x", off, pre, got, fromStream)
			}
			if again := frame(fromStream); !bytes.Equal(again, data[off:off+n]) {
				t.Fatalf("at offset %d: frame re-encodes to %x, was %x", off, again, data[off:off+n])
			}
			buf = got
			off += n
		}
	})
}
