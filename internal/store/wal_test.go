package store

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/graph"
	"repro/internal/wirefmt"
)

// encodeAll frames a sequence of records the way the store logs them.
func encodeAll(recs []walRecord) []byte {
	var d durability
	var out []byte
	for _, r := range recs {
		d.encodeRecord(r.kind, r.epoch, r.adds, r.dels)
		out = append(out, d.buf...)
	}
	return out
}

func sampleRecords() []walRecord {
	return []walRecord{
		{kind: recUpdate, epoch: 1,
			adds: []graph.Edge{{Src: 0, Dst: 1}, {Src: 7, Dst: 3}},
			dels: []graph.Edge{{Src: 2, Dst: 2}}},
		{kind: recNoop, epoch: 1},
		{kind: recCompact, epoch: 2},
		{kind: recUpdate, epoch: 3, adds: []graph.Edge{{Src: 1, Dst: 9}}},
	}
}

func TestWALRoundTrip(t *testing.T) {
	want := sampleRecords()
	data := encodeAll(want)

	got, valid, err := scanWAL(data)
	if err != nil {
		t.Fatalf("scanWAL: %v", err)
	}
	if valid != len(data) {
		t.Fatalf("valid = %d, want %d", valid, len(data))
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d records, want %d", len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if g.kind != w.kind || g.epoch != w.epoch {
			t.Fatalf("record %d: kind/epoch = %d/%d, want %d/%d", i, g.kind, g.epoch, w.kind, w.epoch)
		}
		if len(g.adds) != len(w.adds) || len(g.dels) != len(w.dels) {
			t.Fatalf("record %d: %d adds %d dels, want %d/%d", i, len(g.adds), len(g.dels), len(w.adds), len(w.dels))
		}
		for j := range w.adds {
			if g.adds[j] != w.adds[j] {
				t.Fatalf("record %d add %d: %v, want %v", i, j, g.adds[j], w.adds[j])
			}
		}
		for j := range w.dels {
			if g.dels[j] != w.dels[j] {
				t.Fatalf("record %d del %d: %v, want %v", i, j, g.dels[j], w.dels[j])
			}
		}
	}
}

// TestScanWALTornAtEveryByte truncates an encoded stream at every byte
// position: each cut must decode exactly the records whose frames end
// at or before it, report the torn tail, and hand back the byte length
// of the intact prefix.
func TestScanWALTornAtEveryByte(t *testing.T) {
	data := encodeAll(sampleRecords())
	bounds := frameBounds(t, data)

	for cut := 0; cut <= len(data); cut++ {
		recs, valid, err := scanWAL(data[:cut])
		wantRecs := 0
		for _, b := range bounds[1:] {
			if b <= cut {
				wantRecs++
			}
		}
		if len(recs) != wantRecs {
			t.Fatalf("cut %d: decoded %d records, want %d", cut, len(recs), wantRecs)
		}
		if valid != bounds[wantRecs] {
			t.Fatalf("cut %d: valid = %d, want %d", cut, valid, bounds[wantRecs])
		}
		atBoundary := cut == bounds[wantRecs]
		if atBoundary && err != nil {
			t.Fatalf("cut %d (clean boundary): err = %v", cut, err)
		}
		if !atBoundary && !errors.Is(err, errTornTail) {
			t.Fatalf("cut %d: err = %v, want torn tail", cut, err)
		}
	}
}

func TestScanWALCRCMismatch(t *testing.T) {
	data := encodeAll(sampleRecords())
	bounds := frameBounds(t, data)

	// Flip one payload byte of the second record: scanning stops there,
	// keeps record one, and reports a (truncatable) torn tail.
	corrupt := bytes.Clone(data)
	corrupt[bounds[1]+wirefmt.FrameHeader] ^= 0xff
	recs, valid, err := scanWAL(corrupt)
	if len(recs) != 1 || valid != bounds[1] {
		t.Fatalf("recs = %d, valid = %d; want 1, %d", len(recs), valid, bounds[1])
	}
	if !errors.Is(err, errTornTail) {
		t.Fatalf("err = %v, want torn tail", err)
	}
}

// TestScanWALMalformedPayload builds a record whose CRC is valid but
// whose payload lies about its edge counts: that is corruption no
// truncation should silently absorb.
func TestScanWALMalformedPayload(t *testing.T) {
	var d durability
	d.encodeRecord(recUpdate, 1, []graph.Edge{{Src: 0, Dst: 1}}, nil)
	// Rewrite the payload's nAdds to 2 and re-CRC so only decodeRecord
	// can object.
	buf := bytes.Clone(d.buf)
	payload := buf[wirefmt.FrameHeader:]
	payload[9] = 2
	reCRC(buf)
	_, _, err := scanWAL(buf)
	if err == nil || errors.Is(err, errTornTail) {
		t.Fatalf("err = %v, want a non-torn corruption error", err)
	}

	// Same for an unknown record kind.
	d.encodeRecord(recUpdate, 1, nil, nil)
	buf = bytes.Clone(d.buf)
	buf[wirefmt.FrameHeader] = 99
	reCRC(buf)
	_, _, err = scanWAL(buf)
	if err == nil || errors.Is(err, errTornTail) {
		t.Fatalf("unknown kind: err = %v, want a non-torn corruption error", err)
	}
}

// frameBounds returns the cumulative frame end offsets of a valid
// stream, starting with 0.
func frameBounds(t *testing.T, data []byte) []int {
	t.Helper()
	bounds := []int{0}
	off := 0
	for off < len(data) {
		plen := int(uint32(data[off]) | uint32(data[off+1])<<8 | uint32(data[off+2])<<16 | uint32(data[off+3])<<24)
		off += wirefmt.FrameHeader + plen
		bounds = append(bounds, off)
	}
	if off != len(data) {
		t.Fatalf("stream does not end on a frame boundary")
	}
	return bounds
}

// reCRC recomputes a single frame's CRC in place after test tampering.
func reCRC(frame []byte) { wirefmt.EndFrame(frame) }
