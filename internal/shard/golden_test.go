package shard

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"testing"

	"repro/internal/graph"
	"repro/internal/query"
	"repro/internal/service"
	"repro/internal/timing"
	"repro/internal/wirefmt"
)

// TestGoldenWireFrames pins the bytes of two request frames as the
// PR 17 encoder (e1ba563) produced them — frame header, message header
// and body — so a refactor of the frame layer cannot silently change
// what crosses the wire. Never regenerate the hex from the code.
func TestGoldenWireFrames(t *testing.T) {
	submit := wirefmt.AppendString(nil, "tenant-a")
	submit = wirefmt.AppendBool(submit, true)
	submit = service.AppendQueryWire(submit, query.Query{S: 3, T: 0xAABBCCDD, K: 5})

	// An update batch: two adds (1→2, 7→0), no deletes; each list is a
	// u32 count followed by (src, dst) u32 pairs.
	var update []byte
	for _, v := range []uint32{2, 1, 2, 7, 0, 0} {
		update = wirefmt.AppendU32(update, v)
	}

	cases := []struct {
		name string
		typ  byte
		id   uint64
		body []byte
		want string
	}{
		{"submit", mtSubmit, 42, submit,
			"25000000d30275d6022a00000000000000080074656e616e742d6101000000000000000003000000ddccbbaa05"},
		{"applyUpdates", mtApplyUpdates, 1<<40 + 9, update,
			"210000009459bc16050900000000010000020000000100000002000000070000000000000000000000"},
	}
	for _, c := range cases {
		frame := appendFrame(nil, c.typ, c.id, c.body)
		if got := hex.EncodeToString(frame); got != c.want {
			t.Errorf("%s frame:\n got %s\nwant %s", c.name, got, c.want)
		}
		golden, _ := hex.DecodeString(c.want)
		typ, id, body, err := readFrame(bufio.NewReader(bytes.NewReader(golden)), 1<<20)
		if err != nil || typ != c.typ || id != c.id || !bytes.Equal(body, c.body) {
			t.Errorf("%s golden bytes read back as (%#x, %d, %x, %v)", c.name, typ, id, body, err)
		}
	}
}

// TestGoldenReplyBody pins the hcp4 reply body — what a worker sends for
// every query — with every BatchStats field distinct and two paths. The
// hex is written out field by field from the layout, never from the
// encoder: all integers little-endian, i64 unless noted.
func TestGoldenReplyBody(t *testing.T) {
	var ph timing.Breakdown
	ph.Add(timing.BuildIndex, 11)
	ph.Add(timing.ClusterQuery, 12)
	ph.Add(timing.IdentifySubquery, 13)
	ph.Add(timing.Enumeration, 14)
	rep := &service.Reply{
		Count: 2, Truncated: true, Err: query.ErrLimitReached,
		Batch: service.BatchStats{
			Queries: 1, Groups: 2, SharedQueries: 3, SplicedPaths: 4, Paths: 5,
			WaitNanos: 6, EnumerateNanos: 7, IndexHits: 8, IndexMisses: 9, Truncated: 10,
			Phases: ph,
		},
	}
	rep.Paths.Add([]graph.VertexID{1, 2, 3})
	rep.Paths.Add([]graph.VertexID{1, 0xAABBCCDD})

	want := "0200000000000000" + // Count
		"01" + // Truncated (u8)
		"01" + // error code (u8): limit reached
		"0100000000000000" + // Batch.Queries
		"0200000000000000" + // Batch.Groups
		"0300000000000000" + // Batch.SharedQueries
		"0400000000000000" + // Batch.SplicedPaths
		"0500000000000000" + // Batch.Paths
		"0600000000000000" + // Batch.WaitNanos
		"0700000000000000" + // Batch.EnumerateNanos
		"0800000000000000" + // Batch.IndexHits
		"0900000000000000" + // Batch.IndexMisses
		"0a00000000000000" + // Batch.Truncated
		"0b00000000000000" + // phase: index
		"0c00000000000000" + // phase: cluster
		"0d00000000000000" + // phase: detect
		"0e00000000000000" + // phase: enumerate
		"02000000" + // path count (u32)
		"0300" + "01000000" + "02000000" + "03000000" + // u16 length, u32 vertices
		"0200" + "01000000" + "ddccbbaa"
	if got := hex.EncodeToString(service.AppendReplyWire(nil, rep)); got != want {
		t.Errorf("reply body:\n got %s\nwant %s", got, want)
	}
	golden, _ := hex.DecodeString(want)
	r := wirefmt.NewReader(golden)
	back := service.ReadReplyWire(r)
	if err := r.Close(); err != nil || back.Count != rep.Count || !back.Truncated || back.Batch != rep.Batch || !sameStore(&back.Paths, &rep.Paths) {
		t.Errorf("golden reply body read back as %+v (%v)", back, err)
	}
}
