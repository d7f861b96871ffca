package shard

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"testing"

	"repro/internal/query"
	"repro/internal/service"
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
