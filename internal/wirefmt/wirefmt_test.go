package wirefmt

import (
	"errors"
	"strings"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	var b []byte
	b = AppendU8(b, 0xAB)
	b = AppendU16(b, 0xBEEF)
	b = AppendU32(b, 0xDEADBEEF)
	b = AppendU64(b, 1<<63+5)
	b = AppendI64(b, -42)
	b = AppendBool(b, true)
	b = AppendBool(b, false)
	b = AppendString(b, "héllo")

	r := NewReader(b)
	if v := r.U8(); v != 0xAB {
		t.Errorf("U8 = %#x", v)
	}
	if v := r.U16(); v != 0xBEEF {
		t.Errorf("U16 = %#x", v)
	}
	if v := r.U32(); v != 0xDEADBEEF {
		t.Errorf("U32 = %#x", v)
	}
	if v := r.U64(); v != 1<<63+5 {
		t.Errorf("U64 = %d", v)
	}
	if v := r.I64(); v != -42 {
		t.Errorf("I64 = %d", v)
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool pair mis-decoded")
	}
	if v := r.String(); v != "héllo" {
		t.Errorf("String = %q", v)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestReaderLatchesShort proves the WAL-decoder contract: the first
// out-of-bounds read latches ErrShort, every later read returns zero,
// and no read panics.
func TestReaderLatchesShort(t *testing.T) {
	r := NewReader(AppendU16(nil, 7))
	r.U16()
	if r.U64() != 0 {
		t.Error("read past end returned nonzero")
	}
	if !errors.Is(r.Err(), ErrShort) {
		t.Fatalf("Err() = %v, want ErrShort", r.Err())
	}
	// Still latched: in-bounds-looking reads keep returning zero.
	if r.U8() != 0 || r.String() != "" {
		t.Error("latched reader yielded data")
	}
	if !errors.Is(r.Close(), ErrShort) {
		t.Errorf("Close() = %v, want ErrShort", r.Close())
	}
}

func TestCloseRejectsTrailingBytes(t *testing.T) {
	r := NewReader([]byte{1, 2, 3})
	r.U8()
	if err := r.Close(); err == nil {
		t.Fatal("Close accepted 2 trailing bytes")
	}
}

// TestStringBoundsCheckedBeforeAllocation feeds a length prefix
// claiming more data than the payload holds: the reader must latch
// ErrShort, not allocate the claimed size.
func TestStringBoundsCheckedBeforeAllocation(t *testing.T) {
	r := NewReader(append(AppendU16(nil, 0xFFFF), "short"...))
	if s := r.String(); s != "" {
		t.Fatalf("String returned %d bytes", len(s))
	}
	if !errors.Is(r.Err(), ErrShort) {
		t.Fatalf("Err() = %v, want ErrShort", r.Err())
	}
}

func TestFailLatches(t *testing.T) {
	sentinel := errors.New("bounds check failed")
	r := NewReader(AppendU32(nil, 9))
	r.Fail(sentinel)
	if r.U32() != 0 {
		t.Error("failed reader yielded data")
	}
	if !errors.Is(r.Err(), sentinel) {
		t.Fatalf("Err() = %v, want the sentinel", r.Err())
	}
	// The first latch wins; a later Fail must not overwrite it.
	r.Fail(errors.New("other"))
	if !errors.Is(r.Err(), sentinel) {
		t.Fatalf("Err() = %v after second Fail, want the sentinel", r.Err())
	}
	// Fail(nil) defaults to ErrShort.
	r2 := NewReader(nil)
	r2.Fail(nil)
	if !errors.Is(r2.Err(), ErrShort) {
		t.Fatalf("Fail(nil): Err() = %v, want ErrShort", r2.Err())
	}
}

// TestStringTruncatesAt64K pins the AppendString contract: oversized
// strings are cut at the u16 limit, never silently wrapped.
func TestStringTruncatesAt64K(t *testing.T) {
	in := strings.Repeat("x", 1<<17)
	r := NewReader(AppendString(nil, in))
	got := r.String()
	if len(got) != 1<<16-1 {
		t.Fatalf("decoded %d bytes, want %d", len(got), 1<<16-1)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}
