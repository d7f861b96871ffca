package scratch

import (
	"math"
	"testing"
)

// TestGetSizesAndRecycles: an entry serves any graph no larger than
// itself and is replaced, not indexed out of range, by a larger one.
func TestGetSizesAndRecycles(t *testing.T) {
	s := Get(100)
	if len(s.OnPath) < 100 || len(s.MemoVal) < 100 || len(s.MemoGen) < 100 {
		t.Fatalf("Get(100) returned arrays of %d/%d/%d", len(s.OnPath), len(s.MemoVal), len(s.MemoGen))
	}
	Put(s)
	if big := Get(1000); len(big.OnPath) < 1000 {
		t.Fatalf("Get(1000) after Put(100) returned %d entries", len(big.OnPath))
	}
}

// TestNextGenWrapClearsStamps: when the generation counter wraps, a
// stamp left by an earlier generation must not read as current.
func TestNextGenWrapClearsStamps(t *testing.T) {
	s := Get(4)
	gen := s.NextGen()
	s.MemoGen[2], s.MemoVal[2] = gen, 7
	if next := s.NextGen(); next == gen {
		t.Fatalf("NextGen returned %d twice", gen)
	}

	s.gen = math.MaxInt32 - 1
	last := s.NextGen() // MaxInt32
	s.MemoGen[1] = last
	s.MemoGen[3] = 1 // a stale stamp equal to the first post-wrap generation
	wrapped := s.NextGen()
	if wrapped <= 0 {
		t.Fatalf("generation wrapped to %d", wrapped)
	}
	for v, g := range s.MemoGen {
		if g == wrapped {
			t.Fatalf("vertex %d still carries stamp %d after the wrap", v, g)
		}
	}
}
