package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
)

// ReadEdgeList parses a whitespace-separated edge list ("src dst" per
// line). Lines starting with '#' or '%' are comments. Vertex ids must be
// non-negative integers; the graph size is the max id + 1.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	b := NewBuilder(0)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || line[0] == '%' {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: line %d: want 2 fields, got %d", lineNo, len(fields))
		}
		src, err := strconv.ParseUint(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad src %q: %v", lineNo, fields[0], err)
		}
		dst, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad dst %q: %v", lineNo, fields[1], err)
		}
		b.AddEdge(VertexID(src), VertexID(dst))
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: scanning edge list: %w", err)
	}
	return b.Build(), nil
}

// WriteEdgeList writes the graph as a plain edge list, one "src dst" pair
// per line.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	var err error
	g.Edges(func(src, dst VertexID) bool {
		_, err = fmt.Fprintf(bw, "%d %d\n", src, dst)
		return err == nil
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}

// binaryMagic identifies the binary graph format.
var binaryMagic = [8]byte{'H', 'C', 'G', 'R', 'A', 'P', 'H', '1'}

// writeChunkBytes is the size of WriteBinary's one buffer.
const writeChunkBytes = 1 << 16

// WriteBinary writes the CSR arrays in a compact little-endian binary
// format: magic, n (uint64), m (uint64), offsets (n+1 × int64),
// targets (m × uint32). An overlay graph writes as its folded CSR,
// streamed row by row: memory stays one writeChunkBytes buffer whatever
// the graph's size.
func WriteBinary(w io.Writer, g *Graph) error {
	n := g.NumVertices()
	buf := make([]byte, 0, writeChunkBytes)
	var err error
	// room flushes buf when it cannot take k more bytes; the first
	// error latches and later chunks are dropped.
	room := func(k int) {
		if len(buf)+k > cap(buf) {
			if err == nil {
				_, err = w.Write(buf)
			}
			buf = buf[:0]
		}
	}
	buf = append(buf, binaryMagic[:]...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(n))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(g.NumEdges()))
	buf = binary.LittleEndian.AppendUint64(buf, 0) // offsets[0]
	off := uint64(0)
	for v := 0; v < n && err == nil; v++ {
		room(8)
		off += uint64(g.OutDegree(VertexID(v)))
		buf = binary.LittleEndian.AppendUint64(buf, off)
	}
	for v := 0; v < n && err == nil; v++ {
		for _, t := range g.OutNeighbors(VertexID(v)) {
			room(4)
			buf = binary.LittleEndian.AppendUint32(buf, t)
		}
	}
	if err == nil {
		_, err = w.Write(buf)
	}
	return err
}

// readChunkEntries bounds how many array entries ReadBinary requests at
// a time, so a corrupt header cannot drive a multi-gigabyte allocation:
// storage grows only as data actually arrives, and a truncated stream
// fails after at most one chunk of over-allocation.
const readChunkEntries = 1 << 15

// ReadBinary reads a graph written by WriteBinary and validates it. The
// input is untrusted: the arrays are read incrementally in bounded
// chunks, offsets are checked for monotonicity (and against the header's
// edge count) and target ids for range as they stream in, and the header
// sizes are cross-checked against the data actually present. Corrupt or
// truncated input returns an error; it never panics or allocates
// header-proportional memory up front.
func ReadBinary(r io.Reader) (*Graph, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("graph: reading magic: %w", err)
	}
	if magic != binaryMagic {
		return nil, fmt.Errorf("graph: bad magic %q", magic[:])
	}
	var hdr [2]uint64
	if err := binary.Read(br, binary.LittleEndian, hdr[:]); err != nil {
		return nil, fmt.Errorf("graph: reading header: %w", err)
	}
	const maxReasonable = 1 << 33
	if hdr[0] > maxReasonable || hdr[1] > maxReasonable ||
		hdr[0]+1 > uint64(math.MaxInt) || hdr[1] > uint64(math.MaxInt) {
		// The MaxInt guards keep the int conversions below exact on
		// 32-bit builds, where 2^31 ≤ n ≤ 2^33 would wrap negative.
		return nil, fmt.Errorf("graph: implausible sizes n=%d m=%d", hdr[0], hdr[1])
	}
	n, m := int(hdr[0]), int(hdr[1])

	offsets := make([]int64, 0, min(n+1, readChunkEntries))
	obuf := make([]int64, min(n+1, readChunkEntries))
	prev := int64(0)
	for len(offsets) < n+1 {
		c := min(n+1-len(offsets), readChunkEntries)
		if err := binary.Read(br, binary.LittleEndian, obuf[:c]); err != nil {
			return nil, fmt.Errorf("graph: reading offsets (%d of %d): %w", len(offsets), n+1, err)
		}
		for i, o := range obuf[:c] {
			switch {
			case len(offsets) == 0 && i == 0:
				if o != 0 {
					return nil, fmt.Errorf("graph: offsets[0] = %d, want 0", o)
				}
			case o < prev:
				return nil, fmt.Errorf("graph: offsets not monotone at index %d (%d < %d)", len(offsets)+i, o, prev)
			}
			if o > int64(m) {
				return nil, fmt.Errorf("graph: offset %d exceeds edge count %d", o, m)
			}
			prev = o
		}
		offsets = append(offsets, obuf[:c]...)
	}
	if offsets[n] != int64(m) {
		return nil, fmt.Errorf("graph: offsets[n] = %d, want %d", offsets[n], m)
	}

	targets := make([]VertexID, 0, min(m, readChunkEntries))
	tbuf := make([]VertexID, min(m, readChunkEntries))
	for len(targets) < m {
		c := min(m-len(targets), readChunkEntries)
		if err := binary.Read(br, binary.LittleEndian, tbuf[:c]); err != nil {
			return nil, fmt.Errorf("graph: reading targets (%d of %d): %w", len(targets), m, err)
		}
		for i, w := range tbuf[:c] {
			if int(w) >= n {
				return nil, fmt.Errorf("graph: target %d out of range at index %d (n=%d)", w, len(targets)+i, n)
			}
		}
		targets = append(targets, tbuf[:c]...)
	}

	g := &Graph{offsets: offsets, targets: targets}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// LoadFile loads a graph from a path, choosing the format by extension:
// ".bin" uses the binary format, anything else is parsed as an edge list.
func LoadFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".bin") {
		return ReadBinary(f)
	}
	return ReadEdgeList(f)
}

// SaveFile writes a graph to a path, choosing the format by extension as
// in LoadFile.
func SaveFile(path string, g *Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".bin") {
		return WriteBinary(f, g)
	}
	return WriteEdgeList(f, g)
}
