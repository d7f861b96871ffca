package wirefmt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"slices"
)

const (
	// FrameHeader is the size of the length + CRC prefix.
	FrameHeader = 8
	// MaxPayload is the largest payload any reader accepts. The length
	// prefix alone never sizes an allocation (see ReadFrame), so the
	// bound only rejects the implausible.
	MaxPayload = 1 << 30
	// FrameChunk is the step in which ReadFrame grows a payload buffer,
	// graph.ReadBinary's discipline: memory follows the bytes that
	// actually arrived, so a header claiming a gigabyte with nothing
	// behind it costs one chunk, not the gigabyte.
	FrameChunk = 64 << 10
)

// ErrCorrupt marks a frame whose length is out of bounds or whose
// checksum is wrong: whatever follows it cannot be trusted.
var ErrCorrupt = errors.New("wirefmt: corrupt frame")

// ErrTorn marks a buffer that ends inside a frame — what an interrupted
// append leaves behind. ReadFrame reports the same condition as the
// stream's own io.EOF / io.ErrUnexpectedEOF.
var ErrTorn = errors.New("wirefmt: torn frame")

// castagnoli is the CRC32-C table behind every checksum in the
// repository (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// NewHash returns a running CRC32-C for content too large to frame in
// memory: the snapshot file's trailer and the store's state checksum.
func NewHash() hash.Hash32 { return crc32.New(castagnoli) }

// BeginFrame appends a frame header placeholder to dst. The caller
// appends the payload and seals the frame with EndFrame, so a payload
// is encoded once, straight into the buffer that is written out.
func BeginFrame(dst []byte) []byte { return append(dst, 0, 0, 0, 0, 0, 0, 0, 0) }

// EndFrame patches the header at the start of frame — the buffer from
// BeginFrame's placeholder on: everything after it is the payload —
// and returns frame, sealed.
func EndFrame(frame []byte) []byte {
	payload := frame[FrameHeader:]
	binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(payload, castagnoli))
	return frame
}

// frameHeader decodes a header and bounds its claimed payload length.
func frameHeader(hdr []byte, minPayload, maxPayload uint32) (length, sum uint32, err error) {
	length = binary.LittleEndian.Uint32(hdr)
	sum = binary.LittleEndian.Uint32(hdr[4:])
	if length < minPayload || length > maxPayload {
		return 0, 0, fmt.Errorf("%w: payload length %d outside [%d, %d]", ErrCorrupt, length, minPayload, maxPayload)
	}
	return length, sum, nil
}

func verify(payload []byte, sum uint32) error {
	if got := crc32.Checksum(payload, castagnoli); got != sum {
		return fmt.Errorf("%w: checksum %08x, header says %08x", ErrCorrupt, got, sum)
	}
	return nil
}

// ReadFrame reads one frame whose payload length lies in [minPayload,
// maxPayload] from r and returns the verified payload, freshly
// allocated and safe to retain. It is ReadFrameInto with no buffer to
// reuse.
func ReadFrame(r io.Reader, minPayload, maxPayload uint32) ([]byte, error) {
	return ReadFrameInto(nil, r, minPayload, maxPayload)
}

// ReadFrameInto reads one frame like ReadFrame, appending the verified
// payload to dst and returning the extended slice, so a caller that
// passes a recycled buffer's [:0] reads into its storage. The payload
// aliases that storage: it is the caller's to retain or recycle, and
// nothing but bytes read from r ever lands in it. A stream that ends
// early surfaces as its io error (io.EOF only on a frame boundary); a
// bad length or checksum as ErrCorrupt. The payload is read in
// FrameChunk steps, so past dst's spare capacity the buffer never runs
// more than one chunk (amortised: a factor of two) ahead of the bytes
// received, whatever the header claims.
func ReadFrameInto(dst []byte, r io.Reader, minPayload, maxPayload uint32) ([]byte, error) {
	var hdr [FrameHeader]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	length, sum, err := frameHeader(hdr[:], minPayload, maxPayload)
	if err != nil {
		return nil, err
	}
	start := len(dst)
	for len(dst)-start < int(length) {
		c := min(int(length)-(len(dst)-start), FrameChunk)
		dst = slices.Grow(dst, c)[:len(dst)+c]
		if _, err := io.ReadFull(r, dst[len(dst)-c:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF // the header promised more
			}
			return nil, err
		}
	}
	if err := verify(dst[start:], sum); err != nil {
		return nil, err
	}
	return dst, nil
}

// ScanFrame parses the frame at the start of buf under the same rules
// as ReadFrame. It returns the verified payload (aliasing buf) and the
// frame's total size, ErrTorn when buf ends before the frame does, or
// ErrCorrupt for a bad length or checksum.
func ScanFrame(buf []byte, minPayload, maxPayload uint32) (payload []byte, n int, err error) {
	if len(buf) < FrameHeader {
		return nil, 0, fmt.Errorf("%w: %d-byte partial header", ErrTorn, len(buf))
	}
	length, sum, err := frameHeader(buf, minPayload, maxPayload)
	if err != nil {
		return nil, 0, err
	}
	n = FrameHeader + int(length)
	if len(buf) < n {
		return nil, 0, fmt.Errorf("%w: %d payload bytes of %d", ErrTorn, len(buf)-FrameHeader, length)
	}
	payload = buf[FrameHeader:n]
	if err := verify(payload, sum); err != nil {
		return nil, 0, err
	}
	return payload, n, nil
}
