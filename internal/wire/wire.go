// Package wire is the one binary idiom every hand-written format in this
// tree is built from: big-endian fixed-width integers, float64 as its
// IEEE-754 bits, and byte strings behind a uint32 length. Encoders append
// to a []byte; decoders read through a Reader whose first short read
// sticks, so a decoder is a straight run of gets and one error check at
// the end.
//
// The package holds no format of its own — checkpoint sections (fastq,
// dht, overlap, ckpt), the serve frontend messages and spmd's control
// payloads each define theirs from these pieces.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ErrTruncated is wrapped by every Reader error caused by the input ending
// before the value being read does.
var ErrTruncated = errors.New("truncated")

// U8 appends one byte.
func U8(b []byte, v uint8) []byte { return append(b, v) }

// U16 appends v big-endian.
func U16(b []byte, v uint16) []byte { return binary.BigEndian.AppendUint16(b, v) }

// U32 appends v big-endian.
func U32(b []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(b, v) }

// U64 appends v big-endian.
func U64(b []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(b, v) }

// F64 appends v's IEEE-754 bits big-endian (bit-exact, NaNs included).
func F64(b []byte, v float64) []byte { return U64(b, math.Float64bits(v)) }

// Bytes appends s behind its uint32 length. It panics on a string of 4 GiB
// or more: no caller frames one, and a silently wrapped length would
// corrupt everything after it.
func Bytes[S string | []byte](b []byte, s S) []byte {
	if uint64(len(s)) > math.MaxUint32 {
		panic(fmt.Sprintf("wire: %d-byte string exceeds the uint32 length prefix", len(s)))
	}
	return append(U32(b, uint32(len(s))), s...)
}

// Reader decodes a buffer front to back. The first read the remaining
// bytes cannot satisfy records an error wrapping ErrTruncated; from then
// on every get returns zero and Finish reports that first error.
type Reader struct {
	b   []byte
	n   int // len(b) at construction, for error offsets
	err error
}

// NewReader returns a Reader over b. Take and Bytes alias b.
func NewReader(b []byte) *Reader { return &Reader{b: b, n: len(b)} }

// Fail records err as the Reader's error unless one is already set, for
// decoders that reject a well-framed but invalid value mid-stream.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err, r.b = err, nil
	}
}

// Take returns the next n bytes, aliasing the input.
func (r *Reader) Take(n uint64) []byte {
	if n > uint64(len(r.b)) {
		r.Fail(fmt.Errorf("%w at byte %d: need %d bytes, %d remain", ErrTruncated, r.n-len(r.b), n, len(r.b)))
		return nil
	}
	out := r.b[:n:n]
	r.b = r.b[n:]
	return out
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	if b := r.Take(1); b != nil {
		return b[0]
	}
	return 0
}

// U16 reads a big-endian uint16.
func (r *Reader) U16() uint16 {
	if b := r.Take(2); b != nil {
		return binary.BigEndian.Uint16(b)
	}
	return 0
}

// U32 reads a big-endian uint32.
func (r *Reader) U32() uint32 {
	if b := r.Take(4); b != nil {
		return binary.BigEndian.Uint32(b)
	}
	return 0
}

// U64 reads a big-endian uint64.
func (r *Reader) U64() uint64 {
	if b := r.Take(8); b != nil {
		return binary.BigEndian.Uint64(b)
	}
	return 0
}

// F64 reads a float64 from its big-endian IEEE-754 bits.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Bytes reads a uint32-length-prefixed byte string, aliasing the input.
func (r *Reader) Bytes() []byte { return r.Take(uint64(r.U32())) }

// String reads a uint32-length-prefixed byte string as a string.
func (r *Reader) String() string { return string(r.Bytes()) }

// Count validates an element count read from the input: count elements of
// at least minElemSize bytes each must fit in the unread bytes, so a
// corrupt count is refused before it sizes an allocation. It returns the
// count as an int, 0 after an error.
func (r *Reader) Count(count uint64, minElemSize int) int {
	if r.err != nil {
		return 0
	}
	if count > uint64(len(r.b))/uint64(minElemSize) {
		r.Fail(fmt.Errorf("%w at byte %d: %d elements of at least %d bytes declared, %d bytes remain",
			ErrTruncated, r.n-len(r.b), count, minElemSize, len(r.b)))
		return 0
	}
	return int(count)
}

// Finish returns the Reader's error, or an error if unread bytes remain:
// a blob either decodes exactly or is rejected.
func (r *Reader) Finish() error {
	if r.err == nil && len(r.b) != 0 {
		return fmt.Errorf("%d trailing bytes", len(r.b))
	}
	return r.err
}
