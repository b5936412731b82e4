package wire

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

// sample is one of everything, with the values a round trip must preserve.
func sample() []byte {
	b := U8(nil, 0xAB)
	b = U16(b, 0xD1BE)
	b = U32(b, 0xDEADBEEF)
	b = U64(b, 1<<63|42)
	b = F64(b, math.Copysign(0, -1))
	b = Bytes(b, "name")
	b = Bytes(b, []byte{})
	return append(b, 7, 8, 9)
}

func TestRoundTrip(t *testing.T) {
	r := NewReader(sample())
	if v := r.U8(); v != 0xAB {
		t.Errorf("U8 = %#x", v)
	}
	if v := r.U16(); v != 0xD1BE {
		t.Errorf("U16 = %#x", v)
	}
	if v := r.U32(); v != 0xDEADBEEF {
		t.Errorf("U32 = %#x", v)
	}
	if v := r.U64(); v != 1<<63|42 {
		t.Errorf("U64 = %#x", v)
	}
	if v := r.F64(); math.Float64bits(v) != 1<<63 {
		t.Errorf("F64 = %v, want -0", v)
	}
	if v := r.String(); v != "name" {
		t.Errorf("String = %q", v)
	}
	if v := r.Bytes(); len(v) != 0 {
		t.Errorf("empty Bytes = %v", v)
	}
	if err := r.Finish(); err == nil {
		t.Error("Finish accepted 3 trailing bytes")
	}
	if v := r.Take(3); !bytes.Equal(v, []byte{7, 8, 9}) {
		t.Errorf("Take = %v", v)
	}
	if err := r.Finish(); err != nil {
		t.Errorf("Finish after the last byte: %v", err)
	}
}

// TestTruncationSticks cuts the sample at every length: the reads past the
// cut return zero, the error wraps ErrTruncated and names where the input
// ended, and nothing after the first failure changes it.
func TestTruncationSticks(t *testing.T) {
	full := sample()
	for cut := 0; cut < len(full); cut++ {
		r := NewReader(full[:cut])
		r.U8()
		r.U16()
		r.U32()
		r.U64()
		r.F64()
		_ = r.String()
		r.Bytes()
		r.Take(3)
		first := r.Finish()
		if !errors.Is(first, ErrTruncated) {
			t.Fatalf("cut %d: err = %v, want ErrTruncated", cut, first)
		}
		if r.U64() != 0 || r.Bytes() != nil || r.Count(1, 1) != 0 {
			t.Errorf("cut %d: a get after the failure returned data", cut)
		}
		r.Fail(errors.New("later"))
		if err := r.Finish(); err != first {
			t.Errorf("cut %d: error changed from %v to %v", cut, first, err)
		}
	}
}

func TestCountRefusesWhatCannotFit(t *testing.T) {
	r := NewReader(make([]byte, 24))
	if n := r.Count(3, 8); n != 3 {
		t.Errorf("Count(3, 8) over 24 bytes = %d", n)
	}
	if n := r.Count(4, 8); n != 0 || !errors.Is(r.Finish(), ErrTruncated) {
		t.Errorf("Count(4, 8) over 24 bytes = %d, err %v", n, r.Finish())
	}
	// The claim a 4-byte header can make at most.
	r = NewReader(nil)
	if n := r.Count(math.MaxUint64, 1); n != 0 || !errors.Is(r.Finish(), ErrTruncated) {
		t.Errorf("Count(MaxUint64) = %d, err %v", n, r.Finish())
	}
}

func TestFailRejectsAWellFramedValue(t *testing.T) {
	r := NewReader(U32(nil, 99))
	if r.U32() == 99 {
		r.Fail(errors.New("99 is not allowed"))
	}
	if err := r.Finish(); err == nil || errors.Is(err, ErrTruncated) {
		t.Errorf("Finish = %v, want the Fail error", err)
	}
}

// FuzzReader drives the Reader with the input as a program — each op byte
// picks the next get — and re-encodes what it read with the puts: no input
// panics, a count never sizes more elements than there are bytes, and an
// input that decodes cleanly re-encodes to itself.
func FuzzReader(f *testing.F) {
	f.Add(sample())
	f.Add([]byte{5, 0xFF, 0xFF, 0xFF, 0xFF})    // Bytes claiming 4 GiB
	f.Add([]byte{6, 0xFF, 0xFF, 0xFF, 0xFF, 1}) // Count claiming 2^32-1
	f.Add([]byte{6, 0, 0, 0, 1, 0, 0, 0, 9, 0})
	f.Fuzz(func(t *testing.T, in []byte) {
		r := NewReader(in)
		var out []byte
		elems := 0
		for len(r.b) > 0 {
			op := r.U8()
			out = U8(out, op)
			switch op % 8 {
			case 0:
				out = U8(out, r.U8())
			case 1:
				out = U16(out, r.U16())
			case 2:
				out = U32(out, r.U32())
			case 3:
				out = U64(out, r.U64())
			case 4:
				out = F64(out, r.F64())
			case 5:
				out = Bytes(out, r.Bytes())
			case 6:
				vals := make([]uint32, r.Count(uint64(r.U32()), 4))
				elems += len(vals)
				out = U32(out, uint32(len(vals)))
				for i := range vals {
					vals[i] = r.U32()
					out = U32(out, vals[i])
				}
			case 7:
				n := r.U8()
				out = append(U8(out, n), r.Take(uint64(n))...)
			}
		}
		if elems > len(in) {
			t.Fatalf("%d elements sized from %d input bytes", elems, len(in))
		}
		if err := r.Finish(); err == nil && !bytes.Equal(out, in) {
			t.Fatalf("clean decode re-encodes differently:\n in  %x\n out %x", in, out)
		}
	})
}
