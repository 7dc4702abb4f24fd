package segstore

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// refBitWriter is the byte-at-a-time writer that bitWriter replaced, kept
// as the reference the word-at-a-time writer must match byte for byte.
type refBitWriter struct {
	b     []byte
	nbits uint
}

func (w *refBitWriter) writeBits(v uint64, n uint) {
	for n > 0 {
		if w.nbits%8 == 0 {
			w.b = append(w.b, 0)
		}
		free := 8 - w.nbits%8
		take := n
		if take > free {
			take = free
		}
		chunk := byte((v >> (n - take)) & ((1 << take) - 1))
		w.b[len(w.b)-1] |= chunk << (free - take)
		w.nbits += take
		n -= take
	}
}

// compareBitWriters writes ops with both writers and fails unless their
// bytes agree. Each op is 9 bytes: a width (mod 65) and a big-endian
// value whose bits above the width must be ignored; a short tail op
// writes one bit.
func compareBitWriters(t *testing.T, ops []byte) {
	t.Helper()
	var got bitWriter
	var want refBitWriter
	for len(ops) > 0 {
		n, v := uint(1), uint64(ops[0])
		if len(ops) >= 9 {
			n, v = uint(ops[0])%65, binary.BigEndian.Uint64(ops[1:9])
			ops = ops[9:]
		} else {
			ops = ops[1:]
		}
		if n == 1 {
			got.writeBit(v)
		} else {
			got.writeBits(v, n)
		}
		want.writeBits(v, n)
	}
	if g := got.bytes(); !bytes.Equal(g, want.b) {
		t.Fatalf("writer produced %x, reference %x", g, want.b)
	}
}

// TestBitWriterMatchesReference drives both writers with random widths,
// including 0 and 64, and values with stray high bits.
func TestBitWriterMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 2000; trial++ {
		ops := make([]byte, rng.Intn(300))
		rng.Read(ops)
		for i := 0; i+9 <= len(ops); i += 9 {
			ops[i] = byte(rng.Intn(65))
		}
		compareBitWriters(t, ops)
	}
}

// FuzzBitWriter compares the word-at-a-time writer with the reference on
// arbitrary write sequences.
func FuzzBitWriter(f *testing.F) {
	f.Add([]byte{64, 0xde, 0xad, 0xbe, 0xef, 1, 2, 3, 4, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0x80})
	f.Add([]byte{63, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 5, 0, 0, 0, 0, 0, 0, 0, 0x1f})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, ops []byte) {
		compareBitWriters(t, ops)
	})
}

// refBitReader is the bit-at-a-time reader that bitReader replaced, kept
// as the reference the word-at-a-time reader must match exactly.
type refBitReader struct {
	b   []byte
	pos uint
}

func (r *refBitReader) readBits(n uint) (uint64, error) {
	if r.pos+n > uint(len(r.b))*8 {
		return 0, errBitUnderflow
	}
	var v uint64
	for n > 0 {
		byteIdx := r.pos / 8
		avail := 8 - r.pos%8
		take := n
		if take > avail {
			take = avail
		}
		chunk := (r.b[byteIdx] >> (avail - take)) & ((1 << take) - 1)
		v = v<<take | uint64(chunk)
		r.pos += take
		n -= take
	}
	return v, nil
}

// compareBitReaders reads data with both readers, one width per call
// (each taken mod 65), and fails at the first value, error or position
// where they differ.
func compareBitReaders(t *testing.T, data, widths []byte) {
	t.Helper()
	got, want := bitReader{b: data}, refBitReader{b: data}
	for i, w := range widths {
		n := uint(w) % 65
		gv, gerr := got.readBits(n)
		wv, werr := want.readBits(n)
		if gv != wv || gerr != werr || got.pos != want.pos {
			t.Fatalf("read %d (%d bits at bit %d of %d): got %#x, %v, pos %d; reference %#x, %v, pos %d",
				i, n, want.pos, 8*len(data), gv, gerr, got.pos, wv, werr, want.pos)
		}
	}
}

// TestBitReaderMatchesReference drives both readers over random
// bitstreams with random read widths, including 0 and 64, reads that
// straddle the 8-byte window and reads past the end.
func TestBitReaderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 2000; trial++ {
		data := make([]byte, rng.Intn(40))
		rng.Read(data)
		widths := make([]byte, rng.Intn(64))
		for i := range widths {
			widths[i] = byte(rng.Intn(65))
		}
		compareBitReaders(t, data, widths)
	}
}

// FuzzBitReader compares the word-at-a-time reader with the reference on
// arbitrary bitstreams and read widths.
func FuzzBitReader(f *testing.F) {
	f.Add([]byte{0xde, 0xad, 0xbe, 0xef, 1, 2, 3, 4, 5, 6, 7, 8, 9}, []byte{3, 64, 1, 63, 7, 0, 64})
	f.Add([]byte{}, []byte{0, 1})
	f.Fuzz(func(t *testing.T, data, widths []byte) {
		compareBitReaders(t, data, widths)
	})
}
