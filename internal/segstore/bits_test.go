package segstore

import (
	"math/rand"
	"testing"
)

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
