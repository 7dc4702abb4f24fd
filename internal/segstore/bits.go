package segstore

import (
	"encoding/binary"
	"errors"
)

// bitWriter appends bits MSB-first into a byte slice. It gathers them in
// a 64-bit word and appends whole words; bytes pads the last partial byte
// with zero bits. It backs the XOR float compressor; the write path never
// fails.
type bitWriter struct {
	b    []byte
	acc  uint64 // pending bits, from the top down
	nacc uint   // pending bit count, < 64
}

// writeBit appends one bit (the low bit of v).
func (w *bitWriter) writeBit(v uint64) { w.writeBits(v&1, 1) }

// writeBits appends the low n bits of v, most significant first. n <= 64.
func (w *bitWriter) writeBits(v uint64, n uint) {
	v &= 1<<n - 1 // Go shifts of 64 or more give 0, so n == 64 keeps v whole
	free := 64 - w.nacc
	if n < free {
		w.acc |= v << (free - n)
		w.nacc += n
		return
	}
	// v fills the word: append it, and keep the n-free bits left over.
	w.b = binary.BigEndian.AppendUint64(w.b, w.acc|v>>(n-free))
	w.nacc = n - free
	w.acc = v << (64 - w.nacc)
}

// bytes returns everything written, the last byte zero-padded.
func (w *bitWriter) bytes() []byte {
	for i := uint(0); i < w.nacc; i += 8 {
		w.b = append(w.b, byte(w.acc>>(56-i)))
	}
	w.acc, w.nacc = 0, 0
	return w.b
}

// errBitUnderflow reports a bitstream read past its end — a corrupt or
// truncated tap block.
var errBitUnderflow = errors.New("segstore: bitstream underflow")

// bitReader consumes bits MSB-first from a byte slice.
type bitReader struct {
	b   []byte
	pos uint // bits consumed so far
}

// readBits returns the next n bits as the low bits of a uint64. n <= 64.
// It loads the big-endian 64-bit window at the current byte and, when the
// n bits straddle its end, the top bits of the byte after it.
func (r *bitReader) readBits(n uint) (uint64, error) {
	if r.pos+n > uint(len(r.b))*8 {
		return 0, errBitUnderflow
	}
	i, shift := r.pos/8, r.pos%8
	var w uint64
	if i+8 <= uint(len(r.b)) {
		w = binary.BigEndian.Uint64(r.b[i:])
		if shift+n > 64 {
			// The bounds check above guarantees byte i+8 exists.
			w = w<<shift | uint64(r.b[i+8])>>(8-shift)
			shift = 0
		}
	} else {
		// Fewer than 8 bytes left: the n bits end inside them.
		for j, c := range r.b[i:] {
			w |= uint64(c) << (56 - 8*uint(j))
		}
	}
	r.pos += n
	return w << shift >> (64 - n), nil
}
