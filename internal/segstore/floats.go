package segstore

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// Tap blocks are stored under one of two methods, chosen per block by
// whichever is smaller. Both are lossless: the raw method is the IEEE-754
// bits little-endian; the XOR method is Gorilla-style delta-of-bits
// compression, which collapses the smooth runs and zero tails real HRIRs
// are full of to a few bits per tap.
const (
	tapsRaw byte = 0
	tapsXOR byte = 1
)

// xorEncode appends to dst the Gorilla compression of vals: the first
// value is stored verbatim; each subsequent value is XORed with its
// predecessor and the nonzero window of the XOR is bit-packed, reusing the
// previous explicit window when it still covers the bits. It needs at
// most xorBound(len(vals)) bytes.
func xorEncode(dst []byte, vals []float64) []byte {
	if len(vals) == 0 {
		return dst
	}
	w := bitWriter{b: dst}
	prev := math.Float64bits(vals[0])
	w.writeBits(prev, 64)
	const noWindow = ^uint(0)
	prevLZ, prevTZ := noWindow, uint(0)
	for _, v := range vals[1:] {
		cur := math.Float64bits(v)
		x := cur ^ prev
		prev = cur
		if x == 0 {
			w.writeBit(0)
			continue
		}
		w.writeBit(1)
		lz := uint(bits.LeadingZeros64(x))
		if lz > 31 {
			lz = 31 // 5-bit field; extra leading zeros ride in the window
		}
		tz := uint(bits.TrailingZeros64(x))
		if prevLZ != noWindow && lz >= prevLZ && tz >= prevTZ {
			// Fits the previous explicit window: control bit 0, window bits.
			w.writeBit(0)
			w.writeBits(x>>prevTZ, 64-prevLZ-prevTZ)
		} else {
			// New explicit window: 5 bits leading zeros, 6 bits length-1.
			sig := 64 - lz - tz
			w.writeBit(1)
			w.writeBits(uint64(lz), 5)
			w.writeBits(uint64(sig-1), 6)
			w.writeBits(x>>tz, sig)
			prevLZ, prevTZ = lz, tz
		}
	}
	return w.bytes()
}

// xorDecode reverses xorEncode into dst (whose length fixes the value
// count).
func xorDecode(dst []float64, data []byte) error {
	if len(dst) == 0 {
		return nil
	}
	r := bitReader{b: data}
	first, err := r.readBits(64)
	if err != nil {
		return err
	}
	prev := first
	dst[0] = math.Float64frombits(prev)
	const noWindow = ^uint(0)
	prevLZ, prevTZ := noWindow, uint(0)
	for i := 1; i < len(dst); i++ {
		ctrl, err := r.readBits(1)
		if err != nil {
			return err
		}
		if ctrl == 0 {
			dst[i] = math.Float64frombits(prev)
			continue
		}
		mode, err := r.readBits(1)
		if err != nil {
			return err
		}
		var x uint64
		if mode == 0 {
			if prevLZ == noWindow {
				return fmt.Errorf("segstore: XOR stream reuses a window before defining one")
			}
			v, err := r.readBits(64 - prevLZ - prevTZ)
			if err != nil {
				return err
			}
			x = v << prevTZ
		} else {
			lzBits, err := r.readBits(5)
			if err != nil {
				return err
			}
			sigM1, err := r.readBits(6)
			if err != nil {
				return err
			}
			lz := uint(lzBits)
			sig := uint(sigM1) + 1
			if lz+sig > 64 {
				return fmt.Errorf("segstore: XOR window %d+%d exceeds 64 bits", lz, sig)
			}
			v, err := r.readBits(sig)
			if err != nil {
				return err
			}
			tz := 64 - lz - sig
			x = v << tz
			prevLZ, prevTZ = lz, tz
		}
		prev ^= x
		dst[i] = math.Float64frombits(prev)
	}
	return nil
}

// xorBound bounds xorEncode's output for n values: 64 bits for the first
// and at most 77 (control, mode, 5+6-bit window, 64 bits) for each other,
// appended in whole 64-bit words.
func xorBound(n int) int { return 10*n + 16 }

// appendTapBlock appends one tap block (method byte + payload) choosing
// the smaller of raw and XOR encodings. The XOR form is built in scratch,
// which holds xorBound(len(vals)) bytes for it to stay one buffer.
func appendTapBlock(dst, scratch []byte, vals []float64) []byte {
	raw := 8 * len(vals)
	if xb := xorEncode(scratch[:0], vals); len(xb) < raw {
		dst = append(dst, tapsXOR)
		dst = binary.AppendUvarint(dst, uint64(len(xb)))
		return append(dst, xb...)
	}
	dst = append(dst, tapsRaw)
	for _, v := range vals {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// readTapBlock reads a tap block of n values written by appendTapBlock.
func (r *byteReader) readTapBlock(n int) ([]float64, error) {
	method, err := r.u8()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		if method == tapsXOR {
			if _, err := r.uvarint(); err != nil {
				return nil, err
			}
		}
		return nil, nil
	}
	vals := make([]float64, n)
	switch method {
	case tapsRaw:
		raw, err := r.take(8 * n)
		if err != nil {
			return nil, err
		}
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
	case tapsXOR:
		nb, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		data, err := r.take(int(nb))
		if err != nil {
			return nil, err
		}
		if err := xorDecode(vals, data); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("segstore: unknown tap-block method %d", method)
	}
	return vals, nil
}
