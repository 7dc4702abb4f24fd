package segstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// FuzzProfileCodecRoundTrip feeds arbitrary bytes to DecodeProfile: it must
// either reject them or return a profile that re-encodes losslessly, behind
// the same summary. It must never panic or allocate absurdly (the length
// guards are the defence). Seeds cover payloads with and without a
// summary, version 1 payloads (refused), and headers whose summary length
// is malformed.
func FuzzProfileCodecRoundTrip(f *testing.F) {
	for _, seed := range []int64{1, 2, 3} {
		payload, err := EncodeProfile(testProfile(fmt.Sprintf("seed%d", seed), 5, 16, seed))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	f.Add([]byte{})
	f.Add([]byte{0x55, 0x51, 0x50, 0x46}) // magic only
	small := testProfile("small", 2, 4, 4)
	f.Add(encodeProfileV1(f, small))
	f.Add(encodeProfileV1(f, &Profile{User: "v1-no-table"}))
	withSummary, err := encodePayload(small, []byte("a summary"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(withSummary)
	head := binary.LittleEndian.AppendUint16(binary.LittleEndian.AppendUint32(nil, payloadMagic), payloadVersion)
	body := encodeProfileV1(f, small)[6:]
	for _, n := range []uint64{1 << 40, maxSummaryLen + 1, uint64(len(body) + 1)} {
		f.Add(append(binary.AppendUvarint(bytes.Clone(head), n), body...)) // summary length beyond the bound or the payload
	}
	f.Add(append(bytes.Clone(head), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01)) // varint overflow
	f.Fuzz(func(t *testing.T, data []byte) {
		summary := payloadSummary(data)
		p, err := DecodeProfile(data)
		if err != nil {
			return // rejection is fine; panics are not
		}
		re, err := encodePayload(p, summary)
		if err != nil {
			t.Fatalf("decoded profile failed to re-encode: %v", err)
		}
		p2, err := DecodeProfile(re)
		if err != nil {
			t.Fatalf("re-encoded profile failed to decode: %v", err)
		}
		if p.User != p2.User || p.JobID != p2.JobID {
			t.Fatal("round trip changed identity fields")
		}
		if !bytes.Equal(payloadSummary(re), summary) {
			t.Fatalf("round trip changed the summary: %q vs %q", payloadSummary(re), summary)
		}
	})
}

// FuzzXORRoundTrip checks the tap compressor against arbitrary bit
// patterns: decode(encode(x)) must be bit-identical for any float content.
func FuzzXORRoundTrip(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add(make([]byte, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		n := len(data) / 8
		if n == 0 {
			return
		}
		vals := make([]float64, n)
		for i := range vals {
			var bits uint64
			for j := 0; j < 8; j++ {
				bits |= uint64(data[i*8+j]) << (8 * j)
			}
			vals[i] = math.Float64frombits(bits)
		}
		enc := xorEncode(nil, vals)
		dec := make([]float64, n)
		if err := xorDecode(dec, enc); err != nil {
			t.Fatalf("decode of own encoding failed: %v", err)
		}
		for i := range vals {
			if math.Float64bits(vals[i]) != math.Float64bits(dec[i]) {
				t.Fatalf("value %d: %x != %x", i, math.Float64bits(vals[i]), math.Float64bits(dec[i]))
			}
		}
	})
}

// FuzzOpenRecovers mutates a valid segment file — truncations, bit flips,
// splices — and requires Open to (a) never panic, (b) serve only bit-exact
// records, and (c) report damage whenever it dropped bytes.
func FuzzOpenRecovers(f *testing.F) {
	base := buildSegmentBytes(f)
	f.Add(base, uint16(0), byte(0))               // pristine
	f.Add(base[:len(base)-9], uint16(0), byte(0)) // torn tail
	f.Add(base, uint16(len(base)/2), byte(0x40))  // mid flip
	f.Fuzz(func(t *testing.T, data []byte, pos uint16, mask byte) {
		if len(data) > 1<<18 {
			return
		}
		mutated := append([]byte(nil), data...)
		if len(mutated) > 0 && mask != 0 {
			mutated[int(pos)%len(mutated)] ^= mask
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(1)), mutated, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, Options{ReadOnly: true})
		if err != nil {
			return // a rejected store (bad header etc.) is acceptable
		}
		defer s.Close()
		for _, u := range s.Keys() {
			p, err := s.Get(u)
			if err != nil {
				t.Fatalf("indexed key %q unreadable: %v", u, err)
			}
			if p.User != u {
				t.Fatalf("key %q served profile for %q", u, p.User)
			}
		}
	})
}

// buildSegmentBytes writes a small valid store and returns its one
// segment file.
func buildSegmentBytes(f *testing.F) []byte {
	f.Helper()
	dir := f.TempDir()
	s, err := Open(dir, Options{NoSync: true, DisableCompaction: true})
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := s.Put(testProfile(fmt.Sprintf("user-%d", i), 3, 12, int64(i))); err != nil {
			f.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		f.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		f.Fatal(err)
	}
	return b
}
