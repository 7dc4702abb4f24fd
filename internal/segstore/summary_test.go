package segstore

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/head"
	"repro/internal/hrtf"
)

// encodeProfileV1 writes p as the version 1 codec did, which this store
// no longer reads: the body follows the version directly, with no summary.
func encodeProfileV1(tb testing.TB, p *Profile) []byte {
	tb.Helper()
	v2, err := EncodeProfile(p) // magic, version 2, empty summary (one 0 byte), body
	if err != nil {
		tb.Fatal(err)
	}
	if v2[6] != 0 {
		tb.Fatalf("EncodeProfile wrote a %d-byte summary, want none", v2[6])
	}
	v1 := binary.LittleEndian.AppendUint16(bytes.Clone(v2[:4]), 1)
	return append(v1, v2[7:]...)
}

// putRaw appends one profile record with the given payload, as an older
// writer would have.
func putRaw(tb testing.TB, s *Store, key string, payload []byte) {
	tb.Helper()
	seq, err := s.appendAndIndex(key, payload)
	if err != nil {
		tb.Fatal(err)
	}
	if err := s.commit(seq); err != nil {
		tb.Fatal(err)
	}
}

func wantSummary(t *testing.T, s *Store, key string, want []byte) {
	t.Helper()
	got, ok := s.Summary(key)
	if !ok || !bytes.Equal(got, want) || (want == nil) != (got == nil) {
		t.Fatalf("Summary(%q) = %q, %v; want %q", key, got, ok, want)
	}
}

// TestSummaryTravelsWithTheRecord: a summary written by PutWithSummary is
// served from the index after the Put, after compaction relocates the
// record and after a reopen (the scan), and DecodeProfile skips it.
func TestSummaryTravelsWithTheRecord(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{NoSync: true, DisableCompaction: true, SegmentBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	sums := map[string][]byte{}
	for i := 0; i < 6; i++ {
		u := fmt.Sprintf("user-%d", i)
		sums[u] = []byte(fmt.Sprintf("summary of %s", u))
		if err := s.PutWithSummary(testProfile(u, 3, 24, int64(i)), sums[u]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Put(testProfile("bare", 3, 24, 9)); err != nil {
		t.Fatal(err)
	}
	check := func(s *Store) {
		t.Helper()
		for u, sum := range sums {
			wantSummary(t, s, u, sum)
			got, err := s.Get(u)
			if err != nil {
				t.Fatal(err)
			}
			i := int64(u[len(u)-1] - '0')
			profilesBitsEqual(t, testProfile(u, 3, 24, i), got)
		}
		wantSummary(t, s, "bare", nil)
		if _, ok := s.Summary("nobody"); ok {
			t.Fatal("Summary found an absent key")
		}
	}
	check(s)

	// Supersede every record of the first segments, then compact them:
	// the live records move, summaries and all.
	for u, sum := range sums {
		if err := s.PutWithSummary(testProfile(u, 3, 24, int64(u[len(u)-1]-'0')), sum); err != nil {
			t.Fatal(err)
		}
	}
	before := s.Stats().Compactions
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if s.Stats().Compactions == before {
		t.Fatal("nothing compacted")
	}
	check(s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, err := Open(dir, Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	check(reopened)
}

// TestPayloadSummaryBounds: an over-long summary is refused on write and
// on read.
func TestPayloadSummaryBounds(t *testing.T) {
	p := testProfile("u", 2, 8, 1)
	if _, err := encodePayload(p, make([]byte, maxSummaryLen+1)); err == nil {
		t.Fatal("encoded an over-long summary")
	}
	ok, err := encodePayload(p, make([]byte, maxSummaryLen))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeProfile(ok); err != nil {
		t.Fatal(err)
	}
	long := binary.AppendUvarint(bytes.Clone(ok[:6]), maxSummaryLen+1)
	long = append(long, make([]byte, maxSummaryLen+1)...)
	long = append(long, ok[6+2+maxSummaryLen:]...)
	if _, err := DecodeProfile(long); err == nil {
		t.Fatal("decoded a payload with an over-long summary")
	}
	if payloadSummary(long) != nil {
		t.Fatal("indexed an over-long summary")
	}
}

// TestV1PayloadsRefused: a record whose payload is in the version 1
// form, which carried no summary, is indexed like any record whose body
// cannot be read: its key is listed with no summary, and Get returns a
// decode error rather than a profile or ErrNotFound, before and after a
// reopen. Records beside it read as usual.
func TestV1PayloadsRefused(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{NoSync: true, DisableCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	putRaw(t, s, "old", encodeProfileV1(t, testProfile("old", 3, 24, 1)))
	if err := s.PutWithSummary(testProfile("new", 3, 24, 2), []byte("sum")); err != nil {
		t.Fatal(err)
	}
	check := func(s *Store) {
		t.Helper()
		if got := s.Keys(); len(got) != 2 || got[0] != "new" || got[1] != "old" {
			t.Fatalf("Keys() = %v, want [new old]", got)
		}
		wantSummary(t, s, "old", nil)
		if p, err := s.Get("old"); err == nil || errors.Is(err, ErrNotFound) {
			t.Fatalf("Get of a version 1 record = %v, %v; want a decode error", p, err)
		}
		wantSummary(t, s, "new", []byte("sum"))
		got, err := s.Get("new")
		if err != nil {
			t.Fatal(err)
		}
		profilesBitsEqual(t, testProfile("new", 3, 24, 2), got)
	}
	check(s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = Open(dir, Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	check(s)
}

// realShapedTable is a profile table the shape of a real one: 181 angles,
// near- and far-field HRIR pairs of 170 noise-like taps, which the XOR
// codec cannot shrink, so a profile is about 1 MB on disk.
func realShapedTable() *hrtf.Table {
	rng := rand.New(rand.NewSource(1))
	taps := func() []float64 {
		h := make([]float64, 170)
		for i := range h {
			h[i] = 0.05 * rng.NormFloat64()
		}
		return h
	}
	tab := hrtf.NewTable(48000, 0, 1, 181)
	for i := range tab.Near {
		tab.Near[i] = hrtf.HRIR{Left: taps(), Right: taps(), SampleRate: 48000}
		tab.Far[i] = hrtf.HRIR{Left: taps(), Right: taps(), SampleRate: 48000}
	}
	return tab
}

// writeSegment writes one segment file holding a profile record per user,
// each with payload(user), without going through a Store (no fsync).
func writeSegment(tb testing.TB, path string, users []string, payload func(user string) []byte) {
	tb.Helper()
	f, err := os.Create(path)
	if err != nil {
		tb.Fatal(err)
	}
	w := bufio.NewWriter(f)
	w.Write(segFileHeader())
	chain := chainSeed
	var buf []byte
	for i, u := range users {
		buf, chain = appendRecordBytes(buf[:0], uint64(i+1), u, payload(u), chain)
		w.Write(buf)
	}
	if err := w.Flush(); err != nil {
		tb.Fatal(err)
	}
	if err := f.Close(); err != nil {
		tb.Fatal(err)
	}
}

// allocatedBy returns the bytes the heap allocated while fn ran.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestOpenDoesNotCopyPayloads: opening a store of 128 real-shaped
// profiles (~126 MB) scans every record through one reused buffer and
// keeps only keys, locations and summaries, so it allocates a few MB
// rather than the store's size.
func TestOpenDoesNotCopyPayloads(t *testing.T) {
	dir := t.TempDir()
	p := &Profile{
		JobID: "0123456789abcdef", CreatedUnixMS: 1700000000000, GestureOK: true,
		HeadParams: head.Params{A: 0.0975, B: 0.08, C: 0.095}, MeanResidualDeg: 1.5,
		Table: realShapedTable(),
	}
	users := make([]string, 128)
	for i := range users {
		users[i] = fmt.Sprintf("u%03d", i)
	}
	summary := make([]byte, 33) // the service's prior sample
	// Encode once and write each user's name over the first one's (they
	// have the same length): encoding is most of this test's time.
	p.User = users[0]
	payload, err := encodePayload(p, summary)
	if err != nil {
		t.Fatal(err)
	}
	userAt := 6 + 1 + len(summary) + 1 // header, summary length and bytes, user length
	writeSegment(t, filepath.Join(dir, segName(1)), users, func(u string) []byte {
		copy(payload[userAt:], u)
		return payload
	})
	if got, err := DecodeProfile(payload); err != nil || got.User != users[len(users)-1] {
		t.Fatalf("spliced payload decodes as %v, %v", got, err)
	}
	var s *Store
	alloc := allocatedBy(func() { s, err = Open(dir, Options{ReadOnly: true}) })
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if st := s.Stats(); st.Profiles != len(users) || st.Recovery.Damaged() {
		t.Fatalf("opened %d profiles (recovery %+v), want %d", st.Profiles, st.Recovery, len(users))
	}
	wantSummary(t, s, "u127", summary)
	const limit = 8 << 20
	if alloc >= limit {
		t.Fatalf("Open of a %d MB store allocated %.1f MB, want < %d MB",
			s.Stats().DiskBytes>>20, float64(alloc)/(1<<20), limit>>20)
	}
	t.Logf("Open of a %d MB store allocated %.2f MB", s.Stats().DiskBytes>>20, float64(alloc)/(1<<20))
}

// TestScanAllocationBounded: a record whose length field claims a 200 MB
// payload in a small file is a torn tail, and scanning it allocates no
// more than the scanner's read buffer plus the bytes the file holds.
func TestScanAllocationBounded(t *testing.T) {
	var seg []byte
	seg = binary.LittleEndian.AppendUint32(seg, recMagic)
	seg = append(seg, kindProfile)
	seg = binary.AppendUvarint(seg, 1)
	seg = binary.AppendUvarint(seg, 4)
	seg = append(seg, "user"...)
	seg = binary.AppendUvarint(seg, 200<<20)
	seg = append(seg, make([]byte, 16<<10)...)
	var res scanResult
	var err error
	alloc := allocatedBy(func() {
		res, err = scanSegment(io.NewSectionReader(bytes.NewReader(seg), 0, int64(len(seg))), segHeaderSize,
			func(record, int64, int64) error { return nil })
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.damage == nil || res.goodEnd != segHeaderSize {
		t.Fatalf("scan = %+v, want damage at the first record", res)
	}
	if limit := uint64(scanBufSize + len(seg) + 1<<10); alloc > limit {
		t.Fatalf("scan allocated %d bytes, want at most %d (read buffer + file + 1 KiB)", alloc, limit)
	}
}
