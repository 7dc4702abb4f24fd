package service

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/head"
	"repro/internal/obs"
	"repro/internal/prior"
	"repro/internal/segstore"
)

// priorPopulation returns n profiles with distinct head geometries and
// residuals, so both the prior's mean and its spread have something to
// fit.
func priorPopulation(n int) []*StoredProfile {
	ps := make([]*StoredProfile, n)
	for i := range ps {
		p := sampleProfile(fmt.Sprintf("user-%02d", i))
		p.HeadParams = head.Params{
			A: 0.095 + 0.002*float64(i%4),
			B: 0.078 + 0.0015*float64(i%3),
			C: 0.091 + 0.001*float64(i),
		}
		p.MeanResidualDeg = 1 + 0.25*float64(i)
		ps[i] = p
	}
	return ps
}

func putAll(t *testing.T, dir string, ps []*StoredProfile) {
	t.Helper()
	s, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range ps {
		if err := s.Put(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// referenceModel fits the prior the way refits did before records carried
// their sample: decode every profile, in sorted user order.
func referenceModel(t *testing.T, dir string) *prior.Model {
	t.Helper()
	seg, err := segstore.Open(dir, segstore.Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	var samples []prior.Sample
	for _, u := range seg.Keys() {
		p, err := seg.Get(u)
		if err != nil {
			t.Fatal(err)
		}
		samples = append(samples, prior.Sample{Params: p.HeadParams, ResidualDeg: p.MeanResidualDeg})
	}
	m, err := prior.Fit(samples)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// sameModel fails unless a and b are equal bit for bit (the JSON encoding
// of a float64 round-trips it exactly).
func sameModel(t *testing.T, a, b *prior.Model) {
	t.Helper()
	ja, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ja, jb) {
		t.Fatalf("models differ:\n%s\nvs\n%s", ja, jb)
	}
}

// cacheState is the LRU's contents, most recent first, and its counters.
type cacheState struct {
	users                             []string
	hits, misses, notFound, evictions uint64
}

func cacheOf(s *Store) cacheState {
	var c cacheState
	s.mu.Lock()
	for el := s.order.Front(); el != nil; el = el.Next() {
		c.users = append(c.users, el.Value.(*StoredProfile).User)
	}
	s.mu.Unlock()
	c.hits, c.misses, c.notFound, c.evictions = s.Stats()
	return c
}

func startPriorService(t *testing.T, dir string) *Service {
	t.Helper()
	svc, err := New(Config{StoreDir: dir, Workers: 1, PriorEnabled: true, Solver: (&priorProbe{}).run})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = svc.Shutdown(ctx)
	})
	return svc
}

// TestServiceStartDecodesNoProfile: a node starting over records that
// carry their prior sample fits the prior without decoding one profile —
// no segment-store decode, nothing through the LRU — and publishes the
// model a fit over the decoded profiles gives, bit for bit.
func TestServiceStartDecodesNoProfile(t *testing.T) {
	dir := t.TempDir()
	putAll(t, dir, priorPopulation(6))
	svc := startPriorService(t, dir)
	if gets := svc.Store().SegStats().Gets; gets != 0 {
		t.Fatalf("start-up decoded %d profiles, want 0", gets)
	}
	if c := cacheOf(svc.Store()); fmt.Sprint(c) != fmt.Sprint(cacheState{}) {
		t.Fatalf("start-up touched the LRU: %+v", c)
	}
	m := svc.PriorModel()
	if m == nil || m.Count != 6 {
		t.Fatalf("start-up prior %+v, want one fitted over 6 profiles", m)
	}
	sameModel(t, m, referenceModel(t, dir))
}

// TestPriorRefitLeavesCacheAlone: refits read samples from the index, so
// they leave the LRU's contents, order and counters as they were.
func TestPriorRefitLeavesCacheAlone(t *testing.T) {
	s, err := OpenStore(t.TempDir(), 3)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, p := range priorPopulation(8) {
		if err := s.Put(p); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Get("user-02"); err != nil { // one miss, one eviction
		t.Fatal(err)
	}
	before, gets := cacheOf(s), s.SegStats().Gets
	m := newPriorManager(s, 16, 3, obs.NopLogger()) // refits at start
	m.refit()
	if after := cacheOf(s); fmt.Sprint(after) != fmt.Sprint(before) {
		t.Fatalf("refit changed the LRU: %+v, was %+v", after, before)
	}
	if g := s.SegStats().Gets; g != gets {
		t.Fatalf("refit decoded %d profiles", g-gets)
	}
	if c := m.current(); c == nil || c.Count != 8 {
		t.Fatalf("refit model %+v, want 8 profiles", c)
	}
}

// TestPriorRefitsCoalesce: while a refit runs, any number of refit
// requests — here 100, from four goroutines as pool workers make them —
// collapse into one waiting refit, which then covers every put.
func TestPriorRefitsCoalesce(t *testing.T) {
	s, err := OpenStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ps := priorPopulation(101)
	if err := s.Put(ps[0]); err != nil {
		t.Fatal(err)
	}
	m := newPriorManager(s, 1, 1, obs.NopLogger())
	var runs atomic.Int32
	held, release := make(chan struct{}), make(chan struct{})
	m.refitHook = func() {
		if runs.Add(1) == 1 {
			close(held)
			<-release
		}
	}
	if err := s.Put(ps[1]); err != nil {
		t.Fatal(err)
	}
	m.onStored()
	<-held
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 2 + w; i < len(ps); i += 4 {
				if err := s.Put(ps[i]); err != nil {
					t.Error(err)
					return
				}
				m.onStored()
			}
		}(w)
	}
	wg.Wait()
	m.mu.Lock()
	pending := m.pending
	m.mu.Unlock()
	if n := runs.Load(); n != 1 || !pending {
		t.Fatalf("100 refit requests behind a held refit: %d refits started, pending %v; want 1 and one waiting", n, pending)
	}
	close(release)
	deadline := time.Now().Add(10 * time.Second)
	for {
		m.mu.Lock()
		running := m.running
		m.mu.Unlock()
		if !running {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("refits never settled")
		}
		time.Sleep(time.Millisecond)
	}
	if n := runs.Load(); n != 2 {
		t.Fatalf("%d refits ran, want the held one plus one coalesced", n)
	}
	if c := m.current(); c == nil || c.Count != len(ps) {
		t.Fatalf("final model %+v, want it over all %d profiles", c, len(ps))
	}
}

// writeV1Store writes ps as a store written before records carried a
// summary: one segment of profile records whose payloads use the version
// 1 codec (the body right after the version), which the store no longer
// reads.
func writeV1Store(t *testing.T, dir string, ps []*StoredProfile) {
	t.Helper()
	seg := append([]byte("UQSEG\x00\x00\x01"), 1, 0, 0, 0, 0, 0, 0, 0) // magic, version 1, padding
	chain := uint64(14695981039346656037)
	for i, p := range ps {
		v2, err := segstore.EncodeProfile(p) // magic, version 2, empty summary (one 0 byte), body
		if err != nil {
			t.Fatal(err)
		}
		payload := binary.LittleEndian.AppendUint16(bytes.Clone(v2[:4]), 1)
		payload = append(payload, v2[7:]...)
		start := len(seg)
		seg = binary.LittleEndian.AppendUint32(seg, 0x31525155) // "UQR1"
		seg = append(seg, 1)                                    // a profile record
		seg = binary.AppendUvarint(seg, uint64(i+1))
		seg = binary.AppendUvarint(seg, uint64(len(p.User)))
		seg = append(seg, p.User...)
		seg = binary.AppendUvarint(seg, uint64(len(payload)))
		seg = append(seg, payload...)
		crc := crc32.Checksum(seg[start:], crc32.MakeTable(crc32.Castagnoli))
		seg = binary.LittleEndian.AppendUint32(seg, crc)
		for b := 0; b < 4; b++ { // FNV-1a over the CRC's bytes
			chain ^= uint64(byte(crc >> (8 * b)))
			chain *= 1099511628211
		}
		seg = binary.LittleEndian.AppendUint64(seg, chain)
	}
	if err := os.WriteFile(filepath.Join(dir, "seg-00000001.uqs"), seg, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestPriorLeavesOutOlderRecords: records in forms older than the 33-byte
// sample are left out of the prior, like any record whose sample cannot be
// read. One holds a version 1 payload, with no summary and a body this
// codec refuses; another a summary that still carries the spectral
// signature after the residual. The node starts and fits over the other
// records, decoding no profile. Reading the version 1 record fails, and
// not as a missing profile; the other record's body still reads.
func TestPriorLeavesOutOlderRecords(t *testing.T) {
	ps := priorPopulation(6)
	dir := t.TempDir()
	writeV1Store(t, dir, ps[:1])
	seg, err := segstore.Open(dir, segstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sample, err := priorSampleOf(ps[1]).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	withSignature := append(sample, 8) // the band count, then 8 bands
	withSignature = append(withSignature, make([]byte, 8*8)...)
	if err := seg.PutWithSummary(ps[1], withSignature); err != nil {
		t.Fatal(err)
	}
	if err := seg.Close(); err != nil {
		t.Fatal(err)
	}
	putAll(t, dir, ps[2:])

	svc := startPriorService(t, dir)
	if gets := svc.Store().SegStats().Gets; gets != 0 {
		t.Fatalf("start-up decoded %d profiles, want 0", gets)
	}
	var samples []prior.Sample
	for _, p := range ps[2:] {
		samples = append(samples, priorSampleOf(p))
	}
	want, err := prior.Fit(samples)
	if err != nil {
		t.Fatal(err)
	}
	sameModel(t, svc.PriorModel(), want)
	if p, err := svc.Store().Get(ps[0].User); err == nil || errors.Is(err, ErrProfileNotFound) {
		t.Fatalf("Get of a version 1 record = %v, %v; want a read error", p, err)
	}
	got, err := svc.Store().Get(ps[1].User)
	if err != nil {
		t.Fatal(err)
	}
	tablesBitsEqual(t, ps[1].Table, got.Table)
}
