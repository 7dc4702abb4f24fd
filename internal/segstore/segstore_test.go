package segstore

import (
	"errors"
	"fmt"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/head"
	"repro/internal/hrtf"
)

// testProfile builds a profile with irrational, sign-varied, smooth-ish
// taps — awkward floats that expose any lossy encoding, with enough
// structure that the XOR compressor actually engages.
func testProfile(user string, angles, taps int, seed int64) *Profile {
	rng := rand.New(rand.NewSource(seed))
	tab := hrtf.NewTable(48000, 0, 180/float64(max(angles-1, 1)), angles)
	for i := 0; i < angles; i++ {
		mk := func() []float64 {
			h := make([]float64, taps)
			v := rng.NormFloat64() * 0.3
			for j := range h {
				// Smooth decaying waveform with occasional exact zeros.
				v = 0.92*v + 0.08*rng.NormFloat64()
				h[j] = v * math.Exp(-float64(j)/float64(taps))
				if j > taps*3/4 && rng.Intn(3) == 0 {
					h[j] = 0
				}
			}
			return h
		}
		tab.Near[i] = hrtf.HRIR{Left: mk(), Right: mk(), SampleRate: 48000}
		tab.Far[i] = hrtf.HRIR{Left: mk(), Right: mk(), SampleRate: 48000}
	}
	return &Profile{
		User:            user,
		JobID:           "fedcba9876543210",
		CreatedUnixMS:   1700000000123,
		HeadParams:      head.Params{A: 0.0975 / 3, B: math.Pi / 40, C: 0.1},
		MeanResidualDeg: 2.5 / 3,
		GestureOK:       true,
		GestureReason:   "sweep ok",
		SkippedStops:    2,
		StopError:       "stop 7: low SNR",
		Table:           tab,
	}
}

func profilesBitsEqual(t *testing.T, a, b *Profile) {
	t.Helper()
	if a.User != b.User || a.JobID != b.JobID || a.CreatedUnixMS != b.CreatedUnixMS ||
		a.GestureOK != b.GestureOK || a.GestureReason != b.GestureReason ||
		a.SkippedStops != b.SkippedStops || a.StopError != b.StopError {
		t.Fatalf("metadata differs:\n%+v\nvs\n%+v", a, b)
	}
	for _, pair := range [][2]float64{
		{a.HeadParams.A, b.HeadParams.A}, {a.HeadParams.B, b.HeadParams.B},
		{a.HeadParams.C, b.HeadParams.C}, {a.MeanResidualDeg, b.MeanResidualDeg},
	} {
		if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
			t.Fatalf("scalar %v != %v (bits)", pair[0], pair[1])
		}
	}
	if (a.Table == nil) != (b.Table == nil) {
		t.Fatalf("table presence differs")
	}
	if a.Table == nil {
		return
	}
	ta, tb := a.Table, b.Table
	if ta.SampleRate != tb.SampleRate || ta.AngleStep != tb.AngleStep || ta.MinAngle != tb.MinAngle ||
		len(ta.Near) != len(tb.Near) || len(ta.Far) != len(tb.Far) {
		t.Fatalf("table geometry differs")
	}
	eq := func(x, y []float64, what string) {
		if len(x) != len(y) {
			t.Fatalf("%s: length %d vs %d", what, len(x), len(y))
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				t.Fatalf("%s[%d]: %v vs %v (bits differ)", what, i, x[i], y[i])
			}
		}
	}
	for i := range ta.Near {
		if ta.Near[i].SampleRate != tb.Near[i].SampleRate {
			t.Fatalf("near[%d] sample rate differs", i)
		}
		eq(ta.Near[i].Left, tb.Near[i].Left, fmt.Sprintf("near[%d].L", i))
		eq(ta.Near[i].Right, tb.Near[i].Right, fmt.Sprintf("near[%d].R", i))
	}
	for i := range ta.Far {
		if ta.Far[i].SampleRate != tb.Far[i].SampleRate {
			t.Fatalf("far[%d] sample rate differs", i)
		}
		eq(ta.Far[i].Left, tb.Far[i].Left, fmt.Sprintf("far[%d].L", i))
		eq(ta.Far[i].Right, tb.Far[i].Right, fmt.Sprintf("far[%d].R", i))
	}
}

func TestProfileCodecRoundTripBitExact(t *testing.T) {
	p := testProfile("alice", 19, 96, 7)
	// Sprinkle in every awkward IEEE-754 case: ±0, ±Inf, NaN, denormals.
	p.Table.Near[0].Left[0] = math.Copysign(0, -1)
	p.Table.Near[0].Left[1] = math.Inf(1)
	p.Table.Near[0].Left[2] = math.Inf(-1)
	p.Table.Near[0].Left[3] = math.NaN()
	p.Table.Near[0].Left[4] = 5e-324   // smallest denormal
	p.Table.Near[1].SampleRate = 44100 // per-entry rate differing from table
	payload, err := EncodeProfile(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeProfile(payload)
	if err != nil {
		t.Fatal(err)
	}
	profilesBitsEqual(t, p, got)
}

func TestProfileCodecHandlesEdgeShapes(t *testing.T) {
	cases := []*Profile{
		{User: "no-table", CreatedUnixMS: -5},
		{User: "empty-table", Table: &hrtf.Table{SampleRate: 48000}},
		{User: "ragged", Table: &hrtf.Table{
			SampleRate: 48000, AngleStep: 90,
			Near: []hrtf.HRIR{
				{Left: []float64{1, 2, 3}, Right: nil, SampleRate: 48000},
				{Left: nil, Right: []float64{4}, SampleRate: 48000},
			},
			Far: []hrtf.HRIR{{SampleRate: 48000}},
		}},
	}
	for _, p := range cases {
		payload, err := EncodeProfile(p)
		if err != nil {
			t.Fatalf("%s: %v", p.User, err)
		}
		got, err := DecodeProfile(payload)
		if err != nil {
			t.Fatalf("%s: %v", p.User, err)
		}
		profilesBitsEqual(t, p, got)
	}
}

func TestXORRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(200) + 1
		vals := make([]float64, n)
		mode := rng.Intn(3)
		v := rng.NormFloat64()
		for i := range vals {
			switch mode {
			case 0: // pure noise — worst case for XOR
				vals[i] = math.Float64frombits(rng.Uint64())
			case 1: // smooth
				v = 0.95*v + 0.05*rng.NormFloat64()
				vals[i] = v
			case 2: // repeats and zeros
				if rng.Intn(2) == 0 {
					vals[i] = 0
				} else {
					vals[i] = 1.5
				}
			}
		}
		enc := xorEncode(nil, vals)
		dec := make([]float64, n)
		if err := xorDecode(dec, enc); err != nil {
			t.Fatalf("trial %d (mode %d, n %d): %v", trial, mode, n, err)
		}
		for i := range vals {
			if math.Float64bits(vals[i]) != math.Float64bits(dec[i]) {
				t.Fatalf("trial %d: value %d differs", trial, i)
			}
		}
	}
}

func TestCompressionBeatsRawOnSmoothTaps(t *testing.T) {
	p := testProfile("smooth", 19, 128, 3)
	payload, err := EncodeProfile(p)
	if err != nil {
		t.Fatal(err)
	}
	rawTapBytes := 0
	for _, hs := range [][]hrtf.HRIR{p.Table.Near, p.Table.Far} {
		for _, h := range hs {
			rawTapBytes += 8 * (len(h.Left) + len(h.Right))
		}
	}
	if len(payload) >= rawTapBytes {
		t.Fatalf("payload %d bytes not smaller than raw taps %d — XOR compressor never engaged", len(payload), rawTapBytes)
	}
	t.Logf("payload %d bytes vs %d raw tap bytes (%.2fx)", len(payload), rawTapBytes, float64(rawTapBytes)/float64(len(payload)))
}

func TestStoreBasicLifecycle(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	users := []string{"alice", "bob", "carol"}
	for i, u := range users {
		if err := s.Put(testProfile(u, 9, 32, int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Overwrite one.
	updated := testProfile("bob", 9, 32, 99)
	updated.JobID = "updated"
	if err := s.Put(updated); err != nil {
		t.Fatal(err)
	}
	if got := s.Keys(); len(got) != 3 || got[0] != "alice" || got[1] != "bob" || got[2] != "carol" {
		t.Fatalf("Keys() = %v", got)
	}
	b, err := s.Get("bob")
	if err != nil {
		t.Fatal(err)
	}
	if b.JobID != "updated" {
		t.Fatalf("overwrite lost: JobID %q", b.JobID)
	}
	st := s.Stats()
	if st.Profiles != 3 || st.DeadBytes == 0 {
		t.Fatalf("stats: %+v", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: same state, bit-exact payloads.
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Stats().Recovery.Damaged() {
		t.Fatalf("clean close reported damage: %+v", s2.Stats().Recovery)
	}
	if got := s2.Keys(); len(got) != 3 {
		t.Fatalf("after reopen Keys() = %v", got)
	}
	got, err := s2.Get("bob")
	if err != nil {
		t.Fatal(err)
	}
	profilesBitsEqual(t, updated, got)
}

func TestSegmentRollAndCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{
		SegmentBytes:      32 << 10,
		MinCompactBytes:   1,
		CompactRatio:      0.5,
		NoSync:            true,
		DisableCompaction: true, // drive compaction explicitly for determinism
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Overwrite a small key set many times: most bytes die.
	for round := 0; round < 30; round++ {
		for i := 0; i < 4; i++ {
			if err := s.Put(testProfile(fmt.Sprintf("u%d", i), 5, 48, int64(round))); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := s.Stats()
	if st.Segments < 2 {
		t.Fatalf("expected segment rolls, got %d segment(s) (disk %d)", st.Segments, st.DiskBytes)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	st2 := s.Stats()
	if st2.DiskBytes >= st.DiskBytes/2 {
		t.Fatalf("compaction reclaimed too little: %d -> %d bytes", st.DiskBytes, st2.DiskBytes)
	}
	if st2.Compactions == 0 {
		t.Fatal("no compactions counted")
	}
	for i := 0; i < 4; i++ {
		want := testProfile(fmt.Sprintf("u%d", i), 5, 48, 29)
		got, err := s.Get(fmt.Sprintf("u%d", i))
		if err != nil {
			t.Fatal(err)
		}
		profilesBitsEqual(t, want, got)
	}
	// Reopen after compaction: index rebuilt from the survivors.
	s.Close()
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Stats().Recovery.Damaged() {
		t.Fatalf("compacted store reports damage: %+v", s2.Stats().Recovery)
	}
	for i := 0; i < 4; i++ {
		want := testProfile(fmt.Sprintf("u%d", i), 5, 48, 29)
		got, err := s2.Get(fmt.Sprintf("u%d", i))
		if err != nil {
			t.Fatal(err)
		}
		profilesBitsEqual(t, want, got)
	}
}

// TestCompactPutChurnKeepsLastVersion races overwrites against compaction:
// after every round, and after a reopen, each key must read its last
// acknowledged version. The dangerous interleaving is a Put landing
// between the compactor's index check and its relocation of the key's
// previous version. Without the appendMu serialization in compactOnce,
// the compactor then repoints the index from the new record at its
// relocated copy of the old one, and Get serves the old version until a
// restart replays the LSNs.
func TestCompactPutChurnKeepsLastVersion(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{
		SegmentBytes: 4 << 10, MinCompactBytes: 1, CompactRatio: 0.3,
		NoSync: true, DisableCompaction: true, // compaction driven by the goroutine below
	})
	if err != nil {
		t.Fatal(err)
	}
	const keys = 6
	put := func(user string, version int) error {
		p := testProfile(user, 3, 32, int64(version))
		p.JobID = fmt.Sprintf("v%d", version)
		return s.Put(p)
	}
	check := func(s *Store, version int) {
		t.Helper()
		for k := 0; k < keys; k++ {
			key := fmt.Sprintf("churn%d", k)
			p, err := s.Get(key)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			if want := fmt.Sprintf("v%d", version); p.JobID != want {
				t.Fatalf("%s reads version %s, want its last acknowledged %s", key, p.JobID, want)
			}
		}
	}
	const rounds = 60
	for round := 0; round < rounds; round++ {
		// Put the churn keys, then overwrite long-lived keys so the puts'
		// segment rolls and becomes a compaction victim holding live records.
		for k := 0; k < keys; k++ {
			if err := put(fmt.Sprintf("churn%d", k), 2*round); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 4; i++ {
			if err := put(fmt.Sprintf("keep%d", i), round); err != nil {
				t.Fatal(err)
			}
		}
		// Now race new versions against the compactor relocating the old.
		start := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(keys + 1)
		go func() {
			defer wg.Done()
			<-start
			if err := s.Compact(); err != nil {
				t.Errorf("compact: %v", err)
			}
		}()
		for k := 0; k < keys; k++ {
			go func(k int) {
				defer wg.Done()
				<-start
				if err := put(fmt.Sprintf("churn%d", k), 2*round+1); err != nil {
					t.Errorf("put churn%d: %v", k, err)
				}
			}(k)
		}
		close(start)
		wg.Wait()
		if t.Failed() {
			return
		}
		check(s, 2*round+1)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	check(s, 2*rounds-1)
	s.Close()
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if rec := s2.Stats().Recovery; rec.Damaged() {
		t.Fatalf("churned store reopened damaged: %+v", rec)
	}
	check(s2, 2*rounds-1)
}

func TestGroupCommitBatchesFsyncs(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{DisableCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Make each fsync slow enough that concurrent writers pile up behind
	// the in-flight one and get covered by a single follow-up sync.
	gate := make(chan struct{})
	var once sync.Once
	s.syncHook = func() {
		once.Do(func() { <-gate })
	}
	const writers = 16
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = s.Put(testProfile(fmt.Sprintf("w%02d", i), 3, 16, int64(i)))
		}(i)
	}
	// Let every writer append and join the commit queue, then release the
	// first leader.
	for {
		s.appendMu.Lock()
		n := s.appendedSeq
		s.appendMu.Unlock()
		if n >= writers {
			break
		}
	}
	close(gate)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", i, err)
		}
	}
	st := s.Stats()
	if st.CommitWaiters != writers {
		t.Fatalf("commit waiters %d, want %d", st.CommitWaiters, writers)
	}
	// One blocked leader + one covering sync (+ possibly a straggler) —
	// the point is it must be far below one fsync per writer.
	if st.GroupCommits >= writers/2 {
		t.Fatalf("group commit did not batch: %d fsyncs for %d writers", st.GroupCommits, writers)
	}
	t.Logf("%d writers -> %d fsyncs", writers, st.GroupCommits)
	for i := 0; i < writers; i++ {
		if _, err := s.Get(fmt.Sprintf("w%02d", i)); err != nil {
			t.Fatalf("w%02d unreadable after commit: %v", i, err)
		}
	}
}

func TestConcurrentPutGetCompact(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{
		SegmentBytes: 16 << 10, MinCompactBytes: 1, CompactRatio: 0.3, NoSync: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const keys = 8
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; ; round++ {
				select {
				case <-stop:
					return
				default:
				}
				k := fmt.Sprintf("k%d", (w+round)%keys)
				if err := s.Put(testProfile(k, 3, 32, int64(round))); err != nil {
					t.Errorf("put %s: %v", k, err)
					return
				}
				if _, err := s.Get(k); err != nil {
					t.Errorf("get %s: %v", k, err)
					return
				}
			}
		}(w)
	}
	for i := 0; i < 200; i++ {
		for k := 0; k < keys; k++ {
			if p, err := s.Get(fmt.Sprintf("k%d", k)); err == nil && p.User != fmt.Sprintf("k%d", k) {
				t.Errorf("key %d returned profile for %q", k, p.User)
			}
		}
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}
	// Final state must survive a reopen.
	s.Close()
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if rec := s2.Stats().Recovery; rec.Damaged() {
		t.Fatalf("hammered store reopened damaged: %+v", rec)
	}
}

func TestReadOnlyStore(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testProfile("alice", 5, 16, 1)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	ro, err := Open(dir, Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	if _, err := ro.Get("alice"); err != nil {
		t.Fatal(err)
	}
	if err := ro.Put(testProfile("bob", 5, 16, 2)); err == nil {
		t.Fatal("read-only store accepted a Put")
	}
	if err := ro.Compact(); err == nil {
		t.Fatal("read-only store accepted a Compact")
	}
}

// TestReadOnlyOpenOfMissingDir: a read-only open of a directory that does
// not exist fails and creates nothing, so a mistyped directory is reported
// instead of turning into an empty store.
func TestReadOnlyOpenOfMissingDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "typo")
	if s, err := Open(dir, Options{ReadOnly: true}); err == nil {
		s.Close()
		t.Fatal("read-only open of a missing directory succeeded")
	}
	if _, err := os.Stat(dir); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("read-only open left %s behind (stat: %v)", dir, err)
	}
}

func TestClosedStoreRejectsWritesServesReads(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testProfile("alice", 5, 16, 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("alice"); err != nil {
		t.Fatalf("closed store dropped reads: %v", err)
	}
	if err := s.Put(testProfile("bob", 5, 16, 2)); err == nil {
		t.Fatal("closed store accepted a Put")
	}
}
