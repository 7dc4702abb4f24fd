package service

import (
	"fmt"
	"math"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/dsp"
	"repro/internal/head"
	"repro/internal/hrtf"
)

// coreAoAKnown runs the known-source estimator with default options.
func coreAoAKnown(left, right, src []float64, tab *hrtf.Table) (core.AoAEstimate, error) {
	return core.EstimateAoAKnown(left, right, src, tab, core.AoAOptions{})
}

// syntheticTable builds a table whose HRIRs are impulse pairs with an
// angle-dependent interaural delay and irrational-valued decoration taps —
// enough structure for AoA matching and awkward enough floats to catch any
// serialization rounding.
func syntheticTable(n int) *hrtf.Table {
	step := 180.0 / float64(n-1)
	tab := hrtf.NewTable(48000, 0, step, n)
	for i := 0; i < n; i++ {
		theta := tab.Angle(i) * math.Pi / 180
		dl := 20 - 8*math.Cos(theta) // left ear leads for left-side sources
		dr := 20 + 8*math.Cos(theta)
		mk := func(d float64) []float64 {
			h := make([]float64, 64)
			h[int(math.Round(d))] = 1
			h[int(math.Round(d))+7] = math.Sqrt(float64(i)+2) / 17 // pinna-ish echo
			h[int(math.Round(d))+13] = 1.0 / (3 + float64(i))
			return h
		}
		tab.Near[i] = hrtf.HRIR{Left: mk(dl), Right: mk(dr), SampleRate: 48000}
		tab.Far[i] = hrtf.HRIR{Left: mk(dl), Right: mk(dr), SampleRate: 48000}
	}
	return tab
}

func sampleProfile(user string) *StoredProfile {
	return &StoredProfile{
		User:            user,
		JobID:           "deadbeefdeadbeef",
		CreatedUnixMS:   1700000000123,
		HeadParams:      head.Params{A: 0.0975 / 3, B: math.Pi / 40, C: 0.1},
		MeanResidualDeg: 2.5 / 3,
		GestureOK:       true,
		Table:           syntheticTable(19),
	}
}

func hrirBitsEqual(a, b hrtf.HRIR) bool {
	if len(a.Left) != len(b.Left) || len(a.Right) != len(b.Right) || a.SampleRate != b.SampleRate {
		return false
	}
	for i := range a.Left {
		if math.Float64bits(a.Left[i]) != math.Float64bits(b.Left[i]) {
			return false
		}
	}
	for i := range a.Right {
		if math.Float64bits(a.Right[i]) != math.Float64bits(b.Right[i]) {
			return false
		}
	}
	return true
}

func tablesBitsEqual(t *testing.T, a, b *hrtf.Table) {
	t.Helper()
	if a.NumAngles() != b.NumAngles() || a.AngleStep != b.AngleStep ||
		a.MinAngle != b.MinAngle || a.SampleRate != b.SampleRate {
		t.Fatalf("table geometry differs: %v/%v/%v/%v vs %v/%v/%v/%v",
			a.NumAngles(), a.AngleStep, a.MinAngle, a.SampleRate,
			b.NumAngles(), b.AngleStep, b.MinAngle, b.SampleRate)
	}
	for i := 0; i < a.NumAngles(); i++ {
		if !hrirBitsEqual(a.Near[i], b.Near[i]) {
			t.Fatalf("near HRIR %d not bit-identical after round trip", i)
		}
		if !hrirBitsEqual(a.Far[i], b.Far[i]) {
			t.Fatalf("far HRIR %d not bit-identical after round trip", i)
		}
	}
}

// TestStoreRoundTripFidelity is the profile-store counterpart of
// hrtf.TestTableJSONRoundTrip: a profile written to disk and reloaded by a
// *fresh* store (cold cache, so the bytes really travel through JSON) must
// carry bit-identical HRIR taps and answer AoA queries identically.
func TestStoreRoundTripFidelity(t *testing.T) {
	dir := t.TempDir()
	s1, err := OpenStore(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	orig := sampleProfile("alice")
	if err := s1.Put(orig); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenStore(dir, 4) // simulated restart: empty cache, same dir
	if err != nil {
		t.Fatal(err)
	}
	got, err := s2.Get("alice")
	if err != nil {
		t.Fatal(err)
	}
	if got.JobID != orig.JobID || got.CreatedUnixMS != orig.CreatedUnixMS ||
		got.HeadParams != orig.HeadParams ||
		math.Float64bits(got.MeanResidualDeg) != math.Float64bits(orig.MeanResidualDeg) {
		t.Fatalf("metadata lost in round trip: %+v vs %+v", got, orig)
	}
	tablesBitsEqual(t, orig.Table, got.Table)

	// Identical AoA answers: render a known source through an entry of the
	// original table and ask both tables where it came from.
	src := dsp.Chirp(500, 8000, 0.02, 48000)
	h := orig.Table.Far[4] // 40 degrees
	left, right := h.Render(src)
	estA, errA := coreAoAKnown(left, right, src, orig.Table)
	estB, errB := coreAoAKnown(left, right, src, got.Table)
	if errA != nil || errB != nil {
		t.Fatalf("aoa estimation failed: %v / %v", errA, errB)
	}
	if estA.AngleDeg != estB.AngleDeg || math.Float64bits(estA.Score) != math.Float64bits(estB.Score) {
		t.Fatalf("reloaded table answers AoA differently: %+v vs %+v", estB, estA)
	}
	if estA.AngleDeg != orig.Table.Angle(4) {
		t.Fatalf("sanity: impulse-table AoA found %.1f, want %.1f", estA.AngleDeg, orig.Table.Angle(4))
	}
}

func TestStoreRejectsBadInput(t *testing.T) {
	s, err := OpenStore(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(&StoredProfile{User: "../evil", Table: syntheticTable(5)}); err == nil {
		t.Error("path-traversal user accepted")
	}
	if err := s.Put(&StoredProfile{User: "ok"}); err == nil {
		t.Error("profile without table accepted")
	}
	if _, err := s.Get("no/such"); err == nil {
		t.Error("invalid user id on Get accepted")
	}
	if _, err := s.Get("ghost"); err == nil {
		t.Error("missing profile should not be found")
	}
}

func TestStoreLRUEviction(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := s.Put(sampleProfile(fmt.Sprintf("u%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Cached(); got != 2 {
		t.Fatalf("cache holds %d entries, want 2", got)
	}
	_, _, _, evictions := s.Stats()
	if evictions != 2 {
		t.Fatalf("eviction counter %d, want 2", evictions)
	}
	// Evicted profiles must still load from disk.
	for i := 0; i < 4; i++ {
		if _, err := s.Get(fmt.Sprintf("u%d", i)); err != nil {
			t.Fatalf("u%d lost after eviction: %v", i, err)
		}
	}
	users, err := s.Users()
	if err != nil {
		t.Fatal(err)
	}
	if len(users) != 4 {
		t.Fatalf("Users() = %v, want 4 entries", users)
	}
	// No temp litter left behind by atomic writes.
	tmps, _ := filepath.Glob(filepath.Join(dir, ".*tmp*"))
	if len(tmps) != 0 {
		t.Fatalf("stray temp files: %v", tmps)
	}
}
