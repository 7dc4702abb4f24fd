package acoustic

import (
	"math"
	"testing"

	"repro/internal/dsp"
	"repro/internal/geom"
	"repro/internal/head"
)

func TestRingZeroMatchesBaseWorld(t *testing.T) {
	w := testWorld(t, false)
	ring, err := w.Ring(0)
	if err != nil {
		t.Fatal(err)
	}
	irLen := int(0.01 * w.SampleRate)
	az, radius := 60.0, 0.32
	rl, rr, err := ring.BinauralIR(az, radius, irLen)
	if err != nil {
		t.Fatal(err)
	}
	// The horizontal ring at the same position should closely match the
	// base world's IR (same cross-section, zero slant).
	pos := geom.FromPolar(geom.Radians(az), radius)
	bl, br, err := w.BinauralIR(pos, irLen)
	if err != nil {
		t.Fatal(err)
	}
	cl, _ := dsp.NormXCorrPeak(rl, bl)
	cr, _ := dsp.NormXCorrPeak(rr, br)
	if cl < 0.98 || cr < 0.98 {
		t.Errorf("ring(0) should match the base world: corr %.3f / %.3f", cl, cr)
	}
}

func TestRingElevationChangesResponse(t *testing.T) {
	w := testWorld(t, false)
	irLen := int(0.01 * w.SampleRate)
	r0, err := w.Ring(0)
	if err != nil {
		t.Fatal(err)
	}
	r30, err := w.Ring(30)
	if err != nil {
		t.Fatal(err)
	}
	l0, _, err := r0.BinauralIR(70, 0.32, irLen)
	if err != nil {
		t.Fatal(err)
	}
	l30, _, err := r30.BinauralIR(70, 0.32, irLen)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := dsp.NormXCorrPeak(l0, l30)
	if c > 0.995 {
		t.Errorf("elevation should alter the response (corr %.4f)", c)
	}
	if r30.ElevationDeg() != 30 {
		t.Error("elevation lost")
	}
}

func TestRingFirstTapMatchesArrivalDelay(t *testing.T) {
	w := testWorld(t, false)
	ring, err := w.Ring(25)
	if err != nil {
		t.Fatal(err)
	}
	irLen := int(0.012 * w.SampleRate)
	az, radius := 45.0, 0.3
	l, _, err := ring.BinauralIR(az, radius, irLen)
	if err != nil {
		t.Fatal(err)
	}
	idx, _ := dsp.FirstPeak(l, 0.35)
	want, err := ring.ArrivalDelay(az, radius, head.Left)
	if err != nil {
		t.Fatal(err)
	}
	got := (idx - LeadInSeconds*w.SampleRate) / w.SampleRate
	if math.Abs(got-want) > 4e-5 {
		t.Errorf("ring first tap %g, want %g", got, want)
	}
}

func TestRingSlantLengthensPath(t *testing.T) {
	w := testWorld(t, false)
	flat, err := w.Ring(0)
	if err != nil {
		t.Fatal(err)
	}
	steep, err := w.Ring(45)
	if err != nil {
		t.Fatal(err)
	}
	// Same slant radius: the elevated source is farther from the ears in
	// 3-D only via geometry of the shrunken cross-section + vertical leg;
	// its delay must never be shorter than the horizontal projection
	// would suggest being closer.
	d0, err := flat.ArrivalDelay(90, 0.32, head.Left)
	if err != nil {
		t.Fatal(err)
	}
	d45, err := steep.ArrivalDelay(90, 0.32, head.Left)
	if err != nil {
		t.Fatal(err)
	}
	if d45 <= d0*0.9 {
		t.Errorf("45-degree ring delay %g suspiciously short vs flat %g", d45, d0)
	}
}

func TestRingValidation(t *testing.T) {
	w := testWorld(t, false)
	if _, err := w.Ring(80); err == nil {
		t.Error("extreme elevation should be rejected")
	}
	bad := &World{}
	if _, err := bad.Ring(0); err == nil {
		t.Error("invalid world should be rejected")
	}
}

func TestRingRecordProducesAudio(t *testing.T) {
	w := testWorld(t, false)
	ring, err := w.Ring(-20)
	if err != nil {
		t.Fatal(err)
	}
	probe := dsp.Chirp(200, 16000, 0.03, w.SampleRate)
	rec, err := ring.Record(probe, 100, 0.3, RecordOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if dsp.RMS(rec.Left) == 0 || dsp.RMS(rec.Right) == 0 {
		t.Error("silent ring recording")
	}
}
