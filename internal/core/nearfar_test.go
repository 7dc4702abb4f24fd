package core

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/head"
	"repro/internal/hrtf"
	"repro/internal/sim"
)

// nearTableFromTruth builds a near-field table straight from a volunteer's
// true physics (bypassing the measurement pipeline) so near-far conversion
// can be tested in isolation.
func nearTableFromTruth(t *testing.T, v sim.Volunteer, sr, radius float64) *hrtf.Table {
	t.Helper()
	tab, err := sim.MeasureGroundTruthNear(v, sr, 2, radius)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestSynthesizeFarFieldMatchesGroundTruth(t *testing.T) {
	if testing.Short() {
		t.Skip("heavier synthesis test")
	}
	v := sim.NewVolunteer(3, 77)
	sr := 48000.0
	radius := 0.32
	near := nearTableFromTruth(t, v, sr, radius)
	far, err := SynthesizeFarField(near, v.Head, NearFarOptions{Radius: radius})
	if err != nil {
		t.Fatal(err)
	}
	gnd, err := sim.MeasureGroundTruthFar(v, sr, 10)
	if err != nil {
		t.Fatal(err)
	}
	global, err := sim.GlobalTemplateFar(sr, 10)
	if err != nil {
		t.Fatal(err)
	}
	var farCorr, globalCorr float64             // per-ear (Fig 18 metric)
	var farBin, nearAsFarBin, globalBin float64 // joint binaural metric
	n := 0
	for i := 0; i < gnd.NumAngles(); i++ {
		angle := gnd.Angle(i)
		fh, err := far.FarAt(angle)
		if err != nil || fh.Empty() {
			continue
		}
		nh, err := near.NearAt(angle)
		if err != nil || nh.Empty() {
			continue
		}
		farCorr += hrtf.MeanCorrelation(fh, gnd.Far[i])
		globalCorr += hrtf.MeanCorrelation(global.Far[i], gnd.Far[i])
		farBin += hrtf.BinauralCorrelation(fh, gnd.Far[i])
		nearAsFarBin += hrtf.BinauralCorrelation(nh, gnd.Far[i])
		globalBin += hrtf.BinauralCorrelation(global.Far[i], gnd.Far[i])
		n++
	}
	if n == 0 {
		t.Fatal("no angles compared")
	}
	farCorr /= float64(n)
	globalCorr /= float64(n)
	farBin /= float64(n)
	nearAsFarBin /= float64(n)
	globalBin /= float64(n)
	t.Logf("per-ear: far-synth %.3f global %.3f | binaural: far-synth %.3f near-as-far %.3f global %.3f",
		farCorr, globalCorr, farBin, nearAsFarBin, globalBin)
	if farCorr <= globalCorr {
		t.Errorf("synthesized far field (%.3f) should beat global (%.3f)", farCorr, globalCorr)
	}
	// The point of §4.3: under a metric sensitive to interaural geometry,
	// converting beats reusing near-field HRIRs directly for the far
	// field.
	if farBin <= nearAsFarBin {
		t.Errorf("far synthesis binaural corr (%.3f) should beat raw near reuse (%.3f)", farBin, nearAsFarBin)
	}
}

func TestSynthesizedITDMatchesFarField(t *testing.T) {
	// The key near/far difference is the interaural geometry. The
	// synthesized far HRIR must reproduce the *far-field* ITD rather than
	// the near-field one.
	v := sim.NewVolunteer(4, 11)
	sr := 48000.0
	radius := 0.28
	near := nearTableFromTruth(t, v, sr, radius)
	far, err := SynthesizeFarField(near, v.Head, NearFarOptions{Radius: radius})
	if err != nil {
		t.Fatal(err)
	}
	model, err := head.New(v.Head)
	if err != nil {
		t.Fatal(err)
	}
	for _, deg := range []float64{30, 60, 120, 150} {
		fh, err := far.FarAt(deg)
		if err != nil || fh.Empty() {
			t.Fatalf("%g deg: missing synthesized HRIR", deg)
		}
		wantITD := model.FarFieldITD(deg)
		gotITD := fh.ITD()
		if math.Abs(gotITD-wantITD) > 5e-5 {
			t.Errorf("%g deg: synthesized ITD %g, want %g", deg, gotITD, wantITD)
		}
	}
}

func TestContributingAnglesGeometry(t *testing.T) {
	model, err := head.NewWithResolution(head.DefaultParams(), 240)
	if err != nil {
		t.Fatal(err)
	}
	near := hrtf.NewTable(48000, 0, 1, 181)
	for i := range near.Near {
		near.Near[i] = hrtf.HRIR{Left: []float64{1}, Right: []float64{1}, SampleRate: 48000}
	}
	// Plane wave from the left (90 deg): contributing trajectory points
	// should cluster around 90 deg, split between the ears.
	left, right := contributingAngles(model, near, 90, 0.32)
	if len(left) == 0 || len(right) == 0 {
		t.Fatalf("both ears should receive rays: left %d, right %d", len(left), len(right))
	}
	for _, wa := range append(append([]weightedAngle(nil), left...), right...) {
		if deg := near.Angle(wa.idx); deg < 20 || deg > 160 {
			t.Errorf("contributing angle %g far from the source direction", deg)
		}
		if wa.weight <= 0 || wa.weight > 1+1e-12 {
			t.Errorf("weight %g out of (0,1]", wa.weight)
		}
	}
	// Source dead ahead (0 deg): the measured hemisphere [0,180] covers
	// only the left ear's contributing arc (the right-ear arc lies on the
	// unmeasured right side, handled by the synthesis fallback).
	left0, right0 := contributingAngles(model, near, 0, 0.32)
	if len(left0) == 0 {
		t.Fatal("frontal wave should feed the left ear from the measured hemisphere")
	}
	if len(right0) != 0 {
		t.Errorf("frontal right-ear contributors %v should be empty for a left-hemisphere trajectory", right0)
	}
	for _, wa := range left0 {
		if deg := near.Angle(wa.idx); deg > 95 {
			t.Errorf("frontal left-ear contributor at %g deg", deg)
		}
	}
}

func TestSynthesizeFarFieldErrors(t *testing.T) {
	if _, err := SynthesizeFarField(nil, head.DefaultParams(), NearFarOptions{}); err != ErrEmptyNearField {
		t.Errorf("nil table: want ErrEmptyNearField, got %v", err)
	}
	empty := hrtf.NewTable(48000, 0, 1, 0)
	if _, err := SynthesizeFarField(empty, head.DefaultParams(), NearFarOptions{}); err != ErrEmptyNearField {
		t.Errorf("empty table: want ErrEmptyNearField, got %v", err)
	}
}

func TestFuseAnglesSymmetric(t *testing.T) {
	a := fuseAngles(geom.Radians(30), geom.Radians(50))
	b := fuseAngles(geom.Radians(50), geom.Radians(30))
	if math.Abs(a-b) > 1e-12 {
		t.Error("fuseAngles should be symmetric")
	}
}
