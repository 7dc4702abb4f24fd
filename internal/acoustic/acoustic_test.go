package acoustic

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dsp"
	"repro/internal/geom"
	"repro/internal/head"
	"repro/internal/pinna"
	"repro/internal/room"
)

func testWorld(t *testing.T, withRoom bool) *World {
	t.Helper()
	hm, err := head.New(head.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	w := &World{
		Head:       hm,
		Pinna:      [2]*pinna.Response{pinna.New(rng), pinna.New(rng)},
		SampleRate: 48000,
	}
	if withRoom {
		w.Room = room.DefaultConfig()
	} else {
		w.Room = room.Config{Width: 4, Depth: 5, Absorption: 0.5, MaxOrder: 0}
	}
	return w
}

func TestValidateWorld(t *testing.T) {
	w := testWorld(t, false)
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := &World{}
	if err := bad.Validate(); err == nil {
		t.Error("empty world should be invalid")
	}
}

func TestBinauralIRFirstTapMatchesGeometry(t *testing.T) {
	w := testWorld(t, false)
	src := geom.Vec{X: -0.35, Y: 0.05} // left of the head
	irLen := int(0.01 * w.SampleRate)
	hl, hr, err := w.BinauralIR(src, irLen)
	if err != nil {
		t.Fatal(err)
	}
	li, _ := dsp.FirstPeak(hl, 0.35)
	ri, _ := dsp.FirstPeak(hr, 0.35)
	if li < 0 || ri < 0 {
		t.Fatal("missing first taps")
	}
	wantL, _ := w.ArrivalDelay(src, head.Left)
	wantR, _ := w.ArrivalDelay(src, head.Right)
	lead := LeadInSeconds * w.SampleRate
	gotL := (li - lead) / w.SampleRate
	gotR := (ri - lead) / w.SampleRate
	if math.Abs(gotL-wantL) > 3e-5 {
		t.Errorf("left first tap delay %g, want %g", gotL, wantL)
	}
	if math.Abs(gotR-wantR) > 3e-5 {
		t.Errorf("right first tap delay %g, want %g", gotR, wantR)
	}
	if ri <= li {
		t.Error("right (shadowed) tap should arrive later")
	}
}

func TestRoomAddsLateEnergy(t *testing.T) {
	src := geom.Vec{X: -0.35, Y: 0.05}
	irLen := int(0.05 * 48000)
	anech := testWorld(t, false)
	reverb := testWorld(t, true)
	al, _, err := anech.BinauralIR(src, irLen)
	if err != nil {
		t.Fatal(err)
	}
	rl, _, err := reverb.BinauralIR(src, irLen)
	if err != nil {
		t.Fatal(err)
	}
	// Early parts nearly identical; late part of the reverberant IR has
	// extra energy.
	cut := int(0.004 * 48000)
	lateAnech := dsp.Energy(al[cut:])
	lateReverb := dsp.Energy(rl[cut:])
	if lateReverb <= lateAnech*2 {
		t.Errorf("room should add late energy: anechoic %g reverberant %g", lateAnech, lateReverb)
	}
}

func TestFarFieldIRITD(t *testing.T) {
	w := testWorld(t, false)
	irLen := int(0.005 * w.SampleRate)
	hl, hr, err := w.FarFieldIR(90, irLen)
	if err != nil {
		t.Fatal(err)
	}
	li, _ := dsp.FirstPeak(hl, 0.35)
	ri, _ := dsp.FirstPeak(hr, 0.35)
	gotITD := (li - ri) / w.SampleRate
	wantITD := w.Head.FarFieldITD(90)
	if math.Abs(gotITD-wantITD) > 3e-5 {
		t.Errorf("rendered ITD %g, want %g", gotITD, wantITD)
	}
}

func TestRecordContainsProbe(t *testing.T) {
	w := testWorld(t, false)
	probe := dsp.Chirp(200, 20000, 0.05, w.SampleRate)
	rec, err := w.Record(probe, geom.Vec{X: -0.3, Y: 0.1}, RecordOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Left) == 0 || len(rec.Right) == 0 {
		t.Fatal("empty recording")
	}
	// Deconvolving the recording with the probe should recover an IR
	// whose first tap matches the geometric delay.
	cir := dsp.Deconvolve(rec.Left, probe, int(0.01*w.SampleRate), 1e-3)
	idx, _ := dsp.FirstPeak(cir, 0.35)
	want, _ := w.ArrivalDelay(geom.Vec{X: -0.3, Y: 0.1}, head.Left)
	got := (idx - LeadInSeconds*w.SampleRate) / w.SampleRate
	if math.Abs(got-want) > 5e-5 {
		t.Errorf("recovered delay %g, want %g", got, want)
	}
}

func TestRecordNoise(t *testing.T) {
	w := testWorld(t, false)
	probe := dsp.Chirp(200, 20000, 0.02, w.SampleRate)
	clean, err := w.Record(probe, geom.Vec{X: -0.3, Y: 0.1}, RecordOptions{})
	if err != nil {
		t.Fatal(err)
	}
	noisy, err := w.Record(probe, geom.Vec{X: -0.3, Y: 0.1},
		RecordOptions{NoiseStd: 0.01, Rng: rand.New(rand.NewSource(5))})
	if err != nil {
		t.Fatal(err)
	}
	diff := 0.0
	for i := range clean.Left {
		diff += math.Abs(noisy.Left[i] - clean.Left[i])
	}
	if diff == 0 {
		t.Error("noise option had no effect")
	}
}

func TestSystemResponseShape(t *testing.T) {
	s := NewSystemResponse(48000, rand.New(rand.NewSource(2)))
	// Unusable at very low frequency, reasonable in mid band (Fig 16).
	if s.MagnitudeAt(20) > 0.3 {
		t.Errorf("20 Hz response %g should be heavily attenuated", s.MagnitudeAt(20))
	}
	mid := s.MagnitudeAt(1000)
	if mid < 0.5 || mid > 1.6 {
		t.Errorf("1 kHz response %g out of plausible range", mid)
	}
	if s.MagnitudeAt(0) != 0 {
		t.Error("DC response should be 0")
	}
	if s.MagnitudeAt(22000) >= mid {
		t.Error("response should roll off toward Nyquist")
	}
}

func TestSystemResponseApplyAttenuatesLow(t *testing.T) {
	s := NewSystemResponse(48000, rand.New(rand.NewSource(3)))
	low := dsp.Tone(30, 0.05, 48000)
	mid := dsp.Tone(1000, 0.05, 48000)
	gl := dsp.RMS(s.Apply(low)) / dsp.RMS(low)
	gm := dsp.RMS(s.Apply(mid)) / dsp.RMS(mid)
	if gl >= gm/2 {
		t.Errorf("30 Hz gain %g should be well below 1 kHz gain %g", gl, gm)
	}
}

func TestMeasureIRIsCompensable(t *testing.T) {
	// The measured system IR, deconvolved out of a recording, should
	// flatten the response: verify its spectrum correlates with the true
	// magnitude curve.
	s := NewSystemResponse(48000, rand.New(rand.NewSource(4)))
	ir := s.MeasureIR(512)
	spec := dsp.Magnitudes(dsp.FFTReal(dsp.ZeroPad(ir, 4096)))
	// Compare at a few probe frequencies.
	for _, f := range []float64{200, 1000, 5000} {
		bin := int(f / 48000 * 4096)
		want := s.MagnitudeAt(f)
		if math.Abs(spec[bin]-want) > 0.25*want+0.05 {
			t.Errorf("measured IR magnitude at %g Hz = %g, want ~%g", f, spec[bin], want)
		}
	}
}

func TestSurfaceTDOAMatchesDiffraction(t *testing.T) {
	w := testWorld(t, false)
	src := geom.Vec{X: 0.5, Y: 0.1} // speaker on the user's right (Fig 4)
	// Test mic on the left cheek (theta ~ 45 deg): TDoA must be positive
	// (reference right ear hears first) and grow as the mic moves back.
	prev := -1.0
	for _, deg := range []float64{10, 25, 40, 55, 70, 85} {
		dt, err := w.SurfaceTDOA(src, deg)
		if err != nil {
			t.Fatal(err)
		}
		if dt <= prev {
			t.Fatalf("TDoA should grow as the mic moves away: %g then %g at %g deg", prev, dt, deg)
		}
		prev = dt
	}
}

func TestShadowSNRScale(t *testing.T) {
	w := testWorld(t, false)
	left := geom.Vec{X: -0.4, Y: 0}
	lit := w.ShadowSNRScale(left, head.Left)
	shadow := w.ShadowSNRScale(left, head.Right)
	if lit != 1 {
		t.Errorf("lit ear scale %g, want 1", lit)
	}
	if shadow >= lit {
		t.Error("shadowed ear should lose SNR")
	}
}
