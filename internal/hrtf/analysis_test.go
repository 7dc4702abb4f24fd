package hrtf

import (
	"math"
	"testing"

	"repro/internal/dsp"
)

func TestILDSign(t *testing.T) {
	h := HRIR{
		Left:       dsp.DelayedImpulse(64, 20, 1),
		Right:      dsp.DelayedImpulse(64, 20, 0.5),
		SampleRate: 48000,
	}
	ild := h.ILD()
	want := 10 * math.Log10(1/0.25)
	if math.Abs(ild-want) > 0.5 {
		t.Errorf("ILD %g dB, want ~%g", ild, want)
	}
	if (HRIR{}).ILD() != 0 {
		t.Error("empty HRIR ILD should be 0")
	}
}

func TestMagnitudeResponse(t *testing.T) {
	// A pure delay has flat magnitude.
	h := HRIR{
		Left:       dsp.DelayedImpulse(128, 40, 1),
		Right:      dsp.DelayedImpulse(128, 44, 1),
		SampleRate: 48000,
	}
	freqs, l, r := h.MagnitudeResponse(64)
	if len(freqs) != 64 || len(l) != 64 || len(r) != 64 {
		t.Fatal("wrong bin count")
	}
	if freqs[0] != 0 || freqs[63] >= 24000 {
		t.Errorf("frequency axis wrong: %g..%g", freqs[0], freqs[63])
	}
	// Flatness away from the band edges.
	for i := 4; i < 56; i++ {
		if math.Abs(l[i]-1) > 0.1 || math.Abs(r[i]-1) > 0.1 {
			t.Fatalf("pure delay should be flat: bin %d = %g/%g", i, l[i], r[i])
		}
	}
	if f, _, _ := (HRIR{}).MagnitudeResponse(8); f != nil {
		t.Error("empty HRIR should return nil response")
	}
}

func TestSpectralDistortion(t *testing.T) {
	h := HRIR{
		Left:       dsp.DelayedImpulse(128, 40, 1),
		Right:      dsp.DelayedImpulse(128, 44, 0.9),
		SampleRate: 48000,
	}
	if d := SpectralDistortion(h, h, 200, 16000); d > 1e-9 {
		t.Errorf("self distortion %g, want 0", d)
	}
	// Uniform 6 dB gain difference -> ~6 dB distortion.
	g := h.Clone()
	g.Left = dsp.Scale(g.Left, 2)
	g.Right = dsp.Scale(g.Right, 2)
	d := SpectralDistortion(h, g, 200, 16000)
	if math.Abs(d-6.02) > 0.3 {
		t.Errorf("6 dB gain should read ~6 dB distortion, got %g", d)
	}
	// 6 dB on the left ear only: the RMS over both ears' bins is
	// 6.02/√2 ≈ 4.26 dB, where a mean absolute difference reads 3.01.
	g = h.Clone()
	g.Left = dsp.Scale(g.Left, 2)
	if d := SpectralDistortion(h, g, 200, 16000); math.Abs(d-6.02/math.Sqrt2) > 0.1 {
		t.Errorf("6 dB on one ear should read ~%.2f dB RMS distortion, got %g", 6.02/math.Sqrt2, d)
	}
	// Mismatched rates are rejected.
	bad := g.Clone()
	bad.SampleRate = 44100
	if !math.IsInf(SpectralDistortion(h, bad, 200, 16000), 1) {
		t.Error("mismatched rates should give +Inf")
	}
}
