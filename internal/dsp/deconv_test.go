package dsp

import (
	"math"
	"math/rand"
	"testing"
)

func TestDeconvolveRecoversChannel(t *testing.T) {
	// Known sparse channel probed with a full-band chirp.
	probe := Chirp(0, 24000, 0.05, 48000)
	h := make([]float64, 128)
	h[10] = 1
	h[25] = -0.5
	h[60] = 0.3
	y := Convolve(probe, h)
	got := Deconvolve(y, probe, 128, 1e-4)
	corr, lag := NormXCorrPeak(h, got)
	if corr < 0.95 {
		t.Fatalf("recovered channel correlation %g < 0.95", corr)
	}
	if lag != 0 {
		t.Fatalf("recovered channel misaligned by %d samples", lag)
	}
	if math.Abs(got[10]-1) > 0.1 {
		t.Errorf("main tap %g, want ~1", got[10])
	}
}

func TestDeconvolveWithNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	probe := Chirp(100, 20000, 0.05, 48000)
	h := make([]float64, 96)
	h[12] = 1
	h[30] = 0.4
	y := Convolve(probe, h)
	for i := range y {
		y[i] += rng.NormFloat64() * 0.02
	}
	got := Deconvolve(y, probe, 96, 1e-3)
	corr, _ := NormXCorrPeak(h, got)
	if corr < 0.9 {
		t.Fatalf("noisy recovery correlation %g < 0.9", corr)
	}
}

func TestDeconvolveDegenerate(t *testing.T) {
	if got := Deconvolve(nil, []float64{1}, 8, 0); len(got) != 8 {
		t.Error("nil y should still return requested length")
	}
	if got := Deconvolve([]float64{1}, nil, 8, 0); len(got) != 8 {
		t.Error("nil x should still return requested length")
	}
	if got := Deconvolve([]float64{1}, []float64{1}, 0, 0); len(got) != 0 {
		t.Error("zero length should return empty")
	}
}

func TestSpectralDivide(t *testing.T) {
	// a = b * g pointwise, division should recover g where b is strong.
	n := 64
	b := make([]complex128, n)
	g := make([]complex128, n)
	a := make([]complex128, n)
	rng := rand.New(rand.NewSource(21))
	for i := range b {
		b[i] = complex(1+rng.Float64(), rng.NormFloat64())
		g[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		a[i] = b[i] * g[i]
	}
	got := SpectralDivide(a, b, 1e-9)
	for i := range got {
		if d := got[i] - g[i]; math.Hypot(real(d), imag(d)) > 1e-3 {
			t.Fatalf("bin %d: got %v want %v", i, got[i], g[i])
		}
	}
}
