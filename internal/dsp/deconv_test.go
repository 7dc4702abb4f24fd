package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// refDeconvolve is Deconvolve as it was before the Deconvolver: both
// spectra transformed per call and the Wiener division written inline.
// It is the reference the prepared form must match bit for bit.
func refDeconvolve(y, x []float64, length int, reg float64) []float64 {
	if len(x) == 0 || len(y) == 0 || length <= 0 {
		return make([]float64, length)
	}
	if reg <= 0 {
		reg = 1e-3
	}
	n := len(y)
	if len(x) > n {
		n = len(x)
	}
	m := NextPow2(n + length)
	fy := make([]complex128, m)
	fx := make([]complex128, m)
	for i, v := range y {
		fy[i] = complex(v, 0)
	}
	for i, v := range x {
		fx[i] = complex(v, 0)
	}
	fftRadix2(fy, false)
	fftRadix2(fx, false)
	maxPow := 0.0
	for _, v := range fx {
		p := real(v)*real(v) + imag(v)*imag(v)
		if p > maxPow {
			maxPow = p
		}
	}
	eps := reg * maxPow
	if eps == 0 {
		eps = 1e-30
	}
	for i := range fy {
		xc := fx[i]
		den := real(xc)*real(xc) + imag(xc)*imag(xc) + eps
		fy[i] = fy[i] * cmplx.Conj(xc) / complex(den, 0)
	}
	fftRadix2(fy, true)
	out := make([]float64, length)
	inv := 1 / float64(m)
	for i := 0; i < length && i < m; i++ {
		out[i] = real(fy[i]) * inv
	}
	return out
}

// TestDeconvolveMatchesReference compares Deconvolve with refDeconvolve
// by bits over random outputs, inputs, lengths and regularizers,
// including outputs shorter than the input and the degenerate cases.
func TestDeconvolveMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	noise := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		return v
	}
	for trial := 0; trial < 200; trial++ {
		y, x := noise(rng.Intn(600)), noise(rng.Intn(300))
		length := rng.Intn(150)
		reg := []float64{0, 1e-4, 1e-3, 3e-3}[rng.Intn(4)]
		got, want := Deconvolve(y, x, length, reg), refDeconvolve(y, x, length, reg)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d taps, reference %d", trial, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("trial %d, tap %d: %v, reference %v", trial, i, got[i], want[i])
			}
		}
	}
}

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

// TestDeconvolverDivide checks the Wiener division on its own: with a
// spectrum A = B·G, dividing A by a Deconvolver prepared on B recovers G
// where B is strong.
func TestDeconvolverDivide(t *testing.T) {
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
	NewDeconvolver(b, 1e-9).Divide(a)
	for i := range a {
		if d := a[i] - g[i]; math.Hypot(real(d), imag(d)) > 1e-3 {
			t.Fatalf("bin %d: got %v want %v", i, a[i], g[i])
		}
	}
}

// TestDeconvolverReusesScratch runs one prepared Deconvolver over several
// outputs of different lengths through one dirty scratch buffer, and
// checks each result against the reference bit for bit.
func TestDeconvolverReusesScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	probe := Chirp(100, 20000, 0.02, 48000)
	const taps = 200
	m := NextPow2(2000 + taps)
	fx := make([]complex128, m)
	for i, v := range probe {
		fx[i] = complex(v, 0)
	}
	PlanFFT(m).Forward(fx)
	d := NewDeconvolver(fx, 1e-3)
	if d.Size() != m {
		t.Fatalf("Size() = %d, want %d", d.Size(), m)
	}
	scratch := make([]complex128, m+5)
	for i := range scratch {
		scratch[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	got := make([]float64, taps)
	// Every length keeps the one-shot form at the same size m.
	for _, n := range []int{3000, m - taps, 2100, 2000} {
		y := make([]float64, n)
		for i := range y {
			y[i] = rng.NormFloat64()
		}
		d.Deconvolve(got, y, scratch)
		want := refDeconvolve(y, probe, taps, 1e-3)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("output of %d samples, tap %d: prepared %v, one-shot %v", n, i, got[i], want[i])
			}
		}
	}
}
