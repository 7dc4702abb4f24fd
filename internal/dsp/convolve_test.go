package dsp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConvolveIdentity(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	got := Convolve(x, []float64{1})
	for i := range x {
		if math.Abs(got[i]-x[i]) > 1e-12 {
			t.Fatalf("identity convolution broke at %d", i)
		}
	}
}

func TestConvolveKnown(t *testing.T) {
	got := Convolve([]float64{1, 2, 3}, []float64{0, 1, 0.5})
	want := []float64{0, 1, 2.5, 4, 1.5}
	if len(got) != len(want) {
		t.Fatalf("length %d want %d", len(got), len(want))
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("sample %d: got %g want %g", i, got[i], want[i])
		}
	}
}

func TestConvolveDirectMatchesFFT(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, nx := range []int{50, 300} {
		for _, nh := range []int{3, 120} {
			x := GaussianNoise(nx, 1, rng)
			h := GaussianNoise(nh, 1, rng)
			d := convolveDirect(x, h)
			f := convolveFFT(x, h)
			for i := range d {
				if math.Abs(d[i]-f[i]) > 1e-8 {
					t.Fatalf("nx=%d nh=%d sample %d: direct %g fft %g", nx, nh, i, d[i], f[i])
				}
			}
		}
	}
}

func TestConvolveCommutative(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := GaussianNoise(5+rng.Intn(50), 1, rng)
		b := GaussianNoise(5+rng.Intn(50), 1, rng)
		ab := Convolve(a, b)
		ba := Convolve(b, a)
		for i := range ab {
			if math.Abs(ab[i]-ba[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestConvolutionTheorem(t *testing.T) {
	// conv(a,b) computed in time domain equals pointwise product of padded
	// spectra.
	rng := rand.New(rand.NewSource(9))
	a := GaussianNoise(40, 1, rng)
	b := GaussianNoise(25, 1, rng)
	n := len(a) + len(b) - 1
	m := NextPow2(n)
	fa := FFTReal(ZeroPad(a, m))
	fb := FFTReal(ZeroPad(b, m))
	for i := range fa {
		fa[i] *= fb[i]
	}
	viaFFT := IFFTReal(fa)[:n]
	direct := Convolve(a, b)
	for i := range direct {
		if math.Abs(direct[i]-viaFFT[i]) > 1e-8 {
			t.Fatalf("mismatch at %d: %g vs %g", i, direct[i], viaFFT[i])
		}
	}
}

func TestConvolveEmpty(t *testing.T) {
	if Convolve(nil, []float64{1}) != nil {
		t.Error("empty x should give nil")
	}
	if Convolve([]float64{1}, nil) != nil {
		t.Error("empty h should give nil")
	}
}
