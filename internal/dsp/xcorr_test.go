package dsp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestXCorrPeakLag(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := GaussianNoise(256, 1, rng)
	for _, shift := range []int{0, 5, 31, -8} {
		b := make([]float64, len(a))
		for i := range a {
			j := i - shift
			if j >= 0 && j < len(a) {
				b[j] = a[i]
			}
		}
		// b[i-shift]=a[i] means b leads a by shift... XCorr convention:
		// positive lag = b delayed. Here b[t] = a[t+shift], so b is a
		// advanced by shift, i.e. lag = -shift.
		_, lag := XCorrPeak(a, b)
		if lag != -shift {
			t.Errorf("shift %d: lag = %d, want %d", shift, lag, -shift)
		}
	}
}

func TestNormXCorrPeakBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := GaussianNoise(20+rng.Intn(100), 1, rng)
		b := GaussianNoise(20+rng.Intn(100), 1, rng)
		p, _ := NormXCorrPeak(a, b)
		return p >= -1.000001 && p <= 1.000001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestNormXCorrSelf(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := GaussianNoise(500, 1, rng)
	p, lag := NormXCorrPeak(a, a)
	if math.Abs(p-1) > 1e-9 {
		t.Errorf("self-correlation peak = %g, want 1", p)
	}
	if lag != 0 {
		t.Errorf("self-correlation lag = %d, want 0", lag)
	}
	// Scale invariance.
	p2, _ := NormXCorrPeak(a, Scale(a, 3.7))
	if math.Abs(p2-1) > 1e-9 {
		t.Errorf("scaled self-correlation peak = %g, want 1", p2)
	}
}

func TestNormXCorrZero(t *testing.T) {
	z := make([]float64, 10)
	p, _ := NormXCorrPeak(z, z)
	if p != 0 {
		t.Errorf("zero-signal correlation = %g, want 0", p)
	}
}
