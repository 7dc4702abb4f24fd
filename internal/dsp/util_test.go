package dsp

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMaxAbsAndArgMax(t *testing.T) {
	x := []float64{0.1, -2, 1.5}
	if MaxAbs(x) != 2 {
		t.Errorf("MaxAbs = %g", MaxAbs(x))
	}
	if MaxAbs(nil) != 0 {
		t.Error("empty-slice behaviour wrong")
	}
}

func TestAddSubPadding(t *testing.T) {
	a := []float64{1, 2}
	b := []float64{10, 20, 30}
	s := Add(a, b)
	if len(s) != 3 || s[0] != 11 || s[2] != 30 {
		t.Errorf("Add = %v", s)
	}
	if r := Add(b, a); len(r) != 3 || r[1] != 22 || r[2] != 30 {
		t.Errorf("Add(longer, shorter) = %v", r)
	}
}

func TestDBRoundTrip(t *testing.T) {
	f := func(raw float64) bool {
		db := math.Mod(math.Abs(raw), 120) - 60
		return math.Abs(DB(math.Pow(10, db/20))-db) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
	if !math.IsInf(DB(0), -1) {
		t.Error("DB(0) should be -inf")
	}
}

func TestStats(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	if Mean(x) != 2.5 {
		t.Errorf("mean %g", Mean(x))
	}
	if math.Abs(RMS([]float64{3, 4})-math.Sqrt(12.5)) > 1e-12 {
		t.Errorf("rms wrong")
	}
}

func TestClampReverse(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Error("Clamp wrong")
	}
	r := Reverse([]float64{1, 2, 3})
	if r[0] != 3 || r[2] != 1 {
		t.Error("Reverse wrong")
	}
}

func TestZeroPad(t *testing.T) {
	x := []float64{1, 2}
	p := ZeroPad(x, 4)
	if len(p) != 4 || p[0] != 1 || p[3] != 0 {
		t.Errorf("ZeroPad = %v", p)
	}
	tr := ZeroPad(x, 1)
	if len(tr) != 1 || tr[0] != 1 {
		t.Errorf("truncating pad = %v", tr)
	}
}

func TestWindowShapes(t *testing.T) {
	for _, w := range []Window{Rectangular, Hann, Hamming, Blackman} {
		s := w.Samples(64)
		if len(s) != 64 {
			t.Fatalf("%v: wrong length", w)
		}
		for i, v := range s {
			if v < -1e-12 || v > 1+1e-12 {
				t.Fatalf("%v sample %d out of range: %g", w, i, v)
			}
		}
		// Symmetry.
		for i := 0; i < 32; i++ {
			if math.Abs(s[i]-s[63-i]) > 1e-12 {
				t.Fatalf("%v not symmetric", w)
			}
		}
	}
	if Hann.Samples(1)[0] != 1 {
		t.Error("single-sample window should be 1")
	}
	if Hann.Samples(0) != nil {
		t.Error("zero-length window should be nil")
	}
}

func TestTukeyEndpoints(t *testing.T) {
	w := Tukey(64, 0.5)
	if math.Abs(w[0]) > 1e-12 || math.Abs(w[63]) > 1e-12 {
		t.Error("Tukey should taper to 0 at the edges")
	}
	if w[32] != 1 {
		t.Error("Tukey should be flat in the middle")
	}
	r := Tukey(64, 0)
	for _, v := range r {
		if v != 1 {
			t.Fatal("alpha=0 should be rectangular")
		}
	}
}
