package dsp

import (
	"math"
	"math/rand"
	"testing"
)

func TestFindPeaksBasic(t *testing.T) {
	x := make([]float64, 100)
	x[10] = 1
	x[40] = -0.8
	x[70] = 0.3
	peaks := FindPeaks(x, 0.1, 5)
	if len(peaks) != 3 {
		t.Fatalf("found %d peaks, want 3: %v", len(peaks), peaks)
	}
	if peaks[0].Index != 10 || peaks[1].Index != 40 || peaks[2].Index != 70 {
		t.Errorf("peak indices %v", peaks)
	}
	if peaks[1].Value != -0.8 {
		t.Errorf("peak values should be signed, got %g", peaks[1].Value)
	}
}

func TestFindPeaksThreshold(t *testing.T) {
	x := make([]float64, 50)
	x[5] = 1
	x[20] = 0.05
	peaks := FindPeaks(x, 0.2, 1)
	if len(peaks) != 1 || peaks[0].Index != 5 {
		t.Fatalf("threshold should suppress small peak: %v", peaks)
	}
}

func TestFindPeaksMinDist(t *testing.T) {
	x := make([]float64, 50)
	x[10] = 1
	x[12] = 0.9
	x[30] = 0.8
	peaks := FindPeaks(x, 0.1, 5)
	if len(peaks) != 2 {
		t.Fatalf("min distance should suppress the weaker neighbour: %v", peaks)
	}
	if peaks[0].Index != 10 || peaks[1].Index != 30 {
		t.Errorf("unexpected peaks %v", peaks)
	}
}

func TestFirstPeakSubsample(t *testing.T) {
	// Band-limited impulse at fractional position 20.3.
	x := DelayedImpulse(64, 20.3, 1)
	idx, val := FirstPeak(x, 0.5)
	if math.Abs(idx-20.3) > 0.15 {
		t.Errorf("sub-sample peak at %g, want ~20.3", idx)
	}
	if val < 0.5 {
		t.Errorf("peak value %g too small", val)
	}
}

func TestFirstPeakNone(t *testing.T) {
	idx, _ := FirstPeak(make([]float64, 16), 0.5)
	if idx != -1 {
		t.Errorf("empty signal first peak index %g, want -1", idx)
	}
}

func TestFirstPeakPicksEarliest(t *testing.T) {
	x := make([]float64, 100)
	x[30] = 0.6
	x[60] = 1.0
	idx, _ := FirstPeak(x, 0.3)
	if math.Round(idx) != 30 {
		t.Errorf("first peak at %g, want 30 (earliest above threshold)", idx)
	}
}

// TestFirstPeakMatchesFindPeaks pins FirstPeak's one-scan search to the
// composition it replaced: the first of FindPeaks(x, minRel, 1), refined
// off the edges. Signals are sparse and noisy, with plateaus, negative
// taps and silence.
func TestFirstPeakMatchesFindPeaks(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 500; trial++ {
		x := make([]float64, 1+rng.Intn(80))
		for i := range x {
			switch rng.Intn(4) {
			case 0:
				x[i] = rng.NormFloat64()
			case 1:
				if i > 0 {
					x[i] = -x[i-1]
				}
			}
		}
		minRel := rng.Float64()
		wantIdx, wantVal := -1.0, 0.0
		if peaks := FindPeaks(x, minRel, 1); len(peaks) > 0 {
			p := peaks[0]
			wantIdx, wantVal = float64(p.Index), p.Value
			if p.Index > 0 && p.Index < len(x)-1 {
				wantIdx = refinePeakSinc(x, p.Index)
			}
		}
		gotIdx, gotVal := FirstPeak(x, minRel)
		if math.Float64bits(gotIdx) != math.Float64bits(wantIdx) || math.Float64bits(gotVal) != math.Float64bits(wantVal) {
			t.Fatalf("trial %d: FirstPeak = (%v, %v), FindPeaks gives (%v, %v) for %v at %v",
				trial, gotIdx, gotVal, wantIdx, wantVal, x, minRel)
		}
	}
	x := DelayedImpulse(64, 20.3, 1)
	if allocs := testing.AllocsPerRun(10, func() { FirstPeak(x, 0.3) }); allocs != 0 {
		t.Errorf("FirstPeak allocated %v times per call, want 0", allocs)
	}
}

// refinePeakSincTrig is refinePeakSinc as it was before its taps were
// tabulated: the windowed sinc evaluated with math.Sin/math.Cos at every
// tap. It is the reference the table must match bit for bit.
func refinePeakSincTrig(x []float64, i0 int) float64 {
	const half = 12
	const steps = 128 // over the ±1 sample span
	best, bestT := math.Abs(x[i0]), float64(i0)
	for s := -steps / 2; s <= steps/2; s++ {
		t := float64(i0) + 2*float64(s)/steps
		v := 0.0
		for j := i0 - half; j <= i0+half; j++ {
			if j < 0 || j >= len(x) {
				continue
			}
			d := t - float64(j)
			var k float64
			if d == 0 {
				k = 1
			} else {
				k = math.Sin(math.Pi*d) / (math.Pi * d)
			}
			w := 0.5 * (1 + math.Cos(math.Pi*d/float64(half+1)))
			v += x[j] * k * w
		}
		if a := math.Abs(v); a > best {
			best, bestT = a, t
		}
	}
	return bestT
}

// TestRefinePeakSincMatchesTrig checks the tabulated refiner against the
// trig reference bit for bit: random signals of every length from 1 to
// 400 (so shorter than the 25-tap kernel too), peaks at both edges, near
// the kernel's half-width and at random, plus one long signal whose peak
// index is past 65535. The random signals are mirror-symmetric about the
// middle sample, so a centred i0 often sees two maxima of the interpolant
// that are equal in exact arithmetic: which one wins then depends on the
// last bit of every tap.
func TestRefinePeakSincMatchesTrig(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	check := func(x []float64, i0 int) {
		t.Helper()
		got, want := refinePeakSinc(x, i0), refinePeakSincTrig(x, i0)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("len %d, i0 %d: table gives %v (%#x), trig %v (%#x)",
				len(x), i0, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	for n := 1; n <= 400; n++ {
		x := make([]float64, n)
		for i := range x[:(n+1)/2] {
			x[i] = rng.NormFloat64()
			x[n-1-i] = x[i]
		}
		for _, i0 := range []int{0, n - 1, 11, 12, 13, n / 2, rng.Intn(n), rng.Intn(n)} {
			if i0 < n {
				check(x, i0)
			}
		}
	}
	long := make([]float64, 70000)
	for i := range long {
		long[i] = rng.NormFloat64()
	}
	for _, i0 := range []int{65535, 65536, 69999, 65535 + rng.Intn(4000)} {
		check(long, i0)
	}
}
