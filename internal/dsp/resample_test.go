package dsp

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFractionalDelayInteger(t *testing.T) {
	x := []float64{1, 0.5, -0.25}
	y := FractionalDelay(x, 7)
	for i, v := range x {
		if math.Abs(y[7+i]-v) > 1e-9 {
			t.Fatalf("integer delay broke sample %d", i)
		}
	}
	for i := 0; i < 7; i++ {
		if y[i] != 0 {
			t.Fatalf("leading sample %d not zero", i)
		}
	}
}

func TestFractionalDelayHalfSample(t *testing.T) {
	// Delay a smooth signal by 10.5 samples and verify via correlation
	// against a reference delayed by 10 and 11: the 10.5 version should
	// sit between them, and the peak of a delayed band-limited pulse
	// should land at 10.5.
	pulse := DelayedImpulse(64, 20, 1)
	delayed := FractionalDelay(pulse, 10.5)
	idx, _ := FirstPeak(delayed, 0.5)
	if math.Abs(idx-30.5) > 0.1 {
		t.Errorf("half-sample delay peak at %g, want 30.5", idx)
	}
}

func TestFractionalDelayToneAccuracy(t *testing.T) {
	// A delayed sinusoid should match the analytically shifted sinusoid.
	sr := 48000.0
	freq := 3000.0
	x := Tone(freq, 0.02, sr)
	d := 5.37
	y := FractionalDelay(x, d)
	// Compare against analytic shift away from the edges.
	w := 2 * math.Pi * freq / sr
	maxErr := 0.0
	for i := 100; i < len(x)-100; i++ {
		want := math.Sin(w * (float64(i) - d))
		if e := math.Abs(y[i] - want); e > maxErr {
			maxErr = e
		}
	}
	if maxErr > 0.01 {
		t.Errorf("fractional delay max error %g", maxErr)
	}
}

func TestDelayedImpulseUnitEnergyish(t *testing.T) {
	f := func(raw float64) bool {
		pos := 20 + math.Mod(math.Abs(raw), 10)
		x := DelayedImpulse(128, pos, 1)
		// The band-limited impulse has ~unit peak at pos.
		idx, v := FirstPeak(x, 0.5)
		return math.Abs(idx-pos) < 0.2 && v > 0.8 && v < 1.2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestAddDelayedImpulseNegativePos(t *testing.T) {
	dst := make([]float64, 16)
	AddDelayedImpulse(dst, -5, 1)
	if MaxAbs(dst) != 0 {
		t.Error("negative position should be ignored")
	}
}
