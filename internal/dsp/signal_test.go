package dsp

import (
	"math"
	"math/rand"
	"testing"
)

func TestChirpBasics(t *testing.T) {
	sr := 48000.0
	c := Chirp(100, 20000, 0.1, sr)
	if len(c) != 4800 {
		t.Fatalf("chirp length %d, want 4800", len(c))
	}
	if MaxAbs(c) > 1.0001 {
		t.Errorf("chirp exceeds unit amplitude: %g", MaxAbs(c))
	}
	// Autocorrelation should be sharply peaked (good probe property).
	ac := XCorr(c, c)
	peak := ac[len(c)-1]
	side := 0.0
	for i, v := range ac {
		if absInt(i-(len(c)-1)) > 50 && math.Abs(v) > side {
			side = math.Abs(v)
		}
	}
	if side/peak > 0.2 {
		t.Errorf("chirp sidelobe ratio %g too high", side/peak)
	}
}

func TestChirpEmpty(t *testing.T) {
	if Chirp(100, 200, 0, 48000) != nil {
		t.Error("zero-duration chirp should be nil")
	}
}

func TestToneFrequency(t *testing.T) {
	sr := 8000.0
	tone := Tone(1000, 0.128, sr)
	spec := Magnitudes(FFTReal(tone))
	// Peak bin should be at 1000 Hz.
	half := len(spec) / 2
	best := 0
	for i := 1; i < half; i++ {
		if spec[i] > spec[best] {
			best = i
		}
	}
	freq := float64(best) * sr / float64(len(spec))
	if math.Abs(freq-1000) > 20 {
		t.Errorf("tone peak at %g Hz, want 1000", freq)
	}
}

func TestWhiteNoiseStats(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := WhiteNoise(100000, rng)
	if m := Mean(n); math.Abs(m) > 0.01 {
		t.Errorf("white noise mean %g", m)
	}
	if MaxAbs(n) > 1 {
		t.Errorf("white noise exceeds unit amplitude")
	}
}

func TestMusicAndSpeechNonTrivial(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := Music(0.5, 48000, rng)
	s := Speech(0.5, 48000, rng)
	if len(m) != 24000 || len(s) != 24000 {
		t.Fatalf("unexpected lengths %d %d", len(m), len(s))
	}
	if RMS(m) < 1e-3 {
		t.Error("music is silent")
	}
	if RMS(s) < 1e-3 {
		t.Error("speech is silent")
	}
	// Speech should concentrate proportionally more energy at low
	// frequencies than white noise does.
	sSpec := Magnitudes(FFTReal(s))
	low, high := 0.0, 0.0
	for i := 1; i < len(sSpec)/2; i++ {
		f := float64(i) * 48000 / float64(len(sSpec))
		if f < 1000 {
			low += sSpec[i] * sSpec[i]
		} else {
			high += sSpec[i] * sSpec[i]
		}
	}
	if low < high {
		t.Error("speech energy should concentrate below 1 kHz")
	}
}

func TestDeterminism(t *testing.T) {
	a := Music(0.2, 48000, rand.New(rand.NewSource(42)))
	b := Music(0.2, 48000, rand.New(rand.NewSource(42)))
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Music is not deterministic for a fixed seed")
		}
	}
}

func TestSpeechCentroidBelowNoise(t *testing.T) {
	// The Fig 22 story in one number: speech concentrates low, white
	// noise spreads flat.
	rng := rand.New(rand.NewSource(3))
	sr := 48000.0
	sp := Speech(0.5, sr, rng)
	wn := WhiteNoise(24000, rng)
	if spectralCentroid(sp, sr) >= spectralCentroid(wn, sr) {
		t.Error("speech centroid should sit below white noise")
	}
}

// spectralCentroid returns the power-weighted mean frequency (Hz) of x,
// skipping DC.
func spectralCentroid(x []float64, sampleRate float64) float64 {
	spec := FFTReal(x)
	var num, den float64
	for i := 1; i < len(spec)/2; i++ {
		p := real(spec[i])*real(spec[i]) + imag(spec[i])*imag(spec[i])
		num += float64(i) / float64(len(spec)) * sampleRate * p
		den += p
	}
	return num / den
}
