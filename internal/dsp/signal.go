package dsp

import (
	"math"
	"math/rand"
)

// Chirp synthesizes a linear frequency sweep from f0 to f1 Hz over the given
// duration (seconds) at the given sample rate, with a short Tukey taper to
// avoid spectral splatter at the edges. This is the probe signal the UNIQ
// smartphone plays during measurement.
func Chirp(f0, f1, duration, sampleRate float64) []float64 {
	n := int(math.Round(duration * sampleRate))
	if n <= 0 {
		return nil
	}
	out := make([]float64, n)
	k := (f1 - f0) / duration
	for i := 0; i < n; i++ {
		t := float64(i) / sampleRate
		phase := 2 * math.Pi * (f0*t + 0.5*k*t*t)
		out[i] = math.Sin(phase)
	}
	taper := Tukey(n, 0.1)
	for i := range out {
		out[i] *= taper[i]
	}
	return out
}

// Tone synthesizes a pure sinusoid of the given frequency.
func Tone(freq, duration, sampleRate float64) []float64 {
	n := int(math.Round(duration * sampleRate))
	if n <= 0 {
		return nil
	}
	out := make([]float64, n)
	w := 2 * math.Pi * freq / sampleRate
	for i := range out {
		out[i] = math.Sin(w * float64(i))
	}
	return out
}

// WhiteNoise returns n samples of zero-mean uniform white noise with peak
// amplitude 1 drawn from rng.
func WhiteNoise(n int, rng *rand.Rand) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 2*rng.Float64() - 1
	}
	return out
}

// GaussianNoise returns n samples of zero-mean Gaussian noise with the given
// standard deviation drawn from rng.
func GaussianNoise(n int, sigma float64, rng *rand.Rand) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.NormFloat64() * sigma
	}
	return out
}

// Music synthesizes a simple deterministic polyphonic music-like signal: a
// chord progression of harmonically rich notes with plucked envelopes. Used
// as the "music" category of unknown ambient sources in the AoA evaluation
// (Fig 22b).
func Music(duration, sampleRate float64, rng *rand.Rand) []float64 {
	n := int(math.Round(duration * sampleRate))
	if n <= 0 {
		return nil
	}
	out := make([]float64, n)
	// A small pentatonic palette (A3 and up) keeps it band-limited but
	// wide enough spectrally to carry HRTF information.
	palette := []float64{220, 261.63, 293.66, 329.63, 392, 440, 523.25, 659.26}
	noteLen := int(0.18 * sampleRate)
	if noteLen < 1 {
		noteLen = 1
	}
	for start := 0; start < n; start += noteLen {
		f := palette[rng.Intn(len(palette))]
		// Two-note chord (root + fifth-ish) with 6 harmonics each and a
		// short broadband pick transient — plucked instruments carry a
		// lot of high-frequency energy at the onset, which is what makes
		// music a usable AoA source in the paper.
		freqs := []float64{f, f * 1.5}
		pickLen := int(0.004 * sampleRate)
		for i := 0; i < noteLen && start+i < n; i++ {
			t := float64(i) / sampleRate
			env := math.Exp(-6 * t)
			s := 0.0
			for _, fr := range freqs {
				for h := 1; h <= 6; h++ {
					s += math.Sin(2*math.Pi*fr*float64(h)*t) / (float64(h) * math.Sqrt(float64(h)))
				}
			}
			out[start+i] += 0.22 * env * s
			if i < pickLen {
				out[start+i] += 0.18 * (1 - float64(i)/float64(pickLen)) * (2*rng.Float64() - 1)
			}
		}
	}
	return out
}

// Speech synthesizes a speech-like signal: a pitch-modulated harmonic source
// (glottal buzz) shaped by slowly-varying formant resonances, interleaved
// with unvoiced noise bursts and pauses. Its energy concentrates in low
// base/harmonic frequencies like real speech, which is what makes speech the
// hardest unknown-source category in the paper (Fig 22c).
func Speech(duration, sampleRate float64, rng *rand.Rand) []float64 {
	n := int(math.Round(duration * sampleRate))
	if n <= 0 {
		return nil
	}
	out := make([]float64, n)
	segLen := int(0.12 * sampleRate)
	if segLen < 1 {
		segLen = 1
	}
	phase := 0.0
	for start := 0; start < n; start += segLen {
		kind := rng.Float64()
		end := start + segLen
		if end > n {
			end = n
		}
		switch {
		case kind < 0.15: // pause
			continue
		case kind < 0.30: // unvoiced fricative burst, heavily low-passed
			prev := 0.0
			for i := start; i < end; i++ {
				prev = 0.92*prev + 0.08*(2*rng.Float64()-1)
				out[i] = 0.45 * prev
			}
		default: // voiced segment
			f0 := 90 + 80*rng.Float64() // 90-170 Hz pitch
			// Two formants per segment.
			form1 := 300 + 500*rng.Float64()
			form2 := 900 + 1300*rng.Float64()
			for i := start; i < end; i++ {
				t := float64(i-start) / sampleRate
				pitch := f0 * (1 + 0.04*math.Sin(2*math.Pi*3*t))
				phase += 2 * math.Pi * pitch / sampleRate
				s := 0.0
				for h := 1; h <= 10; h++ {
					fh := pitch * float64(h)
					// Formant emphasis: Gaussian bumps around form1/form2.
					g := math.Exp(-sq(fh-form1)/sq(200)) + 0.7*math.Exp(-sq(fh-form2)/sq(300)) + 0.1
					s += g * math.Sin(phase*float64(h)) / float64(h)
				}
				env := math.Sin(math.Pi * float64(i-start) / float64(end-start))
				out[i] = 0.25 * env * s
			}
		}
	}
	return out
}

func sq(x float64) float64 { return x * x }
