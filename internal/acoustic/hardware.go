package acoustic

import (
	"math"
	"math/rand"

	"repro/internal/dsp"
)

// SystemResponse models the cascaded frequency response of the phone
// speaker and the in-ear microphone. Consumer hardware (paper Fig 16) is
// unstable below ~50 Hz, reasonably flat over 100 Hz–10 kHz with a few dB
// of ripple, and rolls off toward Nyquist. UNIQ compensates for this
// response before HRTF estimation (§4.6).
type SystemResponse struct {
	sampleRate float64
	// ripple holds {freqHz, amplitude, phase} triples for log-spaced
	// cosine ripple terms.
	ripple [][3]float64
	// lowKnee and highKnee are the -3 dB corner frequencies.
	lowKnee, highKnee float64
}

// NewSystemResponse draws a plausible speaker–mic response from rng.
// Different seeds model different hardware units.
func NewSystemResponse(sampleRate float64, rng *rand.Rand) *SystemResponse {
	s := &SystemResponse{
		sampleRate: sampleRate,
		lowKnee:    70 + 30*rng.Float64(),
		highKnee:   9000 + 4000*rng.Float64(),
	}
	// A handful of broad ripple terms in log-frequency.
	for i := 0; i < 5; i++ {
		s.ripple = append(s.ripple, [3]float64{
			1.5 + 1.5*rng.Float64(),     // cycles over the log band
			0.05 + 0.12*rng.Float64(),   // +-0.5 to 1.5 dB-ish
			rng.Float64() * 2 * math.Pi, // phase
		})
	}
	return s
}

// MagnitudeAt returns the linear amplitude response at freq Hz.
func (s *SystemResponse) MagnitudeAt(freq float64) float64 {
	if freq <= 0 {
		return 0
	}
	// Second-order high-pass knee and first-order low-pass knee.
	r := freq / s.lowKnee
	hp := (r * r) / math.Sqrt(1+r*r*r*r)
	q := freq / s.highKnee
	lp := 1 / math.Sqrt(1+q*q)
	g := hp * lp
	lf := math.Log10(freq)
	for _, t := range s.ripple {
		g *= 1 + t[1]*math.Cos(2*math.Pi*t[0]*lf+t[2])
	}
	return g
}

// Apply filters x through the system response (zero-phase magnitude
// filtering via FFT; hardware phase is not modelled because UNIQ's
// compensation divides it out anyway).
func (s *SystemResponse) Apply(x []float64) []float64 {
	if len(x) == 0 {
		return nil
	}
	n := dsp.NextPow2(len(x) * 2)
	spec := dsp.FFTReal(dsp.ZeroPad(x, n))
	freqs := dsp.FFTFreqs(n, s.sampleRate)
	for i := range spec {
		f := math.Abs(freqs[i])
		spec[i] *= complex(s.MagnitudeAt(f), 0)
	}
	out := dsp.IFFTReal(spec)
	return out[:len(x)]
}

// MeasureIR measures the system's impulse response the way a user would:
// play a flat-amplitude chirp with the mic co-located with the speaker and
// deconvolve (§4.6). The result is what the compensation step divides by.
func (s *SystemResponse) MeasureIR(length int) []float64 {
	probe := dsp.Chirp(40, s.sampleRate/2*0.95, 0.5, s.sampleRate)
	rec := s.Apply(probe)
	return dsp.Deconvolve(rec, probe, length, 1e-4)
}
