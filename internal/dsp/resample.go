package dsp

import "math"

// FractionalDelay returns x delayed by the given (possibly fractional)
// number of samples, using a windowed-sinc interpolator. The output has
// length len(x)+ceil(delay)+pad where pad covers the interpolator tail.
// Negative delays are clamped to zero. Fractional delays are how the
// acoustic simulator realizes sub-sample propagation times, which is
// essential for degree-level TDoA fidelity at audio sample rates.
func FractionalDelay(x []float64, delay float64) []float64 {
	if len(x) == 0 {
		return nil
	}
	if delay < 0 {
		delay = 0
	}
	const half = 16 // sinc half-width in samples
	intPart := int(math.Floor(delay))
	frac := delay - float64(intPart)
	outLen := len(x) + intPart + half + 1
	out := make([]float64, outLen)
	if frac < 1e-9 {
		copy(out[intPart:], x)
		return out
	}
	// Precompute windowed-sinc kernel for this fractional offset.
	kernel := make([]float64, 2*half)
	for i := range kernel {
		t := float64(i-half+1) - frac // kernel tap positions relative to frac
		var s float64
		if t == 0 {
			s = 1
		} else {
			s = math.Sin(math.Pi*t) / (math.Pi * t)
		}
		// Hann window over the kernel span.
		w := 0.5 * (1 + math.Cos(math.Pi*t/float64(half)))
		if math.Abs(t) > float64(half) {
			w = 0
		}
		kernel[i] = s * w
	}
	for n, v := range x {
		if v == 0 {
			continue
		}
		base := n + intPart
		for i, k := range kernel {
			j := base + i - half + 1
			if j >= 0 && j < outLen {
				out[j] += v * k
			}
		}
	}
	return out
}

// DelayedImpulse returns a length-n signal containing a single unit impulse
// at the given fractional sample position, band-limited via windowed sinc.
// This is the building block for synthesizing impulse responses with
// sub-sample path delays.
func DelayedImpulse(n int, pos, amplitude float64) []float64 {
	out := make([]float64, n)
	AddDelayedImpulse(out, pos, amplitude)
	return out
}

// AddDelayedImpulse accumulates a band-limited impulse of the given
// amplitude at fractional position pos into dst.
func AddDelayedImpulse(dst []float64, pos, amplitude float64) {
	if pos < 0 || len(dst) == 0 || amplitude == 0 {
		return
	}
	const half = 16
	center := int(math.Round(pos))
	for j := center - half; j <= center+half; j++ {
		if j < 0 || j >= len(dst) {
			continue
		}
		t := float64(j) - pos
		var s float64
		if t == 0 {
			s = 1
		} else {
			s = math.Sin(math.Pi*t) / (math.Pi * t)
		}
		w := 0.5 * (1 + math.Cos(math.Pi*t/float64(half+1)))
		dst[j] += amplitude * s * w
	}
}
