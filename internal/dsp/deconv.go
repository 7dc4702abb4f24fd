package dsp

import "math/cmplx"

// Deconvolve estimates the impulse response h of a linear channel from its
// known input x and observed output y (y = x * h + noise) using regularized
// frequency-domain division (a Wiener-style estimator):
//
//	H(f) = Y(f) X*(f) / (|X(f)|^2 + eps)
//
// where eps = reg * max|X|^2. The returned response has the given length,
// with tap 0 corresponding to zero delay. A reg of ~1e-3 is robust for the
// chirp probes used by UNIQ. This is the channel-estimation primitive behind
// Fig 9 of the paper. It is the one-shot form of Deconvolver, which callers
// that deconvolve many outputs of one input prepare once.
func Deconvolve(y, x []float64, length int, reg float64) []float64 {
	out := make([]float64, length)
	if len(x) == 0 || len(y) == 0 || length <= 0 {
		return out
	}
	if reg <= 0 {
		reg = 1e-3
	}
	m := NextPow2(max(len(y), len(x)) + length)
	fx := make([]complex128, m)
	for i, v := range x {
		fx[i] = complex(v, 0)
	}
	fftRadix2(fx, false)
	NewDeconvolver(fx, reg).Deconvolve(out, y, make([]complex128, m))
	return out
}

// Deconvolver is Deconvolve prepared for one known input at one
// power-of-two transform size m. It holds the input's m-point spectrum X
// and the Wiener denominators |X|²+eps, so a deconvolution transforms only
// the observed output, in scratch the caller owns. It is immutable and
// safe for concurrent use.
type Deconvolver struct {
	plan *Plan
	spec []complex128 // X
	den  []float64    // |X|² + eps
}

// NewDeconvolver prepares division by the known input whose m-point
// spectrum is spec (m a power of two), with eps = reg·max|X|² (reg > 0).
// The Deconvolver keeps spec; the caller must not modify it afterwards.
func NewDeconvolver(spec []complex128, reg float64) *Deconvolver {
	m := len(spec)
	if !IsPow2(m) || m < 2 {
		panic("dsp: deconvolver size must be a power of two >= 2")
	}
	den := make([]float64, m)
	maxPow := 0.0
	for i, v := range spec {
		p := real(v)*real(v) + imag(v)*imag(v)
		den[i] = p
		if p > maxPow {
			maxPow = p
		}
	}
	eps := reg * maxPow
	if eps == 0 {
		eps = 1e-30
	}
	for i := range den {
		den[i] += eps
	}
	return &Deconvolver{plan: PlanFFT(m), spec: spec, den: den}
}

// Size returns the transform size m.
func (d *Deconvolver) Size() int { return len(d.spec) }

// Deconvolve writes the first len(dst) taps of the channel whose output is
// y into dst, transforming in scratch[:m]. len(y) + len(dst) must not
// exceed m, which keeps the circular deconvolution free of wrap-around.
func (d *Deconvolver) Deconvolve(dst, y []float64, scratch []complex128) {
	m := len(d.spec)
	s := scratch[:m]
	for i, v := range y {
		s[i] = complex(v, 0)
	}
	clear(s[len(y):])
	d.plan.transform(s, false)
	d.Divide(s)
	d.plan.transform(s, true)
	inv := 1 / float64(m)
	for i := range dst {
		dst[i] = real(s[i]) * inv
	}
}

// Divide replaces the m-point spectrum y with Y·X*/(|X|²+eps) in place.
func (d *Deconvolver) Divide(y []complex128) {
	y = y[:len(d.spec)]
	for i, xc := range d.spec {
		y[i] = y[i] * cmplx.Conj(xc) / complex(d.den[i], 0)
	}
}
