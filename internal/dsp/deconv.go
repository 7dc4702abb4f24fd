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
// Fig 9 of the paper.
func Deconvolve(y, x []float64, length int, reg float64) []float64 {
	if len(x) == 0 || len(y) == 0 || length <= 0 {
		return make([]float64, length)
	}
	if reg <= 0 {
		reg = 1e-3
	}
	n := len(y)
	if len(x) > n {
		n = len(x)
	}
	m := NextPow2(n + length)
	fy := make([]complex128, m)
	fx := make([]complex128, m)
	for i, v := range y {
		fy[i] = complex(v, 0)
	}
	for i, v := range x {
		fx[i] = complex(v, 0)
	}
	fftRadix2(fy, false)
	fftRadix2(fx, false)
	maxPow := 0.0
	for _, v := range fx {
		p := real(v)*real(v) + imag(v)*imag(v)
		if p > maxPow {
			maxPow = p
		}
	}
	eps := reg * maxPow
	if eps == 0 {
		eps = 1e-30
	}
	for i := range fy {
		xc := fx[i]
		den := real(xc)*real(xc) + imag(xc)*imag(xc) + eps
		fy[i] = fy[i] * cmplx.Conj(xc) / complex(den, 0)
	}
	fftRadix2(fy, true)
	out := make([]float64, length)
	inv := 1 / float64(m)
	for i := 0; i < length && i < m; i++ {
		out[i] = real(fy[i]) * inv
	}
	return out
}

// SpectralDivide returns A(f)/B(f) with Tikhonov regularization, both
// spectra assumed equal length. Used by the relative-channel computation in
// unknown-source AoA estimation (eq. 10/11 of the paper work around its
// sensitivity; this helper exists for analysis and tests).
func SpectralDivide(a, b []complex128, reg float64) []complex128 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	if reg <= 0 {
		reg = 1e-6
	}
	maxPow := 0.0
	for i := 0; i < n; i++ {
		p := real(b[i])*real(b[i]) + imag(b[i])*imag(b[i])
		if p > maxPow {
			maxPow = p
		}
	}
	eps := reg * maxPow
	if eps == 0 {
		eps = 1e-30
	}
	out := make([]complex128, n)
	for i := 0; i < n; i++ {
		den := real(b[i])*real(b[i]) + imag(b[i])*imag(b[i]) + eps
		out[i] = a[i] * cmplx.Conj(b[i]) / complex(den, 0)
	}
	return out
}
