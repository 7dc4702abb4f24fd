package dsp

import (
	"math"
	"math/bits"
)

// NextPow2 returns the smallest power of two >= n. n must be >= 1.
func NextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << uint(bits.Len(uint(n-1)))
}

// IsPow2 reports whether n is a positive power of two.
func IsPow2(n int) bool {
	return n > 0 && n&(n-1) == 0
}

// FFT computes the in-place-free discrete Fourier transform of x and returns
// a new slice. Any length is supported: powers of two use an iterative
// radix-2² Cooley-Tukey kernel; other lengths fall back to Bluestein's
// algorithm. An empty input returns an empty output. The transform runs
// through the cached per-size Plan, so repeated calls at one size share
// twiddle tables and scratch.
func FFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	copy(out, x)
	if n <= 1 {
		return out
	}
	PlanFFT(n).Forward(out)
	return out
}

// IFFT computes the inverse discrete Fourier transform of x (with the usual
// 1/N normalization) and returns a new slice.
func IFFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	copy(out, x)
	if n <= 1 {
		return out
	}
	PlanFFT(n).Inverse(out)
	return out
}

// fftRadix2 transforms x in place through the cached plan for len(x), which
// must be a power of two. If inverse is true the conjugate transform is
// computed (no scaling) — the contract the convolution helpers scale on.
func fftRadix2(x []complex128, inverse bool) {
	if len(x) <= 1 {
		return
	}
	PlanFFT(len(x)).transform(x, inverse)
}

// FFTReal transforms a real-valued signal and returns its full complex
// spectrum (length len(x)). Even lengths run the half-size complex trick —
// one len/2-point transform plus an untangling pass — rather than widening
// the input to complex128.
func FFTReal(x []float64) []complex128 {
	c := make([]complex128, len(x))
	if len(x) <= 1 {
		for i, v := range x {
			c[i] = complex(v, 0)
		}
		return c
	}
	PlanFFT(len(x)).ForwardReal(c, x)
	return c
}

// IFFTReal inverts a spectrum and returns only the real part of the result.
// It is the inverse of FFTReal for spectra of real signals.
func IFFTReal(spec []complex128) []float64 {
	c := IFFT(spec)
	out := make([]float64, len(c))
	for i, v := range c {
		out[i] = real(v)
	}
	return out
}

// Magnitudes returns the element-wise absolute value of a spectrum.
func Magnitudes(spec []complex128) []float64 {
	out := make([]float64, len(spec))
	for i, v := range spec {
		out[i] = complexAbs(v)
	}
	return out
}

func complexAbs(v complex128) float64 {
	return math.Hypot(real(v), imag(v))
}

// FFTFreqs returns the frequency (Hz) of each bin of an n-point FFT at the
// given sample rate, using the usual fftfreq convention (negative
// frequencies in the upper half).
func FFTFreqs(n int, sampleRate float64) []float64 {
	out := make([]float64, n)
	if n == 0 {
		return out
	}
	df := sampleRate / float64(n)
	half := (n + 1) / 2
	for i := 0; i < half; i++ {
		out[i] = float64(i) * df
	}
	for i := half; i < n; i++ {
		out[i] = float64(i-n) * df
	}
	return out
}
