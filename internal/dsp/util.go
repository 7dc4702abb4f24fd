package dsp

import "math"

// MaxAbs returns the maximum absolute sample value of x (0 for empty input).
func MaxAbs(x []float64) float64 {
	m := 0.0
	for _, v := range x {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// RMS returns the root-mean-square value of x (0 for empty input).
func RMS(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s / float64(len(x)))
}

// Energy returns the sum of squared samples.
func Energy(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v * v
	}
	return s
}

// Scale returns x multiplied element-wise by k.
func Scale(x []float64, k float64) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = v * k
	}
	return out
}

// Add returns the element-wise sum of a and b; the result has the length of
// the longer input, with the shorter treated as zero-padded.
func Add(a, b []float64) []float64 {
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	out := make([]float64, n)
	copy(out, a)
	for i, v := range b {
		out[i] += v
	}
	return out
}

// ZeroPad returns x extended with zeros to length n (or a copy truncated to
// n if n < len(x)).
func ZeroPad(x []float64, n int) []float64 {
	out := make([]float64, n)
	copy(out, x)
	return out
}

// DB converts a linear amplitude ratio to decibels (20*log10).
// Non-positive input yields -inf.
func DB(amp float64) float64 {
	if amp <= 0 {
		return math.Inf(-1)
	}
	return 20 * math.Log10(amp)
}

// Clamp limits v to [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Reverse returns a reversed copy of x.
func Reverse(x []float64) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		out[len(x)-1-i] = v
	}
	return out
}

// Mean returns the arithmetic mean of x (0 for empty input).
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}
