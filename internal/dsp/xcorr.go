package dsp

import "math"

// XCorr returns the full cross-correlation of a and b:
//
//	out[k] = sum_t b[t] * a[t-lag],  lag = k - (len(a)-1)
//
// so out has length len(a)+len(b)-1 and lag zero sits at index len(a)-1.
// Positive lags mean b is a *delayed* copy of a.
func XCorr(a, b []float64) []float64 {
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
	return Convolve(b, Reverse(a))
}

// XCorrPeak returns the maximum cross-correlation value of a and b and the
// lag (in samples, positive meaning b is delayed relative to a) at which it
// occurs.
func XCorrPeak(a, b []float64) (peak float64, lag int) {
	c := XCorr(a, b)
	if len(c) == 0 {
		return 0, 0
	}
	idx := 0
	peak = c[0]
	for i, v := range c {
		if v > peak {
			peak, idx = v, i
		}
	}
	return peak, idx - (len(a) - 1)
}

// NormXCorrPeak returns the peak of the normalized cross-correlation of a
// and b, a value in [-1, 1] insensitive to the relative alignment and
// amplitude of the two signals. This is the similarity metric the paper uses
// for pinna responses (Fig 2) and HRIR accuracy (Figs 18-20). It also
// returns the lag of the peak.
func NormXCorrPeak(a, b []float64) (peak float64, lag int) {
	ea, eb := Energy(a), Energy(b)
	if ea == 0 || eb == 0 {
		return 0, 0
	}
	peak, lag = XCorrPeak(a, b)
	return peak / math.Sqrt(ea*eb), lag
}
