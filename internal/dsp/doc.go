// Package dsp provides the digital signal processing substrate used by the
// UNIQ HRTF personalization pipeline: plan-cached FFTs for arbitrary
// lengths, windows, convolution and cross-correlation, probe-signal
// generators (chirps, noise, synthetic music and speech), regularized
// deconvolution for acoustic channel estimation, peak picking, and
// band-limited fractional delays.
//
// Everything is implemented on float64 slices with the standard library only.
// Functions never retain or mutate their inputs unless documented otherwise.
package dsp
