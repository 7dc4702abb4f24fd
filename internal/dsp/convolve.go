package dsp

// Convolve returns the full linear convolution of x and h (length
// len(x)+len(h)-1). It dispatches to a direct kernel for small inputs and an
// FFT-based kernel otherwise. Empty inputs yield an empty result.
func Convolve(x, h []float64) []float64 {
	if len(x) == 0 || len(h) == 0 {
		return nil
	}
	if len(x)*len(h) <= 16384 {
		return convolveDirect(x, h)
	}
	return convolveFFT(x, h)
}

func convolveDirect(x, h []float64) []float64 {
	out := make([]float64, len(x)+len(h)-1)
	for i, xv := range x {
		if xv == 0 {
			continue
		}
		for j, hv := range h {
			out[i+j] += xv * hv
		}
	}
	return out
}

func convolveFFT(x, h []float64) []float64 {
	n := len(x) + len(h) - 1
	m := NextPow2(n)
	xa := make([]complex128, m)
	ha := make([]complex128, m)
	for i, v := range x {
		xa[i] = complex(v, 0)
	}
	for i, v := range h {
		ha[i] = complex(v, 0)
	}
	fftRadix2(xa, false)
	fftRadix2(ha, false)
	for i := range xa {
		xa[i] *= ha[i]
	}
	fftRadix2(xa, true)
	out := make([]float64, n)
	inv := 1 / float64(m)
	for i := range out {
		out[i] = real(xa[i]) * inv
	}
	return out
}
