package hrtf

import (
	"math"

	"repro/internal/dsp"
)

// ILD returns the broadband interaural level difference of the HRIR in dB
// (positive = left ear louder), computed from the energy of each ear's
// response.
func (h HRIR) ILD() float64 {
	el := dsp.Energy(h.Left)
	er := dsp.Energy(h.Right)
	if el == 0 || er == 0 {
		return 0
	}
	return 10 * math.Log10(el/er)
}

// MagnitudeResponse returns the left and right magnitude spectra of the
// HRIR evaluated at nBins uniformly spaced frequencies from 0 to Nyquist,
// along with those frequencies.
func (h HRIR) MagnitudeResponse(nBins int) (freqs, left, right []float64) {
	if nBins <= 0 || h.SampleRate <= 0 {
		return nil, nil, nil
	}
	n := dsp.NextPow2(2 * nBins)
	fl := dsp.Magnitudes(dsp.FFTReal(dsp.ZeroPad(h.Left, 2*n)))
	fr := dsp.Magnitudes(dsp.FFTReal(dsp.ZeroPad(h.Right, 2*n)))
	freqs = make([]float64, nBins)
	left = make([]float64, nBins)
	right = make([]float64, nBins)
	for i := 0; i < nBins; i++ {
		bin := i * n / nBins
		freqs[i] = float64(bin) / float64(2*n) * h.SampleRate
		left[i] = fl[bin]
		right[i] = fr[bin]
	}
	return freqs, left, right
}

// SpectralDistortion returns the log-spectral distortion (LSD) between two
// HRIRs over the given band, in dB: the root mean square, over both ears'
// magnitude bins in the band, of the difference 20·log₁₀(|A|/|B|), the
// form the HRTF individualization literature reports. It is +Inf for
// mismatched or missing sample rates and for a band with no bins.
func SpectralDistortion(a, b HRIR, loHz, hiHz float64) float64 {
	if a.SampleRate <= 0 || a.SampleRate != b.SampleRate {
		return math.Inf(1)
	}
	const bins = 128
	_, al, ar := a.MagnitudeResponse(bins)
	fr, bl, br := b.MagnitudeResponse(bins)
	var sum float64
	n := 0
	for i := range fr {
		if fr[i] < loHz || fr[i] > hiHz {
			continue
		}
		l, r := logRatioDB(al[i], bl[i]), logRatioDB(ar[i], br[i])
		sum += l*l + r*r
		n += 2
	}
	if n == 0 {
		return math.Inf(1)
	}
	return math.Sqrt(sum / float64(n))
}

// logRatioDB returns 20·log₁₀(x/y), each magnitude floored at 1e-9.
func logRatioDB(x, y float64) float64 {
	const floor = 1e-9
	if x < floor {
		x = floor
	}
	if y < floor {
		y = floor
	}
	return 20 * math.Log10(x/y)
}
