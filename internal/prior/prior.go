// Package prior fits a small statistical population prior over previously
// solved personalization profiles: the quality-weighted mean and
// per-dimension spread of the head parameters E = (a, b, c). It exists to
// warm-start the fusion solve: the mean seeds the search and the spread
// shrinks the seeding grid to a trust region. Fitting a fleet's worth of
// profiles is microseconds, so the service refits in-process.
package prior

import (
	"encoding/binary"
	"errors"
	"math"

	"repro/internal/head"
)

// ErrNoSamples is returned by Fit when there is nothing to fit.
var ErrNoSamples = errors.New("prior: no samples to fit")

// Sample is one solved profile's contribution to the prior.
type Sample struct {
	// Params is the profile's fitted head-parameter triple E = (a, b, c).
	Params head.Params
	// ResidualDeg is the solve's mean angle residual in degrees; noisier
	// fits weigh less.
	ResidualDeg float64
}

// Model is a fitted population prior. Treat a published model as
// read-only.
type Model struct {
	// Count is how many samples the fit saw.
	Count int
	// Mean and Std are the weighted mean and per-dimension standard
	// deviation of E = (a, b, c), metres.
	Mean [3]float64
	Std  [3]float64
}

// trust-region shaping: the grid shrinks to KSigma standard deviations per
// dimension but never below minHalfWidth, so a prior fit on near-identical
// heads (or a single profile, where Std is zero) still leaves the seeding
// grid a usable box instead of a point.
const (
	kSigma       = 3.0
	minHalfWidth = 0.008 // metres
)

// residualScaleDeg is the soft quality scale of a sample's weight: a
// sample at this residual weighs half a perfect one.
const residualScaleDeg = 6.0

// Fit builds a model from solved-profile samples. It needs at least one
// sample; with one the dispersion is zero and TrustRegion falls back to its
// minimum width. The fit is deterministic in the sample order only through
// floating-point summation — callers that need reproducibility should pass
// samples in a stable order.
func Fit(samples []Sample) (*Model, error) {
	if len(samples) == 0 {
		return nil, ErrNoSamples
	}
	m := &Model{Count: len(samples)}
	weight := func(s Sample) float64 {
		r := s.ResidualDeg / residualScaleDeg
		return 1 / (1 + r*r)
	}
	var wsum float64
	for _, s := range samples {
		w := weight(s)
		wsum += w
		for j, v := range [3]float64{s.Params.A, s.Params.B, s.Params.C} {
			m.Mean[j] += w * v
		}
	}
	if wsum <= 0 {
		return nil, errors.New("prior: degenerate sample weights")
	}
	for j := range m.Mean {
		m.Mean[j] /= wsum
	}
	// Weighted variance of each dimension of E.
	for _, s := range samples {
		w := weight(s)
		for j, v := range [3]float64{s.Params.A, s.Params.B, s.Params.C} {
			d := v - m.Mean[j]
			m.Std[j] += w * d * d
		}
	}
	for j := range m.Std {
		m.Std[j] = math.Sqrt(m.Std[j] / wsum)
	}
	return m, nil
}

// Usable reports whether the model can steer a solve.
func (m *Model) Usable() bool { return m != nil && m.Count > 0 }

// Predict returns the prior's head-parameter estimate for an unseen user —
// the quality-weighted population mean.
func (m *Model) Predict() head.Params {
	return head.Params{A: m.Mean[0], B: m.Mean[1], C: m.Mean[2]}
}

// TrustRegion returns the seeding box the prior recommends inside the hard
// bounds [lo, hi]: Mean ± max(3σ, 8 mm) per dimension, clipped into the
// bounds. The returned box is always non-degenerate as long as lo < hi.
func (m *Model) TrustRegion(lo, hi head.Params) (head.Params, head.Params) {
	lov := [3]float64{lo.A, lo.B, lo.C}
	hiv := [3]float64{hi.A, hi.B, hi.C}
	var tlo, thi [3]float64
	for j := 0; j < 3; j++ {
		h := kSigma * m.Std[j]
		if h < minHalfWidth {
			h = minHalfWidth
		}
		c := m.Mean[j]
		if c < lov[j] {
			c = lov[j]
		}
		if c > hiv[j] {
			c = hiv[j]
		}
		tlo[j] = math.Max(c-h, lov[j])
		thi[j] = math.Min(c+h, hiv[j])
	}
	return head.Params{A: tlo[0], B: tlo[1], C: tlo[2]}, head.Params{A: thi[0], B: thi[1], C: thi[2]}
}

// sampleEncoding opens Sample's binary form.
const sampleEncoding byte = 1

// sampleSize is the length of Sample's binary form.
const sampleSize = 1 + 4*8

// MarshalBinary encodes the sample compactly and losslessly: a format
// byte, then the head parameters and residual as IEEE-754 bits, 33 bytes
// in all. The profile store keeps it beside each profile, so a refit reads
// samples without decoding tables.
func (s Sample) MarshalBinary() ([]byte, error) {
	b := make([]byte, 0, sampleSize)
	b = append(b, sampleEncoding)
	for _, v := range [4]float64{s.Params.A, s.Params.B, s.Params.C, s.ResidualDeg} {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b, nil
}

// UnmarshalBinary decodes what MarshalBinary wrote, bit for bit. Any other
// length or format byte is refused.
func (s *Sample) UnmarshalBinary(b []byte) error {
	if len(b) != sampleSize || b[0] != sampleEncoding {
		return errors.New("prior: not an encoded sample")
	}
	f := func(i int) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(b[1+8*i:])) }
	*s = Sample{Params: head.Params{A: f(0), B: f(1), C: f(2)}, ResidualDeg: f(3)}
	return nil
}
