// Package prior fits a small statistical population prior over previously
// solved personalization profiles: the mean and principal components of the
// head parameters E = (a, b, c), their dispersion, and a least-squares map
// between E and a compact spectral signature of the solved HRTF tables.
// It is the latent-representation idea from the HRTF-individualization
// literature recast as plain PCA/least-squares — no learned network — and
// it exists to warm-start the fusion solve: the predicted head parameters
// seed the search and the per-dimension spread shrinks the seeding grid to
// a trust region. Everything is stdlib + internal/linalg; fitting a fleet's
// worth of profiles is microseconds, so the service refits in-process.
package prior

import (
	"encoding/binary"
	"errors"
	"math"

	"repro/internal/dsp"
	"repro/internal/head"
	"repro/internal/hrtf"
	"repro/internal/linalg"
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
	// Spectrum is an optional spectral signature of the solved table (see
	// SpectralSignature); samples with mismatched lengths are ignored by
	// the spectral regression.
	Spectrum []float64
}

// FitOptions tunes Fit. The zero value is ready to use.
type FitOptions struct {
	// ResidualScaleDeg sets the soft quality scale: a sample at this
	// residual weighs half a perfect one (default 6 degrees).
	ResidualScaleDeg float64
	// Ridge is the Tikhonov regularization of the spectral least-squares
	// map (default 1e-6).
	Ridge float64
}

// Model is a fitted population prior. Treat a published model as
// read-only.
type Model struct {
	// Count is how many samples the fit saw.
	Count int
	// WeightSum is the total quality weight behind Mean (Count scaled by
	// residual quality).
	WeightSum float64
	// Mean and Std are the weighted mean and per-dimension standard
	// deviation of E = (a, b, c), metres.
	Mean [3]float64
	Std  [3]float64
	// Components are the principal axes of the E covariance (unit rows,
	// descending eigenvalue) and Eigenvalues their variances.
	Components  [][]float64
	Eigenvalues []float64
	// SpecMean is the mean spectral signature and SpecMap the least-squares
	// linear map from centered E to centered signature: predicted[b] =
	// SpecMean[b] + Σ_j SpecMap[b][j]·(E_j − Mean_j). Empty when too few
	// samples carried spectra.
	SpecMean []float64
	SpecMap  [][]float64
}

// trust-region shaping: the grid shrinks to KSigma standard deviations per
// dimension but never below minHalfWidth, so a prior fit on near-identical
// heads (or a single profile, where Std is zero) still leaves the seeding
// grid a usable box instead of a point.
const (
	kSigma       = 3.0
	minHalfWidth = 0.008 // metres
)

// Fit builds a model from solved-profile samples. It needs at least one
// sample; with one the dispersion is zero and TrustRegion falls back to its
// minimum width. The fit is deterministic in the sample order only through
// floating-point summation — callers that need reproducibility should pass
// samples in a stable order.
func Fit(samples []Sample, opt FitOptions) (*Model, error) {
	if len(samples) == 0 {
		return nil, ErrNoSamples
	}
	scale := opt.ResidualScaleDeg
	if scale <= 0 {
		scale = 6
	}
	ridge := opt.Ridge
	if ridge <= 0 {
		ridge = 1e-6
	}
	m := &Model{Count: len(samples)}
	weight := func(s Sample) float64 {
		r := s.ResidualDeg / scale
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
	m.WeightSum = wsum
	for j := range m.Mean {
		m.Mean[j] /= wsum
	}
	// Weighted covariance of E.
	var cov [3][3]float64
	for _, s := range samples {
		w := weight(s)
		d := [3]float64{s.Params.A - m.Mean[0], s.Params.B - m.Mean[1], s.Params.C - m.Mean[2]}
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				cov[i][j] += w * d[i] * d[j]
			}
		}
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			cov[i][j] /= wsum
		}
	}
	for j := 0; j < 3; j++ {
		m.Std[j] = math.Sqrt(cov[j][j])
	}
	vals, vecs := jacobiEigen(cov)
	m.Eigenvalues = vals
	m.Components = vecs

	// Spectral regression over the samples that carry a signature of the
	// majority length. Needs more samples than regression dimensions to say
	// anything; below that the spectral fields stay empty.
	fitSpectral(m, samples, weight, ridge)
	return m, nil
}

// fitSpectral fills SpecMean/SpecMap from the samples with a consistent
// signature length. Failures simply leave the spectral fields empty — the
// geometric prior is the load-bearing part.
func fitSpectral(m *Model, samples []Sample, weight func(Sample) float64, ridge float64) {
	counts := map[int]int{}
	for _, s := range samples {
		if len(s.Spectrum) > 0 {
			counts[len(s.Spectrum)]++
		}
	}
	bands, bn := 0, 0
	for l, c := range counts {
		if c > bn || (c == bn && l < bands) {
			bands, bn = l, c
		}
	}
	if bands == 0 || bn < 4 {
		return
	}
	m.SpecMean = make([]float64, bands)
	var wsum float64
	for _, s := range samples {
		if len(s.Spectrum) != bands {
			continue
		}
		w := weight(s)
		wsum += w
		for b, v := range s.Spectrum {
			m.SpecMean[b] += w * v
		}
	}
	for b := range m.SpecMean {
		m.SpecMean[b] /= wsum
	}
	design := linalg.NewMatrix(bn, 3)
	rhs := make([][]float64, bands)
	for b := range rhs {
		rhs[b] = make([]float64, bn)
	}
	row := 0
	for _, s := range samples {
		if len(s.Spectrum) != bands {
			continue
		}
		design.Set(row, 0, s.Params.A-m.Mean[0])
		design.Set(row, 1, s.Params.B-m.Mean[1])
		design.Set(row, 2, s.Params.C-m.Mean[2])
		for b := range rhs {
			rhs[b][row] = s.Spectrum[b] - m.SpecMean[b]
		}
		row++
	}
	m.SpecMap = make([][]float64, bands)
	for b := range rhs {
		coef, err := linalg.LeastSquares(design, rhs[b], ridge)
		if err != nil {
			m.SpecMean, m.SpecMap = nil, nil
			return
		}
		m.SpecMap[b] = coef
	}
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

// PredictSpectrum returns the linear-map spectral signature for the given
// head parameters, or nil if the model carries no spectral fit.
func (m *Model) PredictSpectrum(p head.Params) []float64 {
	if len(m.SpecMap) == 0 {
		return nil
	}
	d := [3]float64{p.A - m.Mean[0], p.B - m.Mean[1], p.C - m.Mean[2]}
	out := make([]float64, len(m.SpecMap))
	for b, coef := range m.SpecMap {
		v := m.SpecMean[b]
		for j := 0; j < 3; j++ {
			v += coef[j] * d[j]
		}
		out[b] = v
	}
	return out
}

// SpectralSignature reduces a solved table's far field to a compact
// log-band-energy vector: the per-angle HRIR power spectra, averaged over
// angles and ears, integrated into bands equal-width in bin space. It
// transforms through one FFT plan and two scratch buffers rather than
// Table.FarSpectra, so the (often store-cached) table is not left holding
// full spectra. Returns nil for an empty table or non-positive bands.
func SpectralSignature(t *hrtf.Table, bands int) []float64 {
	if t == nil || bands <= 0 {
		return nil
	}
	irLen := t.MaxFarIRLen()
	if irLen == 0 {
		return nil
	}
	n := dsp.NextPow2(2 * irLen)
	plan := dsp.PlanFFT(n)
	padded := make([]float64, n)
	spec := make([]complex128, n)
	energy := make([]float64, bands)
	half := n / 2
	binsPer := float64(half) / float64(bands)
	count := 0
	accumulate := func(ir []float64) {
		if len(ir) == 0 {
			return
		}
		clear(padded[copy(padded, ir):])
		plan.ForwardReal(spec, padded)
		for k := 0; k < half; k++ {
			b := int(float64(k) / binsPer)
			if b >= bands {
				b = bands - 1
			}
			re, im := real(spec[k]), imag(spec[k])
			energy[b] += re*re + im*im
		}
		count++
	}
	for i := range t.Far {
		accumulate(t.Far[i].Left)
		accumulate(t.Far[i].Right)
	}
	if count == 0 {
		return nil
	}
	out := make([]float64, bands)
	for b := range out {
		out[b] = math.Log10(energy[b]/float64(count) + 1e-12)
	}
	return out
}

// sampleEncoding versions Sample's binary form.
const sampleEncoding byte = 1

// MarshalBinary encodes the sample compactly and losslessly: a format
// byte, the head parameters and residual as IEEE-754 bits, then the
// spectrum's length and values. The profile store keeps it beside each
// profile, so a refit reads samples without decoding tables.
func (s Sample) MarshalBinary() ([]byte, error) {
	b := make([]byte, 0, 1+4*8+binary.MaxVarintLen64+8*len(s.Spectrum))
	b = append(b, sampleEncoding)
	for _, v := range [4]float64{s.Params.A, s.Params.B, s.Params.C, s.ResidualDeg} {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	b = binary.AppendUvarint(b, uint64(len(s.Spectrum)))
	for _, v := range s.Spectrum {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b, nil
}

// UnmarshalBinary decodes what MarshalBinary wrote, bit for bit. An empty
// spectrum decodes as nil.
func (s *Sample) UnmarshalBinary(b []byte) error {
	if len(b) < 1+4*8 || b[0] != sampleEncoding {
		return errors.New("prior: not an encoded sample")
	}
	f := func(i int) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(b[1+8*i:])) }
	out := Sample{Params: head.Params{A: f(0), B: f(1), C: f(2)}, ResidualDeg: f(3)}
	rest := b[1+4*8:]
	bands, n := binary.Uvarint(rest)
	if n <= 0 || bands != uint64(len(rest)-n)/8 || (len(rest)-n)%8 != 0 {
		return errors.New("prior: encoded sample spectrum length mismatch")
	}
	rest = rest[n:]
	if bands > 0 {
		out.Spectrum = make([]float64, bands)
		for i := range out.Spectrum {
			out.Spectrum[i] = math.Float64frombits(binary.LittleEndian.Uint64(rest[8*i:]))
		}
	}
	*s = out
	return nil
}

// jacobiEigen diagonalizes a symmetric 3×3 matrix by cyclic Jacobi
// rotations, returning eigenvalues in descending order with matching unit
// eigenvectors as rows. Plenty for a 3-parameter covariance; exact
// convergence in a handful of sweeps.
func jacobiEigen(a [3][3]float64) ([]float64, [][]float64) {
	var v [3][3]float64
	for i := 0; i < 3; i++ {
		v[i][i] = 1
	}
	for sweep := 0; sweep < 32; sweep++ {
		off := 0.0
		for i := 0; i < 3; i++ {
			for j := i + 1; j < 3; j++ {
				off += a[i][j] * a[i][j]
			}
		}
		if off < 1e-30 {
			break
		}
		for p := 0; p < 3; p++ {
			for q := p + 1; q < 3; q++ {
				if math.Abs(a[p][q]) < 1e-18 {
					continue
				}
				theta := (a[q][q] - a[p][p]) / (2 * a[p][q])
				t := math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				c := 1 / math.Sqrt(t*t+1)
				s := t * c
				for k := 0; k < 3; k++ {
					akp, akq := a[k][p], a[k][q]
					a[k][p] = c*akp - s*akq
					a[k][q] = s*akp + c*akq
				}
				for k := 0; k < 3; k++ {
					apk, aqk := a[p][k], a[q][k]
					a[p][k] = c*apk - s*aqk
					a[q][k] = s*apk + c*aqk
				}
				for k := 0; k < 3; k++ {
					vkp, vkq := v[k][p], v[k][q]
					v[k][p] = c*vkp - s*vkq
					v[k][q] = s*vkp + c*vkq
				}
			}
		}
	}
	order := [3]int{0, 1, 2}
	for i := 0; i < 3; i++ {
		for j := i + 1; j < 3; j++ {
			if a[order[j]][order[j]] > a[order[i]][order[i]] {
				order[i], order[j] = order[j], order[i]
			}
		}
	}
	vals := make([]float64, 3)
	vecs := make([][]float64, 3)
	for i, o := range order {
		vals[i] = a[o][o]
		vecs[i] = []float64{v[0][o], v[1][o], v[2][o]}
	}
	return vals, vecs
}
