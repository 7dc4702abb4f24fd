package core

import (
	"errors"
	"math"

	"repro/internal/dsp"
	"repro/internal/hrtf"
)

// errAoAWindow is returned when an AoAEstimator gets a window whose length
// differs from the one it was planned for.
var errAoAWindow = errors.New("core: AoA window length differs from the planned size")

// AoAEstimator is the reusable form of EstimateAoAUnknown: both FFT plans
// are looked up once, the table's far-field spectra and ITDs are cached,
// and every scratch buffer the per-window pipeline needs is owned by the
// estimator, so a steady caller (the streaming tracker) estimates without
// allocating. The estimator is planned for fixed per-ear window lengths;
// Estimate rejects slices of any other length.
//
// An AoAEstimator is single-goroutine; build one per tracker.
type AoAEstimator struct {
	table      *hrtf.Table
	opt        AoAOptions
	sr         float64
	lenL, lenR int
	maxLag     int

	// Relative-channel transform (candidate delays): size n1 covers the
	// linear cross-spectrum of the two windows.
	p1       *dsp.Plan
	pad1     []float64
	fl1, fr1 []complex128
	rel      []float64 // ±maxLag lag window; index maxLag is zero lag

	// Eq. 11 scoring transform: size n2 covers a window convolved with the
	// longest far-field HRIR, matching the table's cached spectra.
	p2       *dsp.Plan
	pad2     []float64
	fl2, fr2 []complex128
	spec     *hrtf.Spectra
	itds     []float64

	// Peak-finding scratch, mirroring dsp.FindPeaks step for step.
	cand, peaks []dsp.Peak
	order       []int
	taken, kept []bool
	cands       []int
}

// NewAoAEstimator plans an unknown-source AoA estimator over a table's far
// field for fixed left/right window lengths.
func NewAoAEstimator(table *hrtf.Table, lenL, lenR int, opt AoAOptions) (*AoAEstimator, error) {
	if table == nil || table.NumAngles() == 0 {
		return nil, ErrEmptyTable
	}
	sr := table.SampleRate
	opt.fillDefaults(sr)

	n1 := dsp.NextPow2(lenL + lenR)
	maxLag := int(1.2e-3 * sr) // beyond the largest human ITD
	if 2*maxLag+1 > n1 {
		// Degenerate (sub-ITD) windows: keep the lag window inside the
		// transform rather than wrapping twice.
		maxLag = (n1 - 1) / 2
	}
	n2 := dsp.NextPow2(max(lenL, lenR) + table.MaxFarIRLen())
	spec, err := table.FarSpectra(n2)
	if err != nil {
		// Per-candidate scoring falls back to time-domain eq. 11.
		spec = nil
	}
	relLen := 2*maxLag + 1
	e := &AoAEstimator{
		table:  table,
		opt:    opt,
		sr:     sr,
		lenL:   lenL,
		lenR:   lenR,
		maxLag: maxLag,

		p1:   dsp.PlanFFT(n1),
		pad1: make([]float64, n1),
		fl1:  make([]complex128, n1),
		fr1:  make([]complex128, n1),
		rel:  make([]float64, relLen),

		p2:   dsp.PlanFFT(n2),
		pad2: make([]float64, n2),
		fl2:  make([]complex128, n2),
		fr2:  make([]complex128, n2),
		spec: spec,
		itds: table.FarITDs(),

		cand:  make([]dsp.Peak, 0, relLen),
		peaks: make([]dsp.Peak, 0, relLen),
		order: make([]int, relLen),
		taken: make([]bool, relLen),
		kept:  make([]bool, relLen),
		cands: make([]int, 0, 2*opt.MaxCandidates),
	}
	return e, nil
}

// Estimate runs the unknown-source pipeline over one stereo window: the
// relative channel between the ears yields candidate delays, each delay
// maps to a front and a back angle through the table's ITDs, and the
// eq. 11 identity L×HRTF_R(θ) = R×HRTF_L(θ) picks among them. Slice
// lengths must match the planned window.
func (e *AoAEstimator) Estimate(left, right []float64) (AoAEstimate, error) {
	if len(left) != e.lenL || len(right) != e.lenR {
		return AoAEstimate{}, errAoAWindow
	}
	e.relativeChannel(left, right)
	peaks := e.findPeaks(e.rel, 0.5, 3)
	if len(peaks) == 0 {
		return AoAEstimate{}, ErrNoFirstTap
	}
	if len(peaks) > e.opt.MaxCandidates {
		peaks = e.strongest(peaks, e.opt.MaxCandidates)
	}

	cands := e.cands[:0]
	for _, p := range peaks {
		dt := float64(p.Index-e.maxLag) / e.sr // relative delay (left - right)
		front, back := itdCandidates(e.itds, dt)
		cands = append(cands, front, back)
	}
	e.cands = cands

	e.forwardReal(e.p2, e.fl2, e.pad2, left)
	e.forwardReal(e.p2, e.fr2, e.pad2, right)
	best := AoAEstimate{Score: math.Inf(1)}
	for _, idx := range cands {
		h := e.table.Far[idx]
		if h.Empty() {
			continue
		}
		var score float64
		if e.spec != nil && e.spec.Left[idx] != nil && e.spec.Right[idx] != nil {
			score = eq11ZeroLag(e.fl2, e.fr2, e.spec.Right[idx], e.spec.Left[idx])
		} else {
			score = eq11Mismatch(left, right, h)
		}
		if score < best.Score {
			best = AoAEstimate{AngleDeg: e.table.Angle(idx), Score: score}
		}
	}
	if math.IsInf(best.Score, 1) {
		return AoAEstimate{}, ErrEmptyTable
	}
	return best, nil
}

// forwardReal zero-pads src into pad and transforms it into dst.
func (e *AoAEstimator) forwardReal(p *dsp.Plan, dst []complex128, pad, src []float64) {
	n := copy(pad, src)
	for i := n; i < len(pad); i++ {
		pad[i] = 0
	}
	p.ForwardReal(dst, pad)
}

// relativeChannel fills e.rel with the time-domain relative channel (L/R by
// regularized spectral division) windowed to lags within ±maxLag; index
// maxLag is zero lag.
func (e *AoAEstimator) relativeChannel(left, right []float64) {
	e.forwardReal(e.p1, e.fl1, e.pad1, left)
	e.forwardReal(e.p1, e.fr1, e.pad1, right)

	// Regularized division FL·FR*/(|FR|²+eps), eps = 1e-2·max|FR|², written
	// into fl in place (the divisor changes every call, so there is nothing
	// to prepare as a dsp.Deconvolver).
	maxPow := 0.0
	for _, b := range e.fr1 {
		if p := real(b)*real(b) + imag(b)*imag(b); p > maxPow {
			maxPow = p
		}
	}
	eps := 1e-2 * maxPow
	if eps == 0 {
		eps = 1e-30
	}
	for i, b := range e.fr1 {
		den := real(b)*real(b) + imag(b)*imag(b) + eps
		e.fl1[i] = e.fl1[i] * complex(real(b), -imag(b)) / complex(den, 0)
	}
	e.p1.Inverse(e.fl1)

	// Unwrap circularly: positive lags at the transform's front, negative
	// at its end.
	n := e.p1.Size()
	for k := -e.maxLag; k <= e.maxLag; k++ {
		idx := k
		if idx < 0 {
			idx += n
		}
		e.rel[k+e.maxLag] = real(e.fl1[idx])
	}
}

// findPeaks is dsp.FindPeaks over the estimator's scratch: all local maxima
// of |x| at least minRel times the global maximum, separated by at least
// minDist samples (greedy, strongest first), sorted by index. The returned
// slice is valid until the next call.
func (e *AoAEstimator) findPeaks(x []float64, minRel float64, minDist int) []dsp.Peak {
	maxMag := dsp.MaxAbs(x)
	if maxMag == 0 {
		return nil
	}
	thresh := minRel * maxMag
	cand := e.cand[:0]
	for i := range x {
		m := math.Abs(x[i])
		if m < thresh {
			continue
		}
		prev := 0.0
		if i > 0 {
			prev = math.Abs(x[i-1])
		}
		next := 0.0
		if i < len(x)-1 {
			next = math.Abs(x[i+1])
		}
		if m >= prev && m > next {
			cand = append(cand, dsp.Peak{Index: i, Value: x[i]})
		}
	}
	e.cand = cand
	order := e.order[:len(cand)]
	for i := range order {
		order[i] = i
	}
	for i := 0; i < len(order); i++ {
		for j := i + 1; j < len(order); j++ {
			if math.Abs(cand[order[j]].Value) > math.Abs(cand[order[i]].Value) {
				order[i], order[j] = order[j], order[i]
			}
		}
	}
	taken := e.taken[:len(cand)]
	kept := e.kept[:len(cand)]
	for i := range taken {
		taken[i] = false
		kept[i] = false
	}
	for _, oi := range order {
		if taken[oi] {
			continue
		}
		kept[oi] = true
		for j := range cand {
			if j != oi && absInt(cand[j].Index-cand[oi].Index) < minDist {
				taken[j] = true
			}
		}
	}
	// The candidate scan runs in index order, so the kept subset is
	// already index-sorted.
	out := e.peaks[:0]
	for i := range cand {
		if kept[i] {
			out = append(out, cand[i])
		}
	}
	e.peaks = out
	return out
}

// strongest reorders peaks by descending magnitude in place and keeps the
// first k, matching the batch estimator's historical selection.
func (e *AoAEstimator) strongest(peaks []dsp.Peak, k int) []dsp.Peak {
	for i := 0; i < len(peaks); i++ {
		for j := i + 1; j < len(peaks); j++ {
			if math.Abs(peaks[j].Value) > math.Abs(peaks[i].Value) {
				peaks[i], peaks[j] = peaks[j], peaks[i]
			}
		}
	}
	return peaks[:k]
}

// itdCandidates returns the table indices whose ITD locally best matches
// dt: the global best and the best on the other side of the front/back
// split, mirroring the paper's two candidate AoAs per relative delay.
func itdCandidates(itds []float64, dt float64) (front, back int) {
	half := len(itds) / 2
	front, back = 0, half
	for i := 0; i < len(itds); i++ {
		if i < half {
			if math.Abs(itds[i]-dt) < math.Abs(itds[front]-dt) {
				front = i
			}
		} else {
			if math.Abs(itds[i]-dt) < math.Abs(itds[back]-dt) {
				back = i
			}
		}
	}
	return front, back
}

// eq11ZeroLag scores how badly L×HRTF_R(θ) differs from R×HRTF_L(θ) as one
// minus their zero-lag normalized correlation, computed entirely in the
// frequency domain (Parseval): no inverse transform per candidate. At the
// true angle the two products are the same signal, so the correlation peaks
// at zero lag by construction; searching other lags would only let wrong
// candidates find a more flattering alignment.
func eq11ZeroLag(flSpec, frSpec, hrSpec, hlSpec []complex128) float64 {
	var dot, ea, eb float64
	for i := range flSpec {
		a := flSpec[i] * hrSpec[i]
		b := frSpec[i] * hlSpec[i]
		dot += real(a)*real(b) + imag(a)*imag(b)
		ea += real(a)*real(a) + imag(a)*imag(a)
		eb += real(b)*real(b) + imag(b)*imag(b)
	}
	if ea == 0 || eb == 0 {
		return 1
	}
	return 1 - dot/math.Sqrt(ea*eb)
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
