package dsp

import "math"

// Peak describes a local maximum of |x|.
type Peak struct {
	// Index is the sample index of the peak.
	Index int
	// Value is the signed sample value at the peak.
	Value float64
}

// FindPeaks returns all local maxima of |x| whose magnitude is at least
// minRel times the global maximum magnitude, separated by at least minDist
// samples (greedy, strongest first). Results are sorted by index.
func FindPeaks(x []float64, minRel float64, minDist int) []Peak {
	if len(x) == 0 {
		return nil
	}
	if minDist < 1 {
		minDist = 1
	}
	maxMag := MaxAbs(x)
	if maxMag == 0 {
		return nil
	}
	thresh := minRel * maxMag
	var cand []Peak
	for i := range x {
		if isPeak(x, i, thresh) {
			cand = append(cand, Peak{Index: i, Value: x[i]})
		}
	}
	// Greedy non-max suppression by magnitude.
	order := make([]int, len(cand))
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
	taken := make([]bool, len(cand))
	kept := make([]bool, len(cand))
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
	var out []Peak
	for i := range cand {
		if kept[i] {
			out = append(out, cand[i])
		}
	}
	// Sort by index (insertion, counts are small).
	for i := 1; i < len(out); i++ {
		v := out[i]
		j := i - 1
		for j >= 0 && out[j].Index > v.Index {
			out[j+1] = out[j]
			j--
		}
		out[j+1] = v
	}
	return out
}

// isPeak reports whether |x[i]| is a local maximum of |x| (ties to the
// left count, to the right do not) at least thresh.
func isPeak(x []float64, i int, thresh float64) bool {
	m := math.Abs(x[i])
	if m < thresh {
		return false
	}
	prev := 0.0
	if i > 0 {
		prev = math.Abs(x[i-1])
	}
	next := 0.0
	if i < len(x)-1 {
		next = math.Abs(x[i+1])
	}
	return m >= prev && m > next
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// FirstPeak returns the earliest local maximum of |x| with magnitude at
// least minRel times the global maximum, refined to sub-sample precision by
// band-limited interpolation. It returns the (possibly fractional) index and
// the peak's signed value, or (-1, 0) if no peak qualifies. UNIQ uses the
// first channel tap to measure the diffraction path (§4.1). It is the
// first of FindPeaks(x, minRel, 1), found by one scan that allocates
// nothing.
func FirstPeak(x []float64, minRel float64) (index float64, value float64) {
	maxMag := MaxAbs(x)
	if maxMag == 0 {
		return -1, 0
	}
	thresh := minRel * maxMag
	for i := range x {
		if !isPeak(x, i, thresh) {
			continue
		}
		idx := float64(i)
		if i > 0 && i < len(x)-1 {
			// Refine by band-limited (windowed-sinc) interpolation on a
			// fine grid around the integer peak: for band-limited channels
			// this is far more accurate than parabolic fitting on |x|.
			idx = refinePeakSinc(x, i)
		}
		return idx, x[i]
	}
	return -1, 0
}

// refinePeakSinc locates the magnitude maximum of the band-limited
// interpolant of x within ±1 sample of the integer peak at i0, to 1/64
// sample resolution.
func refinePeakSinc(x []float64, i0 int) float64 {
	best, bestT := math.Abs(x[i0]), float64(i0)
	for s := -sincSteps / 2; s <= sincSteps/2; s++ {
		t := float64(i0) + 2*float64(s)/sincSteps
		k, w := &sincKernel[s+sincSteps/2], &sincWindow[s+sincSteps/2]
		v := 0.0
		for j := i0 - sincHalf; j <= i0+sincHalf; j++ {
			if j < 0 || j >= len(x) {
				continue
			}
			c := j - i0 + sincHalf
			v += x[j] * k[c] * w[c]
		}
		if a := math.Abs(v); a > best {
			best, bestT = a, t
		}
	}
	return bestT
}

// refinePeakSinc's interpolant: sincHalf taps either side of the peak,
// evaluated at sincSteps+1 offsets spanning ±1 sample.
const (
	sincHalf  = 12
	sincSteps = 128
)

// sincKernel and sincWindow tabulate refinePeakSinc's windowed-sinc taps.
// Row s+64, column m+12 holds sin(πd)/(πd) and the Hann weight
// 0.5(1+cos(πd/13)) at d = s/64 − m, for step s ∈ [−64, 64] and tap offset
// m = j−i0 ∈ [−12, 12]. The offset d = (i0 + s/64) − j is exact in float64
// for i0 < 2⁴⁶, so each entry has the bits the trig would give at the peak.
// The factors stay separate because x·k·w evaluates as (x·k)·w: a fused k·w
// entry could change the last bit.
var sincKernel, sincWindow = sincTables()

func sincTables() (k, w [sincSteps + 1][2*sincHalf + 1]float64) {
	for s := -sincSteps / 2; s <= sincSteps/2; s++ {
		t := 2 * float64(s) / sincSteps
		for m := -sincHalf; m <= sincHalf; m++ {
			d := t - float64(m)
			k[s+sincSteps/2][m+sincHalf] = 1
			if d != 0 {
				k[s+sincSteps/2][m+sincHalf] = math.Sin(math.Pi*d) / (math.Pi * d)
			}
			w[s+sincSteps/2][m+sincHalf] = 0.5 * (1 + math.Cos(math.Pi*d/float64(sincHalf+1)))
		}
	}
	return k, w
}
