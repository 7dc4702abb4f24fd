package core

import (
	"errors"
	"math"

	"repro/internal/dsp"
	"repro/internal/geom"
	"repro/internal/head"
	"repro/internal/hrtf"
)

// NearFarOptions tunes the §4.3 near-to-far synthesis.
type NearFarOptions struct {
	// Radius is the near-field trajectory radius used for the ray
	// intersection geometry (typically the session's mean arm length).
	Radius float64
	// StepDeg is the output angular resolution (default: the near
	// table's step).
	StepDeg float64
}

// ErrEmptyNearField is returned when the near-field table has no entries.
var ErrEmptyNearField = errors.New("core: near-field table is empty")

// SynthesizeFarField builds the far-field HRTF from the continuous
// near-field table using the paper's ray-selection heuristic (Fig 12): for
// a plane wave from angle θ, the parallel rays crossing the measurement
// trajectory between the central normal ray (C) and the silhouette-grazing
// rays (B left, D right) are the rays that diffract into each ear, so the
// far-field HRIR per ear is the average of the near-field HRIRs measured
// at those trajectory locations, with the interaural delays and amplitudes
// fine-tuned from the fitted head parameters.
func SynthesizeFarField(near *hrtf.Table, params head.Params, opt NearFarOptions) (*hrtf.Table, error) {
	if near == nil || near.NumAngles() == 0 {
		return nil, ErrEmptyNearField
	}
	if opt.Radius <= 0 {
		opt.Radius = 0.32
	}
	if opt.StepDeg <= 0 {
		opt.StepDeg = near.AngleStep
	}
	model, err := head.NewWithResolution(params, 240)
	if err != nil {
		return nil, err
	}
	sr := near.SampleRate
	irLen := 0
	for i := 0; i < near.NumAngles(); i++ {
		if l := len(near.Near[i].Left); l > irLen {
			irLen = l
		}
	}
	if irLen == 0 {
		return nil, ErrEmptyNearField
	}
	refTap := refTapSeconds * sr
	alignedL, alignedR := alignNear(near, irLen, refTap)

	n := int(180/opt.StepDeg) + 1
	far := hrtf.NewTable(sr, 0, opt.StepDeg, n)
	for i := 0; i < n; i++ {
		theta := far.Angle(i)
		leftSet, rightSet := contributingAngles(model, near, theta, opt.Radius)
		hl := averageAligned(alignedL, leftSet, irLen)
		hr := averageAligned(alignedR, rightSet, irLen)
		if hl == nil || hr == nil {
			// Degenerate geometry: fall back to the near-field HRIR at
			// the same angle.
			nh, err := near.NearAt(theta)
			if err != nil || nh.Empty() {
				continue
			}
			if hl == nil {
				hl = dsp.ZeroPad(nh.Left, irLen)
			}
			if hr == nil {
				hr = dsp.ZeroPad(nh.Right, irLen)
			}
		}
		// Fine-tune delays and amplitudes from the head model's
		// parallel-ray geometry (the paper's final adjustment step).
		fl := model.FarField(theta, head.Left)
		fr := model.FarField(theta, head.Right)
		hl = hrtf.AlignTo(hl, refTap+fl.ExtraDelay*sr)
		hr = hrtf.AlignTo(hr, refTap+fr.ExtraDelay*sr)
		hl = scaleToPeak(hl, fl.Attenuation)
		hr = scaleToPeak(hr, fr.Attenuation)
		far.Far[i] = hrtf.HRIR{Left: hl, Right: hr, SampleRate: sr}
		if nh, err := near.NearAt(theta); err == nil {
			far.Near[i] = nh.Clone()
		}
	}
	return far, nil
}

// weightedAngle is a contributing near-field table entry and its averaging
// weight. Rays closer to the ear-bound ray dominate the arrival physically,
// so they carry more weight than rays near the central normal ray.
type weightedAngle struct {
	idx    int
	weight float64
}

// contributingAngles returns the near-field table entries whose
// trajectory points intercept far-field rays bound for each ear: the arcs
// [C,B] (left) and [C,D] (right) of Fig 12, with weights biased toward the
// ear-bound ray.
func contributingAngles(model *head.Model, near *hrtf.Table, thetaDeg, radius float64) (left, right []weightedAngle) {
	u := geom.FromPolar(geom.Radians(thetaDeg), 1) // toward the source
	d := u.Scale(-1)                               // propagation direction
	perp := geom.Vec{X: -d.Y, Y: d.X}
	// Silhouette extents: the largest |offset| of boundary points on each
	// side of the central ray.
	b := model.Boundary()
	var posExtent, negExtent float64
	for i := 0; i < b.NumVertices(); i++ {
		o := perp.Dot(b.Vertex(i))
		if o > posExtent {
			posExtent = o
		}
		if o < negExtent {
			negExtent = o
		}
	}
	// Which offset sign feeds the left ear: the sign of the left ear's
	// own offset; at the degenerate grazing angle fall back to the
	// opposite of the right ear's side.
	oL := perp.Dot(model.EarPosition(head.Left))
	oR := perp.Dot(model.EarPosition(head.Right))
	sideL := math.Copysign(1, oL)
	if math.Abs(oL) < 1e-9 {
		sideL = -math.Copysign(1, oR)
	}
	for i := 0; i < near.NumAngles(); i++ {
		if near.Near[i].Empty() {
			continue
		}
		ang := near.Angle(i)
		x := geom.FromPolar(geom.Radians(ang), radius)
		if x.Dot(u) <= 0 {
			continue // trajectory point on the shadow side of the head
		}
		o := perp.Dot(x)
		if o*sideL >= 0 {
			ext := math.Abs(extentFor(sideL, posExtent, negExtent))
			if math.Abs(o) <= ext {
				left = append(left, weightedAngle{i, rayWeight(o, oL, ext)})
			}
		} else {
			ext := math.Abs(extentFor(-sideL, posExtent, negExtent))
			if math.Abs(o) <= ext {
				right = append(right, weightedAngle{i, rayWeight(o, oR, ext)})
			}
		}
	}
	return left, right
}

// rayWeight emphasizes rays whose lateral offset is close to the ear's own
// offset (the ray that reaches the ear most directly).
func rayWeight(o, oEar, extent float64) float64 {
	if extent <= 0 {
		return 1
	}
	// Weight the arc average toward the central ray C: the trajectory
	// point at the source's own polar angle sees the pinna closest to
	// how the far-field wave will, while the interaural delay/amplitude
	// that the other rays would contribute is re-imposed afterwards from
	// the head model anyway. (oEar is accepted for symmetry of the call
	// sites; the kernel is deliberately centred on C, not the ear ray.)
	_ = oEar
	sigma := extent / 3
	return math.Exp(-o * o / (2 * sigma * sigma))
}

func extentFor(side, posExtent, negExtent float64) float64 {
	if side > 0 {
		return posExtent
	}
	return negExtent
}

// alignNear first-tap aligns every non-empty near-field HRIR to refTap and
// zero-pads it to irLen, per ear and indexed like near.Near (nil for empty
// entries). contributingAngles only returns entries of the near table and
// refTap is fixed for the solve, so each alignment is computed once here
// instead of once per far-field angle whose arc includes it.
func alignNear(near *hrtf.Table, irLen int, refTap float64) (left, right [][]float64) {
	left = make([][]float64, near.NumAngles())
	right = make([][]float64, near.NumAngles())
	for i, h := range near.Near {
		if h.Empty() {
			continue
		}
		left[i] = dsp.ZeroPad(hrtf.AlignTo(h.Left, refTap), irLen)
		right[i] = dsp.ZeroPad(hrtf.AlignTo(h.Right, refTap), irLen)
	}
	return left, right
}

// averageAligned forms the weighted average of the selected entries of one
// ear's aligned near-field HRIRs (see alignNear).
func averageAligned(aligned [][]float64, angles []weightedAngle, irLen int) []float64 {
	if len(angles) == 0 {
		return nil
	}
	acc := make([]float64, irLen)
	totalW := 0.0
	for _, wa := range angles {
		h := aligned[wa.idx]
		if h == nil || wa.weight <= 0 {
			continue
		}
		for k := range acc {
			acc[k] += wa.weight * h[k]
		}
		totalW += wa.weight
	}
	if totalW == 0 {
		return nil
	}
	inv := 1 / totalW
	for k := range acc {
		acc[k] *= inv
	}
	return acc
}

// scaleToPeak rescales x so its peak magnitude equals target.
func scaleToPeak(x []float64, target float64) []float64 {
	m := dsp.MaxAbs(x)
	if m == 0 || target <= 0 {
		return x
	}
	return dsp.Scale(x, target/m)
}
