// Package acoustic synthesizes what the earbud microphones physically
// record: head-diffracted and pinna-filtered arrivals of the phone's probe
// signal, room reflections, hardware coloration, and sensor noise. It is
// the stand-in for the paper's physical testbed (phone speaker, SP-TFB-2
// in-ear microphones, ordinary room); the UNIQ pipeline in internal/core
// consumes only the recordings this package produces, never the underlying
// ground truth.
package acoustic

import (
	"errors"
	"math"

	"repro/internal/dsp"
	"repro/internal/geom"
	"repro/internal/head"
	"repro/internal/pinna"
	"repro/internal/room"
)

// World bundles the physical elements of one listener's acoustic scene.
type World struct {
	// Head is the listener's head geometry.
	Head *head.Model
	// Pinna holds the left and right pinna responses.
	Pinna [2]*pinna.Response
	// Room is the surrounding room; a nil-order room is anechoic.
	Room room.Config
	// SampleRate for all rendered impulse responses and signals, Hz.
	SampleRate float64
}

// Validate checks the world configuration.
func (w *World) Validate() error {
	if w.Head == nil {
		return errors.New("acoustic: world needs a head model")
	}
	if w.Pinna[0] == nil || w.Pinna[1] == nil {
		return errors.New("acoustic: world needs two pinna responses")
	}
	if w.SampleRate <= 0 {
		return errors.New("acoustic: sample rate must be positive")
	}
	return nil
}

// LeadInSeconds pads the start of rendered impulse responses so
// band-limited (sinc) tap energy has room before the first arrival. It
// plays the role of the playback chain's output latency: a real deployment
// measures it once via a loopback calibration, so the pipeline treats it as
// a known synchronization offset.
const LeadInSeconds = 1e-3

const leadInSeconds = LeadInSeconds

// pinnaIRLen is the rendered pinna-filter length in seconds.
const pinnaIRLen = 6e-4

// BinauralIR renders the true impulse response from a point source at p
// (head coordinates, metres) to both in-ear microphones, including room
// reflections. The length is in samples; both channels share the same time
// origin (sample 0 = source emission minus the lead-in).
func (w *World) BinauralIR(p geom.Vec, length int) (left, right []float64, err error) {
	if err := w.Validate(); err != nil {
		return nil, nil, err
	}
	left = make([]float64, length)
	right = make([]float64, length)
	if err := w.addArrival(left, head.Left, p, 1); err != nil {
		return nil, nil, err
	}
	if err := w.addArrival(right, head.Right, p, 1); err != nil {
		return nil, nil, err
	}
	for _, img := range w.Room.Images(p) {
		// Image sources can mathematically land inside the head if the
		// configuration is degenerate; skip those.
		if err := w.addArrival(left, head.Left, img.Pos, img.Gain); err != nil {
			continue
		}
		_ = w.addArrival(right, head.Right, img.Pos, img.Gain)
	}
	return left, right, nil
}

// nearFieldBreakdown is the source–ear distance (metres) below which the
// point-source model degrades: the phone speaker has physical extent and
// the proximate pinna couples with it, smearing the arrival. This is why
// the paper's gesture check rejects sweeps that drift too close (§4.6).
const nearFieldBreakdown = 0.20

// addArrival accumulates one source arrival (direct or image) into dst.
func (w *World) addArrival(dst []float64, e head.Ear, p geom.Vec, gain float64) error {
	info, err := w.Head.PathTo(p, e)
	if err != nil {
		return err
	}
	theta := p.PolarAngle()
	base := (info.Delay + leadInSeconds) * w.SampleRate
	amp := gain * info.Attenuation
	// The arrival is the pinna filter (unit direct tap + micro-echoes)
	// placed at the path's fractional delay; rendering each tap as a
	// band-limited impulse is exact and cheap.
	if info.Distance < nearFieldBreakdown {
		// Proximity smear: the arrival splits across the speaker's
		// aperture instead of behaving like a single ray.
		smear := (nearFieldBreakdown - info.Distance) * 0.6 / head.SpeedOfSound * w.SampleRate
		dsp.AddDelayedImpulse(dst, base, 0.55*amp)
		dsp.AddDelayedImpulse(dst, base+smear, 0.45*amp)
	} else {
		dsp.AddDelayedImpulse(dst, base, amp)
	}
	for _, t := range w.Pinna[e].TapsAt(theta) {
		dsp.AddDelayedImpulse(dst, base+t.Delay*w.SampleRate, amp*t.Gain)
	}
	return nil
}

// FarFieldIR renders the true anechoic far-field impulse response (the
// ground-truth HRIR) for a plane wave from polar angle thetaDeg. Both
// channels share a time origin at the wavefront crossing the head center
// minus the lead-in.
func (w *World) FarFieldIR(thetaDeg float64, length int) (left, right []float64, err error) {
	if err := w.Validate(); err != nil {
		return nil, nil, err
	}
	left = make([]float64, length)
	right = make([]float64, length)
	theta := geom.Radians(thetaDeg)
	for _, e := range []head.Ear{head.Left, head.Right} {
		info := w.Head.FarField(thetaDeg, e)
		dst := left
		if e == head.Right {
			dst = right
		}
		base := (info.ExtraDelay + leadInSeconds) * w.SampleRate
		dsp.AddDelayedImpulse(dst, base, info.Attenuation)
		for _, t := range w.Pinna[e].TapsAt(theta) {
			dsp.AddDelayedImpulse(dst, base+t.Delay*w.SampleRate, info.Attenuation*t.Gain)
		}
	}
	return left, right, nil
}

// ArrivalDelay returns the absolute first-arrival delay (seconds, excluding
// the lead-in) from p to the given ear — evaluation-only ground truth.
func (w *World) ArrivalDelay(p geom.Vec, e head.Ear) (float64, error) {
	info, err := w.Head.PathTo(p, e)
	if err != nil {
		return 0, err
	}
	return info.Delay, nil
}

// SurfaceTDOA returns the true time difference of arrival between a
// microphone pasted on the head surface at polar angle thetaDeg and the
// right-ear reference microphone, for a source at p, travelling diffracted
// paths (used by the Fig 5 groundwork experiment).
func (w *World) SurfaceTDOA(p geom.Vec, thetaDeg float64) (float64, error) {
	b := w.Head.Boundary()
	testIdx := b.NearestVertex(w.Head.SurfacePoint(thetaDeg))
	tp, err := b.ShortestExteriorPath(p, testIdx)
	if err != nil {
		return 0, err
	}
	rp, err := b.ShortestExteriorPath(p, w.Head.EarIndex(head.Right))
	if err != nil {
		return 0, err
	}
	return (tp.Length - rp.Length) / head.SpeedOfSound, nil
}

// ShadowSNRScale returns a crude SNR multiplier for a recording made at ear
// e from a source at p: deep shadow (long creeping arc) suppresses signal
// energy, which the paper observes as degraded right-ear accuracy near 90°.
func (w *World) ShadowSNRScale(p geom.Vec, e head.Ear) float64 {
	info, err := w.Head.PathTo(p, e)
	if err != nil {
		return 1
	}
	return math.Exp(-8 * info.ArcLength)
}
