package uniq

import (
	"errors"
	"io"

	"repro/internal/geom"
	"repro/internal/render"
	"repro/internal/room"
	"repro/internal/wav"
)

// RenderMoving renders a mono source whose direction changes over time
// (e.g. the listener's head turns, or the virtual source moves): bearingAt
// maps seconds to the source's current angle in degrees. Any angle works:
// right-hemisphere angles render through their left-hemisphere mirror
// with the ears swapped. Blocks are crossfaded, so sweeps are click-free;
// a constant angle reproduces Render exactly.
func (p *Profile) RenderMoving(mono []float64, bearingAt func(t float64) float64) (left, right []float64, err error) {
	if p == nil || p.Table == nil {
		return nil, nil, errors.New("uniq: empty profile")
	}
	r := &render.Renderer{Table: p.Table}
	return r.RenderMoving(mono, bearingAt)
}

// TrackHead renders a world-fixed source for a listener whose head yaw
// changes over time (the earphone IMU supplies yawAt). The source stays
// put in the world as the head turns — the paper's AR/VR orchestra
// scenario. It is RenderMoving at the relative angle sourceDeg − yaw, so
// the ears swap smoothly, block by block, whenever the source crosses to
// the right hemisphere.
func (p *Profile) TrackHead(mono []float64, sourceDeg float64, yawAt func(t float64) float64) (left, right []float64, err error) {
	if yawAt == nil {
		return nil, nil, errors.New("uniq: head tracking needs a yaw source")
	}
	return p.RenderMoving(mono, func(t float64) float64 { return sourceDeg - yawAt(t) })
}

// RoomOptions describes a listening room for reverberant rendering.
type RoomOptions struct {
	// Width and Depth of the room in metres (default 4 x 5).
	Width, Depth float64
	// Absorption of the walls in (0, 1] (default 0.45).
	Absorption float64
}

// RenderInRoom renders the source at angleDeg and the given distance inside
// a room, filtering with both the room's early reflections and the
// personalized HRTF — the §7 "room multipath integration" extension for
// more externalized playback.
func (p *Profile) RenderInRoom(mono []float64, angleDeg, distance float64, opt RoomOptions) (left, right []float64, err error) {
	if p == nil || p.Table == nil {
		return nil, nil, errors.New("uniq: empty profile")
	}
	if opt.Width <= 0 {
		opt.Width = 4
	}
	if opt.Depth <= 0 {
		opt.Depth = 5
	}
	if opt.Absorption <= 0 || opt.Absorption > 1 {
		opt.Absorption = 0.45
	}
	rr := &render.RoomRenderer{
		Table: p.Table,
		Room: room.Config{
			Width: opt.Width, Depth: opt.Depth,
			Origin:     geom.Vec{X: opt.Width / 2, Y: opt.Depth / 2},
			Absorption: opt.Absorption,
			MaxOrder:   2,
		},
	}
	return rr.Render(mono, angleDeg, distance)
}

// nearFieldBoundary is where the §4.4 interface switches from the
// near-field to the far-field HRIR (the paper adopts the conventional 1 m).
const nearFieldBoundary = 1.0

// RenderAtDistance spatializes a mono sound at (angleDeg, distance metres),
// making the §4.4 near/far decision for the caller: inside roughly one
// metre the measured near-field HRIR is used, beyond it the synthesized
// far-field one, with a smooth crossfade around the boundary and 1/r
// distance gain (referenced to 1 m).
func (p *Profile) RenderAtDistance(mono []float64, angleDeg, distance float64) (left, right []float64, err error) {
	if p == nil || p.Table == nil {
		return nil, nil, errors.New("uniq: empty profile")
	}
	if distance <= 0.05 {
		distance = 0.05
	}
	gain := 1.0 / distance
	if gain > 4 {
		gain = 4 // cap the whisper-in-ear boost
	}
	// Crossfade band: 0.8–1.25 m.
	wFar := 0.0
	switch {
	case distance >= 1.25*nearFieldBoundary:
		wFar = 1
	case distance > 0.8*nearFieldBoundary:
		wFar = (distance - 0.8) / (1.25 - 0.8)
	}
	var nl, nr, fl, fr []float64
	if wFar < 1 {
		nl, nr, err = p.Table.RenderAt(mono, angleDeg, false)
		if err != nil {
			return nil, nil, err
		}
	}
	if wFar > 0 {
		fl, fr, err = p.Table.RenderAt(mono, angleDeg, true)
		if err != nil {
			return nil, nil, err
		}
	}
	mix := func(near, far []float64) []float64 {
		n := len(near)
		if len(far) > n {
			n = len(far)
		}
		out := make([]float64, n)
		for i := range out {
			v := 0.0
			if i < len(near) {
				v += (1 - wFar) * near[i]
			}
			if i < len(far) {
				v += wFar * far[i]
			}
			out[i] = gain * v
		}
		return out
	}
	return mix(nl, fl), mix(nr, fr), nil
}

// WriteWAV writes a rendered binaural pair as a 16-bit stereo WAV at the
// profile's sample rate.
func (p *Profile) WriteWAV(w io.Writer, left, right []float64) error {
	if p == nil || p.Table == nil {
		return errors.New("uniq: empty profile")
	}
	return wav.EncodeStereo(w, left, right, int(p.Table.SampleRate))
}
