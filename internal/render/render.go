// Package render turns personalized HRTF tables into application-grade
// binaural audio: block-based rendering of *moving* sources (the "head
// rotates, motion sensors update θ" scenario of the paper's introduction)
// with click-free crossfades, and an extension implementing §7's "room
// multipath integration" — filtering with both a room impulse response and
// the HRTF for plausible in-room externalization.
package render

import (
	"errors"

	"repro/internal/hrtf"
	"repro/internal/room"
	"repro/internal/stream"
)

// Renderer renders binaural audio from an angle-indexed HRTF table.
type Renderer struct {
	// Table supplies the HRIRs (far-field entries are used).
	Table *hrtf.Table
	// BlockSize is the rendering granularity in samples (default: 20 ms
	// worth). Each block uses the HRIR of the source's angle at the
	// block center; adjacent blocks crossfade.
	BlockSize int
}

// ErrNoTable is returned when the renderer has no HRTF data.
var ErrNoTable = errors.New("render: renderer needs a populated table")

// RenderMoving renders a mono source whose direction changes over time.
// bearingAt maps a time in seconds (from the start of the signal) to the
// source's polar angle in degrees (0° straight ahead, 90° at the left
// ear); angles beyond the table span render through their mirror with the
// ears swapped. The output has the length of the input plus the HRIR
// tail.
//
// The whole-buffer path drives the streaming engine — a one-source
// stream.Scene fed one hop at a time, with bearingAt sampled at each block
// center — so batch and live renders share one kernel: 50%-overlap
// Bartlett blocks whose windows sum to one, so a static source renders
// exactly as a single convolution.
func (r *Renderer) RenderMoving(mono []float64, bearingAt func(t float64) float64) (left, right []float64, err error) {
	if r.Table == nil || r.Table.NumAngles() == 0 {
		return nil, nil, ErrNoTable
	}
	if bearingAt == nil {
		return nil, nil, errors.New("render: moving render needs an angle source")
	}
	if len(mono) == 0 {
		return nil, nil, nil
	}
	// The source's bearing is set from bearingAt before every block.
	left, right, err = renderScene(r.Table, stream.SceneOptions{
		Convolver: stream.ConvolverOptions{BlockSize: r.BlockSize},
		Sources:   []stream.SceneSource{{}},
	}, mono, bearingAt)
	if err != nil {
		return nil, nil, ErrNoTable
	}
	return left, right, nil
}

// renderScene renders mono through the one-source scene opt describes on
// the streaming schedule. The input goes in one hop per push, and push m
// completes exactly the block centered on sample m·hop, so bearingAt
// (when set) is sampled at that center just before the push — where a
// live stream would turn the source. The input is zero-padded to a whole
// hop (the flushed final blocks read zeros past the end either way) and
// the output is cut back to len(mono) + TailLen().
func renderScene(t *hrtf.Table, opt stream.SceneOptions, mono []float64, bearingAt func(t float64) float64) (left, right []float64, err error) {
	// The scene must buffer the whole signal: batch rendering has no
	// backpressure.
	opt.Convolver.MaxPending = len(mono) + 1
	sc, err := stream.NewScene(t, opt)
	if err != nil {
		return nil, nil, err
	}
	hop := sc.BlockSize() / 2
	padded := make([]float64, (len(mono)+hop-1)/hop*hop)
	copy(padded, mono)
	// Source 0 always exists, so SetBearing and PushFrame cannot fail, and
	// MaxPending covers the whole signal, so every push is accepted.
	for off := 0; ; off += hop {
		if bearingAt != nil {
			_ = sc.SetBearing(0, bearingAt(float64(off)/t.SampleRate))
		}
		if off == len(padded) {
			break
		}
		_, _ = sc.PushFrame(0, padded[off:off+hop])
	}
	sc.Flush()
	left = make([]float64, len(padded)+sc.TailLen())
	right = make([]float64, len(left))
	sc.ReadFrame(left, right)
	n := len(mono) + sc.TailLen()
	return left[:n], right[:n], nil
}

// RoomRenderer implements §7's extension: render a source inside a room by
// filtering with the HRTF of the direct path *and* of each early room
// image, producing in-room binaural audio instead of the anechoic default.
type RoomRenderer struct {
	// Table supplies the far-field HRIRs.
	Table *hrtf.Table
	// Room describes the listening room.
	Room room.Config
}

// Render places the mono source at the given polar angle and distance
// (metres) inside the room and returns the reverberant binaural pair.
//
// Like RenderMoving, the whole-buffer path drives a one-source
// stream.Scene (here with the room's image arrivals), so batch and live
// room renders share one kernel and cannot drift apart (the scene tests
// pin them sample-for-sample). The direct path folds into the table span
// exactly like the image arrivals: a right-hemisphere source (say 250°)
// renders through its 110° mirror with the ears swapped.
func (rr *RoomRenderer) Render(mono []float64, angleDeg, distance float64) (left, right []float64, err error) {
	if rr.Table == nil || rr.Table.NumAngles() == 0 {
		return nil, nil, ErrNoTable
	}
	if len(mono) == 0 {
		return nil, nil, nil
	}
	left, right, err = renderScene(rr.Table, stream.SceneOptions{
		Room:    rr.Room,
		Sources: []stream.SceneSource{{BearingDeg: angleDeg, Distance: distance}},
	}, mono, nil)
	if err != nil {
		if rr.Room.MaxOrder > 0 {
			if verr := rr.Room.Validate(); verr != nil {
				return nil, nil, verr
			}
		}
		return nil, nil, ErrNoTable
	}
	return left, right, nil
}
