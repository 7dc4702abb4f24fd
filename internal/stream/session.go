package stream

import "repro/internal/hrtf"

// SessionOptions tunes a streaming render session.
type SessionOptions struct {
	// Convolver forwards engine tuning (block size, pending bound).
	Convolver ConvolverOptions
	// SourceDeg is the initial world-frame source bearing in degrees
	// (0° straight ahead, 90° at the left ear; default 90). Any angle
	// works: right-hemisphere bearings render through their mirror with
	// the ears swapped. A zero value means "unset" unless HasSource is
	// true.
	SourceDeg float64
	// HasSource marks SourceDeg as explicitly set, so a 0° (straight
	// ahead) bearing is requestable. Without it, SourceDeg == 0 keeps its
	// historical meaning of "use the 90° default".
	HasSource bool
}

// SessionStats is a point-in-time snapshot of a session's accounting.
type SessionStats struct {
	// FramesIn / FramesOut count PushFrame and producing ReadFrame calls.
	FramesIn  uint64 `json:"framesIn"`
	FramesOut uint64 `json:"framesOut"`
	// SamplesIn / SamplesOut count accepted input and delivered output
	// samples.
	SamplesIn  uint64 `json:"samplesIn"`
	SamplesOut uint64 `json:"samplesOut"`
	// OverrunSamples counts input dropped because the pending bound was
	// full; UnderrunSamples counts output a reader asked for before it
	// was ready (reader starvation).
	OverrunSamples  uint64 `json:"overrunSamples"`
	UnderrunSamples uint64 `json:"underrunSamples"`
	// Blocks is the number of convolution blocks processed.
	Blocks uint64 `json:"blocks"`
	// Flushed and Drained report end-of-input and end-of-output.
	Flushed bool `json:"flushed"`
	Drained bool `json:"drained"`
}

// Session is the single-source streaming render: a thin façade over a
// one-source free-field Scene that keeps the classic source-bearing and
// head-pose API. The rendered angle is the world-frame source bearing
// minus the head yaw, folded into the table span with the ears swapped
// for right-hemisphere angles; locking, backpressure and accounting are
// the Scene's. Producers and consumers may run on different goroutines.
type Session struct {
	// sc always holds source 0, so the Scene's source-index errors
	// cannot occur and the façade drops them.
	sc *Scene
}

// NewSession opens a streaming session over a personalization table with
// one source at SourceDeg (0° straight ahead, 90° at the left ear).
func NewSession(t *hrtf.Table, opt SessionOptions) (*Session, error) {
	source := opt.SourceDeg
	if source == 0 && !opt.HasSource {
		// Zero value means "unset": keep the 90° default. Callers that
		// really want a 0° bearing set HasSource.
		source = 90
	}
	sc, err := NewScene(t, SceneOptions{
		Convolver: opt.Convolver,
		Sources:   []SceneSource{{BearingDeg: source}},
	})
	if err != nil {
		return nil, err
	}
	return &Session{sc: sc}, nil
}

// BlockSize returns the engine's crossfade block length in samples.
func (s *Session) BlockSize() int { return s.sc.BlockSize() }

// TailLen returns the convolution tail appended after the input ends.
func (s *Session) TailLen() int { return s.sc.TailLen() }

// SetPose updates the listener's head yaw (degrees). Blocks rendered from
// now on use the new relative angle; the Bartlett overlap crossfades the
// turn click-free.
func (s *Session) SetPose(yawDeg float64) { s.sc.SetPose(yawDeg) }

// SetSource moves the world-frame source bearing (degrees).
func (s *Session) SetSource(deg float64) { _ = s.sc.SetBearing(0, deg) }

// PushFrame feeds one mono input frame, returning how many samples were
// accepted; the rest were dropped at the pending bound (counted in
// OverrunSamples).
func (s *Session) PushFrame(mono []float64) int {
	n, _ := s.sc.PushFrame(0, mono)
	return n
}

// ReadFrame fills l and r with up to min(len(l), len(r)) rendered samples
// and returns how many were written. A short read while input is still
// expected counts the shortfall as underrun samples.
func (s *Session) ReadFrame(l, r []float64) int { return s.sc.ReadFrame(l, r) }

// Available returns how many rendered samples ReadFrame can deliver now.
func (s *Session) Available() int { return s.sc.Available() }

// Flush declares the end of input; the remaining tail becomes readable.
func (s *Session) Flush() { s.sc.Flush() }

// Drained reports whether the stream has ended and every rendered sample
// has been read.
func (s *Session) Drained() bool { return s.sc.Drained() }

// Stats snapshots the session's accounting.
func (s *Session) Stats() SessionStats { return s.sc.Stats().SessionStats }
