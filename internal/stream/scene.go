package stream

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/geom"
	"repro/internal/hrtf"
	"repro/internal/room"
)

// speedOfSound converts image-source excess path length into arrival
// delay (m/s, dry air at ~20 °C; matches the paper's §7 room model).
const speedOfSound = 343.0

// SceneSource places one source in a scene.
type SceneSource struct {
	// BearingDeg is the world-frame source bearing in degrees (0° is
	// straight ahead and 90° the left ear, as in geom.PolarAngle; any
	// angle works — the engine folds and swaps ears per arrival).
	BearingDeg float64
	// Distance is the source distance in metres (default 2). It shapes
	// the room-image geometry — per-image delays and relative gains —
	// while the direct path renders at unit gain like the single-source
	// engine.
	Distance float64
	// Gain scales this source's contribution to the mix (default 1).
	Gain float64
}

// SceneOptions tunes a multi-source scene.
type SceneOptions struct {
	// Convolver forwards per-source engine tuning (block size, pending
	// bound). DelayHeadroom is raised automatically to cover the room's
	// worst-case image delay.
	Convolver ConvolverOptions
	// Room places the listener in a shoebox room whose image sources add
	// early reflections to every scene source. The zero value (MaxOrder
	// 0) renders free-field; with MaxOrder > 0 the config must Validate.
	Room room.Config
	// Sources is the initial source layout (at least one).
	Sources []SceneSource
}

// SceneStats extends the per-session accounting with the source count.
type SceneStats struct {
	SessionStats
	Sources int `json:"sources"`
}

// Scene renders N sources with room acoustics for one listener. It is the
// package's one render engine: Session is a one-source free-field Scene,
// and the batch renderers in internal/render drive a one-source Scene hop
// by hop. Each source owns a convolver fed by its own input stream; per
// block the source's input FFT is computed once and reused across its
// direct path and every room.Config image arrival (delay + gain + mirrored
// angle). All sources share one FFT workspace (they render sequentially
// under the scene lock), and their per-angle spectra come from the
// table's shared cache, so co-resident scenes over the same profile share
// them too.
//
// The sources advance on one output timeline: ReadFrame delivers the
// mixed samples that every still-live source can produce, so producers
// must feed all sources at the same rate (or FlushSource the finished
// ones). Scene is safe for concurrent use.
type Scene struct {
	mu    sync.Mutex
	table *hrtf.Table
	sr    float64
	room  room.Config
	yaw   float64
	srcs  []*sceneSource

	// mix scratch: per-source reads land here and are summed into the
	// caller's buffers chunk by chunk (steady state allocates nothing).
	scratchL, scratchR []float64

	framesIn, framesOut   uint64
	samplesIn, samplesOut uint64
	underruns             uint64
}

// sceneSource is one source's engine state.
type sceneSource struct {
	conv *Convolver
	cfg  SceneSource // defaults resolved
	// geo is the world-frame arrival geometry (direct + images), fixed
	// until the bearing moves; arr is geo folded by the current yaw.
	geo     []sceneArrival
	arr     []Arrival
	flushed bool
}

// sceneArrival is one propagation path in world coordinates.
type sceneArrival struct {
	worldDeg float64
	gain     float64
	delay    int // whole samples relative to the direct arrival
}

// sceneMixChunk bounds the per-read scratch (samples per ear).
const sceneMixChunk = 4096

// NewScene builds a scene over a personalization table.
func NewScene(t *hrtf.Table, opt SceneOptions) (*Scene, error) {
	if t == nil || t.NumAngles() == 0 {
		return nil, ErrNoFarField
	}
	if len(opt.Sources) == 0 {
		return nil, errors.New("stream: scene needs at least one source")
	}
	rc := opt.Room
	if rc.MaxOrder > 0 {
		if err := rc.Validate(); err != nil {
			return nil, err
		}
	}
	sc := &Scene{
		table:    t,
		sr:       t.SampleRate,
		room:     rc,
		scratchL: make([]float64, sceneMixChunk),
		scratchR: make([]float64, sceneMixChunk),
	}
	maxDist := 0.0
	cfgs := make([]SceneSource, len(opt.Sources))
	for i, s := range opt.Sources {
		if s.Distance <= 0 {
			s.Distance = 2
		}
		if s.Gain == 0 {
			s.Gain = 1
		}
		cfgs[i] = s
		maxDist = math.Max(maxDist, s.Distance)
	}
	co := opt.Convolver
	if h := sc.delayHeadroom(maxDist); h > co.DelayHeadroom {
		co.DelayHeadroom = h
	}
	ws := &workspace{}
	for i, cfg := range cfgs {
		conv, err := newConvolver(t, co, ws)
		if err != nil {
			return nil, err
		}
		if i > 0 {
			// All sources share one table and one convolver geometry, so
			// the per-angle partition spectra are identical: alias the
			// first source's (with K == 1 they already alias the table's
			// process-wide FarSpectra cache).
			conv.specL, conv.specR = sc.srcs[0].conv.specL, sc.srcs[0].conv.specR
		}
		s := &sceneSource{conv: conv, cfg: cfg}
		sc.srcs = append(sc.srcs, s)
		sc.recomputeGeo(s)
		sc.applyPose(s)
	}
	return sc, nil
}

// delayHeadroom bounds the largest image delay any source in this room
// can produce, over every possible bearing (bearing updates must never
// exceed the convolver's headroom). Conservative: an image lies within
// (MaxOrder+1)·dim of the room per axis, plus the source and origin
// offsets.
func (sc *Scene) delayHeadroom(maxDist float64) int {
	if sc.room.MaxOrder == 0 {
		return 0
	}
	reach := float64(sc.room.MaxOrder+2)*(sc.room.Width+sc.room.Depth) + 2*maxDist
	return int(math.Ceil(reach / speedOfSound * sc.sr))
}

// recomputeGeo rebuilds a source's world-frame arrival set: the direct
// path plus one delayed, attenuated arrival per room image. Gains follow
// the §7 model — wall absorption folded into img.Gain, spherical
// spreading relative to the direct path (directDist/d) — and delays are
// the excess path length over the direct arrival at the speed of sound.
func (sc *Scene) recomputeGeo(s *sceneSource) {
	s.geo = s.geo[:0]
	s.geo = append(s.geo, sceneArrival{worldDeg: s.cfg.BearingDeg, gain: s.cfg.Gain})
	if sc.room.MaxOrder == 0 {
		return
	}
	src := geom.FromPolar(geom.Radians(s.cfg.BearingDeg), s.cfg.Distance)
	directDist := src.Norm()
	for _, img := range sc.room.Images(src) {
		d := img.Pos.Norm()
		delaySec := (d - directDist) / speedOfSound
		if delaySec < 0 {
			// Only possible when the nominal source position lies outside
			// the room; such images are not physical.
			continue
		}
		s.geo = append(s.geo, sceneArrival{
			worldDeg: geom.Degrees(img.Pos.PolarAngle()),
			gain:     s.cfg.Gain * (img.Gain * directDist / d),
			delay:    int(delaySec * sc.sr),
		})
	}
}

// applyPose folds a source's world-frame geometry by the current listener
// yaw and installs the arrival set on its convolver.
func (sc *Scene) applyPose(s *sceneSource) {
	s.arr = s.arr[:0]
	for _, g := range s.geo {
		deg, swap := FoldIntoSpan(g.worldDeg-sc.yaw, sc.table)
		s.arr = append(s.arr, Arrival{
			AngleDeg:     deg,
			Gain:         g.gain,
			DelaySamples: g.delay,
			SwapEars:     swap,
		})
	}
	// Delays are bounded by the construction-time headroom, so this
	// cannot fail.
	if err := s.conv.SetArrivals(s.arr); err != nil {
		panic(fmt.Sprintf("stream: scene arrivals exceed headroom: %v", err))
	}
}

// NumSources returns the number of sources in the scene.
func (sc *Scene) NumSources() int { return len(sc.srcs) }

// BlockSize returns the engine's crossfade block length in samples.
func (sc *Scene) BlockSize() int { return sc.srcs[0].conv.BlockSize() }

// TailLen returns the output tail past the end of input: the IR length
// plus the room's delay headroom.
func (sc *Scene) TailLen() int { return sc.srcs[0].conv.TailLen() }

// SetPose updates the listener's head yaw (degrees). Every source's
// arrival set refolds; blocks formed from now on use the new relative
// angles and the Bartlett overlap crossfades the turn click-free.
func (sc *Scene) SetPose(yawDeg float64) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	sc.yaw = yawDeg
	for _, s := range sc.srcs {
		sc.applyPose(s)
	}
}

// SetBearing moves one source's world-frame bearing (degrees),
// recomputing its image geometry.
func (sc *Scene) SetBearing(i int, deg float64) error {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if i < 0 || i >= len(sc.srcs) {
		return fmt.Errorf("stream: scene has no source %d", i)
	}
	s := sc.srcs[i]
	s.cfg.BearingDeg = deg
	sc.recomputeGeo(s)
	sc.applyPose(s)
	return nil
}

// PushFrame feeds one mono input frame to source i, returning how many
// samples were accepted; the rest were dropped at the source's pending
// bound (counted in OverrunSamples).
func (sc *Scene) PushFrame(i int, mono []float64) (int, error) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if i < 0 || i >= len(sc.srcs) {
		return 0, fmt.Errorf("stream: scene has no source %d", i)
	}
	s := sc.srcs[i]
	if s.flushed || len(mono) == 0 {
		return 0, nil
	}
	n := s.conv.Push(mono)
	sc.framesIn++
	sc.samplesIn += uint64(n)
	return n, nil
}

// FlushSource declares the end of source i's input; the scene keeps
// advancing on the remaining sources once its tail drains.
func (sc *Scene) FlushSource(i int) error {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if i < 0 || i >= len(sc.srcs) {
		return fmt.Errorf("stream: scene has no source %d", i)
	}
	s := sc.srcs[i]
	s.flushed = true
	s.conv.Flush()
	return nil
}

// Flush declares the end of input on every source.
func (sc *Scene) Flush() {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	for _, s := range sc.srcs {
		s.flushed = true
		s.conv.Flush()
	}
}

// Available returns how many mixed output samples ReadFrame can deliver
// now: the minimum across sources that can still produce output (drained
// sources contribute silence and do not hold the timeline back).
func (sc *Scene) Available() int {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.availableLocked()
}

func (sc *Scene) availableLocked() int {
	avail := -1
	for _, s := range sc.srcs {
		if s.conv.Drained() {
			continue
		}
		if a := s.conv.Available(); avail < 0 || a < avail {
			avail = a
		}
	}
	if avail < 0 {
		return 0
	}
	return avail
}

// ReadFrame fills l and r with up to min(len(l), len(r)) mixed samples
// and returns how many were written. Reading frees per-source output
// room, which lets stalled blocks process. A short read while input is
// still expected counts the shortfall as underrun samples.
func (sc *Scene) ReadFrame(l, r []float64) int {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	want := min(len(l), len(r))
	total := 0
	for total < want {
		n := min(want-total, sc.availableLocked())
		if n == 0 {
			break
		}
		chunk := min(n, len(sc.scratchL))
		dl, dr := l[total:total+chunk], r[total:total+chunk]
		for i := range dl {
			dl[i], dr[i] = 0, 0
		}
		for _, s := range sc.srcs {
			// Non-drained sources deliver exactly chunk samples (the
			// availableLocked min guarantees it); drained ones add
			// nothing.
			k := s.conv.Read(sc.scratchL[:chunk], sc.scratchR[:chunk])
			for i := 0; i < k; i++ {
				dl[i] += sc.scratchL[i]
				dr[i] += sc.scratchR[i]
			}
		}
		total += chunk
	}
	if total > 0 {
		sc.framesOut++
		sc.samplesOut += uint64(total)
	}
	if short := want - total; short > 0 && !sc.drainedLocked() {
		sc.underruns += uint64(short)
	}
	return total
}

// Drained reports whether every source has ended and all mixed output has
// been read.
func (sc *Scene) Drained() bool {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.drainedLocked()
}

func (sc *Scene) drainedLocked() bool {
	for _, s := range sc.srcs {
		if !s.conv.Drained() {
			return false
		}
	}
	return true
}

// Stats snapshots the scene's accounting (summed across sources).
func (sc *Scene) Stats() SceneStats {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	var overruns, blocks uint64
	flushed := true
	for _, s := range sc.srcs {
		overruns += s.conv.Overruns()
		blocks += s.conv.Blocks()
		flushed = flushed && s.flushed
	}
	return SceneStats{
		SessionStats: SessionStats{
			FramesIn:        sc.framesIn,
			FramesOut:       sc.framesOut,
			SamplesIn:       sc.samplesIn,
			SamplesOut:      sc.samplesOut,
			OverrunSamples:  overruns,
			UnderrunSamples: sc.underruns,
			Blocks:          blocks,
			Flushed:         flushed,
			Drained:         sc.drainedLocked(),
		},
		Sources: len(sc.srcs),
	}
}
