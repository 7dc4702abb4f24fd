package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/geom"
	"repro/internal/head"
	"repro/internal/hrtf"
	"repro/internal/imu"
)

// SessionInput is what a deployment feeds the pipeline: everything here is
// observable by a real phone + earbud system.
type SessionInput struct {
	// Probe is the known played signal.
	Probe []float64
	// SampleRate of all audio, Hz.
	SampleRate float64
	// Stops holds the per-stop stereo recordings, in sweep order.
	Stops []StopRecording
	// IMU is the gyro log of the whole sweep.
	IMU []imu.Sample
	// SystemIR is the measured speaker–mic response (may be nil).
	SystemIR []float64
	// SyncOffset is the calibrated playback latency, seconds.
	SyncOffset float64
}

// StopRecording is one measurement stop.
type StopRecording struct {
	// Time is the probe start within the session, seconds.
	Time float64
	// Left and Right are the earbud channels.
	Left, Right []float64
}

// PipelineOptions configures Personalize.
type PipelineOptions struct {
	// Fusion tunes sensor fusion; zero value uses defaults.
	Fusion FusionOptions
	// NearField tunes interpolation; ModelCorrection defaults on.
	NearField NearFieldOptions
	// Gesture tunes the auto-rejection; zero value uses defaults.
	Gesture GestureLimits
	// SkipGestureCheck disables §4.6 rejection (used by ablations).
	SkipGestureCheck bool
	// DisableRoomTruncation turns off echo truncation (ablation A4).
	DisableRoomTruncation bool
	// RingElevationDeg declares that the sweep was performed on an
	// elevation ring (the §7 3-D extension): measured path delays then
	// include an out-of-plane leg, which is removed before the planar
	// sensor fusion (the per-measurement slant is estimated from the
	// mean binaural delay).
	RingElevationDeg float64
	// Workers bounds the pipeline's internal parallelism: the per-stop
	// channel-estimation fan-out and (unless Fusion.Workers overrides it)
	// the sensor-fusion seeding grid. 0 means GOMAXPROCS; negative means
	// sequential. Stops are independent and results are re-assembled in
	// sweep order, so the output is bit-identical at every worker count.
	Workers int
	// Observer, when non-nil, receives per-stage durations/outcomes and
	// skipped-stop counts (obs.PipelineObserver satisfies it). Observation
	// is passive — it must never change solver numerics — and its methods
	// may be called concurrently when multiple solves share one observer.
	Observer Observer
}

// Observer receives pipeline telemetry. Implementations must be safe for
// concurrent use and cheap: StageDone runs on the solve path.
type Observer interface {
	// StageDone reports one pipeline stage's wall time and outcome (err is
	// nil on success, the context error on cancellation).
	StageDone(stage string, d time.Duration, err error)
	// SkippedStops reports measurement stops dropped by channel estimation
	// in one solve (not called when every stop was usable).
	SkippedStops(n int)
}

// Pipeline stage names as reported to Observer.StageDone, in execution
// order. StageChannelEstimation covers the per-stop fan-out and the
// fusion-observation indexing; StageNearField covers near-field indexing
// and interpolation (§4.2); StageFarField the §4.3 synthesis.
const (
	StageChannelEstimation = "channel_estimation"
	StageSensorFusion      = "sensor_fusion"
	StageGestureCheck      = "gesture_check"
	StageNearField         = "nearfield_interpolation"
	StageFarField          = "farfield_synthesis"
)

// Personalization is the pipeline's output: the §4.4 lookup table plus the
// intermediate products applications and evaluations need.
type Personalization struct {
	// Table holds the personalized near- and far-field HRIRs indexed by
	// angle.
	Table *hrtf.Table
	// HeadParams is E_opt from sensor fusion.
	HeadParams head.Params
	// Track is the fused phone trajectory (angles in degrees, [i]
	// matches Stops[i]).
	TrackDeg []float64
	// Radii are the per-stop phone distances, metres.
	Radii []float64
	// MeanResidualDeg is the fusion α/θ residual.
	MeanResidualDeg float64
	// Gesture is the quality report.
	Gesture GestureReport
	// SkippedStops counts measurement stops dropped because channel
	// estimation failed on them (e.g. no identifiable first tap). A
	// non-zero count means the sweep was degraded even though the solve
	// succeeded.
	SkippedStops int
	// StopError is the first per-stop estimation error, nil when no stop
	// was skipped.
	StopError error
}

// ErrInvalidSession is the sentinel wrapped by every SessionInput
// validation failure. Service boundaries feed Personalize untrusted JSON;
// errors.Is(err, ErrInvalidSession) distinguishes "bad request" from a
// pipeline failure on well-formed input.
var ErrInvalidSession = errors.New("core: invalid session input")

// Session size caps. The default sweep has 37 stops and 2,001 IMU samples
// (100 Hz over 20 s); the caps leave room for far denser and longer
// sweeps while bounding what an untrusted session can make a decoder
// allocate: a 3-byte {} in a session body becomes a 56-byte stop.
const (
	MaxSessionStops      = 1024
	MaxSessionIMUSamples = 65536
)

// Caps on the numbers that size a solve's buffers: the channel length is
// 12 ms at the sample rate, and each stop's transform is as long as its
// recording or the probe. The rate range covers the paper's 48 kHz and the
// 96 kHz parity run. The default sweep has a 0.04 s probe, a 512-sample
// system IR, stops of about 0.16 s and a 1 ms sync offset at 48 kHz, so
// each cap leaves at least 12× headroom.
const (
	MinSessionSampleRate  = 8000   // Hz
	MaxSessionSampleRate  = 192000 // Hz
	MaxSessionClipSeconds = 2      // probe, system IR and each stop's channels
	MaxSessionSyncOffset  = 1      // seconds, either sign
)

// Validate checks what a session must satisfy before any DSP runs: a
// sample rate within [MinSessionSampleRate, MaxSessionSampleRate]; a finite
// sync offset within ±MaxSessionSyncOffset; a non-empty probe, an IMU log
// and at least one stop with matched non-empty stereo channels; at most
// MaxSessionStops stops and MaxSessionIMUSamples IMU samples; and no
// probe, system IR or stop channel longer than MaxSessionClipSeconds at
// the sample rate. All failures wrap ErrInvalidSession.
func (in SessionInput) Validate() error {
	if !(in.SampleRate >= MinSessionSampleRate && in.SampleRate <= MaxSessionSampleRate) {
		return fmt.Errorf("%w: sample rate %v (want %d to %d Hz)",
			ErrInvalidSession, in.SampleRate, MinSessionSampleRate, MaxSessionSampleRate)
	}
	if !(math.Abs(in.SyncOffset) <= MaxSessionSyncOffset) {
		return fmt.Errorf("%w: sync offset %v s (want at most %d s either way)",
			ErrInvalidSession, in.SyncOffset, MaxSessionSyncOffset)
	}
	if len(in.Probe) == 0 {
		return fmt.Errorf("%w: empty probe signal", ErrInvalidSession)
	}
	maxClip := int(MaxSessionClipSeconds * in.SampleRate)
	if len(in.Probe) > maxClip || len(in.SystemIR) > maxClip {
		return fmt.Errorf("%w: probe of %d or system IR of %d samples, more than %d s (%d samples) at %v Hz",
			ErrInvalidSession, len(in.Probe), len(in.SystemIR), MaxSessionClipSeconds, maxClip, in.SampleRate)
	}
	if len(in.Stops) == 0 {
		return fmt.Errorf("%w: session has no measurement stops", ErrInvalidSession)
	}
	if len(in.IMU) == 0 {
		return fmt.Errorf("%w: session has no IMU samples", ErrInvalidSession)
	}
	if len(in.Stops) > MaxSessionStops {
		return fmt.Errorf("%w: session has %d measurement stops, more than %d", ErrInvalidSession, len(in.Stops), MaxSessionStops)
	}
	if len(in.IMU) > MaxSessionIMUSamples {
		return fmt.Errorf("%w: session has %d IMU samples, more than %d", ErrInvalidSession, len(in.IMU), MaxSessionIMUSamples)
	}
	for i, stop := range in.Stops {
		if len(stop.Left) == 0 || len(stop.Right) == 0 {
			return fmt.Errorf("%w: stop %d has an empty channel (left %d, right %d samples)",
				ErrInvalidSession, i, len(stop.Left), len(stop.Right))
		}
		if len(stop.Left) != len(stop.Right) {
			return fmt.Errorf("%w: stop %d has mismatched channels (left %d, right %d samples)",
				ErrInvalidSession, i, len(stop.Left), len(stop.Right))
		}
		if len(stop.Left) > maxClip {
			return fmt.Errorf("%w: stop %d has %d samples per channel, more than %d s (%d samples) at %v Hz",
				ErrInvalidSession, i, len(stop.Left), MaxSessionClipSeconds, maxClip, in.SampleRate)
		}
	}
	return nil
}

// Personalize runs the full UNIQ pipeline (Fig 6): channel estimation →
// diffraction-aware sensor fusion → near-field interpolation → near-far
// synthesis. It returns ErrBadGesture (wrapped) when the sweep fails the
// quality check.
func Personalize(in SessionInput, opt PipelineOptions) (*Personalization, error) {
	return PersonalizeContext(context.Background(), in, opt)
}

// PersonalizeContext is Personalize with cancellation: the context is
// checked between pipeline stages, per measurement stop, and inside the
// sensor-fusion search, so a server can bound the solve with a deadline.
// It returns the context's error when cancelled.
func PersonalizeContext(ctx context.Context, in SessionInput, opt PipelineOptions) (*Personalization, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	obsv := opt.Observer

	// 1. Channel estimation per stop, fanned across a bounded worker pool:
	// stops are independent, so they run concurrently and are re-assembled
	// in sweep order below (the output is bit-identical at any worker
	// count). The probe and system-IR spectra are prepared once for the
	// session; each worker reuses its own scratch across stops.
	est := &ChannelEstimator{
		Probe:              in.Probe,
		SampleRate:         in.SampleRate,
		SystemIR:           in.SystemIR,
		SyncOffset:         in.SyncOffset,
		TruncateRoomEchoes: !opt.DisableRoomTruncation,
	}
	est.fillDefaults()
	workers := opt.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers < 1 {
		workers = 1
	}
	if opt.Fusion.Workers == 0 {
		opt.Fusion.Workers = workers
	}
	if workers > len(in.Stops) {
		workers = len(in.Stops)
	}
	track := imu.Integrate(in.IMU, 0)
	type stopResult struct {
		ch  BinauralChannel
		err error
	}
	estStart := stageClock(obsv)
	recLens := make([]int, len(in.Stops))
	for i, stop := range in.Stops {
		recLens[i] = len(stop.Left) // Validate made both channels this long
	}
	ws := est.prepare(recLens)
	results := make([]stopResult, len(in.Stops))
	if workers == 1 {
		scratch := ws.newScratch()
		for i, stop := range in.Stops {
			if err := ctx.Err(); err != nil {
				stageDone(obsv, StageChannelEstimation, estStart, err)
				return nil, err
			}
			results[i].ch, results[i].err = ws.estimate(scratch, stop.Left, stop.Right)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				scratch := ws.newScratch()
				for ctx.Err() == nil {
					i := int(next.Add(1)) - 1
					if i >= len(in.Stops) {
						return
					}
					stop := in.Stops[i]
					results[i].ch, results[i].err = ws.estimate(scratch, stop.Left, stop.Right)
				}
			}()
		}
		wg.Wait()
		if err := ctx.Err(); err != nil {
			stageDone(obsv, StageChannelEstimation, estStart, err)
			return nil, err
		}
	}
	var channels []BinauralChannel
	var obs []FusionObservation
	skipped := 0
	var firstSkip error
	for i, stop := range in.Stops {
		if results[i].err != nil {
			// Skip unusable stops rather than failing the sweep, but keep
			// the evidence: operators watch SkippedStops for degraded
			// sessions.
			skipped++
			if firstSkip == nil {
				firstSkip = fmt.Errorf("core: stop %d: %w", i, results[i].err)
			}
			continue
		}
		ch := results[i].ch
		channels = append(channels, ch)
		obs = append(obs, FusionObservation{
			DelayLeft:  ch.DelayLeft,
			DelayRight: ch.DelayRight,
			AlphaRad:   geom.NormalizeAngle(imu.AngleAt(in.IMU, track, stop.Time)),
		})
	}
	if obsv != nil && skipped > 0 {
		obsv.SkippedStops(skipped)
	}
	if len(obs) < 5 {
		err := fmt.Errorf("core: only %d usable stops: %w", len(obs), ErrTooFewObservations)
		stageDone(obsv, StageChannelEstimation, estStart, err)
		return nil, err
	}
	stageDone(obsv, StageChannelEstimation, estStart, nil)
	if opt.RingElevationDeg != 0 {
		correctRingSlant(obs, opt.RingElevationDeg)
		// The ring's effective head cross-section is the ellipsoid slice
		// the creeping wave rides, which shrinks with elevation; scale
		// the fusion search region and prior to match.
		s := ringCrossSectionScale(opt.RingElevationDeg)
		opt.Fusion.fillDefaults()
		opt.Fusion.ParamLo = scaleParams(opt.Fusion.ParamLo, s)
		opt.Fusion.ParamHi = scaleParams(opt.Fusion.ParamHi, s)
		opt.Fusion.PriorMean = scaleParams(head.DefaultParams(), s)
		// Model mismatch grows with elevation; keep the gesture check
		// meaningful by relaxing its residual limit proportionally.
		opt.Gesture.fillDefaults()
		opt.Gesture.MaxResidualDeg /= s
	}

	// 2. Diffraction-aware sensor fusion.
	fusionStart := stageClock(obsv)
	fusion, err := FuseSensorsContext(ctx, obs, opt.Fusion)
	stageDone(obsv, StageSensorFusion, fusionStart, err)
	if err != nil {
		return nil, err
	}

	// 3. Gesture auto-correction.
	gestureStart := stageClock(obsv)
	gesture := CheckGesture(fusion, opt.Gesture)
	if !gesture.OK && !opt.SkipGestureCheck {
		err := fmt.Errorf("%w: %s", ErrBadGesture, gesture.Reason)
		stageDone(obsv, StageGestureCheck, gestureStart, err)
		return nil, err
	}
	stageDone(obsv, StageGestureCheck, gestureStart, nil)

	// 4. Near-field interpolation.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	nfOpt := opt.NearField
	nfOpt.ModelCorrection = true
	nearStart := stageClock(obsv)
	near, err := InterpolateNearField(channels, fusion.AnglesRad, fusion.Radii, fusion.Params, nfOpt)
	stageDone(obsv, StageNearField, nearStart, err)
	if err != nil {
		return nil, err
	}

	// 5. Near-far conversion.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	meanRadius := 0.0
	for _, r := range fusion.Radii {
		meanRadius += r / float64(len(fusion.Radii))
	}
	farStart := stageClock(obsv)
	table, err := SynthesizeFarField(near, fusion.Params, NearFarOptions{Radius: meanRadius})
	stageDone(obsv, StageFarField, farStart, err)
	if err != nil {
		return nil, err
	}

	out := &Personalization{
		Table:           table,
		HeadParams:      fusion.Params,
		Radii:           fusion.Radii,
		MeanResidualDeg: geom.Degrees(fusion.MeanAngleResidualRad),
		Gesture:         gesture,
		SkippedStops:    skipped,
		StopError:       firstSkip,
	}
	for _, a := range fusion.AnglesRad {
		out.TrackDeg = append(out.TrackDeg, geom.Degrees(a))
	}
	return out, nil
}

// correctRingSlant removes the out-of-plane leg from elevated-ring delays:
// with the phone on a ring at elevation ε and slant distance d₃ from the
// head, the vertical leg is ≈ d₃·sin ε and the planar model should see
// d₂ = √(d₃² − z²). The per-measurement slant distance is approximated by
// the mean of the two ears' path lengths.
func correctRingSlant(obs []FusionObservation, elevDeg float64) {
	s := math.Sin(geom.Radians(elevDeg))
	const v = head.SpeedOfSound
	for i := range obs {
		dl := obs[i].DelayLeft * v
		dr := obs[i].DelayRight * v
		z := (dl + dr) / 2 * s
		obs[i].DelayLeft = planarize(dl, z) / v
		obs[i].DelayRight = planarize(dr, z) / v
	}
}

func planarize(d3, z float64) float64 {
	d2sq := d3*d3 - z*z
	if d2sq < 0.0025 { // 5 cm floor
		d2sq = 0.0025
	}
	return math.Sqrt(d2sq)
}

// ringVerticalSemiAxis is the assumed head semi-height for the §7 ring
// geometry (anthropometric constant, shared with the simulator's ellipsoid
// by construction of the model, not by peeking at it).
const ringVerticalSemiAxis = 0.115

// ringCrossSectionScale returns the ellipsoid-slice scale factor for a ring
// at the given elevation, evaluated at half a nominal arm radius of height.
func ringCrossSectionScale(elevDeg float64) float64 {
	z := 0.32 * math.Sin(geom.Radians(elevDeg)) / 2
	r := z / ringVerticalSemiAxis
	if r > 0.85 {
		r = 0.85
	}
	if r < -0.85 {
		r = -0.85
	}
	return math.Sqrt(1 - r*r)
}

func scaleParams(p head.Params, s float64) head.Params {
	return head.Params{A: p.A * s, B: p.B * s, C: p.C * s}
}

// stageClock returns the stage start time, or zero when no observer is
// attached so the unobserved solve path never reads the clock.
func stageClock(o Observer) time.Time {
	if o == nil {
		return time.Time{}
	}
	return time.Now()
}

// stageDone reports a finished stage to the observer, if any.
func stageDone(o Observer, stage string, start time.Time, err error) {
	if o == nil {
		return
	}
	o.StageDone(stage, time.Since(start), err)
}
