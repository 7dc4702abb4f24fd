package stream

import (
	"math"

	"repro/internal/core"
	"repro/internal/hrtf"
)

// TrackerOptions tunes a streaming AoA tracker.
type TrackerOptions struct {
	// Window is the estimation window in samples (default 50 ms worth,
	// minimum 64). Each estimate runs core.EstimateAoAUnknown over the
	// most recent Window samples.
	Window int
	// Hop is the advance between estimates in samples (default Window/2).
	Hop int
	// Smoothing is the exponential-moving-average weight of each new raw
	// estimate, in (0, 1]; 1 disables smoothing. Default 0.25.
	Smoothing float64
	// HysteresisDeg is the deadband: the committed angle only moves when
	// the smoothed estimate drifts further than this from it. Default 1.5
	// table steps. Negative disables (every event commits the smoothed
	// value).
	HysteresisDeg float64
	// MaxPending bounds the buffered stereo samples awaiting estimation
	// (default 8 windows); excess pushed samples are dropped and counted
	// as overruns.
	MaxPending int
	// AoA forwards estimator tuning to core.EstimateAoAUnknown.
	AoA core.AoAOptions
}

// AngleEvent is one per-hop angle estimate.
type AngleEvent struct {
	// TimeSec is the stream time of the window end, seconds.
	TimeSec float64 `json:"timeSec"`
	// RawDeg is this window's raw eq. 11 estimate.
	RawDeg float64 `json:"rawDeg"`
	// SmoothedDeg is the exponentially smoothed estimate.
	SmoothedDeg float64 `json:"smoothedDeg"`
	// AngleDeg is the committed angle after hysteresis — the value an
	// application should act on.
	AngleDeg float64 `json:"angleDeg"`
	// Score is the eq. 11 mismatch at the raw estimate (lower is better).
	Score float64 `json:"score"`
}

// AoATracker estimates the arrival angle of an unknown source from a
// stereo earbud stream: a sliding window of the two ear signals is matched
// against the personalized far-field templates (relative-channel
// cross-correlation for candidate delays, eq. 11 for front/back
// disambiguation) once per hop. Raw estimates are exponentially smoothed
// and passed through a hysteresis deadband so the committed angle is
// stable against single-window glitches.
//
// An AoATracker is single-goroutine; wrap it like Session wraps Convolver
// for concurrent use.
type AoATracker struct {
	est *core.AoAEstimator
	sr  float64

	window, hop int
	alpha, hyst float64
	maxPending  int

	left, right []float64 // pending stereo samples
	consumed    int       // absolute stream index of left[0]

	started        bool
	ema, committed float64

	events []AngleEvent // reused across pushes

	windows, overruns uint64
}

// NewAoATracker builds a tracker over a table's far field.
func NewAoATracker(t *hrtf.Table, opt TrackerOptions) (*AoATracker, error) {
	if t == nil || t.NumAngles() == 0 || t.MaxFarIRLen() == 0 {
		return nil, ErrNoFarField
	}
	sr := t.SampleRate
	window := opt.Window
	if window <= 0 {
		window = int(0.05 * sr)
	}
	if window < 64 {
		window = 64
	}
	hop := opt.Hop
	if hop <= 0 {
		hop = window / 2
	}
	if hop > window {
		hop = window
	}
	alpha := opt.Smoothing
	if alpha <= 0 {
		alpha = 0.25
	}
	if alpha > 1 {
		alpha = 1
	}
	hyst := opt.HysteresisDeg
	if hyst == 0 {
		hyst = 1.5 * t.AngleStep
	}
	if hyst < 0 {
		hyst = 0
	}
	maxPending := opt.MaxPending
	if maxPending <= 0 {
		maxPending = 8 * window
	}
	if maxPending < window {
		maxPending = window
	}
	// One estimator for the tracker's lifetime: the FFT plans, the table's
	// cached spectra/ITDs, and all per-window scratch are set up here once,
	// so the steady Push path never allocates.
	est, err := core.NewAoAEstimator(t, window, window, opt.AoA)
	if err != nil {
		return nil, err
	}
	return &AoATracker{
		est:        est,
		sr:         sr,
		window:     window,
		hop:        hop,
		alpha:      alpha,
		hyst:       hyst,
		maxPending: maxPending,
		left:       make([]float64, 0, maxPending),
		right:      make([]float64, 0, maxPending),
		events:     make([]AngleEvent, 0, maxPending/hop+1),
	}, nil
}

// Window returns the estimation window length in samples.
func (tr *AoATracker) Window() int { return tr.window }

// Hop returns the advance between estimates in samples.
func (tr *AoATracker) Hop() int { return tr.hop }

// Overruns returns the cumulative stereo samples dropped at the pending
// bound.
func (tr *AoATracker) Overruns() uint64 { return tr.overruns }

// Windows returns how many estimation windows have been evaluated.
func (tr *AoATracker) Windows() uint64 { return tr.windows }

// Push appends stereo samples (per-ear slices; the shorter length wins)
// and returns the angle events produced by the windows this push
// completed. Samples beyond the pending bound are dropped and counted as
// overruns. The returned slice is reused by the next Push — copy events
// that must outlive it.
func (tr *AoATracker) Push(left, right []float64) []AngleEvent {
	n := min(len(left), len(right))
	room := tr.maxPending - len(tr.left)
	take := min(n, room)
	if dropped := n - take; dropped > 0 {
		tr.overruns += uint64(dropped)
	}
	tr.left = append(tr.left, left[:take]...)
	tr.right = append(tr.right, right[:take]...)

	events := tr.events[:0]
	for len(tr.left) >= tr.window {
		// A window without an estimate (e.g. silence with no detectable
		// relative-channel peak) emits no event.
		est, err := tr.est.Estimate(tr.left[:tr.window], tr.right[:tr.window])
		tr.windows++
		if err == nil {
			events = append(events, tr.update(est))
		}
		copy(tr.left, tr.left[tr.hop:])
		copy(tr.right, tr.right[tr.hop:])
		tr.left = tr.left[:len(tr.left)-tr.hop]
		tr.right = tr.right[:len(tr.right)-tr.hop]
		tr.consumed += tr.hop
	}
	tr.events = events[:0]
	if len(events) == 0 {
		return nil
	}
	return events
}

// update folds a raw estimate into the smoothed/committed state and builds
// its event. The first estimate seeds both, so a static source commits the
// batch estimator's answer immediately.
func (tr *AoATracker) update(est core.AoAEstimate) AngleEvent {
	raw := est.AngleDeg
	if !tr.started {
		tr.started = true
		tr.ema = raw
		tr.committed = raw
	} else {
		tr.ema = (1-tr.alpha)*tr.ema + tr.alpha*raw
		if math.Abs(tr.ema-tr.committed) > tr.hyst {
			tr.committed = tr.ema
		}
	}
	return AngleEvent{
		TimeSec:     float64(tr.consumed+tr.window) / tr.sr,
		RawDeg:      raw,
		SmoothedDeg: tr.ema,
		AngleDeg:    tr.committed,
		Score:       est.Score,
	}
}
