package core

import (
	"errors"

	"repro/internal/dsp"
)

// ErrNoFirstTap is returned when a channel estimate has no identifiable
// first arrival (e.g. the recording was silence).
var ErrNoFirstTap = errors.New("core: no identifiable first tap in channel")

// BinauralChannel is one estimated acoustic channel pair with its measured
// first-arrival delays.
type BinauralChannel struct {
	// Left and Right are the time-domain channel impulse responses,
	// sample 0 = probe emission time.
	Left, Right []float64
	// SampleRate in Hz.
	SampleRate float64
	// DelayLeft and DelayRight are the first-tap (diffraction path)
	// absolute delays in seconds, already corrected for the playback
	// chain's sync offset.
	DelayLeft, DelayRight float64
}

// RelativeDelay returns the left-minus-right first-tap delay in seconds —
// the paper's Δt (eq. 1).
func (c BinauralChannel) RelativeDelay() float64 { return c.DelayLeft - c.DelayRight }

// ChannelEstimator turns probe recordings into clean binaural channel
// estimates.
type ChannelEstimator struct {
	// Probe is the known source signal.
	Probe []float64
	// SampleRate in Hz.
	SampleRate float64
	// SystemIR is the measured speaker–mic response; when non-nil its
	// coloration is divided out of every estimate (§4.6 compensation).
	SystemIR []float64
	// SyncOffset is the calibrated playback latency (seconds) to
	// subtract from measured tap positions.
	SyncOffset float64
	// CIRLength is the estimated channel length in samples
	// (default: 12 ms worth).
	CIRLength int
	// TruncateRoomEchoes controls the §4.6 pre-processing step that
	// zeroes channel taps arriving later than the head/pinna multipath
	// window after the first tap.
	TruncateRoomEchoes bool
	// MultipathWindow is the post-first-tap window kept by truncation,
	// seconds (default 0.9 ms: head diffraction + pinna echoes).
	MultipathWindow float64
	// FirstTapMinRel is the relative magnitude threshold for first-tap
	// picking (default 0.28).
	FirstTapMinRel float64
}

func (e *ChannelEstimator) fillDefaults() {
	if e.CIRLength <= 0 {
		e.CIRLength = int(0.012 * e.SampleRate)
	}
	if e.MultipathWindow <= 0 {
		e.MultipathWindow = 0.9e-3
	}
	if e.FirstTapMinRel <= 0 {
		e.FirstTapMinRel = 0.28
	}
}

// Estimate deconvolves one stereo recording into a BinauralChannel. It
// prepares the probe and system-IR spectra for this one recording; a
// solve prepares them once for all its stops (see channelWorkspace).
func (e *ChannelEstimator) Estimate(left, right []float64) (BinauralChannel, error) {
	if len(e.Probe) == 0 || e.SampleRate <= 0 {
		return BinauralChannel{}, errors.New("core: channel estimator needs a probe and sample rate")
	}
	e.fillDefaults()
	w := e.prepare([]int{len(left), len(right)})
	return w.estimate(w.newScratch(), left, right)
}

// Regularizers of the two spectral divisions: the probe deconvolution's
// Wiener term and the system-IR compensation's Tikhonov term, each
// relative to the divisor's peak power.
const (
	probeReg    = 1e-3
	systemIRReg = 3e-3
)

// channelWorkspace is channel estimation prepared for one session. Every
// stop plays the same probe (§4.1) and carries the same speaker–mic
// response (§4.6), so their spectra are transformed once per session
// instead of once per stop and ear. It holds the probe's spectrum at each
// transform size the session's recordings need and the system IR's
// spectrum, each with its regularized denominators. It is built from the
// session's own input and dropped with the solve: the probe arrives from
// the network, so nothing here is cached across sessions. Read-only once
// built, it is shared by the stop workers, each with its own scratch.
type channelWorkspace struct {
	e       *ChannelEstimator  // defaults filled
	probe   []*dsp.Deconvolver // one per transform size
	sys     *dsp.Deconvolver   // nil without a system IR
	sysPlan *dsp.Plan
}

// channelScratch is one worker's transform buffers, reused across stops.
type channelScratch struct {
	spec []complex128 // the workspace's largest transform size
	cir  []float64    // the system-IR transform size
}

// deconvSize is the transform size of a recording of n samples: long
// enough that the CIR does not wrap around (as in dsp.Deconvolve).
func (e *ChannelEstimator) deconvSize(n int) int {
	return dsp.NextPow2(max(n, len(e.Probe)) + e.CIRLength)
}

// prepare builds the workspace for recordings of the given lengths. The
// estimator's defaults must be filled.
func (e *ChannelEstimator) prepare(recLens []int) *channelWorkspace {
	w := &channelWorkspace{e: e}
	if e.CIRLength == 0 {
		return w // every CIR is empty
	}
	for _, n := range recLens {
		m := e.deconvSize(n)
		if n == 0 || w.probeAt(m) != nil {
			continue
		}
		spec := make([]complex128, m)
		for i, v := range e.Probe {
			spec[i] = complex(v, 0)
		}
		dsp.PlanFFT(len(spec)).Forward(spec)
		w.probe = append(w.probe, dsp.NewDeconvolver(spec, probeReg))
	}
	if len(e.SystemIR) > 0 {
		n := dsp.NextPow2(e.CIRLength + len(e.SystemIR))
		w.sysPlan = dsp.PlanFFT(n)
		spec := make([]complex128, n)
		w.sysPlan.ForwardReal(spec, dsp.ZeroPad(e.SystemIR, n))
		w.sys = dsp.NewDeconvolver(spec, systemIRReg)
	}
	return w
}

func (w *channelWorkspace) probeAt(m int) *dsp.Deconvolver {
	for _, d := range w.probe {
		if d.Size() == m {
			return d
		}
	}
	return nil
}

// newScratch allocates one worker's buffers.
func (w *channelWorkspace) newScratch() *channelScratch {
	s := &channelScratch{}
	n := 0
	for _, d := range w.probe {
		n = max(n, d.Size())
	}
	if w.sys != nil {
		n = max(n, w.sys.Size())
		s.cir = make([]float64, w.sys.Size())
	}
	s.spec = make([]complex128, n)
	return s
}

// estimate deconvolves one stereo recording into a BinauralChannel. Only
// the two returned CIRs are allocated.
func (w *channelWorkspace) estimate(s *channelScratch, left, right []float64) (BinauralChannel, error) {
	e := w.e
	cl := w.estimateOne(s, left)
	cr := w.estimateOne(s, right)
	li, _ := dsp.FirstPeak(cl, e.FirstTapMinRel)
	ri, _ := dsp.FirstPeak(cr, e.FirstTapMinRel)
	if li < 0 || ri < 0 {
		return BinauralChannel{}, ErrNoFirstTap
	}
	if e.TruncateRoomEchoes {
		// Zero the taps past the head/pinna multipath window (§4.6).
		win := int(e.MultipathWindow * e.SampleRate)
		clear(cl[min(max(int(li)+win, 0), len(cl)):])
		clear(cr[min(max(int(ri)+win, 0), len(cr)):])
	}
	return BinauralChannel{
		Left:       cl,
		Right:      cr,
		SampleRate: e.SampleRate,
		DelayLeft:  li/e.SampleRate - e.SyncOffset,
		DelayRight: ri/e.SampleRate - e.SyncOffset,
	}, nil
}

// estimateOne deconvolves one ear's recording into a new CIR and
// compensates the hardware response.
func (w *channelWorkspace) estimateOne(s *channelScratch, rec []float64) []float64 {
	out := make([]float64, w.e.CIRLength)
	if w.sys == nil {
		w.deconvolve(out, rec, s.spec)
		return out
	}
	// Divide the measured system response out in the frequency domain.
	cir := s.cir
	w.deconvolve(cir[:len(out)], rec, s.spec)
	clear(cir[len(out):])
	spec := s.spec[:len(cir)]
	w.sysPlan.ForwardReal(spec, cir)
	w.sys.Divide(spec)
	w.sysPlan.Inverse(spec)
	for i := range out {
		out[i] = real(spec[i])
	}
	return out
}

// deconvolve writes the probe deconvolution of rec into dst.
func (w *channelWorkspace) deconvolve(dst, rec []float64, scratch []complex128) {
	if len(rec) == 0 || len(dst) == 0 {
		clear(dst) // dsp.Deconvolve's degenerate case
		return
	}
	w.probeAt(w.e.deconvSize(len(rec))).Deconvolve(dst, rec, scratch)
}
