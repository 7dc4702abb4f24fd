package core

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/acoustic"
	"repro/internal/dsp"
	"repro/internal/geom"
)

// refEstimate is ChannelEstimator.Estimate as it was before the session
// workspace: each stop and ear deconvolves by the probe, transforms the
// system IR afresh and divides it out with the Tikhonov division written
// inline (the arithmetic of the former dsp.SpectralDivide), and truncation
// copies into a new slice. It is the reference the workspace must match
// bit for bit.
func refEstimate(e ChannelEstimator, left, right []float64) (BinauralChannel, error) {
	e.fillDefaults()
	cl := refEstimateOne(&e, left)
	cr := refEstimateOne(&e, right)
	li, _ := dsp.FirstPeak(cl, e.FirstTapMinRel)
	ri, _ := dsp.FirstPeak(cr, e.FirstTapMinRel)
	if li < 0 || ri < 0 {
		return BinauralChannel{}, ErrNoFirstTap
	}
	if e.TruncateRoomEchoes {
		win := int(e.MultipathWindow * e.SampleRate)
		cl = refTruncateAfter(cl, int(li)+win)
		cr = refTruncateAfter(cr, int(ri)+win)
	}
	return BinauralChannel{
		Left:       cl,
		Right:      cr,
		SampleRate: e.SampleRate,
		DelayLeft:  li/e.SampleRate - e.SyncOffset,
		DelayRight: ri/e.SampleRate - e.SyncOffset,
	}, nil
}

func refEstimateOne(e *ChannelEstimator, rec []float64) []float64 {
	cir := dsp.Deconvolve(rec, e.Probe, e.CIRLength, 1e-3)
	if len(e.SystemIR) == 0 {
		return cir
	}
	n := dsp.NextPow2(len(cir) + len(e.SystemIR))
	fc := dsp.FFTReal(dsp.ZeroPad(cir, n))
	fs := dsp.FFTReal(dsp.ZeroPad(e.SystemIR, n))
	maxPow := 0.0
	for _, v := range fs {
		if p := real(v)*real(v) + imag(v)*imag(v); p > maxPow {
			maxPow = p
		}
	}
	eps := 3e-3 * maxPow
	if eps == 0 {
		eps = 1e-30
	}
	comp := make([]complex128, n)
	for i := range comp {
		den := real(fs[i])*real(fs[i]) + imag(fs[i])*imag(fs[i]) + eps
		comp[i] = fc[i] * cmplx.Conj(fs[i]) / complex(den, 0)
	}
	return dsp.IFFTReal(comp)[:len(cir)]
}

func refTruncateAfter(x []float64, n int) []float64 {
	out := make([]float64, len(x))
	if n > 0 {
		copy(out, x[:min(n, len(x))])
	}
	return out
}

// workspaceStops records a reverberant sweep through hardware coloration
// and cuts or zero-pads each stop to the length in lens (0 keeps it).
func workspaceStops(t *testing.T, probe []float64, lens []int) (stops []StopRecording, sysIR []float64) {
	t.Helper()
	w := channelWorld(t, true)
	hw := acoustic.NewSystemResponse(w.SampleRate, rand.New(rand.NewSource(7)))
	for i, n := range lens {
		ang := 2 * math.Pi * float64(i) / float64(len(lens))
		pos := geom.Vec{X: 0.3 * math.Cos(ang), Y: 0.3 * math.Sin(ang)}
		rec, err := w.Record(probe, pos, acoustic.RecordOptions{System: hw})
		if err != nil {
			t.Fatal(err)
		}
		l, r := rec.Left, rec.Right
		if n > 0 {
			l, r = dsp.ZeroPad(l, n), dsp.ZeroPad(r, n)
		}
		stops = append(stops, StopRecording{Left: l, Right: r})
	}
	return stops, hw.MeasureIR(512)
}

// sameChannel fails unless got and want (with their errors) agree by bits.
func sameChannel(t *testing.T, label string, got BinauralChannel, gotErr error, want BinauralChannel, wantErr error) {
	t.Helper()
	if !errors.Is(gotErr, wantErr) || (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s: error %v, reference %v", label, gotErr, wantErr)
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if !same(got.DelayLeft, want.DelayLeft) || !same(got.DelayRight, want.DelayRight) || !same(got.SampleRate, want.SampleRate) {
		t.Fatalf("%s: delays %v/%v, reference %v/%v", label, got.DelayLeft, got.DelayRight, want.DelayLeft, want.DelayRight)
	}
	for _, ear := range []struct {
		name      string
		got, want []float64
	}{{"left", got.Left, want.Left}, {"right", got.Right, want.Right}} {
		if len(ear.got) != len(ear.want) {
			t.Fatalf("%s: %s CIR has %d taps, reference %d", label, ear.name, len(ear.got), len(ear.want))
		}
		for i := range ear.want {
			if !same(ear.got[i], ear.want[i]) {
				t.Fatalf("%s: %s tap %d = %v, reference %v", label, ear.name, i, ear.got[i], ear.want[i])
			}
		}
	}
}

// TestChannelWorkspaceMatchesReference runs one session's stops through a
// shared workspace, sequentially and with four workers, and compares every
// estimate with refEstimate by bits. The stops straddle a power of two
// (7616 and 7617 samples need 8192- and 16384-point transforms with a
// 576-tap CIR) and include one shorter than the probe; the estimator runs
// with and without a system IR and echo truncation.
func TestChannelWorkspaceMatchesReference(t *testing.T) {
	const rate = 48000.0
	probe := dsp.Chirp(150, 21000, 0.04, rate)
	stops, sysIR := workspaceStops(t, probe, []int{0, 7616, 7617, 1500, 7617, 0, 7616})
	lens := make([]int, len(stops))
	for i, s := range stops {
		lens[i] = len(s.Left)
	}
	for _, sys := range []bool{false, true} {
		for _, trunc := range []bool{false, true} {
			e := ChannelEstimator{Probe: probe, SampleRate: rate, SyncOffset: acoustic.LeadInSeconds, TruncateRoomEchoes: trunc}
			if sys {
				e.SystemIR = sysIR
			}
			want := make([]BinauralChannel, len(stops))
			wantErr := make([]error, len(stops))
			found := 0
			for i, s := range stops {
				want[i], wantErr[i] = refEstimate(e, s.Left, s.Right)
				if wantErr[i] == nil {
					found++
				}
			}
			if found < len(stops)-1 {
				t.Fatalf("reference found first taps in only %d of %d stops", found, len(stops))
			}
			e.fillDefaults()
			ws := e.prepare(lens)
			if len(ws.probe) != 3 {
				t.Fatalf("workspace holds %d probe spectra, want 3 (4096, 8192 and 16384 points)", len(ws.probe))
			}
			for _, workers := range []int{1, 4} {
				got := make([]BinauralChannel, len(stops))
				gotErr := make([]error, len(stops))
				var next atomic.Int64
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						s := ws.newScratch()
						for i := int(next.Add(1)) - 1; i < len(stops); i = int(next.Add(1)) - 1 {
							got[i], gotErr[i] = ws.estimate(s, stops[i].Left, stops[i].Right)
						}
					}()
				}
				wg.Wait()
				for i := range stops {
					label := fmt.Sprintf("system IR %v, truncation %v, %d workers, stop %d", sys, trunc, workers, i)
					sameChannel(t, label, got[i], gotErr[i], want[i], wantErr[i])
				}
			}
			// The one-shot Estimate prepares its own workspace per call.
			for i, s := range stops {
				got, err := e.Estimate(s.Left, s.Right)
				sameChannel(t, "one-shot Estimate", got, err, want[i], wantErr[i])
			}
		}
	}
}

// TestChannelWorkspaceAllocatesOnlyCIRs pins the per-stop garbage: a warm
// worker's estimate allocates its two output CIRs and nothing else.
func TestChannelWorkspaceAllocatesOnlyCIRs(t *testing.T) {
	const rate = 48000.0
	probe := dsp.Chirp(150, 21000, 0.04, rate)
	stops, sysIR := workspaceStops(t, probe, []int{0})
	e := ChannelEstimator{Probe: probe, SampleRate: rate, SystemIR: sysIR, TruncateRoomEchoes: true}
	e.fillDefaults()
	ws := e.prepare([]int{len(stops[0].Left)})
	s := ws.newScratch()
	if _, err := ws.estimate(s, stops[0].Left, stops[0].Right); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := ws.estimate(s, stops[0].Left, stops[0].Right); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 2 {
		t.Errorf("a warm estimate allocated %v times, want 2 (the two CIRs)", allocs)
	}
}
