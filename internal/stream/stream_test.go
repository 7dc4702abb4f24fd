package stream_test

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dsp"
	"repro/internal/hrtf"
	"repro/internal/render"
	"repro/internal/sim"
	"repro/internal/stream"
)

var (
	tableOnce sync.Once
	tableVal  *hrtf.Table
	tableErr  error
)

// testTable returns a shared ground-truth far-field table (10° steps).
func testTable(t *testing.T) *hrtf.Table {
	t.Helper()
	tableOnce.Do(func() {
		tableVal, tableErr = sim.MeasureGroundTruthFar(sim.NewVolunteer(1, 3), 48000, 10)
	})
	if tableErr != nil {
		t.Fatal(tableErr)
	}
	return tableVal
}

// TestStreamMatchesBatchBitExact is the tentpole equivalence check: a
// session fed frame by frame must produce *bit-identical* output to the
// whole-buffer renderer, because both run the same engine.
func TestStreamMatchesBatchBitExact(t *testing.T) {
	tab := testTable(t)
	rng := rand.New(rand.NewSource(5))
	mono := dsp.WhiteNoise(20000, rng)

	r := &render.Renderer{Table: tab}
	wantL, wantR, err := r.RenderMoving(mono, func(float64) float64 { return 70 })
	if err != nil {
		t.Fatal(err)
	}

	s, err := stream.NewSession(tab, stream.SessionOptions{SourceDeg: 70})
	if err != nil {
		t.Fatal(err)
	}
	gotL := make([]float64, 0, len(wantL))
	gotR := make([]float64, 0, len(wantR))
	bufL := make([]float64, 1024)
	bufR := make([]float64, 1024)
	drain := func() {
		for {
			n := s.ReadFrame(bufL, bufR)
			if n == 0 {
				return
			}
			gotL = append(gotL, bufL[:n]...)
			gotR = append(gotR, bufR[:n]...)
		}
	}
	// Irregular frame sizes exercise the pending-buffer bookkeeping.
	for off, i := 0, 0; off < len(mono); i++ {
		n := min(37+257*(i%7), len(mono)-off)
		if acc := s.PushFrame(mono[off : off+n]); acc != n {
			t.Fatalf("push at %d accepted %d of %d", off, acc, n)
		}
		off += n
		drain()
	}
	s.Flush()
	drain()
	if !s.Drained() {
		t.Fatal("session not drained after flush")
	}

	if len(gotL) != len(wantL) {
		t.Fatalf("stream produced %d samples, batch %d", len(gotL), len(wantL))
	}
	for i := range gotL {
		if gotL[i] != wantL[i] || gotR[i] != wantR[i] {
			t.Fatalf("sample %d differs: stream (%g,%g) batch (%g,%g)",
				i, gotL[i], gotR[i], wantL[i], wantR[i])
		}
	}

	st := s.Stats()
	if st.SamplesIn != uint64(len(mono)) || st.SamplesOut != uint64(len(wantL)) {
		t.Errorf("stats samples in/out %d/%d, want %d/%d",
			st.SamplesIn, st.SamplesOut, len(mono), len(wantL))
	}
	if st.OverrunSamples != 0 {
		t.Errorf("unexpected overruns: %d", st.OverrunSamples)
	}
}

// TestConvolverPartitionedLongIR forces the multi-partition path (IR much
// longer than the FFT block) and checks the stream against a direct
// convolution: with a static source the Bartlett windows sum to one, so
// the output must equal single convolution up to FFT rounding.
func TestConvolverPartitionedLongIR(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const irLen = 3000
	tab := hrtf.NewTable(48000, 0, 90, 3)
	for i := 0; i < 3; i++ {
		tab.Far[i] = hrtf.HRIR{
			Left:       dsp.WhiteNoise(irLen, rng),
			Right:      dsp.WhiteNoise(irLen-100, rng),
			SampleRate: 48000,
		}
	}
	mono := dsp.WhiteNoise(4000, rng)

	c, err := stream.NewConvolver(tab, stream.ConvolverOptions{BlockSize: 128, MaxPending: len(mono)})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetArrivals([]stream.Arrival{{AngleDeg: 90, Gain: 1}}); err != nil {
		t.Fatal(err)
	}
	c.Push(mono)
	c.Flush()
	gotL := make([]float64, len(mono)+irLen)
	gotR := make([]float64, len(mono)+irLen)
	if n := c.Read(gotL, gotR); n != len(gotL) {
		t.Fatalf("read %d of %d", n, len(gotL))
	}

	wantL := dsp.Convolve(mono, tab.Far[1].Left)
	wantR := dsp.Convolve(mono, tab.Far[1].Right)
	scale := math.Sqrt(dsp.Energy(wantL) / float64(len(wantL)))
	for i := range wantL {
		if math.Abs(gotL[i]-wantL[i]) > 1e-9*scale*100 {
			t.Fatalf("left sample %d: %g vs %g", i, gotL[i], wantL[i])
		}
	}
	for i := range wantR {
		if math.Abs(gotR[i]-wantR[i]) > 1e-9*scale*100 {
			t.Fatalf("right sample %d: %g vs %g", i, gotR[i], wantR[i])
		}
	}
}

// TestConvolverZeroAllocSteadyState pins the hot-path allocation budget.
func TestConvolverZeroAllocSteadyState(t *testing.T) {
	tab := testTable(t)
	c, err := stream.NewConvolver(tab, stream.ConvolverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetArrivals([]stream.Arrival{{AngleDeg: 60, Gain: 1}}); err != nil {
		t.Fatal(err)
	}
	hop := c.BlockSize() / 2
	in := make([]float64, hop)
	for i := range in {
		in[i] = math.Sin(float64(i) * 0.01)
	}
	outL := make([]float64, hop)
	outR := make([]float64, hop)
	// Prime: fill the pipeline and warm the FFT scratch pools.
	for i := 0; i < 8; i++ {
		c.Push(in)
		c.Read(outL, outR)
	}
	allocs := testing.AllocsPerRun(200, func() {
		c.Push(in)
		c.Read(outL, outR)
	})
	if allocs != 0 {
		t.Errorf("steady-state Push+Read allocates %.1f times per cycle, want 0", allocs)
	}
}

// TestConvolverOverrunAccounting drives the engine past its pending bound
// with no reader and checks every sample is either accepted or counted.
func TestConvolverOverrunAccounting(t *testing.T) {
	tab := testTable(t)
	block := 256
	c, err := stream.NewConvolver(tab, stream.ConvolverOptions{BlockSize: block, MaxPending: block})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetArrivals([]stream.Arrival{{AngleDeg: 90, Gain: 1}}); err != nil {
		t.Fatal(err)
	}
	total, accepted := 0, 0
	chunk := make([]float64, block)
	for i := range chunk {
		chunk[i] = 1
	}
	for i := 0; i < 40; i++ {
		accepted += c.Push(chunk)
		total += len(chunk)
	}
	if c.Overruns() == 0 {
		t.Fatal("no overruns despite an absent reader")
	}
	if accepted+int(c.Overruns()) != total {
		t.Fatalf("accepted %d + overruns %d != pushed %d", accepted, c.Overruns(), total)
	}
	// Draining the output must free the engine to accept input again.
	outL := make([]float64, 4*block)
	outR := make([]float64, 4*block)
	for c.Read(outL, outR) > 0 {
	}
	before := c.Overruns()
	if n := c.Push(chunk); n == 0 {
		t.Error("engine still refuses input after the reader drained it")
	}
	if c.Overruns() != before {
		t.Error("post-drain push should not overrun")
	}
}

// synthStatic renders a stereo stream of an unknown source at a fixed
// angle straight through the table's own HRIRs (clean templates, so the
// estimator has no model mismatch).
func synthStatic(t *testing.T, tab *hrtf.Table, deg float64, n int, seed int64) (l, r []float64) {
	t.Helper()
	h, err := tab.FarAt(deg)
	if err != nil {
		t.Fatal(err)
	}
	src := dsp.WhiteNoise(n, rand.New(rand.NewSource(seed)))
	l, r = h.Render(src)
	return l[:n], r[:n]
}

// TestAoATrackerStaticMatchesBatch: on a static source the tracker's first
// raw estimate must equal the one-shot batch estimator on the same
// window, and the committed angle must stay near the truth.
func TestAoATrackerStaticMatchesBatch(t *testing.T) {
	tab := testTable(t)
	const deg = 40.0
	tr, err := stream.NewAoATracker(tab, stream.TrackerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	w := tr.Window()
	l, r := synthStatic(t, tab, deg, 4*w, 77)

	batch, err := core.EstimateAoAUnknown(l[:w], r[:w], tab, core.AoAOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(batch.AngleDeg-deg) > tab.AngleStep {
		t.Fatalf("batch estimator off by %g deg; fixture unusable", batch.AngleDeg-deg)
	}

	var events []stream.AngleEvent
	for off := 0; off < len(l); {
		n := min(999, len(l)-off)
		events = append(events, tr.Push(l[off:off+n], r[off:off+n])...)
		off += n
	}
	if len(events) == 0 {
		t.Fatal("no angle events")
	}
	if events[0].RawDeg != batch.AngleDeg || events[0].Score != batch.Score {
		t.Errorf("first window raw (%g, %g) != batch (%g, %g)",
			events[0].RawDeg, events[0].Score, batch.AngleDeg, batch.Score)
	}
	if events[0].AngleDeg != events[0].RawDeg {
		t.Error("first event should commit its raw estimate")
	}
	for i, ev := range events {
		if math.Abs(ev.AngleDeg-deg) > 2*tab.AngleStep {
			t.Errorf("event %d committed %g deg, want ~%g", i, ev.AngleDeg, deg)
		}
	}
	if tr.Windows() == 0 || tr.Overruns() != 0 {
		t.Errorf("windows %d, overruns %d", tr.Windows(), tr.Overruns())
	}
}

// TestAoATrackerSmoothingAndHysteresis checks both halves of the
// stabilizer: a huge deadband pins the committed angle through a source
// jump, while alpha=1 with no deadband tracks the jump.
func TestAoATrackerSmoothingAndHysteresis(t *testing.T) {
	tab := testTable(t)
	const degA, degB = 30.0, 120.0
	mk := func(opt stream.TrackerOptions) []stream.AngleEvent {
		tr, err := stream.NewAoATracker(tab, opt)
		if err != nil {
			t.Fatal(err)
		}
		w := tr.Window()
		la, ra := synthStatic(t, tab, degA, 3*w, 1)
		lb, rb := synthStatic(t, tab, degB, 3*w, 2)
		events := tr.Push(la, ra)
		events = append(events, tr.Push(lb, rb)...)
		if len(events) < 4 {
			t.Fatalf("only %d events", len(events))
		}
		return events
	}

	pinned := mk(stream.TrackerOptions{HysteresisDeg: 500})
	first := pinned[0].AngleDeg
	for i, ev := range pinned {
		if ev.AngleDeg != first {
			t.Errorf("huge deadband: event %d moved to %g", i, ev.AngleDeg)
		}
	}

	tracking := mk(stream.TrackerOptions{Smoothing: 1, HysteresisDeg: -1})
	last := tracking[len(tracking)-1]
	if math.Abs(last.AngleDeg-degB) > 2*tab.AngleStep {
		t.Errorf("alpha=1 tracker ended at %g deg, want ~%g", last.AngleDeg, degB)
	}
	if math.Abs(tracking[0].AngleDeg-degA) > 2*tab.AngleStep {
		t.Errorf("alpha=1 tracker started at %g deg, want ~%g", tracking[0].AngleDeg, degA)
	}
}

// TestAoATrackerOverruns checks the tracker's pending bound.
func TestAoATrackerOverruns(t *testing.T) {
	tab := testTable(t)
	tr, err := stream.NewAoATracker(tab, stream.TrackerOptions{Window: 512, MaxPending: 512})
	if err != nil {
		t.Fatal(err)
	}
	l, r := synthStatic(t, tab, 60, 5*512, 3)
	tr.Push(l, r)
	if tr.Overruns() != uint64(4*512) {
		t.Errorf("overruns %d, want %d", tr.Overruns(), 4*512)
	}
}

// TestAoATrackerZeroAllocSteadyState pins the estimation hot path: once the
// estimator's plans and scratch are warm, a hop of stereo input in and one
// eq. 11 estimate out must not allocate at all.
func TestAoATrackerZeroAllocSteadyState(t *testing.T) {
	tab := testTable(t)
	tr, err := stream.NewAoATracker(tab, stream.TrackerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	w := tr.Window()
	l, r := synthStatic(t, tab, 40, w, 4)
	// Prime one full window so every subsequent push completes a hop, and
	// warm the FFT scratch pools.
	if ev := tr.Push(l, r); len(ev) == 0 {
		t.Fatal("priming window produced no estimate")
	}
	hop := tr.Hop()
	allocs := testing.AllocsPerRun(100, func() {
		if ev := tr.Push(l[:hop], r[:hop]); len(ev) == 0 {
			t.Fatal("hop produced no estimate")
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state Push allocates %.1f times per hop, want 0", allocs)
	}
}

// TestSessionUnderrunsAndPose covers the remaining Session surface:
// underrun accounting for a starved reader, pose updates changing the
// rendered image, and stats totals.
func TestSessionUnderrunsAndPose(t *testing.T) {
	tab := testTable(t)
	s, err := stream.NewSession(tab, stream.SessionOptions{SourceDeg: 90})
	if err != nil {
		t.Fatal(err)
	}
	bufL := make([]float64, 100)
	bufR := make([]float64, 100)
	if n := s.ReadFrame(bufL, bufR); n != 0 {
		t.Fatalf("read %d from an empty session", n)
	}
	if st := s.Stats(); st.UnderrunSamples != 100 {
		t.Errorf("underruns %d, want 100", st.UnderrunSamples)
	}

	// Same input rendered under two head poses must differ (the relative
	// angle moved), and a 0-yaw session must match a SetPose(0) session.
	mono := dsp.Tone(600, 0.1, tab.SampleRate)
	renderWith := func(yaw float64) []float64 {
		sess, err := stream.NewSession(tab, stream.SessionOptions{SourceDeg: 90})
		if err != nil {
			t.Fatal(err)
		}
		sess.SetPose(yaw)
		sess.PushFrame(mono)
		sess.Flush()
		out := make([]float64, len(mono)+sess.TailLen())
		outR := make([]float64, len(out))
		for off := 0; off < len(out); {
			n := sess.ReadFrame(out[off:], outR[off:])
			if n == 0 {
				break
			}
			off += n
		}
		if !sess.Drained() {
			t.Fatal("session not drained")
		}
		return out
	}
	straight := renderWith(0)
	turned := renderWith(60)
	same := renderWith(0)
	diff := 0.0
	for i := range straight {
		diff += math.Abs(straight[i] - turned[i])
		if straight[i] != same[i] {
			t.Fatal("identical poses rendered differently")
		}
	}
	if diff == 0 {
		t.Error("head turn did not change the rendering")
	}
}

// renderSession streams mono through a fresh session with the given
// source bearing and head yaw, returning the whole binaural output.
func renderSession(t *testing.T, tab *hrtf.Table, sourceDeg, yawDeg float64, mono []float64) (l, r []float64) {
	t.Helper()
	s, err := stream.NewSession(tab, stream.SessionOptions{SourceDeg: sourceDeg, HasSource: true})
	if err != nil {
		t.Fatal(err)
	}
	s.SetPose(yawDeg)
	s.PushFrame(mono)
	s.Flush()
	bufL, bufR := make([]float64, 1024), make([]float64, 1024)
	for {
		n := s.ReadFrame(bufL, bufR)
		if n == 0 {
			break
		}
		l = append(l, bufL[:n]...)
		r = append(r, bufR[:n]...)
	}
	if !s.Drained() {
		t.Fatal("session not drained")
	}
	return l, r
}

// TestSessionRightHemisphereSwapsEars is the regression test for the
// single-source mirror bug: a right-hemisphere relative angle renders
// through its left-hemisphere mirror, so it must come out as the mirror
// render with the ears exchanged. The old Session folded 290° to 70°
// without the swap, so a source on the right was heard on the left.
func TestSessionRightHemisphereSwapsEars(t *testing.T) {
	tab := testTable(t)
	mono := dsp.WhiteNoise(6000, rand.New(rand.NewSource(23)))
	l70, r70 := renderSession(t, tab, 70, 0, mono)
	differ := false
	for i := range l70 {
		if l70[i] != r70[i] {
			differ = true
			break
		}
	}
	if !differ {
		t.Fatal("70° render has identical ears; the mirror check is vacuous")
	}
	for _, tc := range []struct {
		name        string
		source, yaw float64
	}{
		{"source 290", 290, 0},
		{"source 90 yaw 160", 90, 160}, // relative -70° = 290°
	} {
		l, r := renderSession(t, tab, tc.source, tc.yaw, mono)
		if len(l) != len(l70) {
			t.Fatalf("%s: %d samples, 70° render %d", tc.name, len(l), len(l70))
		}
		for i := range l {
			if l[i] != r70[i] || r[i] != l70[i] {
				t.Errorf("%s: sample %d is (%g,%g), want the ear-swapped 70° render (%g,%g)",
					tc.name, i, l[i], r[i], r70[i], l70[i])
				break
			}
		}
	}
}
