package stream_test

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/dsp"
	"repro/internal/hrtf"
	"repro/internal/render"
	"repro/internal/room"
	"repro/internal/stream"
)

// testRoom is the frozen room used across scene tests: the default
// home-measurement shoebox with 2nd-order images.
func testRoom() room.Config { return room.DefaultConfig() }

// drainScene appends everything the scene can currently deliver.
func drainScene(sc *stream.Scene, gotL, gotR *[]float64, bufL, bufR []float64) {
	for {
		n := sc.ReadFrame(bufL, bufR)
		if n == 0 {
			return
		}
		*gotL = append(*gotL, bufL[:n]...)
		*gotR = append(*gotR, bufR[:n]...)
	}
}

// TestSceneSingleSourceFreeFieldBitExact: Session is a one-source
// free-field scene, so identical frame schedules must produce
// bit-identical output.
func TestSceneSingleSourceFreeFieldBitExact(t *testing.T) {
	tab := testTable(t)
	rng := rand.New(rand.NewSource(7))
	mono := dsp.WhiteNoise(12000, rng)

	ses, err := stream.NewSession(tab, stream.SessionOptions{SourceDeg: 70})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := stream.NewScene(tab, stream.SceneOptions{
		Sources: []stream.SceneSource{{BearingDeg: 70}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sc.TailLen() != ses.TailLen() {
		t.Fatalf("free-field scene tail %d, session tail %d", sc.TailLen(), ses.TailLen())
	}

	var sesL, sesR, scL, scR []float64
	bufL, bufR := make([]float64, 1024), make([]float64, 1024)
	// Matching irregular frame schedules with yaw updates at the same
	// offsets.
	yaws := []float64{0, 15, -20, 40, 5}
	for off, i := 0, 0; off < len(mono); i++ {
		yaw := yaws[i%len(yaws)]
		ses.SetPose(yaw)
		sc.SetPose(yaw)
		n := min(37+257*(i%7), len(mono)-off)
		ses.PushFrame(mono[off : off+n])
		if _, err := sc.PushFrame(0, mono[off:off+n]); err != nil {
			t.Fatal(err)
		}
		off += n
		for {
			k := ses.ReadFrame(bufL, bufR)
			if k == 0 {
				break
			}
			sesL = append(sesL, bufL[:k]...)
			sesR = append(sesR, bufR[:k]...)
		}
		drainScene(sc, &scL, &scR, bufL, bufR)
	}
	ses.Flush()
	sc.Flush()
	for {
		k := ses.ReadFrame(bufL, bufR)
		if k == 0 {
			break
		}
		sesL = append(sesL, bufL[:k]...)
		sesR = append(sesR, bufR[:k]...)
	}
	drainScene(sc, &scL, &scR, bufL, bufR)

	if len(scL) != len(sesL) {
		t.Fatalf("scene produced %d samples, session %d", len(scL), len(sesL))
	}
	for i := range scL {
		if scL[i] != sesL[i] || scR[i] != sesR[i] {
			t.Fatalf("sample %d differs: scene (%g,%g) session (%g,%g)",
				i, scL[i], scR[i], sesL[i], sesR[i])
		}
	}
}

// TestSceneMatchesRoomRendererBitExact is the tentpole equivalence check
// for the room path: a scene streamed frame by frame with MaxOrder 2
// must produce bit-identical output to the whole-buffer RoomRenderer on
// a frozen input, because both run the same engine (RoomRenderer is a
// one-source Scene).
func TestSceneMatchesRoomRendererBitExact(t *testing.T) {
	tab := testTable(t)
	rng := rand.New(rand.NewSource(11))
	mono := dsp.WhiteNoise(20000, rng)
	const bearing, dist = 75, 1.8

	rr := &render.RoomRenderer{Table: tab, Room: testRoom()}
	wantL, wantR, err := rr.Render(mono, bearing, dist)
	if err != nil {
		t.Fatal(err)
	}

	sc, err := stream.NewScene(tab, stream.SceneOptions{
		Room:    testRoom(),
		Sources: []stream.SceneSource{{BearingDeg: bearing, Distance: dist}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var gotL, gotR []float64
	bufL, bufR := make([]float64, 1024), make([]float64, 1024)
	for off, i := 0, 0; off < len(mono); i++ {
		n := min(37+257*(i%7), len(mono)-off)
		acc, err := sc.PushFrame(0, mono[off:off+n])
		if err != nil {
			t.Fatal(err)
		}
		if acc != n {
			t.Fatalf("push at %d accepted %d of %d", off, acc, n)
		}
		off += n
		drainScene(sc, &gotL, &gotR, bufL, bufR)
	}
	sc.Flush()
	drainScene(sc, &gotL, &gotR, bufL, bufR)
	if !sc.Drained() {
		t.Fatal("scene not drained after flush")
	}

	if len(gotL) != len(wantL) {
		t.Fatalf("scene produced %d samples, RoomRenderer %d", len(gotL), len(wantL))
	}
	for i := range gotL {
		if gotL[i] != wantL[i] || gotR[i] != wantR[i] {
			t.Fatalf("sample %d differs: scene (%g,%g) batch (%g,%g)",
				i, gotL[i], gotR[i], wantL[i], wantR[i])
		}
	}

	st := sc.Stats()
	if st.Sources != 1 || st.OverrunSamples != 0 || !st.Drained {
		t.Errorf("unexpected stats: %+v", st)
	}
}

// TestSceneMixIsSumOfSingleSourceScenes: the mix must be the per-sample
// sum of each source rendered alone (same distances so the room headroom
// — and thus the tails — match).
func TestSceneMixIsSumOfSingleSourceScenes(t *testing.T) {
	tab := testTable(t)
	rng := rand.New(rand.NewSource(13))
	inputs := [][]float64{
		dsp.WhiteNoise(9000, rng),
		dsp.WhiteNoise(9000, rng),
	}
	cfgs := []stream.SceneSource{
		{BearingDeg: 40, Distance: 2, Gain: 1},
		{BearingDeg: 250, Distance: 2, Gain: 0.5},
	}

	renderOne := func(srcs []stream.SceneSource, ins [][]float64) ([]float64, []float64) {
		sc, err := stream.NewScene(tab, stream.SceneOptions{Room: testRoom(), Sources: srcs})
		if err != nil {
			t.Fatal(err)
		}
		var l, r []float64
		bufL, bufR := make([]float64, 512), make([]float64, 512)
		for off := 0; off < len(ins[0]); off += 512 {
			end := min(off+512, len(ins[0]))
			for i, in := range ins {
				if _, err := sc.PushFrame(i, in[off:end]); err != nil {
					t.Fatal(err)
				}
			}
			drainScene(sc, &l, &r, bufL, bufR)
		}
		sc.Flush()
		drainScene(sc, &l, &r, bufL, bufR)
		return l, r
	}

	mixL, mixR := renderOne(cfgs, inputs)
	aL, aR := renderOne(cfgs[:1], inputs[:1])
	bL, bR := renderOne(cfgs[1:], inputs[1:])

	if len(mixL) != len(aL) || len(mixL) != len(bL) {
		t.Fatalf("length mismatch: mix %d, singles %d/%d", len(mixL), len(aL), len(bL))
	}
	for i := range mixL {
		if mixL[i] != aL[i]+bL[i] || mixR[i] != aR[i]+bR[i] {
			t.Fatalf("sample %d: mix (%g,%g) != sum (%g,%g)",
				i, mixL[i], mixR[i], aL[i]+bL[i], aR[i]+bR[i])
		}
	}
}

// TestSceneMirrorBearingSwapsEars: a free-field source at 360-θ is the
// θ source with the ears exchanged (the fold+swap the room path always
// had and the direct path now shares).
func TestSceneMirrorBearingSwapsEars(t *testing.T) {
	tab := testTable(t)
	rng := rand.New(rand.NewSource(17))
	mono := dsp.WhiteNoise(6000, rng)

	renderAt := func(bearing float64) ([]float64, []float64) {
		sc, err := stream.NewScene(tab, stream.SceneOptions{
			Sources: []stream.SceneSource{{BearingDeg: bearing}},
		})
		if err != nil {
			t.Fatal(err)
		}
		var l, r []float64
		bufL, bufR := make([]float64, 1024), make([]float64, 1024)
		sc.PushFrame(0, mono)
		sc.Flush()
		drainScene(sc, &l, &r, bufL, bufR)
		return l, r
	}
	l1, r1 := renderAt(70)
	l2, r2 := renderAt(290) // 360 - 70: right hemisphere
	if len(l1) != len(l2) {
		t.Fatalf("length mismatch %d vs %d", len(l1), len(l2))
	}
	for i := range l1 {
		if l1[i] != r2[i] || r1[i] != l2[i] {
			t.Fatalf("sample %d: mirrored bearing should swap ears exactly", i)
		}
	}
}

// TestSceneZeroAllocSteadyState pins the room scene's hot path: with two
// order-2 sources, a pose update, one hop in per source and one mixed hop
// out allocate nothing, the delay-line filter rebuild included.
func TestSceneZeroAllocSteadyState(t *testing.T) {
	tab := testTable(t)
	sc, err := stream.NewScene(tab, stream.SceneOptions{
		Room:    testRoom(),
		Sources: []stream.SceneSource{{BearingDeg: 40, Distance: 1.5}, {BearingDeg: 250, Distance: 2.5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	hop := sc.BlockSize() / 2
	in := make([]float64, hop)
	for i := range in {
		in[i] = math.Sin(float64(i) * 0.01)
	}
	outL, outR := make([]float64, hop), make([]float64, hop)
	yaw := 0.0
	cycle := func() {
		yaw += 7
		sc.SetPose(yaw)
		for i := 0; i < 2; i++ {
			if _, err := sc.PushFrame(i, in); err != nil {
				t.Fatal(err)
			}
		}
		sc.ReadFrame(outL, outR)
	}
	for i := 0; i < 8; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Errorf("steady-state SetPose+PushFrame+ReadFrame allocates %.1f times per cycle, want 0", allocs)
	}
}

// TestSceneRace exercises concurrent per-source producers, a consumer,
// and pose/bearing updates under the race detector.
func TestSceneRace(t *testing.T) {
	tab := testTable(t)
	const nSrc = 3
	srcs := make([]stream.SceneSource, nSrc)
	for i := range srcs {
		srcs[i] = stream.SceneSource{BearingDeg: float64(30 + 60*i), Distance: 1.5}
	}
	sc, err := stream.NewScene(tab, stream.SceneOptions{Room: testRoom(), Sources: srcs})
	if err != nil {
		t.Fatal(err)
	}

	const total = 12000
	var wg sync.WaitGroup
	for i := 0; i < nSrc; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + i)))
			mono := dsp.WhiteNoise(total, rng)
			for off := 0; off < total; {
				n := min(480, total-off)
				// Drops at the pending bound are fine here; the stream
				// stays consistent either way.
				sc.PushFrame(i, mono[off:off+n])
				off += n
			}
			sc.FlushSource(i)
		}(i)
	}
	// Pose and bearing writers.
	wg.Add(2)
	go func() {
		defer wg.Done()
		for k := 0; k < 500; k++ {
			sc.SetPose(float64(k % 360))
		}
	}()
	go func() {
		defer wg.Done()
		for k := 0; k < 500; k++ {
			if err := sc.SetBearing(k%nSrc, float64(k)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	// Consumer: drain until every source has ended.
	bufL, bufR := make([]float64, 960), make([]float64, 960)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for !sc.Drained() {
			if sc.ReadFrame(bufL, bufR) == 0 {
				runtime.Gosched()
			}
		}
	}()
	wg.Wait()
	<-done
	st := sc.Stats()
	if st.Sources != nSrc || !st.Flushed || !st.Drained {
		t.Errorf("unexpected final stats: %+v", st)
	}
	if st.SamplesOut == 0 {
		t.Error("race run produced no output")
	}
}

// TestSceneShortSourceDrainsEarly: a source that flushes before the
// others contributes its tail and then silence without holding the
// timeline back.
func TestSceneShortSourceDrainsEarly(t *testing.T) {
	tab := testTable(t)
	sc, err := stream.NewScene(tab, stream.SceneOptions{
		Sources: []stream.SceneSource{{BearingDeg: 60}, {BearingDeg: 120}},
	})
	if err != nil {
		t.Fatal(err)
	}
	long := make([]float64, 8000)
	short := make([]float64, 2000)
	for i := range long {
		long[i] = 0.5
	}
	for i := range short {
		short[i] = -0.25
	}
	sc.PushFrame(0, long)
	sc.PushFrame(1, short)
	sc.FlushSource(1)
	var l, r []float64
	bufL, bufR := make([]float64, 1024), make([]float64, 1024)
	drainScene(sc, &l, &r, bufL, bufR)
	sc.FlushSource(0)
	drainScene(sc, &l, &r, bufL, bufR)
	if !sc.Drained() {
		t.Fatal("scene not drained")
	}
	want := len(long) + sc.TailLen()
	if len(l) != want {
		t.Fatalf("mixed output %d samples, want %d (long source governs)", len(l), want)
	}
}

// TestScenePushBadSource pins index validation on the per-source entry
// points.
func TestScenePushBadSource(t *testing.T) {
	tab := testTable(t)
	sc, err := stream.NewScene(tab, stream.SceneOptions{
		Sources: []stream.SceneSource{{BearingDeg: 90}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.PushFrame(1, []float64{1}); err == nil {
		t.Error("push to missing source should fail")
	}
	if err := sc.SetBearing(-1, 10); err == nil {
		t.Error("bearing on missing source should fail")
	}
	if err := sc.FlushSource(2); err == nil {
		t.Error("flush of missing source should fail")
	}
	if _, err := stream.NewScene(tab, stream.SceneOptions{}); err == nil {
		t.Error("scene without sources should fail")
	}
	bad := testRoom()
	bad.Origin.X = -3 // outside the room: Validate (fixed) must reject
	if _, err := stream.NewScene(tab, stream.SceneOptions{
		Room:    bad,
		Sources: []stream.SceneSource{{BearingDeg: 90}},
	}); err == nil {
		t.Error("invalid room config should fail scene construction")
	}
}

// TestSceneRejectsNonFiniteGeometry is the regression test for a panic: a
// NaN bearing on a room scene turned into an int(NaN) image delay, which
// SetArrivals refused and applyPose turned into "scene arrivals exceed
// headroom". Non-finite bearings and distances are errors now, and a
// refused bearing leaves the source where it was.
func TestSceneRejectsNonFiniteGeometry(t *testing.T) {
	tab := testTable(t)
	sc, err := stream.NewScene(tab, stream.SceneOptions{
		Room:    testRoom(),
		Sources: []stream.SceneSource{{BearingDeg: 40}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, deg := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := sc.SetBearing(0, deg); err == nil {
			t.Errorf("SetBearing(0, %g) accepted", deg)
		}
	}
	// The source still renders from its last good bearing.
	ref, err := stream.NewScene(tab, stream.SceneOptions{
		Room:    testRoom(),
		Sources: []stream.SceneSource{{BearingDeg: 40}},
	})
	if err != nil {
		t.Fatal(err)
	}
	mono := dsp.WhiteNoise(4*sc.BlockSize(), rand.New(rand.NewSource(5)))
	render := func(sc *stream.Scene) (l, r []float64) {
		if _, err := sc.PushFrame(0, mono); err != nil {
			t.Fatal(err)
		}
		sc.Flush()
		drainScene(sc, &l, &r, make([]float64, 1024), make([]float64, 1024))
		return l, r
	}
	gotL, gotR := render(sc)
	wantL, wantR := render(ref)
	if len(gotL) != len(wantL) {
		t.Fatalf("rendered %d samples, want %d", len(gotL), len(wantL))
	}
	for i := range gotL {
		if gotL[i] != wantL[i] || gotR[i] != wantR[i] {
			t.Fatalf("sample %d differs from an untouched scene", i)
		}
	}

	for _, src := range []stream.SceneSource{
		{BearingDeg: math.NaN()},
		{BearingDeg: math.Inf(1)},
		{BearingDeg: 90, Distance: math.NaN()},
		{BearingDeg: 90, Distance: math.Inf(1)},
	} {
		if _, err := stream.NewScene(tab, stream.SceneOptions{
			Room:    testRoom(),
			Sources: []stream.SceneSource{src},
		}); err == nil {
			t.Errorf("NewScene accepted source %+v", src)
		}
	}
}

// TestSessionZeroSourceDegSticks is the regression test for the
// unset-vs-zero bearing fix: SourceDeg 0 with HasSource must render at
// 0°, while the zero-value options keep the historical 90° default.
func TestSessionZeroSourceDegSticks(t *testing.T) {
	tab := testTable(t)
	rng := rand.New(rand.NewSource(19))
	mono := dsp.WhiteNoise(4000, rng)

	renderWith := func(opt stream.SessionOptions, setSource *float64) ([]float64, []float64) {
		s, err := stream.NewSession(tab, opt)
		if err != nil {
			t.Fatal(err)
		}
		if setSource != nil {
			s.SetSource(*setSource)
		}
		s.PushFrame(mono)
		s.Flush()
		var l, r []float64
		bufL, bufR := make([]float64, 1024), make([]float64, 1024)
		for {
			n := s.ReadFrame(bufL, bufR)
			if n == 0 {
				break
			}
			l = append(l, bufL[:n]...)
			r = append(r, bufR[:n]...)
		}
		return l, r
	}

	zero := 0.0
	hardSide, _ := renderWith(stream.SessionOptions{SourceDeg: 0, HasSource: true}, nil)
	explicitZero, _ := renderWith(stream.SessionOptions{}, &zero) // SetSource(0) reference
	defaulted, _ := renderWith(stream.SessionOptions{}, nil)
	explicit90, _ := renderWith(stream.SessionOptions{SourceDeg: 90}, nil)

	// Pre-fix, SourceDeg 0 silently became 90: hardSide would equal
	// defaulted. Post-fix it must match an explicit SetSource(0).
	for i := range hardSide {
		if hardSide[i] != explicitZero[i] {
			t.Fatalf("sample %d: HasSource 0° differs from SetSource(0)", i)
		}
	}
	same := true
	for i := range hardSide {
		if hardSide[i] != defaulted[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("0° render is identical to the 90° default; the bearing did not stick")
	}
	// The zero-value default is unchanged: still 90°.
	for i := range defaulted {
		if defaulted[i] != explicit90[i] {
			t.Fatalf("sample %d: zero-value options no longer default to 90°", i)
		}
	}
}

// TestConvolverPendingBound pins the documented input bound: a fresh
// convolver accepts exactly MaxPending + BlockSize samples before its
// first drop (the extra block is overlap history riding in the FIFO).
func TestConvolverPendingBound(t *testing.T) {
	tab := testTable(t)
	const maxPending, block = 1000, 960
	c, err := stream.NewConvolver(tab, stream.ConvolverOptions{
		BlockSize:  block,
		MaxPending: maxPending,
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.BlockSize() != block {
		t.Fatalf("block size %d, want %d", c.BlockSize(), block)
	}
	in := make([]float64, 3*maxPending)
	got := c.Push(in)
	if want := maxPending + block; got != want {
		t.Fatalf("first push accepted %d samples, want MaxPending+BlockSize = %d", got, want)
	}
	if want := uint64(len(in) - maxPending - block); c.Overruns() != want {
		t.Fatalf("overruns %d, want %d", c.Overruns(), want)
	}
}

// TestFoldIntoSpan pins the exported fold: angle mapping plus the
// hemisphere (ear-swap) flag.
func TestFoldIntoSpan(t *testing.T) {
	full := testTable(t)
	// Angles outside a narrower table's span clamp to its edges; the
	// hemisphere flag still reports the fold.
	narrow := hrtf.NewTable(48000, 20, 10, 5) // spans [20, 60]
	cases := []struct {
		tab      *hrtf.Table
		in, want float64
		swap     bool
	}{
		{full, 10, 10, false}, {full, 190, 170, true}, {full, 350, 10, true},
		{full, -30, 30, true}, {full, 370, 10, false},
		{full, 0, 0, false}, {full, 180, 180, false}, {full, 360, 0, false},
		{full, -360, 0, false}, {full, 540, 180, false}, {full, -180, 180, false},
		{full, 180.5, 179.5, true}, {full, -0.5, 0.5, true}, {full, 359.5, 0.5, true},
		{narrow, 5, 20, false}, {narrow, 20, 20, false}, {narrow, 60, 60, false},
		{narrow, 170, 60, false}, {narrow, 355, 20, true},
	}
	for _, tc := range cases {
		got, swap := stream.FoldIntoSpan(tc.in, tc.tab)
		if gotDiff := got - tc.want; gotDiff > 1e-9 || gotDiff < -1e-9 || swap != tc.swap {
			t.Errorf("FoldIntoSpan(%g) over [%g, %g] = (%g, %v), want (%g, %v)",
				tc.in, tc.tab.MinAngle, tc.tab.MaxAngle(), got, swap, tc.want, tc.swap)
		}
	}
}
