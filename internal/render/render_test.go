package render

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dsp"
	"repro/internal/geom"
	"repro/internal/hrtf"
	"repro/internal/room"
	"repro/internal/sim"
	"repro/internal/stream"
)

// testTable builds a ground-truth far-field table for rendering tests.
func testTable(t *testing.T) *hrtf.Table {
	t.Helper()
	tab, err := sim.MeasureGroundTruthFar(sim.NewVolunteer(1, 3), 48000, 2)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestRenderMovingStaticEqualsConvolution(t *testing.T) {
	// With a constant angle, block rendering must equal a single
	// convolution (the Bartlett windows sum to one).
	tab := testTable(t)
	r := &Renderer{Table: tab}
	mono := dsp.Tone(500, 0.1, tab.SampleRate)
	l1, r1, err := r.RenderMoving(mono, func(float64) float64 { return 70 })
	if err != nil {
		t.Fatal(err)
	}
	h, err := tab.FarAt(70)
	if err != nil {
		t.Fatal(err)
	}
	l2, r2 := h.Render(mono)
	// Compare on the overlapping span.
	for i := 100; i < len(l2)-100 && i < len(l1); i++ {
		if math.Abs(l1[i]-l2[i]) > 1e-6 {
			t.Fatalf("left mismatch at %d: %g vs %g", i, l1[i], l2[i])
		}
		if math.Abs(r1[i]-r2[i]) > 1e-6 {
			t.Fatalf("right mismatch at %d: %g vs %g", i, r1[i], r2[i])
		}
	}
}

func TestRenderMovingNoClicks(t *testing.T) {
	// A source sweeping 0..180 degrees should produce no discontinuities
	// larger than the signal's own slew.
	tab := testTable(t)
	r := &Renderer{Table: tab}
	mono := dsp.Tone(400, 0.5, tab.SampleRate)
	sweep := func(t float64) float64 { return 360 * t } // fast sweep
	l, _, err := r.RenderMoving(mono, sweep)
	if err != nil {
		t.Fatal(err)
	}
	maxJump := 0.0
	for i := 1; i < len(l); i++ {
		if d := math.Abs(l[i] - l[i-1]); d > maxJump {
			maxJump = d
		}
	}
	// A 400 Hz unit tone slews at most 2*pi*400/48000 ~ 0.052 per
	// sample; allow the HRIR gain and a 3x margin.
	if maxJump > 0.3 {
		t.Errorf("click detected: max inter-sample jump %g", maxJump)
	}
}

func TestRenderMovingITDFollowsAngle(t *testing.T) {
	tab := testTable(t)
	r := &Renderer{Table: tab}
	click := dsp.DelayedImpulse(2048, 1024, 1)
	for _, deg := range []float64{30, 90, 150} {
		l, rr, err := r.RenderMoving(click, func(float64) float64 { return deg })
		if err != nil {
			t.Fatal(err)
		}
		li, _ := dsp.FirstPeak(l, 0.3)
		ri, _ := dsp.FirstPeak(rr, 0.3)
		gotITD := (li - ri) / tab.SampleRate
		h, _ := tab.FarAt(deg)
		wantITD := h.ITD()
		if math.Abs(gotITD-wantITD) > 4e-5 {
			t.Errorf("%g deg: rendered ITD %g, want %g", deg, gotITD, wantITD)
		}
	}
}

func TestRenderMovingErrors(t *testing.T) {
	r := &Renderer{}
	if _, _, err := r.RenderMoving([]float64{1}, func(float64) float64 { return 0 }); err != ErrNoTable {
		t.Errorf("want ErrNoTable, got %v", err)
	}
	tab := testTable(t)
	r = &Renderer{Table: tab}
	l, rr, err := r.RenderMoving(nil, func(float64) float64 { return 0 })
	if err != nil || l != nil || rr != nil {
		t.Error("empty input should render to nothing")
	}
	if _, _, err := r.RenderMoving([]float64{1}, nil); err == nil {
		t.Error("missing angle source should fail")
	}
}

// TestRenderMovingRightHemisphereSwapsEars is the regression test for
// the batch mirror bug: a constant right-hemisphere angle must render as
// its left-hemisphere mirror with the ears exchanged. The old
// RenderMoving folded 290° to 70° without the swap.
func TestRenderMovingRightHemisphereSwapsEars(t *testing.T) {
	tab := testTable(t)
	r := &Renderer{Table: tab}
	click := dsp.DelayedImpulse(2048, 1024, 1)
	l70, r70, err := r.RenderMoving(click, func(float64) float64 { return 70 })
	if err != nil {
		t.Fatal(err)
	}
	l290, r290, err := r.RenderMoving(click, func(float64) float64 { return 290 })
	if err != nil {
		t.Fatal(err)
	}
	if dsp.Energy(l70) <= dsp.Energy(r70) {
		t.Fatal("70° render should favour the left ear")
	}
	for i := range l70 {
		if l290[i] != r70[i] || r290[i] != l70[i] {
			t.Fatalf("sample %d: 290° render (%g,%g) is not the ear-swapped 70° render (%g,%g)",
				i, l290[i], r290[i], r70[i], l70[i])
		}
	}
}

// TestMirrorIntoSpan pins how the renderer folds angles into the table
// span: the fold it renders through (stream.FoldIntoSpan) maps each angle
// to its in-span mirror, and a constant-angle render equals the render at
// that mirror, with the ears exchanged when the fold crosses hemispheres.
func TestMirrorIntoSpan(t *testing.T) {
	tab := testTable(t)
	r := &Renderer{Table: tab}
	click := dsp.DelayedImpulse(2048, 1024, 1)
	renderAt := func(deg float64) (l, rr []float64) {
		t.Helper()
		l, rr, err := r.RenderMoving(click, func(float64) float64 { return deg })
		if err != nil {
			t.Fatal(err)
		}
		return l, rr
	}
	cases := []struct {
		in, want float64
		swap     bool
	}{
		// Interior and mirrored angles.
		{10, 10, false}, {190, 170, true}, {350, 10, true}, {-30, 30, true}, {370, 10, false},
		// Span edges, exactly: 0 and 180 must map to themselves, as must
		// their full-turn aliases.
		{0, 0, false}, {180, 180, false}, {360, 0, false}, {-360, 0, false},
		{540, 180, false}, {-180, 180, false},
		// Just past an edge: mirrors back inside, never out of span.
		{180.5, 179.5, true}, {-0.5, 0.5, true}, {359.5, 0.5, true},
	}
	for _, tc := range cases {
		if got, _ := stream.FoldIntoSpan(tc.in, tab); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("mirror(%g) = %g, want %g", tc.in, got, tc.want)
		}
		lIn, rIn := renderAt(tc.in)
		lWant, rWant := renderAt(tc.want)
		if tc.swap {
			lWant, rWant = rWant, lWant
		}
		for i := range lIn {
			if lIn[i] != lWant[i] || rIn[i] != rWant[i] {
				t.Errorf("%g° render differs from its %g° mirror (swap %v) at sample %d", tc.in, tc.want, tc.swap, i)
				break
			}
		}
	}
	// Angles outside a narrower table's span clamp to its edges.
	narrow := hrtf.NewTable(48000, 20, 10, 5) // spans [20, 60]
	for in, want := range map[float64]float64{5: 20, 20: 20, 60: 60, 170: 60, 355: 20} {
		if got, _ := stream.FoldIntoSpan(in, narrow); math.Abs(got-want) > 1e-9 {
			t.Errorf("narrow mirror(%g) = %g, want %g", in, got, want)
		}
	}
}

// TestRenderMovingGoldenInSpan pins the bits of an in-span sweep (5° to
// 175°, an input length that is not a whole hop). The hash was recorded
// when the convolver sampled the angle through a per-block callback, so
// feeding the scene hop by hop must reproduce that schedule exactly.
func TestRenderMovingGoldenInSpan(t *testing.T) {
	const (
		wantLen  = 12585
		wantHash = "18070d2682ce9b1c010ec03046470e1a437fbf1ac8b9a651f726a02f0dfb00b2"
	)
	tab := testTable(t)
	mono := dsp.WhiteNoise(12345, rand.New(rand.NewSource(3)))
	dur := float64(len(mono)) / tab.SampleRate
	r := &Renderer{Table: tab}
	l, rr, err := r.RenderMoving(mono, func(ts float64) float64 { return 5 + 170*ts/dur })
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var b [8]byte
	for _, ch := range [][]float64{l, rr} {
		for _, v := range ch {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); len(l) != wantLen || got != wantHash {
		t.Errorf("sweep render: %d samples, sha256 %s; want %d, %s", len(l), got, wantLen, wantHash)
	}
}

func TestRoomRendererAddsReverb(t *testing.T) {
	tab := testTable(t)
	center := geom.Vec{X: 3, Y: 3}
	anech := &RoomRenderer{Table: tab, Room: room.Config{Width: 6, Depth: 6, Origin: center, Absorption: 0.99, MaxOrder: 0}}
	reverb := &RoomRenderer{Table: tab, Room: room.Config{Width: 6, Depth: 6, Origin: center, Absorption: 0.45, MaxOrder: 2}}
	click := dsp.DelayedImpulse(512, 256, 1)
	al, _, err := anech.Render(click, 45, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	rl, _, err := reverb.Render(click, 45, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rl) <= len(al) {
		t.Error("reverberant render should be longer (echo tail)")
	}
	if dsp.Energy(rl) <= dsp.Energy(al)*1.05 {
		t.Errorf("reverberant render should carry extra energy: %g vs %g",
			dsp.Energy(rl), dsp.Energy(al))
	}
}

func TestRoomRendererErrors(t *testing.T) {
	rr := &RoomRenderer{}
	if _, _, err := rr.Render([]float64{1}, 0, 1); err != ErrNoTable {
		t.Errorf("want ErrNoTable, got %v", err)
	}
	// A reverberant room whose origin lies outside the walls must be
	// rejected (the fixed room.Config.Validate reaches this path through
	// the scene engine).
	bad := &RoomRenderer{Table: testTable(t), Room: room.Config{
		Width: 4, Depth: 5, Origin: geom.Vec{X: -1, Y: 2}, Absorption: 0.5, MaxOrder: 2,
	}}
	if _, _, err := bad.Render([]float64{1}, 45, 1); err == nil {
		t.Error("out-of-room origin should fail the render")
	}
}

// TestRoomRendererDirectPathMirrorPair is the regression test for the
// direct-arrival hemisphere bug: the pre-fix code clamped a
// right-hemisphere direct angle into the table span (290° became 180°)
// while image arrivals folded to their mirror with the ears swapped. In
// free field, a source at 360-θ must now be exactly the θ render with
// the channels exchanged.
func TestRoomRendererDirectPathMirrorPair(t *testing.T) {
	tab := testTable(t)
	free := &RoomRenderer{Table: tab, Room: room.Config{
		Width: 6, Depth: 6, Origin: geom.Vec{X: 3, Y: 3}, Absorption: 0.5, MaxOrder: 0,
	}}
	click := dsp.DelayedImpulse(2048, 1024, 1)
	l1, r1, err := free.Render(click, 70, 2)
	if err != nil {
		t.Fatal(err)
	}
	l2, r2, err := free.Render(click, 290, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(l1) != len(l2) {
		t.Fatalf("mirror renders differ in length: %d vs %d", len(l1), len(l2))
	}
	for i := range l1 {
		if l1[i] != r2[i] || r1[i] != l2[i] {
			t.Fatalf("sample %d: 290° render is not the ear-swapped 70° render "+
				"((%g,%g) vs swapped (%g,%g))", i, l2[i], r2[i], r1[i], l1[i])
		}
	}
	// Sanity: the pair is nontrivial (the two ears actually differ).
	same := true
	for i := range l1 {
		if l1[i] != r1[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("70° render has identical ears; mirror test is vacuous")
	}

	// With a room symmetric about the listener's X axis the whole
	// reverberant render mirrors too (tolerance: the mirrored image
	// geometry is float-rounded, not bit-identical).
	rev := &RoomRenderer{Table: tab, Room: room.Config{
		Width: 6, Depth: 6, Origin: geom.Vec{X: 3, Y: 3}, Absorption: 0.45, MaxOrder: 2,
	}}
	l1, r1, err = rev.Render(click, 70, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	l2, r2, err = rev.Render(click, 290, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range l1 {
		if math.Abs(l1[i]-r2[i]) > 1e-9 || math.Abs(r1[i]-l2[i]) > 1e-9 {
			t.Fatalf("sample %d: symmetric-room mirror broke: (%g,%g) vs swapped (%g,%g)",
				i, l2[i], r2[i], r1[i], l1[i])
		}
	}
}

// TestRoomRendererMatchesDirectConvolutionReference pins the physics of
// the scene-engine room path against a literal direct-convolution
// image-source reference (the pre-refactor algorithm): per arrival,
// convolve with the nearest-angle HRIR, scale by wall absorption and
// spherical spreading, shift by the excess path delay, swap ears on
// right-hemisphere arrivals. Overlap-add and direct convolution agree to
// float rounding.
func TestRoomRendererMatchesDirectConvolutionReference(t *testing.T) {
	tab := testTable(t)
	cfg := room.Config{Width: 6, Depth: 6, Origin: geom.Vec{X: 2.2, Y: 3.4}, Absorption: 0.45, MaxOrder: 2}
	mono := dsp.Tone(500, 0.05, tab.SampleRate)
	const angle, dist = 45, 1.5
	sr := tab.SampleRate

	// Reference: direct time-domain convolution per arrival.
	src := geom.FromPolar(geom.Radians(angle), dist)
	directDist := src.Norm()
	type arrival struct {
		angle, gain, delay float64
		right              bool
	}
	arrivals := []arrival{{angle: angle, gain: 1}}
	for _, img := range cfg.Images(src) {
		d := img.Pos.Norm()
		ar := arrival{
			angle: geom.Degrees(img.Pos.PolarAngle()),
			gain:  img.Gain * directDist / d,
			delay: (d - directDist) / 343.0,
		}
		if ar.angle > 180 {
			ar.angle = 360 - ar.angle
			ar.right = true
		}
		arrivals = append(arrivals, ar)
	}
	var refL, refR []float64
	for _, ar := range arrivals {
		h, err := tab.FarAt(math.Min(math.Max(ar.angle, tab.MinAngle), tab.MaxAngle()))
		if err != nil || h.Empty() {
			continue
		}
		l, r := h.Render(mono)
		if ar.right {
			l, r = r, l
		}
		shift := int(ar.delay * sr)
		refL = growMix(refL, dsp.Scale(l, ar.gain), shift)
		refR = growMix(refR, dsp.Scale(r, ar.gain), shift)
	}

	rr := &RoomRenderer{Table: tab, Room: cfg}
	gotL, gotR, err := rr.Render(mono, angle, dist)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotL) < len(refL) {
		t.Fatalf("render %d samples shorter than reference %d", len(gotL), len(refL))
	}
	for i := range gotL {
		wantL, wantR := 0.0, 0.0
		if i < len(refL) {
			wantL, wantR = refL[i], refR[i]
		}
		if math.Abs(gotL[i]-wantL) > 1e-6 || math.Abs(gotR[i]-wantR) > 1e-6 {
			t.Fatalf("sample %d: engine (%g,%g), reference (%g,%g)",
				i, gotL[i], gotR[i], wantL, wantR)
		}
	}
}

// growMix adds src into dst at offset, growing dst as needed.
func growMix(dst, src []float64, offset int) []float64 {
	need := offset + len(src)
	if need > len(dst) {
		dst = append(dst, make([]float64, need-len(dst))...)
	}
	for i, v := range src {
		dst[offset+i] += v
	}
	return dst
}
