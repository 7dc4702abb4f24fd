package uniq

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/dsp"
)

// groundTruthProfileForTest avoids the full pipeline for render-only tests.
func groundTruthProfileForTest(t *testing.T) *Profile {
	t.Helper()
	p, err := GroundTruthProfile(VirtualUser{ID: 5, Seed: 6}, 48000, 2)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRenderMovingPublic(t *testing.T) {
	p := groundTruthProfileForTest(t)
	mono := dsp.Tone(500, 0.2, 48000)
	l, r, err := p.RenderMoving(mono, func(t float64) float64 { return 30 + 300*t })
	if err != nil {
		t.Fatal(err)
	}
	if len(l) == 0 || len(r) == 0 {
		t.Fatal("empty moving render")
	}
	var nilProfile *Profile
	if _, _, err := nilProfile.RenderMoving(mono, nil); err == nil {
		t.Error("nil profile should fail")
	}
}

func TestTrackHeadPublic(t *testing.T) {
	p := groundTruthProfileForTest(t)
	mono := dsp.Tone(700, 0.3, 48000)
	l, r, err := p.TrackHead(mono, 45, func(t float64) float64 { return 90 * t })
	if err != nil {
		t.Fatal(err)
	}
	if len(l) == 0 || len(r) == 0 {
		t.Fatal("empty tracked render")
	}
}

func TestTrackHeadSwapsHemispheres(t *testing.T) {
	p := groundTruthProfileForTest(t)
	click := make([]float64, 48000/2)
	for i := 0; i < len(click); i += 4800 {
		click[i] = 1
	}
	// The head turns past the source: the relative angle goes 60° -> -60°,
	// so the source crosses to the right hemisphere.
	l, r, err := p.TrackHead(click, 60, func(t float64) float64 { return 240 * t })
	if err != nil {
		t.Fatal(err)
	}
	if len(l) == 0 || len(r) == 0 {
		t.Fatal("empty tracked render")
	}
	// Early clicks (source on the left): left ear louder. Late clicks
	// (source crossed right): right ear louder.
	early := int(0.1 * 48000)
	late := len(l) - int(0.1*48000)
	if dsp.Energy(l[:early]) <= dsp.Energy(r[:early]) {
		t.Error("early segment should favour the left ear")
	}
	if dsp.Energy(r[late:]) <= dsp.Energy(l[late:]) {
		t.Error("late segment should favour the right ear")
	}
}

func TestTrackHeadNeedsYaw(t *testing.T) {
	p := groundTruthProfileForTest(t)
	if _, _, err := p.TrackHead([]float64{1}, 60, nil); err == nil {
		t.Error("missing yaw source should fail")
	}
}

// TestTrackHeadContinuousThroughCrossings turns the head so the relative
// angle sweeps 210° -> -30°, crossing 180° (behind) and 0° (ahead), where
// the rendered ears swap. Around each crossing the output must stay as
// smooth as a static render at the crossing angle: the swap rides the
// block crossfade instead of switching channels mid-signal.
func TestTrackHeadContinuousThroughCrossings(t *testing.T) {
	p := groundTruthProfileForTest(t)
	const sr = 48000
	mono := dsp.Tone(400, 0.5, sr)
	yaw := func(t float64) float64 { return -120 + 480*t } // relative 90 - yaw
	l, r, err := p.TrackHead(mono, 90, yaw)
	if err != nil {
		t.Fatal(err)
	}
	maxJump := func(x []float64) float64 {
		m := 0.0
		for i := 1; i < len(x); i++ {
			m = math.Max(m, math.Abs(x[i]-x[i-1]))
		}
		return m
	}
	for _, c := range []struct{ angle, at float64 }{
		{180, 30.0 / 480}, // yaw -90°
		{0, 210.0 / 480},  // yaw 90°
	} {
		staticL, staticR, err := p.RenderMoving(mono, func(float64) float64 { return c.angle })
		if err != nil {
			t.Fatal(err)
		}
		limit := 1.25 * math.Max(maxJump(staticL), maxJump(staticR))
		i := int(c.at * sr)
		w := int(0.02 * sr) // one block either side
		if got := math.Max(maxJump(l[i-w:i+w]), maxJump(r[i-w:i+w])); got > limit {
			t.Errorf("crossing %g°: max inter-sample jump %g, static render limit %g", c.angle, got, limit)
		}
	}
}

func TestRenderInRoomPublic(t *testing.T) {
	p := groundTruthProfileForTest(t)
	click := dsp.DelayedImpulse(1024, 512, 1)
	dryL, _, err := p.Render(click, 60, true)
	if err != nil {
		t.Fatal(err)
	}
	wetL, wetR, err := p.RenderInRoom(click, 60, 1.2, RoomOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(wetL) <= len(dryL) {
		t.Error("room render should have a longer tail than the anechoic render")
	}
	if dsp.Energy(wetL)+dsp.Energy(wetR) <= dsp.Energy(dryL) {
		t.Error("room render should carry reflection energy")
	}
}

func TestWriteWAVPublic(t *testing.T) {
	p := groundTruthProfileForTest(t)
	mono := dsp.Tone(500, 0.05, 48000)
	l, r, err := p.Render(mono, 45, true)
	if err != nil {
		t.Fatal(err)
	}
	// Normalize to avoid clipping in the WAV.
	peak := math.Max(dsp.MaxAbs(l), dsp.MaxAbs(r))
	if peak > 1 {
		l = dsp.Scale(l, 0.9/peak)
		r = dsp.Scale(r, 0.9/peak)
	}
	var buf bytes.Buffer
	if err := p.WriteWAV(&buf, l, r); err != nil {
		t.Fatal(err)
	}
	if buf.Len() < 44+len(l)*4 {
		t.Errorf("WAV suspiciously small: %d bytes", buf.Len())
	}
}
