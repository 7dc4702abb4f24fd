package core

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/hrtf"
	"repro/internal/imu"
	"repro/internal/sim"
)

// sessionInput converts a simulated session into the pipeline's input.
func sessionInput(s *sim.Session) SessionInput {
	in := SessionInput{
		Probe:      s.Probe,
		SampleRate: s.SampleRate,
		IMU:        s.IMU,
		SystemIR:   s.SystemIR,
		SyncOffset: s.SyncOffset,
	}
	for _, m := range s.Measurements {
		in.Stops = append(in.Stops, StopRecording{Time: m.Time, Left: m.Rec.Left, Right: m.Rec.Right})
	}
	return in
}

// personalizeVolunteer runs the full pipeline for one simulated volunteer.
func personalizeVolunteer(t *testing.T, v sim.Volunteer, quality sim.GestureQuality) (*Personalization, *sim.Session) {
	t.Helper()
	s, err := sim.RunSession(v, sim.SessionConfig{Quality: quality})
	if err != nil {
		t.Fatal(err)
	}
	p, err := Personalize(sessionInput(s), PipelineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return p, s
}

func TestPersonalizeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline run")
	}
	v := sim.NewVolunteer(1, 1234)
	p, s := personalizeVolunteer(t, v, sim.GestureGood)

	// Localization accuracy (Fig 17): fused track vs simulator truth.
	var errs []float64
	for i, m := range s.Measurements {
		errs = append(errs, geom.AngleDiffDeg(p.TrackDeg[i], m.TrueAngleDeg))
	}
	med := median(errs)
	if med > 8 {
		t.Errorf("median localization error %.1f deg, want < 8", med)
	}

	// Personalization quality (Fig 18): the personalized far-field HRIRs
	// should correlate with ground truth better than the global template
	// does.
	gnd, err := sim.MeasureGroundTruthFar(v, s.SampleRate, 5)
	if err != nil {
		t.Fatal(err)
	}
	global, err := sim.GlobalTemplateFar(s.SampleRate, 5)
	if err != nil {
		t.Fatal(err)
	}
	var uniqCorr, globalCorr float64
	n := 0
	for i := 0; i < gnd.NumAngles(); i++ {
		angle := gnd.Angle(i)
		uh, err := p.Table.FarAt(angle)
		if err != nil || uh.Empty() {
			continue
		}
		gh := gnd.Far[i]
		glob := global.Far[i]
		uniqCorr += hrtf.MeanCorrelation(uh, gh)
		globalCorr += hrtf.MeanCorrelation(glob, gh)
		n++
	}
	if n == 0 {
		t.Fatal("no overlapping angles to compare")
	}
	uniqCorr /= float64(n)
	globalCorr /= float64(n)
	t.Logf("UNIQ corr %.3f, global corr %.3f (n=%d angles)", uniqCorr, globalCorr, n)
	if uniqCorr <= globalCorr {
		t.Errorf("personalized HRTF (%.3f) should beat the global template (%.3f)", uniqCorr, globalCorr)
	}

	// Head parameters should be in a plausible band.
	if p.HeadParams.Validate() != nil {
		t.Errorf("implausible fitted head parameters %+v", p.HeadParams)
	}
}

func TestPersonalizeRejectsArmDroop(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline run")
	}
	v := sim.NewVolunteer(2, 99)
	s, err := sim.RunSession(v, sim.SessionConfig{Quality: sim.GestureArmDroop})
	if err != nil {
		t.Fatal(err)
	}
	_, err = Personalize(sessionInput(s), PipelineOptions{})
	if !errors.Is(err, ErrBadGesture) {
		t.Errorf("arm-droop session should be rejected, got %v", err)
	}
	// With the check disabled it should still produce a table.
	p, err := Personalize(sessionInput(s), PipelineOptions{SkipGestureCheck: true})
	if err != nil {
		t.Fatalf("skip-check run failed: %v", err)
	}
	if p.Gesture.OK {
		t.Error("gesture report should still flag the droop")
	}
}

func TestPersonalizeInputValidation(t *testing.T) {
	if _, err := Personalize(SessionInput{}, PipelineOptions{}); err == nil {
		t.Error("empty input should fail")
	}
	in := SessionInput{Stops: []StopRecording{{}}}
	if _, err := Personalize(in, PipelineOptions{}); err == nil {
		t.Error("missing IMU should fail")
	}

	// Every structural defect must surface as ErrInvalidSession before any
	// DSP runs (the service boundary feeds this untrusted JSON).
	valid := SessionInput{
		Probe:      []float64{1, 0, 0, 0},
		SampleRate: 48000,
		Stops:      []StopRecording{{Left: []float64{1, 2}, Right: []float64{3, 4}}},
		IMU:        []imu.Sample{{T: 0, RateZ: 0}},
	}
	cases := []struct {
		name   string
		mutate func(*SessionInput)
	}{
		{"zero sample rate", func(s *SessionInput) { s.SampleRate = 0 }},
		{"negative sample rate", func(s *SessionInput) { s.SampleRate = -48000 }},
		{"NaN sample rate", func(s *SessionInput) { s.SampleRate = math.NaN() }},
		{"Inf sample rate", func(s *SessionInput) { s.SampleRate = math.Inf(1) }},
		{"empty probe", func(s *SessionInput) { s.Probe = nil }},
		{"no stops", func(s *SessionInput) { s.Stops = nil }},
		{"no IMU", func(s *SessionInput) { s.IMU = nil }},
		{"empty left channel", func(s *SessionInput) { s.Stops[0].Left = nil }},
		{"empty right channel", func(s *SessionInput) { s.Stops[0].Right = nil }},
		{"mismatched channels", func(s *SessionInput) { s.Stops[0].Right = []float64{1} }},
		{"too many stops", func(s *SessionInput) {
			s.Stops = make([]StopRecording, MaxSessionStops+1)
			for i := range s.Stops {
				s.Stops[i] = valid.Stops[0]
			}
		}},
		{"too many IMU samples", func(s *SessionInput) { s.IMU = make([]imu.Sample, MaxSessionIMUSamples+1) }},
		{"sample rate 1e20", func(s *SessionInput) { s.SampleRate = 1e20 }},
		{"1000x sample rate", func(s *SessionInput) { s.SampleRate *= 1000 }},
		{"sample rate past the cap", func(s *SessionInput) { s.SampleRate = MaxSessionSampleRate + 1 }},
		{"sample rate under the floor", func(s *SessionInput) { s.SampleRate = MinSessionSampleRate - 1 }},
		{"2097152-sample probe", func(s *SessionInput) { s.Probe = make([]float64, 2097152) }},
		{"probe past the cap", func(s *SessionInput) { s.Probe = make([]float64, MaxSessionClipSeconds*48000+1) }},
		{"system IR past the cap", func(s *SessionInput) { s.SystemIR = make([]float64, MaxSessionClipSeconds*48000+1) }},
		{"stop past the cap", func(s *SessionInput) {
			n := MaxSessionClipSeconds*48000 + 1
			s.Stops[0] = StopRecording{Left: make([]float64, n), Right: make([]float64, n)}
		}},
		{"NaN sync offset", func(s *SessionInput) { s.SyncOffset = math.NaN() }},
		{"Inf sync offset", func(s *SessionInput) { s.SyncOffset = math.Inf(-1) }},
		{"sync offset past the cap", func(s *SessionInput) { s.SyncOffset = -MaxSessionSyncOffset - 1e-9 }},
	}
	for _, tc := range cases {
		in := valid
		in.Stops = append([]StopRecording(nil), valid.Stops...)
		tc.mutate(&in)
		if err := in.Validate(); !errors.Is(err, ErrInvalidSession) {
			t.Errorf("%s: want ErrInvalidSession, got %v", tc.name, err)
		}
		if _, err := Personalize(in, PipelineOptions{}); !errors.Is(err, ErrInvalidSession) {
			t.Errorf("%s: Personalize should reject, got %v", tc.name, err)
		}
	}
	if err := valid.Validate(); err != nil {
		t.Errorf("structurally valid input rejected: %v", err)
	}
	atCaps := valid
	atCaps.Stops = make([]StopRecording, MaxSessionStops)
	for i := range atCaps.Stops {
		atCaps.Stops[i] = valid.Stops[0]
	}
	atCaps.IMU = make([]imu.Sample, MaxSessionIMUSamples)
	if err := atCaps.Validate(); err != nil {
		t.Errorf("input at the stop and IMU caps rejected: %v", err)
	}
	for _, rate := range []float64{MinSessionSampleRate, MaxSessionSampleRate} {
		in := valid
		in.SampleRate = rate
		n := int(MaxSessionClipSeconds * rate)
		in.Probe, in.SystemIR = make([]float64, n), make([]float64, n)
		in.Stops = []StopRecording{{Left: make([]float64, n), Right: make([]float64, n)}}
		in.SyncOffset = MaxSessionSyncOffset
		if err := in.Validate(); err != nil {
			t.Errorf("input at the %v Hz clip and sync-offset caps rejected: %v", rate, err)
		}
	}
}

func TestPersonalizeContextCancel(t *testing.T) {
	v := sim.NewVolunteer(3, 31)
	s, err := sim.RunSession(v, sim.SessionConfig{NumStops: 9})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = PersonalizeContext(ctx, sessionInput(s), PipelineOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled context should abort the pipeline, got %v", err)
	}
	// A deadline that expires mid-solve must abort too: the fusion search
	// checks the context on every objective evaluation. The observer holds
	// the solve after channel estimation until the deadline passes, so the
	// expiry lands mid-solve however fast the solve is.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel2()
	_, err = PersonalizeContext(ctx2, sessionInput(s), PipelineOptions{Observer: holdAfterEstimation{ctx2}})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("expired deadline should abort the pipeline, got %v", err)
	}
}

// holdAfterEstimation is an Observer that holds the solve after channel
// estimation until ctx is done.
type holdAfterEstimation struct{ ctx context.Context }

func (h holdAfterEstimation) StageDone(stage string, _ time.Duration, _ error) {
	if stage == StageChannelEstimation {
		<-h.ctx.Done()
	}
}

func (holdAfterEstimation) SkippedStops(int) {}

func median(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	s := append([]float64(nil), x...)
	for i := 1; i < len(s); i++ {
		v := s[i]
		j := i - 1
		for j >= 0 && s[j] > v {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = v
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func TestMedianHelper(t *testing.T) {
	if median([]float64{3, 1, 2}) != 2 {
		t.Error("median helper broken")
	}
	if m := median([]float64{4, 1, 3, 2}); math.Abs(m-2.5) > 1e-12 {
		t.Error("even median broken")
	}
}
