package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/acoustic"
	"repro/internal/core"
	"repro/internal/dsp"
	"repro/internal/geom"
	"repro/internal/head"
	"repro/internal/pinna"
	"repro/internal/room"
)

// pinnaMatrix cross-correlates two users' pinna responses over the 18-angle
// sweep of §2 (0–170°, 10° steps) and returns the correlation matrix.
func pinnaMatrix(a, b *pinna.Response, sampleRate float64) [][]float64 {
	const angles = 18
	irLen := int(6e-4 * sampleRate)
	ha := make([][]float64, angles)
	hb := make([][]float64, angles)
	for i := 0; i < angles; i++ {
		phi := geom.Radians(float64(i) * 10)
		ha[i] = a.ImpulseResponse(phi, sampleRate, irLen)
		hb[i] = b.ImpulseResponse(phi, sampleRate, irLen)
	}
	m := make([][]float64, angles)
	for i := range m {
		m[i] = make([]float64, angles)
		for j := range m[i] {
			c, _ := dsp.NormXCorrPeak(ha[i], hb[j])
			m[i][j] = c
		}
	}
	return m
}

// Fig2aPinnaSameUser reproduces Fig 2(a): one user's pinna responses across
// arrival angles correlate on the diagonal (≈1:1 angle mapping).
func Fig2aPinnaSameUser(s *Study) (*Result, error) {
	v := s.Volunteers()[0]
	rng := v.Rand("pinna")
	p := pinna.New(rng)
	m := pinnaMatrix(p, p, s.Cfg.SampleRate)
	d := (&core.PinnaProbe{Corr: m}).Diagonality()
	text := "== Fig 2a: same-user pinna correlation matrix (18 angles, 10° steps) ==\n" +
		heatmap(m) +
		fmt.Sprintf("diagonality (mean diag - mean offdiag): %.3f (paper: strongly diagonal)\n", d)
	return &Result{
		ID:    "fig2a",
		Title: "Pinna response vs angle, same user",
		Text:  text,
		Metrics: map[string]float64{
			"diagonality": d,
		},
	}, nil
}

// Fig2bPinnaCrossUser reproduces Fig 2(b): two users' pinnae do not match.
func Fig2bPinnaCrossUser(s *Study) (*Result, error) {
	vols := s.Volunteers()
	alice := pinna.New(vols[0].Rand("pinna"))
	bobIdx := 1 % len(vols)
	bob := pinna.New(vols[bobIdx].Rand("pinna"))
	same := (&core.PinnaProbe{Corr: pinnaMatrix(alice, alice, s.Cfg.SampleRate)}).Diagonality()
	m := pinnaMatrix(alice, bob, s.Cfg.SampleRate)
	cross := (&core.PinnaProbe{Corr: m}).Diagonality()
	text := "== Fig 2b: cross-user pinna correlation matrix ==\n" +
		heatmap(m) +
		fmt.Sprintf("diagonality same-user %.3f vs cross-user %.3f (paper: cross-user not diagonal)\n", same, cross)
	return &Result{
		ID:    "fig2b",
		Title: "Pinna responses differ across users",
		Text:  text,
		Metrics: map[string]float64{
			"diagonality_same":  same,
			"diagonality_cross": cross,
		},
	}, nil
}

// Fig5Diffraction reproduces the §2 diffraction experiment: the acoustic
// TDoA between a test microphone on the face and the right-ear reference
// matches the diffracted (along-the-cheek) path, not the Euclidean one.
func Fig5Diffraction(s *Study) (*Result, error) {
	v := s.Volunteers()[0]
	w, err := v.World(s.Cfg.SampleRate, room.Config{Width: 6, Depth: 6, Absorption: 0.9, MaxOrder: 0})
	if err != nil {
		return nil, err
	}
	model := w.Head
	src := geom.Vec{X: 0.5, Y: 0.15} // speaker on the user's right (Fig 4)
	rows := [][]string{}
	var audioSeries, diffSeries, eucSeries []float64
	// Test mic pasted from near the nose toward the left ear.
	for _, thetaDeg := range []float64{10, 25, 40, 55, 70, 85} {
		dt, err := w.SurfaceTDOA(src, thetaDeg)
		if err != nil {
			return nil, err
		}
		audio := dt * head.SpeedOfSound * 100 // Δd from "recordings", cm
		// Geometric alternatives measured with "camera and soft tape".
		test := model.SurfacePoint(thetaDeg)
		ref := model.EarPosition(head.Right)
		eucTest := src.Dist(test)
		eucRef := src.Dist(ref)
		euc := (eucTest - eucRef) * 100
		b := model.Boundary()
		dp, err := b.ShortestExteriorPath(src, b.NearestVertex(test))
		if err != nil {
			return nil, err
		}
		rp, err := b.ShortestExteriorPath(src, model.EarIndex(head.Right))
		if err != nil {
			return nil, err
		}
		diff := (dp.Length - rp.Length) * 100
		audioSeries = append(audioSeries, audio)
		diffSeries = append(diffSeries, diff)
		eucSeries = append(eucSeries, euc)
		rows = append(rows, []string{
			fmtF(thetaDeg, 0), fmtF(audio, 2), fmtF(diff, 2), fmtF(euc, 2),
		})
	}
	// Residuals of the audio measurement against the two hypotheses.
	var diffErr, eucErr float64
	for i := range audioSeries {
		diffErr += abs(audioSeries[i]-diffSeries[i]) / float64(len(audioSeries))
		eucErr += abs(audioSeries[i]-eucSeries[i]) / float64(len(audioSeries))
	}
	text := "== Fig 5: signals diffract along the face (distances in cm) ==\n" +
		table([]string{"mic angle°", "Δt·v (audio)", "d_Diff", "d_Euc"}, rows) +
		fmt.Sprintf("mean |audio - diffracted| = %.2f cm, mean |audio - euclidean| = %.2f cm\n", diffErr, eucErr) +
		"(paper: audio matches the diffracted path, gap grows away from the reference)\n"
	return &Result{
		ID:    "fig5",
		Title: "Diffraction on the face",
		Text:  text,
		Metrics: map[string]float64{
			"mean_err_diffracted_cm": diffErr,
			"mean_err_euclidean_cm":  eucErr,
		},
	}, nil
}

// Fig9ChannelIR reproduces Fig 9: the estimated binaural channel impulse
// response has its first taps at the diffraction-path delays.
func Fig9ChannelIR(s *Study) (*Result, error) {
	v := s.Volunteers()[0]
	w, err := v.World(s.Cfg.SampleRate, room.DefaultConfig())
	if err != nil {
		return nil, err
	}
	probe := dsp.Chirp(150, 0.45*s.Cfg.SampleRate, 0.04, s.Cfg.SampleRate)
	pos := geom.Vec{X: -0.35, Y: 0.05} // phone left of the head
	rec, err := w.Record(probe, pos, acoustic.RecordOptions{
		NoiseStd: 0.003, Rng: rand.New(rand.NewSource(s.Cfg.Seed)),
	})
	if err != nil {
		return nil, err
	}
	est := &core.ChannelEstimator{
		Probe:      probe,
		SampleRate: s.Cfg.SampleRate,
		SyncOffset: acoustic.LeadInSeconds,
	}
	ch, err := est.Estimate(rec.Left, rec.Right)
	if err != nil {
		return nil, err
	}
	wantL, _ := w.ArrivalDelay(pos, head.Left)
	wantR, _ := w.ArrivalDelay(pos, head.Right)
	errL := abs(ch.DelayLeft-wantL) * 1e6
	errR := abs(ch.DelayRight-wantR) * 1e6
	rows := [][]string{
		{"left", fmtF(ch.DelayLeft*1000, 3), fmtF(wantL*1000, 3), fmtF(errL, 1)},
		{"right", fmtF(ch.DelayRight*1000, 3), fmtF(wantR*1000, 3), fmtF(errR, 1)},
	}
	text := "== Fig 9: channel impulse response first taps (phone on the left) ==\n" +
		table([]string{"ear", "first tap (ms)", "diffraction model (ms)", "error (µs)"}, rows) +
		fmt.Sprintf("relative delay Δt = %.1f µs (left leads: %v)\n",
			ch.RelativeDelay()*1e6, ch.RelativeDelay() < 0)
	return &Result{
		ID:    "fig9",
		Title: "First channel taps = diffraction paths",
		Text:  text,
		Metrics: map[string]float64{
			"tap_error_left_us":  errL,
			"tap_error_right_us": errR,
		},
	}, nil
}

// Fig16FrequencyResponse reproduces Fig 16: the speaker–microphone cascade
// is unusable below ~50 Hz and reasonable over 100 Hz – 10 kHz.
func Fig16FrequencyResponse(s *Study) (*Result, error) {
	hw := acoustic.NewSystemResponse(s.Cfg.SampleRate, rand.New(rand.NewSource(s.Cfg.Seed)))
	rows := [][]string{}
	freqs := []float64{20, 50, 100, 200, 500, 1000, 2000, 5000, 10000, 15000, 20000}
	var g50, g1k float64
	for _, f := range freqs {
		db := dsp.DB(hw.MagnitudeAt(f))
		if f == 50 {
			g50 = db
		}
		if f == 1000 {
			g1k = db
		}
		bar := ""
		for i := -60.0; i < db; i += 3 {
			bar += "#"
		}
		rows = append(rows, []string{fmtF(f, 0), fmtF(db, 1), bar})
	}
	text := "== Fig 16: speaker–mic frequency response ==\n" +
		table([]string{"freq (Hz)", "gain (dB)", ""}, rows) +
		fmt.Sprintf("50 Hz is %.1f dB below 1 kHz (paper: unstable < 50 Hz, stable 100 Hz–10 kHz)\n", g1k-g50)
	return &Result{
		ID:    "fig16",
		Title: "Hardware frequency response",
		Text:  text,
		Metrics: map[string]float64{
			"rolloff_50hz_db": g1k - g50,
		},
	}, nil
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
