// Package repro's root benchmark harness: one testing.B per paper table /
// figure, regenerating it on the simulated testbed and reporting its
// headline metrics, plus ablation benches for the design choices called out
// in DESIGN.md.
//
//	go test -bench=. -benchmem
//
// Benches share one lazily-built Study (Fast configuration) so the
// expensive pipeline runs are paid once; each figure's first iteration does
// the real work and reports the metrics the paper plots.
package repro

import (
	"context"
	"fmt"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/service"
	"repro/internal/sim"
)

var (
	studyOnce sync.Once
	study     *experiments.Study
)

func sharedStudy() *experiments.Study {
	studyOnce.Do(func() {
		study = experiments.NewStudy(experiments.Config{Fast: true, AoATrialsPerVolunteer: 5})
	})
	return study
}

// benchFigure runs one figure generator per iteration and reports its
// metrics.
func benchFigure(b *testing.B, id string, reported ...string) {
	s := sharedStudy()
	b.ResetTimer()
	var res *experiments.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.Run(id, s)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, k := range reported {
		if v, ok := res.Metrics[k]; ok {
			b.ReportMetric(v, k)
		}
	}
}

// --- groundwork figures ---

func BenchmarkFig2aPinnaSameUser(b *testing.B) {
	benchFigure(b, "fig2a", "diagonality")
}

func BenchmarkFig2bPinnaCrossUser(b *testing.B) {
	benchFigure(b, "fig2b", "diagonality_cross")
}

func BenchmarkFig5Diffraction(b *testing.B) {
	benchFigure(b, "fig5", "mean_err_diffracted_cm", "mean_err_euclidean_cm")
}

func BenchmarkFig9ChannelEstimation(b *testing.B) {
	benchFigure(b, "fig9", "tap_error_left_us", "tap_error_right_us")
}

func BenchmarkFig16FrequencyResponse(b *testing.B) {
	benchFigure(b, "fig16", "rolloff_50hz_db")
}

// --- evaluation figures ---

func BenchmarkFig17Localization(b *testing.B) {
	benchFigure(b, "fig17", "median_error_deg", "p90_error_deg")
}

func BenchmarkFig18HRIRCorrelation(b *testing.B) {
	benchFigure(b, "fig18", "uniq_left", "global_left", "gain_ratio")
}

func BenchmarkFig19PerVolunteer(b *testing.B) {
	benchFigure(b, "fig19", "min_gain")
}

func BenchmarkFig20SampleHRIRs(b *testing.B) {
	benchFigure(b, "fig20", "best_corr", "average_corr", "worst_corr")
}

func BenchmarkFig21AoAKnown(b *testing.B) {
	benchFigure(b, "fig21", "median_uniq_deg", "median_global_deg", "global_frontback_pct")
}

func BenchmarkFig22AoAUnknown(b *testing.B) {
	benchFigure(b, "fig22", "median_uniq_noise", "median_uniq_speech")
}

func BenchmarkFig22FrontBack(b *testing.B) {
	benchFigure(b, "fig22", "frontback_uniq_avg", "frontback_global_avg")
}

// --- ablations (A1-A6 of DESIGN.md) ---

func BenchmarkAblationFusion(b *testing.B) {
	benchFigure(b, "ablation", "a1_fusion_deg", "a1_imu_deg", "a1_acoustic_deg")
}

func BenchmarkAblationDiffraction(b *testing.B) {
	benchFigure(b, "ablation", "a2_diffraction_us", "a2_straightline_us")
}

func BenchmarkAblationRoomTruncation(b *testing.B) {
	benchFigure(b, "ablation", "a4_truncation_on", "a4_truncation_off")
}

func BenchmarkAblationGesture(b *testing.B) {
	benchFigure(b, "ablation", "a5_rejected", "a5_forced_corr")
}

func BenchmarkAblationSampleCount(b *testing.B) {
	benchFigure(b, "ablation", "a6_stops_9", "a6_stops_19", "a6_stops_37")
}

func BenchmarkAblationNoiseSweep(b *testing.B) {
	benchFigure(b, "ablation", "a7_noise_0.003", "a7_noise_0.3")
}

// --- implemented extensions (paper §7 / §4.5) ---

func BenchmarkExtension3DAndBeamforming(b *testing.B) {
	benchFigure(b, "ext", "e1_matched_corr", "e1_horizontal_corr", "e2_snr_gain_db")
}

// BenchmarkAblationNearFar (A3) measures near-far conversion directly: it
// is asserted with a binaural metric in internal/core's test suite; here we
// time the synthesis stage itself.
func BenchmarkAblationNearFar(b *testing.B) {
	v := sim.NewVolunteer(1, 4242)
	near, err := sim.MeasureGroundTruthNear(v, 48000, 2, 0.32)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.SynthesizeFarField(near, v.Head, core.NearFarOptions{Radius: 0.32}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- component microbenchmarks ---

func BenchmarkPipelinePersonalize(b *testing.B) {
	v := sim.NewVolunteer(1, 777)
	sess, err := sim.RunSession(v, sim.SessionConfig{})
	if err != nil {
		b.Fatal(err)
	}
	in := core.SessionInput{
		Probe: sess.Probe, SampleRate: sess.SampleRate,
		IMU: sess.IMU, SystemIR: sess.SystemIR, SyncOffset: sess.SyncOffset,
	}
	for _, m := range sess.Measurements {
		in.Stops = append(in.Stops, core.StopRecording{Time: m.Time, Left: m.Rec.Left, Right: m.Rec.Right})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Personalize(in, core.PipelineOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPersonalizeParallel measures one solve end to end while sweeping
// the pipeline's internal worker pool (PipelineOptions.Workers): the
// per-stop channel-estimation fan-out plus the parallel fusion seeding
// grid. The fusion search is deliberately coarse so the bench exposes the
// fan-out scaling rather than the sequential simplex refinement; the output
// is bit-identical across worker counts (asserted by
// core.TestPersonalizeWorkerDeterminism).
func BenchmarkPersonalizeParallel(b *testing.B) {
	in, err := personalizeBenchInput()
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 4, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			opt := personalizeBenchOptions(workers)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Personalize(in, opt); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "sessions/sec")
		})
	}
}

func BenchmarkSessionSimulation(b *testing.B) {
	v := sim.NewVolunteer(2, 888)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunSession(v, sim.SessionConfig{NumStops: 12}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- serving layer (internal/service) ---

// BenchmarkServiceThroughput measures sessions/sec through the uniqd worker
// pool over the wire: submit b.N pre-simulated sessions via the typed
// client against an httptest server, wait for all jobs to drain. Sub-benches
// sweep the worker count (1, 4, NumCPU) to expose pool scaling; the solve
// uses a deliberately coarse fusion search so the bench exercises the
// serving machinery rather than the full-resolution optimizer.
func BenchmarkServiceThroughput(b *testing.B) {
	v := sim.NewVolunteer(1, 777)
	sess, err := sim.RunSession(v, sim.SessionConfig{NumStops: 9})
	if err != nil {
		b.Fatal(err)
	}
	in := core.SessionInput{
		Probe: sess.Probe, SampleRate: sess.SampleRate,
		IMU: sess.IMU, SystemIR: sess.SystemIR, SyncOffset: sess.SyncOffset,
	}
	for _, m := range sess.Measurements {
		in.Stops = append(in.Stops, core.StopRecording{Time: m.Time, Left: m.Rec.Left, Right: m.Rec.Right})
	}
	pipeline := core.PipelineOptions{
		Fusion: core.FusionOptions{
			GridPoints: 2,
			MaxEvals:   40,
			Loc:        core.LocalizerOptions{AngleStepDeg: 3, RadiusSteps: 8, BoundaryVertices: 120},
		},
		Gesture: core.GestureLimits{MaxResidualDeg: 15},
	}

	workerCounts := []int{1, 4, runtime.NumCPU()}
	for _, workers := range workerCounts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			svc, err := service.New(service.Config{
				StoreDir:   b.TempDir(),
				Workers:    workers,
				QueueDepth: b.N + workers,
				Pipeline:   pipeline,
			})
			if err != nil {
				b.Fatal(err)
			}
			ts := httptest.NewServer(svc.Handler())
			defer ts.Close()
			client := service.NewClient(ts.URL)
			ctx := context.Background()

			b.ResetTimer()
			ids := make([]string, b.N)
			for i := 0; i < b.N; i++ {
				id, err := client.Submit(ctx, fmt.Sprintf("bench%d", i), in)
				if err != nil {
					b.Fatal(err)
				}
				ids[i] = id
			}
			start := time.Now()
			for _, id := range ids {
				if _, err := client.WaitDone(ctx, id, 20*time.Millisecond); err != nil {
					b.Fatal(err)
				}
			}
			elapsed := time.Since(start)
			b.StopTimer()
			b.ReportMetric(float64(b.N)/elapsed.Seconds(), "sessions/sec")
			sdCtx, cancel := context.WithTimeout(ctx, time.Minute)
			defer cancel()
			if err := svc.Shutdown(sdCtx); err != nil {
				b.Fatal(err)
			}
		})
	}
}
