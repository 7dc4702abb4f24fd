package core

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/geom"
	"repro/internal/head"
	"repro/internal/prior"
)

// fullObjectiveAt evaluates the full-resolution fusion objective (the one
// the exact path minimizes) at a candidate parameter set. It is the yard-
// stick for the cascade's accuracy envelope.
func fullObjectiveAt(t *testing.T, obs []FusionObservation, opt FusionOptions, p head.Params) float64 {
	t.Helper()
	opt.fillDefaults()
	var evals atomic.Int64
	cache := newLocalizerCache(opt.Loc)
	defer cache.releaseAll()
	obj := fusionObjective(context.Background(), obs, &opt, fusionPriorMean(&opt), cache, &evals)
	f := obj([]float64{p.A, p.B, p.C})
	if math.IsInf(f, 1) || math.IsNaN(f) {
		t.Fatalf("full objective at %+v is %g", p, f)
	}
	return f
}

func paramDist(a, b head.Params) float64 {
	return math.Abs(a.A-b.A) + math.Abs(a.B-b.B) + math.Abs(a.C-b.C)
}

// TestFuseSensorsFastObjectiveEnvelope is the cascade's accuracy contract
// over randomized sessions. The fusion objective is a shallow valley —
// many parameter sets explain the observations nearly equally well, which
// is why the options include an anthropometric prior at all — so the exact
// path's extra ~170 full-resolution evaluations buy it a deeper point in
// the valley, not a better head fit. The cascade is held to three bounds:
//
//   - per session, its optimum scored under the full-resolution objective
//     stays within 2x of the exact solve's (the wrong-basin guard: a
//     front/back flip or a corner-of-bounds escape fails this by orders
//     of magnitude);
//   - per session, its gesture residual is within 1.5 degrees of the
//     exact solve's (the exact path's deeper descent buys residual below
//     the IMU noise floor — overfit, as the truth-recovery bound shows —
//     so parity here is deliberately loose);
//   - aggregated across sessions, it recovers the generating head
//     parameters at least as well as the exact solve, within a millimetre
//     of slack.
func TestFuseSensorsFastObjectiveEnvelope(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	sessions := 4
	if testing.Short() {
		sessions = 2
	}
	var exactTruthErr, fastTruthErr float64
	for s := 0; s < sessions; s++ {
		truth := head.Params{
			A: 0.085 + 0.030*rng.Float64(),
			B: 0.062 + 0.030*rng.Float64(),
			C: 0.075 + 0.035*rng.Float64(),
		}
		noise := geom.Radians(0.5 + 2.5*rng.Float64())
		obs := syntheticObservations(t, truth, noise, rng.Int63())

		exact, err := FuseSensors(obs, FusionOptions{Exact: true})
		if err != nil {
			t.Fatalf("session %d: exact: %v", s, err)
		}
		fast, err := FuseSensors(obs, FusionOptions{})
		if err != nil {
			t.Fatalf("session %d: fast: %v", s, err)
		}

		fExact := fullObjectiveAt(t, obs, FusionOptions{}, exact.Params)
		fFast := fullObjectiveAt(t, obs, FusionOptions{}, fast.Params)
		if fFast > fExact*2+1e-6 {
			t.Errorf("session %d (truth %+v): fast objective %.6g exceeds 2x exact %.6g — wrong basin",
				s, truth, fFast, fExact)
		}
		if fast.MeanAngleResidualRad > exact.MeanAngleResidualRad+geom.Radians(1.5) {
			t.Errorf("session %d: fast residual %.2f deg, exact %.2f deg",
				s, geom.Degrees(fast.MeanAngleResidualRad), geom.Degrees(exact.MeanAngleResidualRad))
		}
		if fast.Evals >= exact.Evals {
			t.Errorf("session %d: fast used %d evals, exact %d — cascade should be cheaper",
				s, fast.Evals, exact.Evals)
		}
		exactTruthErr += paramDist(exact.Params, truth)
		fastTruthErr += paramDist(fast.Params, truth)
	}
	if fastTruthErr > exactTruthErr+0.001*float64(sessions) {
		t.Errorf("fast recovery %.4f m aggregate error, exact %.4f m — cascade should not trade away accuracy",
			fastTruthErr, exactTruthErr)
	}
}

// TestFuseSensorsFastWorkerDeterminism pins the cascade's contract that the
// worker count is invisible in the output, just like the exact path's.
func TestFuseSensorsFastWorkerDeterminism(t *testing.T) {
	truth := head.Params{A: 0.102, B: 0.079, C: 0.095}
	obs := syntheticObservations(t, truth, geom.Radians(1.5), 11)
	run := func(workers int) FusionResult {
		res, err := FuseSensors(obs, FusionOptions{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res
	}
	base := run(-1) // sequential
	for _, workers := range []int{1, 4, runtime.NumCPU()} {
		got := run(workers)
		if got.Params != base.Params {
			t.Errorf("workers=%d: params %+v != sequential %+v", workers, got.Params, base.Params)
		}
		for i := range base.AnglesRad {
			if got.AnglesRad[i] != base.AnglesRad[i] {
				t.Errorf("workers=%d: angle[%d] differs", workers, i)
				break
			}
		}
	}
}

// TestFuseSensorsFastPriorWarmStart checks the population prior's two
// promises: a good prior shrinks the search without hurting the fit, and a
// bad prior cannot trap it (the simplex still roams the full bounds).
func TestFuseSensorsFastPriorWarmStart(t *testing.T) {
	truth := head.Params{A: 0.105, B: 0.085, C: 0.098}
	obs := syntheticObservations(t, truth, geom.Radians(1.5), 3)

	cold, err := FuseSensors(obs, FusionOptions{})
	if err != nil {
		t.Fatal(err)
	}

	good := &prior.Model{
		Count: 12,
		Mean:  [3]float64{0.103, 0.083, 0.096},
		Std:   [3]float64{0.004, 0.004, 0.004},
	}
	warm, err := FuseSensors(obs, FusionOptions{Prior: good})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Evals >= cold.Evals {
		t.Errorf("good prior used %d evals, cold start %d — trust region should shrink the grid",
			warm.Evals, cold.Evals)
	}
	coldErr := math.Abs(cold.Params.B - truth.B)
	warmErr := math.Abs(warm.Params.B - truth.B)
	if warmErr > coldErr+0.002 {
		t.Errorf("good prior worsened b: %.4f vs cold %.4f (truth %.4f)",
			warm.Params.B, cold.Params.B, truth.B)
	}

	// A confidently wrong prior: trust region hugs the far corner of the
	// bounds. The warm start may cost evaluations but the fine simplex must
	// still pull the fit back toward the truth.
	bad := &prior.Model{
		Count: 12,
		Mean:  [3]float64{0.072, 0.057, 0.070},
		Std:   [3]float64{0.001, 0.001, 0.001},
	}
	misled, err := FuseSensors(obs, FusionOptions{Prior: bad})
	if err != nil {
		t.Fatal(err)
	}
	def := head.DefaultParams()
	if e := math.Abs(misled.Params.B - truth.B); e > math.Abs(def.B-truth.B) {
		t.Errorf("bad prior trapped the fit: b=%.4f (truth %.4f, default %.4f)",
			misled.Params.B, truth.B, def.B)
	}

	// An empty model must behave exactly like no prior at all.
	empty, err := FuseSensors(obs, FusionOptions{Prior: &prior.Model{}})
	if err != nil {
		t.Fatal(err)
	}
	if empty.Params != cold.Params {
		t.Errorf("unusable prior changed the fit: %+v vs %+v", empty.Params, cold.Params)
	}
}
