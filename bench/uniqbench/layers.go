package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dsp"
	"repro/internal/service"
	"repro/internal/sim"
)

// Every per-layer metric is reported on every workload. A layer the
// workload's own traffic reaches is measured on that traffic (the window,
// or the workload's check replays); one it does not reach is measured by an
// after-window replay on inputs drawn from the same seed. Either way the
// number is that layer's cost, and commits are compared workload by
// workload, so like is compared with like.

// replayPuts is how many profiles the store replay writes.
const replayPuts = 8

// stageObserver turns core.Observer callbacks into stage spans under the
// replayed solve.
type stageObserver struct {
	tr            *tracer
	trace, parent uint64
}

func (o *stageObserver) StageDone(stage string, d time.Duration, _ error) {
	end := time.Now()
	o.tr.span("stage."+stage, o.trace, o.parent, end.Add(-d), end)
}

func (o *stageObserver) SkippedStops(int) {}

// layerMetrics computes the per-layer metrics of a traced run.
func (e *env) layerMetrics(ctx context.Context, oc *outcome) (map[string]float64, error) {
	m := make(map[string]float64)
	n := len(e.cl.nodes)
	ops := float64(len(oc.ops))

	// The host, the generator and the server processes over the window.
	m["host.slowness"] = e.probe.slowness(e.win)
	m["gen.lag_p99_ms"] = percentile(oc.lags, 99)
	m["gen.cpu_ms_per_op"] = ms(e.after.self-e.before.self-e.probe.cpu(e.win)) / oc.cpuOps
	var nodeCPU time.Duration
	for i := 0; i < n; i++ {
		nodeCPU += e.after.cpu[i] - e.before.cpu[i]
	}
	m["node.cpu_ms_per_op"] = ms(nodeCPU) / oc.cpuOps
	m["gw.cpu_ms_per_op"] = ms(e.after.cpu[n]-e.before.cpu[n]) / oc.cpuOps
	// Tracing costs the window its span recording and the metric scrapes
	// at its edges.
	overhead := time.Duration(e.after.spans-e.before.spans)*spanCost() + e.before.scrape + e.after.scrape
	m["trace.overhead_pct"] = 100 * overhead.Seconds() / e.win.seconds()

	// Handlers and the gateway, from metric deltas over the window.
	nb, na := e.before.metrics[:n], e.after.metrics[:n]
	userRoute := func(labels string) bool {
		return !strings.Contains(labels, "/healthz") && !strings.Contains(labels, "/debug/") &&
			!strings.Contains(labels, "/v1/stream/")
	}
	opFrames := func(labels string) bool { return !strings.Contains(labels, `kind="aoa"`) }
	handler := delta(nb, na, "uniqd_request_seconds_sum", userRoute) +
		delta(nb, na, "uniqd_stream_frame_seconds_sum", opFrames)
	m["http.handler_ms"] = 1000 * handler / ops
	if oc.streamHop {
		// A hop's output waits one tick for the next frame, then the
		// handlers; the rest is wire and relay.
		m["gw.self_ms"] = mean(latencies(oc.ops)) - ms(tick) - m["http.handler_ms"]
	} else {
		backend := delta(e.before.metrics[n:], e.after.metrics[n:], "uniqgw_backend_seconds_sum", nil)
		m["gw.self_ms"] = (ms(e.callTime) - 1000*backend) / ops
	}

	// In-process replays after the window.
	planHits, planMisses := dsp.PlanCacheStats()
	locHits, locMisses, _ := core.LocalizerCacheStats()
	if err := e.replayPool(ctx, oc, m); err != nil {
		return nil, fmt.Errorf("pool replay: %w", err)
	}
	replayHit, err := e.replayReads(oc)
	if err != nil {
		return nil, fmt.Errorf("store replay: %w", err)
	}
	// The nodes' own LRU counters give the hit ratio of the window's reads;
	// a workload that read no profile in the window takes the replay's.
	hits := delta(nb, na, "uniqd_profile_cache_hits_total", nil)
	misses := delta(nb, na, "uniqd_profile_cache_misses_total", nil)
	m["store.cache_hit_ratio"] = replayHit
	if hits+misses > 0 {
		m["store.cache_hit_ratio"] = hits / (hits + misses)
	}
	windows, err := e.replayStreams(ctx, oc)
	if err != nil {
		return nil, fmt.Errorf("stream replay: %w", err)
	}
	h, mi := dsp.PlanCacheStats()
	m["dsp.plan_cache_hit_ratio"] = hitRatio(h-planHits, mi-planMisses)
	lh, lm, _ := core.LocalizerCacheStats()
	m["core.localizer_cache_hit_ratio"] = hitRatio(lh-locHits, lm-locMisses)
	m["aoa.event_ms"] = median(latencies(oc.aoa.ops))
	m["aoa_err_deg"] = median(oc.aoa.errDeg)

	st := selfTimes(e.tr.snapshot())
	meanOf := func(name string) float64 {
		if s := st[name]; s != nil {
			return s.meanMS()
		}
		return math.NaN()
	}
	for _, stage := range []string{core.StageChannelEstimation, core.StageSensorFusion,
		core.StageGestureCheck, core.StageNearField, core.StageFarField} {
		m["stage."+stage+"_ms"] = meanOf("stage." + stage)
	}
	m["pool.run_ms"] = meanOf("pool.job")
	if s := st["pool.job"]; s != nil {
		m["pool.run_other_ms"] = ms(s.self) / float64(s.count)
	}
	m["segstore.put_ms"] = meanOf("store.Put")
	m["segstore.get_cold_ms"] = meanOf("store.Get.cold")
	m["scene.push_ms"] = meanOf("scene.PushFrame")
	m["scene.read_ms"] = meanOf("scene.ReadFrame")
	m["session.hop_ms"] = meanOf("session.PushFrame") + meanOf("session.ReadFrame")
	if s := st["aoa.Push"]; s != nil && windows > 0 {
		m["aoa.hop_ms"] = ms(s.total) / float64(windows)
	}
	return m, nil
}

func hitRatio(hits, misses uint64) float64 {
	if hits+misses == 0 {
		return math.NaN()
	}
	return float64(hits) / float64(hits+misses)
}

// replayPool runs one enrollment through an in-process service — the
// node's own store, prior and job pool code — with a benchmark-owned
// core.Observer, then times store puts. The session is the workload's
// first enrollment, or a seeded volunteer's.
func (e *env) replayPool(ctx context.Context, oc *outcome, m map[string]float64) error {
	dir := filepath.Join(e.runDir, "replay-pool")
	if err := freshStore(filepath.Join(e.runDir, "seed"), dir); err != nil {
		return err
	}
	var (
		in  core.SessionInput
		vol sim.Volunteer
		err error
	)
	if oc.enrollInput != nil {
		in, vol = oc.enrollInput.input, oc.enrollInput.vol
	} else {
		vol = e.pop.vols[0]
		if in, err = simulate(vol); err != nil {
			return err
		}
	}
	job, solve := e.tr.newID(), e.tr.newID()
	svc, err := service.New(service.Config{
		StoreDir:     dir,
		CacheSize:    nodeCache,
		Workers:      1,
		PriorEnabled: true,
		Pipeline:     core.PipelineOptions{Observer: &stageObserver{tr: e.tr, trace: job, parent: solve}},
		Solver: func(ctx context.Context, in core.SessionInput, opt core.PipelineOptions) (*core.Personalization, error) {
			start := time.Now()
			res, err := core.PersonalizeContext(ctx, in, opt)
			e.tr.add(solve, "core.PersonalizeContext", job, job, start, time.Now())
			return res, err
		},
	})
	if err != nil {
		return err
	}
	defer svc.Shutdown(context.Background())

	start := time.Now()
	st, err := svc.Pool().Submit("replay", in)
	if err != nil {
		return err
	}
	for !st.State.Terminal() {
		if err := ctx.Err(); err != nil {
			return err
		}
		time.Sleep(100 * time.Microsecond)
		st, _ = svc.Pool().Job(st.ID)
	}
	e.tr.add(job, "pool.job", 0, 0, start, time.Now())
	if st.State != service.JobDone {
		return fmt.Errorf("replayed job %s: %s", st.State, st.Error)
	}
	if len(oc.corr) > 0 {
		m["hrir_corr"] = mean(oc.corr)
	} else {
		p, err := svc.Store().Get("replay")
		if err != nil {
			return err
		}
		ref, err := newQualityRef()
		if err != nil {
			return err
		}
		if m["hrir_corr"], _, err = ref.judge(vol, p.Table); err != nil {
			return err
		}
	}

	puts := oc.enrolled
	if len(puts) == 0 {
		puts = e.pop.profiles
	}
	for i := 0; i < replayPuts; i++ {
		p := *puts[i%len(puts)]
		p.User = fmt.Sprintf("r%03d", i)
		start := time.Now()
		if err := svc.Store().Put(&p); err != nil {
			return err
		}
		e.tr.span("store.Put", 0, 0, start, time.Now())
	}
	return nil
}

// replayReads replays one node's profile reads, in order, against a
// freshly opened copy of the seeded store with the node's LRU size — the
// reads node "a" served, or reads drawn from the seed over the users node
// "a" owns — timing cached and cold reads apart. It returns the replay's
// cache hit ratio.
func (e *env) replayReads(oc *outcome) (float64, error) {
	var users []string
	for _, r := range oc.reads {
		if r.node == "a" {
			users = append(users, e.pop.users[r.user])
		}
	}
	if len(oc.reads) == 0 {
		ring := cluster.NewRing(cluster.DefaultVNodes)
		if err := ring.Add("a"); err != nil {
			return 0, err
		}
		if err := ring.Add("b"); err != nil {
			return 0, err
		}
		var owned []string
		for _, u := range e.pop.users {
			if ring.Owners(u, 1)[0] == "a" {
				owned = append(owned, u)
			}
		}
		rng := rand.New(rand.NewSource(e.cfg.seed))
		for i := 0; i < 256; i++ {
			users = append(users, owned[rng.Intn(len(owned))])
		}
	}
	dir := filepath.Join(e.runDir, "replay-store")
	if err := freshStore(filepath.Join(e.runDir, "seed"), dir); err != nil {
		return 0, err
	}
	store, err := service.OpenStore(dir, nodeCache)
	if err != nil {
		return 0, err
	}
	defer store.Close()
	cached := 0
	for _, u := range users {
		before, _, _, _ := store.Stats()
		start := time.Now()
		if _, err := store.Get(u); err != nil {
			return 0, err
		}
		end := time.Now()
		name := "store.Get.cold"
		if after, _, _, _ := store.Stats(); after > before {
			name = "store.Get.cached"
			cached++
		}
		e.tr.span(name, 0, 0, start, end)
	}
	return float64(cached) / float64(len(users)), nil
}

// Replay lengths for engines the workload's own checks did not exercise.
const (
	replaySceneTicks   = 64
	replaySessionTicks = 100
	replayAoATicks     = 200
)

// replayStreams replays the stream engines the workload's checks did not,
// and runs a short live AoA session when the workload had none. It returns
// the number of AoA estimation windows behind the aoa.Push spans.
func (e *env) replayStreams(ctx context.Context, oc *outcome) (uint64, error) {
	seed := e.cfg.seed
	if !oc.replayed["scene"] {
		p := newScenePlan(e.pop.users[0], e.pop.table(0), streamKey(seed, "replay-scene"))
		root := e.tr.newID()
		start := time.Now()
		_, _, err := p.replay(replaySceneTicks, e.tr, root)
		e.tr.add(root, "replay.scene", 0, 0, start, time.Now())
		if err != nil {
			return 0, err
		}
	}
	if !oc.replayed["session"] {
		p := newSinglePlan(e.pop.users[0], e.pop.table(0), streamKey(seed, "replay-session"))
		root := e.tr.newID()
		start := time.Now()
		_, _, err := p.replay(replaySessionTicks, e.tr, root)
		e.tr.add(root, "replay.session", 0, 0, start, time.Now())
		if err != nil {
			return 0, err
		}
	}
	if oc.replayed["aoa"] {
		return oc.aoaWindows, nil
	}
	p, err := newAoAPlan(e.pop, 0, streamKey(seed, "replay-aoa"), replayAoATicks)
	if err != nil {
		return 0, err
	}
	root := e.tr.newID()
	start := time.Now()
	want, windows, winLen, err := p.replayAoA(replayAoATicks, e.tr, root)
	e.tr.add(root, "replay.aoa", 0, 0, start, time.Now())
	if err != nil {
		return 0, err
	}
	// The live event latency needs a live session: a short one through the
	// gateway, after the window.
	s, err := e.api.StreamAoA(ctx, p.user, service.AoAStreamOptions{})
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	events, err := runAoA(ctx, p, t0, replayAoATicks, &lagClock{}, s)
	if err != nil {
		return 0, err
	}
	res := scoreAoA(events, want, winLen, t0, window{start: t0, end: t0.Add(replayAoATicks * tick)})
	if f := countFailed(res.ops); f > 0 {
		return 0, fmt.Errorf("live aoa probe: %d of %d events failed their check", f, len(res.ops))
	}
	oc.aoa = &res
	return windows, nil
}
