package service

import (
	"context"
	"log/slog"
	"math"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/dsp"
	"repro/internal/obs"
	"repro/internal/segstore"
)

// latencyBuckets are the endpoint-histogram upper bounds in seconds. The
// spread covers both microsecond reads (profile cache hits) and
// multi-second solves observed through the submit/poll path.
var latencyBuckets = []float64{
	0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// serviceMetrics wires the obs registry that backs /debug/metrics: HTTP
// request counters and latency histograms fed by the middleware, plus
// gauge/counter views over the pool, the store, and the process-wide
// dsp-plan and fusion-Localizer caches. The pipeline stage histograms are
// registered by the obs.PipelineObserver the service installs on
// core.PipelineOptions.
type serviceMetrics struct {
	reg      *obs.Registry
	requests *obs.CounterVec
	latency  *obs.HistogramVec
	// submitDecodes counts POST /v1/sessions bodies by the decode path
	// that took them (see DecodeSubmit).
	submitDecodes *obs.CounterVec

	// Streaming endpoints (/v1/stream/*): per-frame counters and
	// processing-latency histograms, drop accounting, and live session
	// counts (atomics mirrored into a gauge family per scrape, like the
	// uniqd_jobs states).
	streamFrames    *obs.CounterVec
	streamLatency   *obs.HistogramVec
	streamOverruns  *obs.Counter
	streamUnderruns *obs.Counter
	renderSessions  atomic.Int64
	aoaSessions     atomic.Int64
	sceneSessions   atomic.Int64
	// sceneSources counts source channels across live scene sessions
	// (uniqd_stream_scene_sources): a node rendering 3 scenes of 4
	// sources reports 12.
	sceneSources atomic.Int64
}

// streamLatencyBuckets cover per-frame processing times: a render hop is
// tens of microseconds, an AoA window estimate tens of milliseconds.
var streamLatencyBuckets = []float64{
	1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 5e-3, 0.01, 0.05, 0.1, 0.5,
}

// newServiceMetrics builds the registry for one service instance.
func newServiceMetrics(reg *obs.Registry, pool *Pool, store *Store) *serviceMetrics {
	m := &serviceMetrics{
		reg: reg,
		requests: reg.CounterVec("uniqd_requests_total",
			"HTTP requests by route pattern and status code.",
			"endpoint", "code"),
		latency: reg.HistogramVec("uniqd_request_seconds",
			"HTTP request latency by route pattern.",
			latencyBuckets, "endpoint"),
		submitDecodes: reg.CounterVec("uniqd_submit_decode_total",
			"Session bodies decoded, by path: onepass (no reflection) or fallback (json.Unmarshal).",
			"path"),
		streamFrames: reg.CounterVec("uniqd_stream_frames_total",
			"Streaming frames by session kind and direction (out events for aoa).",
			"kind", "dir"),
		streamLatency: reg.HistogramVec("uniqd_stream_frame_seconds",
			"Per-input-frame processing latency by session kind.",
			streamLatencyBuckets, "kind"),
		streamOverruns: reg.Counter("uniqd_stream_overrun_samples_total",
			"Input samples dropped by streaming sessions (bounded pending buffers)."),
		streamUnderruns: reg.Counter("uniqd_stream_underrun_samples_total",
			"Output samples short-read before sessions drained."),
	}
	obs.RegisterRuntime(reg)
	streamActive := reg.GaugeVec("uniqd_stream_active_sessions",
		"Live streaming sessions by kind.", "kind")
	reg.OnCollect(func() {
		streamActive.With("render").Set(float64(m.renderSessions.Load()))
		streamActive.With("aoa").Set(float64(m.aoaSessions.Load()))
		streamActive.With("scene").Set(float64(m.sceneSessions.Load()))
	})
	reg.GaugeFunc("uniqd_stream_scene_sources",
		"Source channels across live scene sessions.",
		func() float64 { return float64(m.sceneSources.Load()) })

	// Pool: queue and worker gauges, terminal-outcome counters, and the
	// uniqd_jobs{state} family refreshed per scrape.
	reg.GaugeFunc("uniqd_queue_depth", "Jobs accepted but not yet started.",
		func() float64 { return float64(pool.QueueDepth()) })
	reg.GaugeFunc("uniqd_queue_capacity", "Bound of the job queue.",
		func() float64 { return float64(pool.QueueCapacity()) })
	reg.GaugeFunc("uniqd_workers_busy", "Workers currently running a solve.",
		func() float64 { return float64(pool.Busy()) })
	reg.GaugeFunc("uniqd_workers_total", "Configured solve workers.",
		func() float64 { return float64(pool.Workers()) })
	reg.GaugeFunc("uniqd_job_records", "Job records retained for /v1/jobs lookups.",
		func() float64 { return float64(pool.Retained()) })
	reg.CounterFunc("uniqd_jobs_done_total", "Jobs finished successfully.",
		func() uint64 { done, _, _ := pool.Finished(); return done })
	reg.CounterFunc("uniqd_jobs_failed_total", "Jobs finished in failure (including timeouts).",
		func() uint64 { _, failed, _ := pool.Finished(); return failed })
	reg.CounterFunc("uniqd_jobs_canceled_total", "Jobs canceled by shutdown.",
		func() uint64 { _, _, canceled := pool.Finished(); return canceled })
	jobs := reg.GaugeVec("uniqd_jobs", "Jobs by lifecycle state.", "state")
	reg.OnCollect(func() {
		done, failed, canceled := pool.Finished()
		jobs.With(string(JobQueued)).Set(float64(pool.QueueDepth()))
		jobs.With(string(JobRunning)).Set(float64(pool.Busy()))
		jobs.With(string(JobDone)).Set(float64(done))
		jobs.With(string(JobFailed)).Set(float64(failed))
		jobs.With(string(JobCanceled)).Set(float64(canceled))
	})

	// Store: persisted profiles, cache occupancy, and the hit/miss/
	// not-found/eviction counters. Profile count and byte accounting are
	// in-memory index reads on the segment store — scrapes cost no disk
	// I/O — but each SegStats call takes the store's read lock and walks
	// the whole index, so one snapshot per scrape (OnCollect runs before
	// any collector is read) feeds all seven series instead of seven walks.
	var segStats atomic.Pointer[segstore.Stats]
	segStats.Store(&segstore.Stats{})
	reg.OnCollect(func() {
		st := store.SegStats()
		segStats.Store(&st)
	})
	reg.GaugeFunc("uniqd_profiles_stored", "Profiles persisted on disk.",
		func() float64 { return float64(segStats.Load().Profiles) })
	reg.GaugeFunc("uniqd_store_segments", "Segment files in the profile store.",
		func() float64 { return float64(segStats.Load().Segments) })
	reg.GaugeFunc("uniqd_store_disk_bytes", "Bytes on disk across store segments.",
		func() float64 { return float64(segStats.Load().DiskBytes) })
	reg.GaugeFunc("uniqd_store_dead_bytes", "Bytes superseded but not yet compacted.",
		func() float64 { return float64(segStats.Load().DeadBytes) })
	reg.CounterFunc("uniqd_store_group_commits_total", "Fsync batches on the store's append path.",
		func() uint64 { return segStats.Load().GroupCommits })
	reg.CounterFunc("uniqd_store_commit_waiters_total",
		"Writes that waited on a group commit (waiters/commits = batching factor).",
		func() uint64 { return segStats.Load().CommitWaiters })
	reg.CounterFunc("uniqd_store_compactions_total", "Segment compactions completed.",
		func() uint64 { return segStats.Load().Compactions })
	reg.GaugeFunc("uniqd_profile_cache_entries", "Decoded profiles held in memory.",
		func() float64 { return float64(store.Cached()) })
	reg.CounterFunc("uniqd_profile_cache_hits_total", "Profile reads served from the cache.",
		func() uint64 { hits, _, _, _ := store.Stats(); return hits })
	reg.CounterFunc("uniqd_profile_cache_misses_total",
		"Profile reads that went to disk for a stored profile.",
		func() uint64 { _, misses, _, _ := store.Stats(); return misses })
	reg.CounterFunc("uniqd_profile_cache_notfound_total",
		"Profile reads for users with no stored profile (not cache misses).",
		func() uint64 { _, _, notFound, _ := store.Stats(); return notFound })
	reg.CounterFunc("uniqd_profile_cache_evictions_total", "Profiles evicted from the LRU.",
		func() uint64 { _, _, _, evictions := store.Stats(); return evictions })

	// Process-wide solver caches (PRs 2–3): the dsp FFT plan registry and
	// the fusion Localizer cache.
	reg.CounterFunc("uniq_dsp_plan_cache_hits_total", "FFT plan registry hits.",
		func() uint64 { hits, _ := dsp.PlanCacheStats(); return hits })
	reg.CounterFunc("uniq_dsp_plan_cache_misses_total", "FFT plans built from scratch.",
		func() uint64 { _, misses := dsp.PlanCacheStats(); return misses })
	reg.CounterFunc("uniq_localizer_cache_hits_total", "Fusion Localizer cache hits.",
		func() uint64 { hits, _, _ := core.LocalizerCacheStats(); return hits })
	reg.CounterFunc("uniq_localizer_cache_misses_total", "Fusion delay fields built fresh.",
		func() uint64 { _, misses, _ := core.LocalizerCacheStats(); return misses })
	reg.CounterFunc("uniq_localizer_cache_overflow_total",
		"Delay-field builds returned uncached past the per-solve cap.",
		func() uint64 { _, _, overflow := core.LocalizerCacheStats(); return overflow })
	return m
}

// Observe records one HTTP request against an endpoint label (the route
// pattern, e.g. "POST /v1/sessions").
func (m *serviceMetrics) Observe(endpoint string, code int, seconds float64) {
	m.requests.With(endpoint, obs.StatusLabel(code)).Inc()
	m.latency.With(endpoint).Observe(seconds)
}

// countSubmitDecode counts one session body by its decode path.
func (m *serviceMetrics) countSubmitDecode(onePass bool) {
	path := "fallback"
	if onePass {
		path = "onepass"
	}
	m.submitDecodes.With(path).Inc()
}

// activeStreams returns the number of live streaming sessions of any kind
// (the healthz load signal).
func (m *serviceMetrics) activeStreams() int {
	return int(m.renderSessions.Load() + m.aoaSessions.Load() + m.sceneSessions.Load())
}

// streamStart marks a streaming session of the given kind live; the
// returned func marks it finished.
func (m *serviceMetrics) streamStart(kind string) func() {
	n := &m.renderSessions
	switch kind {
	case "aoa":
		n = &m.aoaSessions
	case "scene":
		n = &m.sceneSessions
	}
	n.Add(1)
	return func() { n.Add(-1) }
}

// sceneStart additionally tracks a scene session's source-channel count;
// the returned func unwinds both.
func (m *serviceMetrics) sceneStart(sources int) func() {
	doneSession := m.streamStart("scene")
	m.sceneSources.Add(int64(sources))
	return func() {
		m.sceneSources.Add(int64(-sources))
		doneSession()
	}
}

// streamSession is one streaming session's metrics: its kind's frame
// counters and latency histogram, looked up once when the session opens
// (a label lookup per frame would be wasted work), and the session's own
// tallies, which the one summary line it logs when it closes reports. A
// session's frames are handled on its handler's goroutine, so the tallies
// need no synchronisation.
type streamSession struct {
	m          *serviceMetrics
	kind, user string
	in, out    *obs.Counter // out counts AoA events for aoa sessions
	latency    *obs.Histogram

	framesIn, framesOut uint64
	// latencyCounts counts frames per streamLatencyBuckets bucket, the
	// overflow bucket last.
	latencyCounts []uint64
}

func (m *serviceMetrics) openStreamSession(kind, user string) *streamSession {
	return &streamSession{
		m:             m,
		kind:          kind,
		user:          user,
		in:            m.streamFrames.With(kind, "in"),
		out:           m.streamFrames.With(kind, "out"),
		latency:       m.streamLatency.With(kind),
		latencyCounts: make([]uint64, len(streamLatencyBuckets)+1),
	}
}

// observe counts one processed input frame and records its processing
// latency.
func (f *streamSession) observe(seconds float64) {
	f.in.Inc()
	f.latency.Observe(seconds)
	f.framesIn++
	i := 0
	for i < len(streamLatencyBuckets) && seconds > streamLatencyBuckets[i] {
		i++
	}
	f.latencyCounts[i]++
}

// frameOut counts one output frame (an event for aoa sessions).
func (f *streamSession) frameOut() {
	f.out.Inc()
	f.framesOut++
}

// p99 returns the upper bound, in seconds, of the latency bucket that holds
// the session's 99th-percentile frame: +Inf past the last bound, 0 for a
// session that processed no frame.
func (f *streamSession) p99() float64 {
	rank := (99*f.framesIn + 99) / 100 // ⌈0.99·frames⌉
	var seen uint64
	for i, c := range f.latencyCounts {
		if seen += c; seen >= rank && rank > 0 {
			if i == len(streamLatencyBuckets) {
				return math.Inf(1)
			}
			return streamLatencyBuckets[i]
		}
	}
	return 0
}

// close folds the session's overrun/underrun sample counts into the node's
// totals and logs the session's summary line at Info.
func (f *streamSession) close(ctx context.Context, log *slog.Logger, overruns, underruns uint64) {
	if overruns > 0 {
		f.m.streamOverruns.Add(overruns)
	}
	if underruns > 0 {
		f.m.streamUnderruns.Add(underruns)
	}
	log.LogAttrs(ctx, slog.LevelInfo, "stream session closed",
		slog.String("kind", f.kind),
		slog.String("user", f.user),
		slog.Uint64("frames_in", f.framesIn),
		slog.Uint64("frames_out", f.framesOut),
		slog.Uint64("overrun_samples", overruns),
		slog.Uint64("underrun_samples", underruns),
		slog.Float64("frame_p99_le_s", f.p99()))
}
