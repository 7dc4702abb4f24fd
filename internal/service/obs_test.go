package service

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// TestPoolRetentionBounded drives finish() well past the retention cap and
// checks both the visible contract (exactly retainedJobs records resolvable,
// FIFO pruning) and the leak fix: the terminal-ID slice's backing array must
// stay bounded instead of growing with total throughput.
func TestPoolRetentionBounded(t *testing.T) {
	p := newTestPool(t, PoolConfig{Workers: 1, run: func(context.Context, core.SessionInput, core.PipelineOptions) (*core.Personalization, error) {
		return fakeResult(), nil
	}})
	const total = 3*retainedJobs + 17
	var first, last string
	for i := 0; i < total; i++ {
		j := &job{
			id:        fmt.Sprintf("job%08d", i),
			user:      "u",
			state:     JobRunning,
			submitted: time.Now(),
			started:   time.Now(),
		}
		if i == 0 {
			first = j.id
		}
		last = j.id
		p.mu.Lock()
		p.byID[j.id] = j
		p.mu.Unlock()
		p.finish(j, nil)
	}

	if got := p.Retained(); got != retainedJobs {
		t.Fatalf("retained %d job records, want %d", got, retainedJobs)
	}
	if _, ok := p.Job(first); ok {
		t.Error("oldest job survived pruning")
	}
	if st, ok := p.Job(last); !ok || st.State != JobDone {
		t.Errorf("newest job unresolvable after pruning: ok=%v state=%v", ok, st.State)
	}
	done, _, _ := p.Finished()
	if done != total {
		t.Errorf("done tally %d, want %d", done, total)
	}

	p.mu.Lock()
	capacity, head := cap(p.finished), p.finHead
	for i := 0; i < head; i++ {
		if p.finished[i] != "" {
			t.Errorf("consumed slot %d still pins %q", i, p.finished[i])
			break
		}
	}
	p.mu.Unlock()
	// The ring compacts whenever the dead prefix reaches retainedJobs, so
	// the live window never exceeds ~2x the cap; allow slack for append's
	// geometric growth. The pre-fix reslice left this unbounded.
	if capacity > 3*retainedJobs {
		t.Errorf("finished backing array holds %d slots for a cap of %d; prune is leaking", capacity, retainedJobs)
	}
	if head >= retainedJobs {
		t.Errorf("dead prefix reached %d without compaction", head)
	}
}

// TestStoreNotFoundIsNotAMiss pins the counter semantics: probing unknown
// users advances only notFound, a warm read is a hit, and only a disk read
// for an existing profile is a miss.
func TestStoreNotFoundIsNotAMiss(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(sampleProfile("alice")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := s.Get("ghost"); !errors.Is(err, ErrProfileNotFound) {
			t.Fatalf("probe %d: got %v, want ErrProfileNotFound", i, err)
		}
	}
	hits, misses, notFound, _ := s.Stats()
	if notFound != 3 {
		t.Errorf("notFound = %d, want 3", notFound)
	}
	if misses != 0 {
		t.Errorf("probes for unknown users counted as %d cache misses", misses)
	}
	if _, err := s.Get("alice"); err != nil {
		t.Fatal(err)
	}
	if hits, _, _, _ = s.Stats(); hits != 1 {
		t.Errorf("warm read counted %d hits, want 1", hits)
	}

	// A cold store reading the same profile from disk is the one real miss.
	s2, err := OpenStore(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Get("alice"); err != nil {
		t.Fatal(err)
	}
	h2, m2, nf2, _ := s2.Stats()
	if h2 != 0 || m2 != 1 || nf2 != 0 {
		t.Errorf("cold read counters hits=%d misses=%d notFound=%d, want 0/1/0", h2, m2, nf2)
	}
}

// TestServerConcurrentScrapeAndSubmit hammers the submit/poll path while
// scrapers read both metrics formats, then shuts the pool down under the
// same load. Run under -race this is the regression test for the lock-free
// metric hot path.
func TestServerConcurrentScrapeAndSubmit(t *testing.T) {
	svc, c := newTestServer(t)
	ctx := context.Background()

	stopScrape := make(chan struct{})
	var scrapers sync.WaitGroup
	for i := 0; i < 3; i++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for {
				select {
				case <-stopScrape:
					return
				default:
				}
				if _, err := c.Metrics(ctx); err != nil {
					t.Errorf("scrape: %v", err)
					return
				}
				if _, err := c.MetricsJSON(ctx); err != nil {
					t.Errorf("json scrape: %v", err)
					return
				}
			}
		}()
	}

	const submitters, perSubmitter = 4, 25
	ids := make(chan string, submitters*perSubmitter)
	var producers sync.WaitGroup
	for w := 0; w < submitters; w++ {
		producers.Add(1)
		go func(w int) {
			defer producers.Done()
			for n := 0; n < perSubmitter; n++ {
				id, err := c.Submit(ctx, fmt.Sprintf("user%d", w), tinySession())
				if err != nil {
					var ae *APIError
					if errors.As(err, &ae) && ae.StatusCode == http.StatusServiceUnavailable {
						continue // load shedding is correct behaviour under the hammer
					}
					t.Errorf("submit: %v", err)
					return
				}
				ids <- id
				if _, err := c.Job(ctx, id); err != nil {
					t.Errorf("poll %s: %v", id, err)
					return
				}
			}
		}(w)
	}
	producers.Wait()
	close(ids)

	// Shutdown races the scrapers on purpose: draining must not trip the
	// detector against concurrent registry reads.
	sdCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := svc.Shutdown(sdCtx); err != nil {
		t.Fatalf("shutdown under scrape load: %v", err)
	}
	close(stopScrape)
	scrapers.Wait()

	accepted := 0
	for id := range ids {
		st, ok := svc.Pool().Job(id)
		if !ok {
			t.Errorf("job %s vanished", id)
			continue
		}
		if !st.State.Terminal() {
			t.Errorf("job %s still %s after drain", id, st.State)
		}
		accepted++
	}
	if accepted == 0 {
		t.Fatal("hammer accepted no jobs at all")
	}
	m, err := c.MetricsJSON(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := m[`uniqd_jobs{state="done"}`]; got != float64(accepted) {
		t.Errorf("uniqd_jobs{state=done} = %v, want %d", got, accepted)
	}
}

// TestServerMetricsNewFamilies checks the registry-backed endpoint exposes
// the families this layer added — job-state gauges, retention gauge, store
// and process-wide cache counters — and that the JSON view stays available.
func TestServerMetricsNewFamilies(t *testing.T) {
	_, c := newTestServer(t)
	ctx := context.Background()
	id, err := c.Submit(ctx, "dave", tinySession())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitDone(ctx, id, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Profile(ctx, "dave"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Profile(ctx, "nobody"); err == nil {
		t.Fatal("ghost profile should 404")
	}

	runtime.GC() // so go_gc_pause_seconds has a pause to count
	m, err := c.MetricsJSON(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string]float64{
		`uniqd_jobs{state="done"}`:                  1,
		`uniqd_jobs{state="failed"}`:                0,
		`uniqd_job_records`:                         1,
		`uniqd_profile_cache_notfound_total`:        1,
		`uniqd_workers_total`:                       2,
		`uniqd_submit_decode_total{path="onepass"}`: 1,
	} {
		if got, ok := m[key]; !ok || got != want {
			t.Errorf("%s = %v (present=%v), want %v", key, got, ok, want)
		}
	}
	// The client writes bodies with encoding/json: none takes the fallback.
	if got := m[`uniqd_submit_decode_total{path="fallback"}`]; got != 0 {
		t.Errorf("%v submit bodies took the fallback decode", got)
	}
	// The runtime gauges read live values.
	for _, key := range []string{"go_gc_heap_live_bytes", "go_gc_heap_goal_bytes", "go_gc_cycles_total", "go_goroutines", "go_gc_pause_seconds_count"} {
		if _, ok := m[key]; !ok {
			t.Errorf("metrics JSON missing %s", key)
		}
	}
	if m["go_goroutines"] < 1 || m["go_gc_heap_goal_bytes"] <= 0 || m["go_gc_pause_seconds_count"] < 1 {
		t.Errorf("runtime series read %v goroutines, heap goal %v bytes, %v GC pauses",
			m["go_goroutines"], m["go_gc_heap_goal_bytes"], m["go_gc_pause_seconds_count"])
	}
	// Process-wide cache counters must be wired in, whatever their value.
	for _, key := range []string{
		"uniq_dsp_plan_cache_hits_total",
		"uniq_dsp_plan_cache_misses_total",
		"uniq_localizer_cache_hits_total",
		"uniq_localizer_cache_misses_total",
	} {
		if _, ok := m[key]; !ok {
			t.Errorf("metrics JSON missing %s", key)
		}
	}
}

// TestStreamFrameMetrics: the frame metrics a stream session resolves when
// it opens count into its kind's series, and a frame's metric calls
// allocate nothing.
func TestStreamFrameMetrics(t *testing.T) {
	svc, c := newTestServer(t)
	frames := svc.metrics.openStreamSession("aoa", "u")
	if allocs := testing.AllocsPerRun(100, func() {
		frames.observe(2e-3)
		frames.frameOut()
	}); allocs != 0 {
		t.Errorf("a frame's metric calls allocate %v times", allocs)
	}
	m, err := c.MetricsJSON(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// AllocsPerRun makes one warm-up call before its 100.
	for key, want := range map[string]float64{
		`uniqd_stream_frames_total{kind="aoa",dir="in"}`:  101,
		`uniqd_stream_frames_total{kind="aoa",dir="out"}`: 101,
		`uniqd_stream_frame_seconds_count{kind="aoa"}`:    101,
	} {
		if got := m[key]; got != want {
			t.Errorf("%s = %v, want %v", key, got, want)
		}
	}
}

// TestObserveAllocatesNothing pins the per-request metric path: once a
// route and status code have been seen, recording another request makes
// no allocation.
func TestObserveAllocatesNothing(t *testing.T) {
	svc, c := newTestServer(t)
	const endpoint = "GET /v1/profiles/{user}"
	if allocs := testing.AllocsPerRun(100, func() {
		svc.metrics.Observe(endpoint, http.StatusOK, 1e-3)
		svc.metrics.Observe(endpoint, http.StatusNotFound, 1e-3)
	}); allocs != 0 {
		t.Errorf("a warm request's metric calls allocate %v times", allocs)
	}
	m, err := c.MetricsJSON(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string]float64{
		`uniqd_requests_total{endpoint="GET /v1/profiles/{user}",code="200"}`: 101,
		`uniqd_requests_total{endpoint="GET /v1/profiles/{user}",code="404"}`: 101,
		`uniqd_request_seconds_count{endpoint="GET /v1/profiles/{user}"}`:     202,
	} {
		if got := m[key]; got != want {
			t.Errorf("%s = %v, want %v", key, got, want)
		}
	}
}

// TestStreamSessionP99 pins the summary line's p99: the upper bound of the
// bucket holding the ⌈0.99·n⌉-th fastest frame.
func TestStreamSessionP99(t *testing.T) {
	svc, _ := newTestServer(t)
	f := svc.metrics.openStreamSession("render", "u")
	if got := f.p99(); got != 0 {
		t.Errorf("no frames: p99 %v, want 0", got)
	}
	for i := 0; i < 99; i++ {
		f.observe(2e-5)
	}
	f.observe(0.2)
	if got := f.p99(); got != 5e-5 {
		t.Errorf("99 fast frames and 1 slow: p99 %v, want 5e-5", got)
	}
	f.observe(0.2)
	if got := f.p99(); got != 0.5 {
		t.Errorf("99 fast frames and 2 slow: p99 %v, want 0.5", got)
	}
	f.observe(3)
	f.observe(3)
	if got := f.p99(); !math.IsInf(got, 1) {
		t.Errorf("p99 frame past the last bound: p99 %v, want +Inf", got)
	}
}
