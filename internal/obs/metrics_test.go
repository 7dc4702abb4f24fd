package obs

import (
	"math"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestCounterAndGaugeExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jobs_total", "Total jobs.")
	c.Inc()
	c.Add(2)
	g := r.Gauge("depth", "Queue depth.")
	g.Set(3.5)
	r.GaugeFunc("busy", "Busy workers.", func() float64 { return 2 })
	r.CounterFunc("plan_hits_total", "", func() uint64 { return 7 })

	var b strings.Builder
	r.WriteText(&b)
	page := b.String()
	for _, want := range []string{
		"# HELP jobs_total Total jobs.",
		"# TYPE jobs_total counter",
		"jobs_total 3",
		"depth 3.5",
		"# TYPE busy gauge",
		"busy 2",
		"plan_hits_total 7",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("exposition missing %q\n---\n%s", want, page)
		}
	}
	if got := r.Flatten()["jobs_total"]; got != 3 {
		t.Errorf("Flatten jobs_total = %v, want 3", got)
	}
}

func TestRegistryReturnsExistingMetric(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("c", "")
	b := r.Counter("c", "")
	if a != b {
		t.Error("same name should return the same counter")
	}
	va := r.CounterVec("v", "", "l")
	vb := r.CounterVec("v", "", "l")
	if va != vb {
		t.Error("same name should return the same vec")
	}
}

func TestVecExpositionDeterministicAndEscaped(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("requests_total", "Requests.", "endpoint", "code")
	v.With("GET /v1/jobs/{id}", "200").Add(4)
	v.With(`weird"ep\`, "500").Inc()

	var b strings.Builder
	r.WriteText(&b)
	page := b.String()
	if !strings.Contains(page, `requests_total{endpoint="GET /v1/jobs/{id}",code="200"} 4`) {
		t.Errorf("labelled counter line missing:\n%s", page)
	}
	if !strings.Contains(page, `requests_total{endpoint="weird\"ep\\",code="500"} 1`) {
		t.Errorf("escaping broken:\n%s", page)
	}
	// Deterministic: two renders are identical.
	var b2 strings.Builder
	r.WriteText(&b2)
	if b.String() != b2.String() {
		t.Error("exposition is not deterministic")
	}
}

func TestHistogramBucketsCumulative(t *testing.T) {
	r := NewRegistry()
	h := r.HistogramVec("req_seconds", "Latency.", []float64{0.01, 0.1, 1}, "endpoint")
	child := h.With("GET /x")
	for _, v := range []float64{0.005, 0.05, 0.5, 5} {
		child.Observe(v)
	}
	var b strings.Builder
	r.WriteText(&b)
	page := b.String()
	for _, want := range []string{
		`req_seconds_bucket{endpoint="GET /x",le="0.01"} 1`,
		`req_seconds_bucket{endpoint="GET /x",le="0.1"} 2`,
		`req_seconds_bucket{endpoint="GET /x",le="1"} 3`,
		`req_seconds_bucket{endpoint="GET /x",le="+Inf"} 4`,
		`req_seconds_count{endpoint="GET /x"} 4`,
	} {
		if !strings.Contains(page, want) {
			t.Errorf("missing %q\n---\n%s", want, page)
		}
	}
	if got := child.Sum(); got != 5.555 {
		t.Errorf("sum %v, want 5.555", got)
	}
}

func TestGaugeVecWithCollectHook(t *testing.T) {
	r := NewRegistry()
	states := map[string]float64{"queued": 0, "running": 0}
	jobs := r.GaugeVec("jobs", "Jobs by state.", "state")
	r.OnCollect(func() {
		for s, v := range states {
			jobs.With(s).Set(v)
		}
	})
	states["queued"] = 7
	var b strings.Builder
	r.WriteText(&b)
	if !strings.Contains(b.String(), `jobs{state="queued"} 7`) {
		t.Errorf("collect hook did not refresh gauge:\n%s", b.String())
	}
}

// TestMetricsConcurrency hammers every metric kind from many goroutines
// while scraping; run under -race this is the registry's thread-safety
// proof.
func TestMetricsConcurrency(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c", "")
	v := r.CounterVec("v", "", "l")
	h := r.HistogramVec("h", "", []float64{0.5}, "l")
	g := r.Gauge("g", "")
	const workers, iters = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lbl := string(rune('a' + w%3))
			for i := 0; i < iters; i++ {
				c.Inc()
				v.With(lbl).Inc()
				h.With(lbl).Observe(float64(i) / iters)
				g.Set(float64(i))
				if i%500 == 0 {
					var b strings.Builder
					r.WriteText(&b)
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != workers*iters {
		t.Errorf("counter %d, want %d", c.Value(), workers*iters)
	}
	var total uint64
	for _, lbl := range []string{"a", "b", "c"} {
		total += v.With(lbl).Value()
	}
	if total != workers*iters {
		t.Errorf("vec total %d, want %d", total, workers*iters)
	}
}

// TestRegisterRuntime: the runtime gauges scrape with live values.
func TestRegisterRuntime(t *testing.T) {
	reg := NewRegistry()
	RegisterRuntime(reg)
	runtime.GC()
	m := reg.Flatten()
	for _, name := range []string{"go_gc_heap_live_bytes", "go_gc_heap_goal_bytes", "go_gc_cycles_total", "go_goroutines"} {
		if m[name] <= 0 {
			t.Errorf("%s = %v, want > 0", name, m[name])
		}
	}
	var b strings.Builder
	reg.WriteText(&b)
	if !strings.Contains(b.String(), "# TYPE go_gc_cycles_total counter") {
		t.Errorf("exposition lacks the GC cycle counter:\n%s", b.String())
	}
	// Eight cumulative buckets from about 10 µs to about 100 ms, then
	// +Inf, whose count the _count line repeats.
	var les []float64
	var counts []uint64
	var count uint64
	for _, line := range strings.Split(b.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, `go_gc_pause_seconds_bucket{le="`); ok {
			le, n, _ := strings.Cut(rest, `"} `)
			v, _ := strconv.ParseFloat(le, 64) // "+Inf" parses too
			c, _ := strconv.ParseUint(n, 10, 64)
			les, counts = append(les, v), append(counts, c)
		}
		if n, ok := strings.CutPrefix(line, "go_gc_pause_seconds_count "); ok {
			count, _ = strconv.ParseUint(n, 10, 64)
		}
	}
	if len(les) != 9 || !math.IsInf(les[8], 1) || counts[8] != count || count < 1 || m["go_gc_pause_seconds_count"] != float64(count) {
		t.Fatalf("go_gc_pause_seconds after runtime.GC: bounds %v, counts %v, count %d (JSON %v)", les, counts, count, m["go_gc_pause_seconds_count"])
	}
	if les[0] < 1e-5 || les[0] > 2e-5 || les[7] < 0.1 || les[7] > 0.2 {
		t.Errorf("bounds run %v to %v, want about 10 µs to 100 ms", les[0], les[7])
	}
	for i := 1; i < len(les); i++ {
		if les[i] <= les[i-1] || counts[i] < counts[i-1] {
			t.Errorf("buckets not ascending and cumulative: %v, %v", les, counts)
		}
	}
}

// TestStatusLabel checks the sliced status labels against strconv across
// the table's edges and outside it.
func TestStatusLabel(t *testing.T) {
	for _, code := range []int{0, 99, 100, 101, 200, 404, 503, 599, 600, 1000} {
		if got, want := StatusLabel(code), strconv.Itoa(code); got != want {
			t.Errorf("StatusLabel(%d) = %q, want %q", code, got, want)
		}
	}
}
