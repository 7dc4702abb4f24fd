// Command uniqbench is the end-to-end benchmark of the UNIQ serving path:
// it builds cmd/uniqd and cmd/uniqgw from the checkout, runs two nodes
// behind one gateway on loopback, drives one workload through the gateway
// from this process, checks every output, and prints the metrics named in
// BENCHMARK.json. The last line of standard output is the result as JSON.
//
// Usage (from the repository root; bench/run.sh builds and runs it):
//
//	uniqbench -workload enroll|scene|track|profile-read [-seed N] [-seconds S]
//	          [-trace 0|1] [-spans file] [-out file] [-volunteers N] [-root dir]
//	uniqbench compare [-benchmark BENCHMARK.json] -base glob... -head glob...
//
// See bench/README.md for the workloads, metrics and trace format.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"repro/internal/service"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one run's settings.
type config struct {
	root       string
	workload   string
	seed       int64
	seconds    float64
	trace      bool
	spans      string
	out        string
	volunteers int
}

// warmup precedes every window: plans, caches and the LRU fill during it.
const warmup = 2 * time.Second

// runDeadline bounds everything after the build, so a wedged run still
// exits within three minutes.
const runDeadline = 165 * time.Second

func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("uniqbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.root, "root", ".", "repository checkout to build and measure")
	fs.StringVar(&cfg.workload, "workload", "", "workload: enroll, scene, track or profile-read")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of every generated input")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed window in seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced variant: per-layer metrics, spans and replays")
	fs.StringVar(&cfg.spans, "spans", "", "trace file (default .bench_build/uniqbench/spans-<workload>-<seed>.json)")
	fs.StringVar(&cfg.out, "out", "", "also write the result, with its workload and seed, to this file")
	fs.IntVar(&cfg.volunteers, "volunteers", 8, fmt.Sprintf("seeded volunteers; each profile is stored under %d users", usersPerVolunteer))
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = trace == 1
	if _, ok := workloads[cfg.workload]; !ok {
		fmt.Fprintf(stderr, "uniqbench: unknown -workload %q\n", cfg.workload)
		return 2
	}
	if cfg.seconds <= 0 || cfg.volunteers < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(stderr, "uniqbench: -seconds and -volunteers must be positive and -trace 0 or 1")
		return 2
	}
	// The load generator is one process on two threads.
	runtime.GOMAXPROCS(2)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	saved, err := run(ctx, cfg, stdout, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "uniqbench: %v\n", err)
		return 1
	}
	if cfg.out != "" {
		data, err := json.MarshalIndent(saved, "", "  ")
		if err == nil {
			err = os.WriteFile(cfg.out, data, 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "uniqbench: write -out: %v\n", err)
			return 1
		}
	}
	line, err := json.Marshal(saved.result)
	if err != nil {
		fmt.Fprintf(stderr, "uniqbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !saved.Correct {
		return 1
	}
	return 0
}

// metric is one named number of the result.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// savedResult is the -out file: the result plus what produced it, which
// compare groups by, and the end-to-end times as measured with the host
// slowness that scaled them, so compare can judge both.
type savedResult struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	// Raw holds every end-to-end metric as measured, before scaling.
	Raw map[string]float64 `json:"raw"`
	// Slowness holds the host slowness of each period named in scaledBy.
	Slowness map[string]float64 `json:"slowness"`
	result
}

// scaledBy names, for each time metric, the period whose host slowness
// scales it; a metric not listed (peak_rss_mb) is reported as measured.
var scaledBy = map[string]string{
	"setup_s":       "setup",
	"p50_ms":        "window",
	"tail_ms":       "window",
	"cpu_ms_per_op": "window",
}

// metricDef names a metric and its unit; the lists mirror BENCHMARK.json.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MiB"},
}

// perLayer starts with the op tail: a user-visible number, but with about
// ten samples beyond it, it does not repeat within an end-to-end bound on
// the reference host.
var perLayer = []metricDef{
	{"tail_ms", "ms"},
	{"host.slowness", "ratio"},
	{"gen.lag_p99_ms", "ms"},
	{"gen.cpu_ms_per_op", "ms"},
	{"trace.overhead_pct", "%"},
	{"gw.cpu_ms_per_op", "ms"},
	{"gw.self_ms", "ms"},
	{"node.cpu_ms_per_op", "ms"},
	{"http.handler_ms", "ms"},
	{"pool.run_ms", "ms"},
	{"pool.run_other_ms", "ms"},
	{"stage.channel_estimation_ms", "ms"},
	{"stage.sensor_fusion_ms", "ms"},
	{"stage.gesture_check_ms", "ms"},
	{"stage.nearfield_interpolation_ms", "ms"},
	{"stage.farfield_synthesis_ms", "ms"},
	{"core.localizer_cache_hit_ratio", "ratio"},
	{"dsp.plan_cache_hit_ratio", "ratio"},
	{"store.cache_hit_ratio", "ratio"},
	{"segstore.get_cold_ms", "ms"},
	{"segstore.put_ms", "ms"},
	{"scene.push_ms", "ms"},
	{"scene.read_ms", "ms"},
	{"session.hop_ms", "ms"},
	{"aoa.hop_ms", "ms"},
	{"aoa.event_ms", "ms"},
	{"aoa_err_deg", "deg"},
	{"hrir_corr", "corr"},
}

// workload is one traffic mix.
type workload struct {
	// tail is the percentile reported as tail_ms: p99 where a window holds
	// a thousand hops, lower where it holds fewer ops (about 70 reads or 6
	// enrollments).
	tail float64
	// drive runs the warm-up and the window, then checks every output.
	drive func(ctx context.Context, e *env) (*outcome, error)
}

var workloads = map[string]workload{
	"enroll":       {tail: 75, drive: runEnroll},
	"profile-read": {tail: 90, drive: runProfileRead},
	"scene":        {tail: 99, drive: runScene},
	"track":        {tail: 99, drive: runTrack},
}

// env is what a workload drives and measures.
type env struct {
	cfg    config
	pop    *population
	cl     *fleet
	load   *http.Client    // the workload's traffic: at most two connections
	api    *service.Client // typed client over load, aimed at the gateway
	ctl    *http.Client    // start-up polls and metric scrapes
	tr     *tracer
	runDir string
	logf   func(format string, args ...any) // progress and diagnostics, to stderr

	probe    *speedProbe
	t0       time.Time // the first op's due time; the window opens after warm-up
	win      window
	snapDone chan struct{}
	before   snapshot
	after    snapshot
	// callTime sums the client-side time of the closed loop's HTTP calls
	// sent inside the window (the gateway's self time is this minus its
	// backend time).
	callTime time.Duration
}

// snapshot is the state of the processes at one window edge.
type snapshot struct {
	cpu     []time.Duration // per server: nodes, then the gateway
	self    time.Duration   // this process
	metrics []scrape        // per server (traced runs only)
	scrape  time.Duration   // time spent scraping them
	spans   int             // spans recorded so far
	err     error
}

// startClock fixes the schedule — t0 now, the window after the warm-up —
// and snapshots the processes at both window edges.
func (e *env) startClock(ctx context.Context) {
	e.t0 = time.Now()
	start := e.t0.Add(warmup)
	e.win = window{start: start, end: start.Add(time.Duration(e.cfg.seconds * float64(time.Second)))}
	e.snapDone = make(chan struct{})
	go func() {
		defer close(e.snapDone)
		time.Sleep(time.Until(e.win.start))
		e.before = e.snapshot(ctx)
		time.Sleep(time.Until(e.win.end))
		e.after = e.snapshot(ctx)
	}()
}

func (e *env) snapshot(ctx context.Context) snapshot {
	s := snapshot{self: selfCPU()}
	for _, srv := range e.cl.servers() {
		cpu, err := cpuTime(srv.pid())
		if err != nil && s.err == nil {
			s.err = err
		}
		s.cpu = append(s.cpu, cpu)
	}
	if e.cfg.trace {
		start := time.Now()
		for _, srv := range e.cl.servers() {
			m, err := fetchScrape(ctx, e.ctl, srv.url)
			if err != nil && s.err == nil {
				s.err = err
			}
			s.metrics = append(s.metrics, m)
		}
		s.scrape = time.Since(start)
		s.spans = e.tr.count()
	}
	return s
}

// ticks is how many 10 ms frames an open-loop session sends: the warm-up
// and window, plus a few so the window's last hops complete.
func (e *env) ticks() int {
	return int(math.Ceil((warmup.Seconds()+e.cfg.seconds)/tick.Seconds())) + 3
}

// outcome is what a workload measured.
type outcome struct {
	ops   []op // latency ops due or sent inside the window
	extra []op // checked outputs that are not latency ops (track's AoA events)
	// cpuOps divides the window's CPU: closed-loop ops completed in it
	// (one straddling an edge counts by its share inside), or stream
	// session-seconds.
	cpuOps float64
	lags   []float64

	// Inputs of the traced run's per-layer metrics.
	streamHop   bool       // ops are stream hops
	aoa         *aoaResult // the live AoA session, if the workload ran one
	aoaWindows  uint64     // estimation windows of the workload's AoA replay
	corr        []float64  // far-field correlation of the profiles made in the window
	enrolled    []*service.StoredProfile
	enrollInput *enrollment     // the first enrollment session
	reads       []readOp        // profile reads, in order
	replayed    map[string]bool // engines the workload's checks replayed: scene, session, aoa
}

func run(ctx context.Context, cfg config, stdout, stderr io.Writer) (savedResult, error) {
	root, err := filepath.Abs(cfg.root)
	if err != nil {
		return savedResult{}, err
	}
	work := filepath.Join(root, ".bench_build", "uniqbench")
	if err := os.MkdirAll(work, 0o755); err != nil {
		return savedResult{}, err
	}
	began := time.Now()
	logf := func(format string, args ...any) {
		fmt.Fprintf(stderr, "uniqbench [%5.1fs] %s\n", time.Since(began).Seconds(), fmt.Sprintf(format, args...))
	}

	logf("building servers")
	uniqd, uniqgw, err := buildServers(ctx, root, filepath.Join(work, "bin"))
	if err != nil {
		return savedResult{}, err
	}
	ctx, cancel := context.WithTimeout(ctx, runDeadline)
	defer cancel()
	runDir, err := os.MkdirTemp(work, "run-")
	if err != nil {
		return savedResult{}, err
	}
	defer os.RemoveAll(runDir)

	e := &env{
		cfg:    cfg,
		runDir: runDir,
		logf:   logf,
		tr:     &tracer{on: cfg.trace},
		ctl:    &http.Client{Transport: &http.Transport{}, Timeout: 10 * time.Second},
		load: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     2,
			MaxIdleConnsPerHost: 2,
			DisableCompression:  true,
		}},
	}
	defer e.ctl.CloseIdleConnections()
	defer e.load.CloseIdleConnections()

	logf("seeding %d volunteers × %d users (seed %d)", cfg.volunteers, usersPerVolunteer, cfg.seed)
	seedDir := filepath.Join(runDir, "seed")
	if e.pop, err = seedPopulation(ctx, cfg.seed, cfg.volunteers, seedDir); err != nil {
		return savedResult{}, err
	}
	// The host's speed is sampled from the set-up rounds to the end of the
	// window.
	if e.probe, err = startSpeedProbe(); err != nil {
		return savedResult{}, err
	}
	defer e.probe.finish()
	setupStart := time.Now()
	logf("starting 2 nodes (%d set-up rounds) and the gateway", setupRounds)
	if e.cl, err = startFleet(ctx, uniqd, uniqgw, seedDir, runDir, e.ctl); err != nil {
		return savedResult{}, err
	}
	defer e.cl.stop()
	setupPeriod := window{start: setupStart, end: time.Now()}
	e.api = &service.Client{BaseURL: e.cl.gw.url, HTTPClient: e.load}

	w := workloads[cfg.workload]
	logf("workload %s: %v warm-up, %gs window", cfg.workload, warmup, cfg.seconds)
	oc, err := w.drive(ctx, e)
	if err != nil {
		return savedResult{}, err
	}
	<-e.snapDone
	e.probe.finish()
	if e.before.err != nil || e.after.err != nil {
		return savedResult{}, fmt.Errorf("window snapshot: %w", errors.Join(e.before.err, e.after.err))
	}
	var rss int64
	for _, srv := range e.cl.servers() {
		b, err := peakRSS(srv.pid())
		if err != nil {
			return savedResult{}, err
		}
		rss += b
	}

	res := savedResult{
		Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace,
		result: result{
			Attempted: len(oc.ops) + len(oc.extra),
			Failed:    countFailed(oc.ops) + countFailed(oc.extra),
			Metrics:   make(map[string]metric),
		},
	}
	res.Correct = res.Attempted > 0 && res.Failed == 0
	lat := latencies(oc.ops)
	if len(lat) == 0 || oc.cpuOps <= 0 {
		return savedResult{}, fmt.Errorf("workload %s: none of the window's %d ops succeeded", cfg.workload, len(oc.ops))
	}
	serverCPU := time.Duration(0)
	for i := range e.after.cpu {
		serverCPU += e.after.cpu[i] - e.before.cpu[i]
	}
	res.Raw = map[string]float64{
		"setup_s":       median(e.cl.setup),
		"p50_ms":        percentile(lat, 50),
		"tail_ms":       percentile(lat, w.tail),
		"cpu_ms_per_op": ms(serverCPU) / oc.cpuOps,
		"peak_rss_mb":   float64(rss) / (1 << 20),
	}
	res.Slowness = map[string]float64{
		"setup":  e.probe.slowness(setupPeriod),
		"window": e.probe.slowness(e.win),
	}
	// A stream hop waits one tick for the next frame whatever the host's
	// speed; everything else a time metric holds is CPU-driven.
	fixed := make(map[string]float64)
	if oc.streamHop {
		fixed["p50_ms"], fixed["tail_ms"] = ms(tick), ms(tick)
	}
	scaled := make(map[string]float64)
	for name, v := range res.Raw {
		scaled[name] = v
		if period, ok := scaledBy[name]; ok {
			scaled[name] = atRefSpeed(v, fixed[name], res.Slowness[period])
		}
	}

	fmt.Fprintf(stdout, "uniqbench %s seed=%d window=%gs warm-up=%v trace=%v\n",
		cfg.workload, cfg.seed, cfg.seconds, warmup, cfg.trace)
	fmt.Fprintf(stdout, "set-up rounds (s): %.3f\n", e.cl.setup)
	fmt.Fprintf(stdout, "ops: attempted %d, failed %d; latency samples %d, tail = p%g; %.4g ops/s\n",
		res.Attempted, res.Failed, len(lat), w.tail, float64(len(lat))/e.win.seconds())
	fmt.Fprintf(stdout, "window CPU (s):")
	for i, srv := range e.cl.servers() {
		fmt.Fprintf(stdout, " %s %.3f", srv.name, (e.after.cpu[i] - e.before.cpu[i]).Seconds())
	}
	fmt.Fprintf(stdout, " uniqbench %.3f\n", (e.after.self - e.before.self).Seconds())
	fmt.Fprintf(stdout, "host slowness: set-up %.3f, window %.3f (reference burst %v of CPU)\n",
		res.Slowness["setup"], res.Slowness["window"], refBurstNominal)
	fmt.Fprintf(stdout, "  %-34s %14s %14s\n", "", "as measured", "at ref. speed")
	for _, d := range endToEnd {
		fmt.Fprintf(stdout, "  %-34s %14.4f %14.4f %s\n", d.name, res.Raw[d.name], scaled[d.name], d.unit)
	}
	fmt.Fprintf(stdout, "  %-34s %14.4f %14.4f ms (p%g)\n", "tail_ms", res.Raw["tail_ms"], scaled["tail_ms"], w.tail)

	if !cfg.trace {
		for _, d := range endToEnd {
			res.Metrics[d.name] = metric{Value: scaled[d.name], Unit: d.unit}
		}
		return res, nil
	}

	logf("replaying layers")
	layers, err := e.layerMetrics(ctx, oc)
	if err != nil {
		return savedResult{}, err
	}
	layers["tail_ms"] = scaled["tail_ms"]
	printMetrics(stdout, perLayer, layers)
	printSelfTimes(stdout, selfTimes(e.tr.snapshot()))
	spans := cfg.spans
	if spans == "" {
		spans = filepath.Join(work, fmt.Sprintf("spans-%s-%d.json", cfg.workload, cfg.seed))
	}
	if err := e.tr.write(spans); err != nil {
		return savedResult{}, err
	}
	fmt.Fprintf(stdout, "spans: %s\n", spans)
	for _, d := range perLayer {
		v, ok := layers[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return savedResult{}, fmt.Errorf("per-layer metric %s not measured", d.name)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return res, nil
}

func printMetrics(w io.Writer, defs []metricDef, values map[string]float64) {
	for _, d := range defs {
		fmt.Fprintf(w, "  %-34s %14.4f %s\n", d.name, values[d.name], d.unit)
	}
}
