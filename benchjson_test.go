package repro

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"math/rand"

	"repro/internal/core"
	"repro/internal/dsp"
	"repro/internal/geom"
	"repro/internal/head"
	"repro/internal/hrtf"
	"repro/internal/room"
	"repro/internal/sim"
	"repro/internal/stream"
)

// seedFuseSensorsNsPerOp is BenchmarkFuseSensors on the code before the
// sweep-batch Localizer build, the refine quad pruning and the
// params-keyed cache (commit 77f7551, this machine). It anchors the
// derived fusionSpeedupVsSeed ratio across PRs.
const seedFuseSensorsNsPerOp = 2308303519.0

// fuseBenchObservations builds the deterministic noise-free fusion input
// used by the fuseSensors kernel (mirrors the core package's benchmark).
func fuseBenchObservations() ([]core.FusionObservation, error) {
	m, err := head.New(head.Params{A: 0.105, B: 0.085, C: 0.098})
	if err != nil {
		return nil, err
	}
	var obs []core.FusionObservation
	for deg := 8.0; deg <= 172; deg += 6 {
		r := 0.30 + 0.04*math.Sin(deg/30)
		pos := geom.FromPolar(geom.Radians(deg), r)
		l, err1 := m.PathTo(pos, head.Left)
		rr, err2 := m.PathTo(pos, head.Right)
		if err1 != nil {
			return nil, err1
		}
		if err2 != nil {
			return nil, err2
		}
		obs = append(obs, core.FusionObservation{
			DelayLeft:  l.Delay,
			DelayRight: rr.Delay,
			AlphaRad:   geom.Radians(deg),
		})
	}
	return obs, nil
}

// personalizeBenchSession memoizes the simulated volunteer session shared
// by every personalize/workers=N kernel, so the guard can replay those
// records without re-rendering the session per measurement.
var personalizeBenchSession struct {
	sync.Once
	in  core.SessionInput
	err error
}

func personalizeBenchInput() (core.SessionInput, error) {
	s := &personalizeBenchSession
	s.Do(func() {
		sess, err := sim.RunSession(sim.NewVolunteer(1, 777), sim.SessionConfig{})
		if err != nil {
			s.err = err
			return
		}
		s.in = core.SessionInput{
			Probe: sess.Probe, SampleRate: sess.SampleRate,
			IMU: sess.IMU, SystemIR: sess.SystemIR, SyncOffset: sess.SyncOffset,
		}
		for _, m := range sess.Measurements {
			s.in.Stops = append(s.in.Stops, core.StopRecording{Time: m.Time, Left: m.Rec.Left, Right: m.Rec.Right})
		}
	})
	return s.in, s.err
}

// measureKernel runs the named bench.json kernel with testing.Benchmark.
// It is shared by the emitter and the bench-smoke regression guard so both
// measure exactly the same workload. ok is false for names the function
// does not know.
func measureKernel(name string) (testing.BenchmarkResult, bool) {
	switch {
	case strings.HasPrefix(name, "fft/planned/pow2-"), strings.HasPrefix(name, "fft/planned/bluestein-"):
		var n int
		if _, err := fmt.Sscanf(name[strings.LastIndex(name, "-")+1:], "%d", &n); err != nil || n <= 0 {
			return testing.BenchmarkResult{}, false
		}
		src := make([]complex128, n)
		buf := make([]complex128, n)
		for i := range src {
			src[i] = complex(float64(i%7)-3, float64(i%5)-2)
		}
		p := dsp.PlanFFT(n)
		return testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				copy(buf, src)
				p.Forward(buf)
			}
		}), true
	case name == "fft/planned/real-pow2-16384":
		n := 16384
		src := make([]float64, n)
		dst := make([]complex128, n)
		for i := range src {
			src[i] = float64(i%9) - 4
		}
		p := dsp.PlanFFT(n)
		return testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p.ForwardReal(dst, src)
			}
		}), true
	case name == "localizer/build":
		params := head.DefaultParams()
		return testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				loc, err := core.NewLocalizer(params, core.LocalizerOptions{})
				if err != nil {
					b.Fatal(err)
				}
				loc.Release()
			}
		}), true
	case name == "geom/tangent/path-query-240":
		verts := make([]geom.Vec, 240)
		for i := range verts {
			theta := 2 * math.Pi * float64(i) / float64(len(verts))
			verts[i] = geom.Vec{X: 0.09 * math.Cos(theta), Y: 0.07 * math.Sin(theta)}
		}
		bnd, err := geom.NewBoundary(verts)
		if err != nil {
			return testing.BenchmarkResult{}, false
		}
		p := geom.Vec{X: -0.31, Y: 0.22}
		return testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := bnd.ShortestExteriorPath(p, 5); err != nil {
					b.Fatal(err)
				}
			}
		}), true
	case name == "stream/convolver":
		// Steady-state streaming render: one hop in, one hop out per op
		// (mirrors the internal/stream BenchmarkConvolver workload).
		tab, err := sim.MeasureGroundTruthFar(sim.NewVolunteer(1, 3), 48000, 10)
		if err != nil {
			return testing.BenchmarkResult{}, false
		}
		c, err := stream.NewConvolver(tab, stream.ConvolverOptions{})
		if err != nil {
			return testing.BenchmarkResult{}, false
		}
		if err := c.SetArrivals([]stream.Arrival{{AngleDeg: 60, Gain: 1}}); err != nil {
			return testing.BenchmarkResult{}, false
		}
		hop := c.BlockSize() / 2
		in := make([]float64, hop)
		for i := range in {
			in[i] = math.Sin(float64(i) * 0.013)
		}
		outL := make([]float64, hop)
		outR := make([]float64, hop)
		for i := 0; i < 8; i++ {
			c.Push(in)
			c.Read(outL, outR)
		}
		return testing.Benchmark(func(b *testing.B) {
			b.SetBytes(int64(hop * 8))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.Push(in)
				c.Read(outL, outR)
			}
		}), true
	case name == "stream/aoa-tracker":
		// One estimation hop: half a window of stereo input in, one eq. 11
		// estimate out (mirrors the internal/stream BenchmarkAoATracker).
		tab, err := sim.MeasureGroundTruthFar(sim.NewVolunteer(1, 3), 48000, 10)
		if err != nil {
			return testing.BenchmarkResult{}, false
		}
		tr, err := stream.NewAoATracker(tab, stream.TrackerOptions{})
		if err != nil {
			return testing.BenchmarkResult{}, false
		}
		h, err := tab.FarAt(40)
		if err != nil {
			return testing.BenchmarkResult{}, false
		}
		src := dsp.WhiteNoise(tr.Window(), rand.New(rand.NewSource(4)))
		l, r := h.Render(src)
		l, r = l[:tr.Window()], r[:tr.Window()]
		tr.Push(l, r) // prime a full window so every push completes a hop
		hop := tr.Hop()
		return testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if ev := tr.Push(l[:hop], r[:hop]); len(ev) == 0 {
					b.Fatal("hop produced no estimate")
				}
			}
		}), true
	case strings.HasPrefix(name, "stream/scene-"):
		// Scene saturation kernels (multi-source render with room
		// acoustics); mirrors the internal/stream BenchmarkScene* workloads.
		return measureSceneKernel(name)
	case name == "fuseSensors", name == "fuseSensors/fast":
		// "fuseSensors" pins the exact dense solve (the pre-cascade
		// committed baseline stays comparable across PRs);
		// "fuseSensors/fast" is the default coarse-to-fine cascade every
		// production solve now takes.
		obs, err := fuseBenchObservations()
		if err != nil {
			return testing.BenchmarkResult{}, false
		}
		opt := core.FusionOptions{Exact: name == "fuseSensors"}
		return testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.FuseSensors(obs, opt); err != nil {
					b.Fatal(err)
				}
			}
		}), true
	case strings.HasPrefix(name, "store/"):
		// Profile-store kernels (see benchstore_test.go): cache-bypassing
		// cold reads, the legacy JSON baseline, durable puts, bulk load.
		return measureStoreKernel(name)
	case strings.HasPrefix(name, "personalize/workers="):
		// Whole pipeline, coarse fusion, N internal workers (mirrors
		// BenchmarkPersonalizeParallel). Parallel records raise GOMAXPROCS
		// to NumCPU for the measurement: go test binaries may start
		// single-threaded, and a workers=N record measured on one scheduler
		// thread would claim parallel cost it never paid.
		var workers int
		if _, err := fmt.Sscanf(name[strings.LastIndex(name, "=")+1:], "%d", &workers); err != nil || workers <= 0 {
			return testing.BenchmarkResult{}, false
		}
		in, err := personalizeBenchInput()
		if err != nil {
			return testing.BenchmarkResult{}, false
		}
		opt := core.PipelineOptions{
			Workers: workers,
			Fusion: core.FusionOptions{
				GridPoints: 2,
				MaxEvals:   40,
				Loc:        core.LocalizerOptions{AngleStepDeg: 3, RadiusSteps: 8, BoundaryVertices: 120},
			},
			Gesture: core.GestureLimits{MaxResidualDeg: 15},
		}
		if workers == 1 {
			opt.Workers = -1 // sequential: the 1-worker record skips pool overhead
		}
		if workers > 1 {
			prev := runtime.GOMAXPROCS(runtime.NumCPU())
			defer runtime.GOMAXPROCS(prev)
		}
		return testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Personalize(in, opt); err != nil {
					b.Fatal(err)
				}
			}
		}), true
	}
	return testing.BenchmarkResult{}, false
}

// sceneBenchTable memoizes the profile shared by the scene kernels (three
// kernels, one simulated measurement).
var sceneBenchTable struct {
	sync.Once
	tab *hrtf.Table
	err error
}

func sceneKernelTable() (*hrtf.Table, error) {
	s := &sceneBenchTable
	s.Do(func() {
		s.tab, s.err = sim.MeasureGroundTruthFar(sim.NewVolunteer(1, 3), 48000, 10)
	})
	return s.tab, s.err
}

// newSceneKernel builds an n-source scene in the default order-2 room,
// primed to steady state (one hop in per source, one mixed hop out per op).
func newSceneKernel(tab *hrtf.Table, n int) (*stream.Scene, []float64, []float64, []float64, error) {
	srcs := make([]stream.SceneSource, n)
	for i := range srcs {
		srcs[i] = stream.SceneSource{BearingDeg: 30 + 300*float64(i)/float64(n)}
	}
	sc, err := stream.NewScene(tab, stream.SceneOptions{
		Room:    room.DefaultConfig(),
		Sources: srcs,
	})
	if err != nil {
		return nil, nil, nil, nil, err
	}
	hop := sc.BlockSize() / 2
	in := make([]float64, hop)
	for i := range in {
		in[i] = math.Sin(float64(i) * 0.013)
	}
	outL := make([]float64, hop)
	outR := make([]float64, hop)
	for i := 0; i < 8; i++ {
		for s := 0; s < n; s++ {
			sc.PushFrame(s, in)
		}
		sc.ReadFrame(outL, outR)
	}
	return sc, in, outL, outR, nil
}

func measureSceneKernel(name string) (testing.BenchmarkResult, bool) {
	tab, err := sceneKernelTable()
	if err != nil {
		return testing.BenchmarkResult{}, false
	}
	switch name {
	case "stream/scene-4src-order2", "stream/scene-8src-order2":
		// Sources-per-session scaling: one scene hop, 4 or 8 sources, each
		// with a direct path plus 16 order-2 image arrivals.
		n := 4
		if name == "stream/scene-8src-order2" {
			n = 8
		}
		sc, in, outL, outR, err := newSceneKernel(tab, n)
		if err != nil {
			return testing.BenchmarkResult{}, false
		}
		return testing.Benchmark(func(b *testing.B) {
			b.SetBytes(int64(n * len(in) * 8))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for s := 0; s < n; s++ {
					sc.PushFrame(s, in)
				}
				sc.ReadFrame(outL, outR)
			}
		}), true
	case "stream/scene-saturation":
		// Sessions-per-machine capacity: every core drives its own 4-source
		// scene (mirrors BenchmarkSceneSessionsParallel). ns/op is machine
		// wall time per hop across all concurrent scenes.
		return testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				sc, in, outL, outR, err := newSceneKernel(tab, 4)
				if err != nil {
					panic(err)
				}
				for pb.Next() {
					for s := 0; s < 4; s++ {
						sc.PushFrame(s, in)
					}
					sc.ReadFrame(outL, outR)
				}
			})
		}), true
	}
	return testing.BenchmarkResult{}, false
}

// BenchRecord is one measured kernel in the bench.json summary.
type BenchRecord struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"nsPerOp"`
	BytesPerOp  int64   `json:"bytesPerOp"`
	AllocsPerOp int64   `json:"allocsPerOp"`
	// SessionsPerSec is set for whole-pipeline records.
	SessionsPerSec float64 `json:"sessionsPerSec,omitempty"`
	// DiskBytesPerProfile is set for store records: bytes on disk per
	// stored profile under that layout (space alongside speed).
	DiskBytesPerProfile int64 `json:"diskBytesPerProfile,omitempty"`
}

// BenchSummary is the bench.json schema: a flat record list plus the
// derived headline ratios trajectory tracking plots across PRs.
type BenchSummary struct {
	Schema          string             `json:"schema"`
	GeneratedUnixMS int64              `json:"generatedUnixMs"`
	GoVersion       string             `json:"goVersion"`
	GoMaxProcs      int                `json:"goMaxProcs"`
	Benchmarks      []BenchRecord      `json:"benchmarks"`
	Derived         map[string]float64 `json:"derived"`
}

// TestEmitBenchJSON measures the PR's headline kernels with
// testing.Benchmark and writes a machine-readable summary for BENCH_*.json
// trajectory tracking. It is opt-in — set BENCH_JSON to the output path:
//
//	BENCH_JSON=bench.json go test -run TestEmitBenchJSON .
func TestEmitBenchJSON(t *testing.T) {
	path := os.Getenv("BENCH_JSON")
	if path == "" {
		t.Skip("set BENCH_JSON=<path> to emit the benchmark summary")
	}

	sum := BenchSummary{
		Schema:          "uniq-bench/v1",
		GeneratedUnixMS: time.Now().UnixMilli(),
		GoVersion:       runtime.Version(),
		GoMaxProcs:      runtime.GOMAXPROCS(0),
		Derived:         map[string]float64{},
	}
	add := func(name string, r testing.BenchmarkResult) BenchRecord {
		rec := BenchRecord{
			Name:        name,
			Iterations:  r.N,
			NsPerOp:     float64(r.NsPerOp()),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		}
		sum.Benchmarks = append(sum.Benchmarks, rec)
		return rec
	}

	// FFT engine (plan API, pow2/Bluestein/real), the geometry fast path,
	// the Localizer delay-field build, and the sensor-fusion solve on both
	// its exact and cascade paths — all measured through the same kernels
	// the bench-smoke regression guard replays.
	ns := map[string]float64{}
	for _, name := range []string{
		"fft/planned/pow2-1024",
		"fft/planned/pow2-16384",
		"fft/planned/bluestein-1000",
		"fft/planned/bluestein-4410",
		"fft/planned/real-pow2-16384",
		"geom/tangent/path-query-240",
		"localizer/build",
		"stream/convolver",
		"stream/aoa-tracker",
		"stream/scene-4src-order2",
		"stream/scene-8src-order2",
		"stream/scene-saturation",
		"fuseSensors",
		"fuseSensors/fast",
	} {
		r, ok := measureKernel(name)
		if !ok {
			t.Fatalf("unknown bench kernel %q", name)
		}
		ns[name] = add(name, r).NsPerOp
	}
	// Scene capacity headlines: one op is one hop of audio, so the
	// real-time budget per op is hop/sampleRate seconds, and budget/ns is
	// how many such scenes (or, scaled by source count, source channels)
	// run in real time — per core for the serial kernels, per machine for
	// the saturation kernel.
	if tab, err := sceneKernelTable(); err == nil {
		if c, err := stream.NewConvolver(tab, stream.ConvolverOptions{}); err == nil {
			hopSec := float64(c.BlockSize()/2) / tab.SampleRate
			if v := ns["stream/scene-4src-order2"]; v > 0 {
				sum.Derived["sceneSessionsPerCoreRealtime"] = hopSec / (v / 1e9)
			}
			if v := ns["stream/scene-8src-order2"]; v > 0 {
				sum.Derived["sceneSourcesPerCoreRealtime"] = 8 * hopSec / (v / 1e9)
			}
			if v := ns["stream/scene-saturation"]; v > 0 {
				sum.Derived["sceneSaturationSessionsPerMachine"] = hopSec / (v / 1e9)
			}
		}
	} else {
		t.Fatalf("scene kernel table: %v", err)
	}

	// Profile store: cache-bypassing cold reads and durable writes on the
	// binary segment store, against the legacy JSON-per-user layout read
	// the way the old store read it. Disk footprint per profile rides on
	// the records; the derived ratios are the PR's headline claims.
	for _, name := range []string{
		"store/coldread", "store/coldread-json", "store/put", "store/bulkload",
	} {
		r, ok := measureKernel(name)
		if !ok {
			t.Fatalf("unknown bench kernel %q", name)
		}
		ns[name] = add(name, r).NsPerOp
	}
	if segB, jsonB, err := storeBenchFootprint(); err == nil {
		for i := range sum.Benchmarks {
			switch sum.Benchmarks[i].Name {
			case "store/coldread", "store/put", "store/bulkload":
				sum.Benchmarks[i].DiskBytesPerProfile = segB
			case "store/coldread-json":
				sum.Benchmarks[i].DiskBytesPerProfile = jsonB
			}
		}
		sum.Derived["storeBytesPerProfile"] = float64(segB)
		sum.Derived["storeCompressionVsJSON"] = float64(jsonB) / float64(segB)
	} else {
		t.Fatalf("store footprint: %v", err)
	}
	if seg, legacy := ns["store/coldread"], ns["store/coldread-json"]; seg > 0 && legacy > 0 {
		sum.Derived["storeColdReadSpeedupVsJSON"] = legacy / seg
	}
	if bulk := ns["store/bulkload"]; bulk > 0 {
		sum.Derived["storeBulkLoadProfilesPerSec"] = float64(storeBenchBulkBatch) / (bulk / 1e9)
	}

	if fast := ns["fuseSensors/fast"]; fast > 0 {
		// Both headline ratios track the default (cascade) solve — the
		// path every production session pays.
		sum.Derived["fusionSpeedupVsSeed"] = seedFuseSensorsNsPerOp / fast
		if exact := ns["fuseSensors"]; exact > 0 {
			sum.Derived["fusionFastSpeedupVsExact"] = exact / fast
		}
	}

	// Whole pipeline at 1 and NumCPU internal workers. The parallel record
	// only exists (and the derived ratio is only emitted) when the machine
	// actually has more than one CPU — a workers=N record at NumCPU=1
	// would just restate the sequential number.
	perWorkers := map[int]float64{}
	for _, workers := range []int{1, runtime.NumCPU()} {
		if _, done := perWorkers[workers]; done {
			continue
		}
		name := fmt.Sprintf("personalize/workers=%d", workers)
		r, ok := measureKernel(name)
		if !ok {
			t.Fatalf("unknown bench kernel %q", name)
		}
		rec := add(name, r)
		sum.Benchmarks[len(sum.Benchmarks)-1].SessionsPerSec = 1e9 / rec.NsPerOp
		perWorkers[workers] = rec.NsPerOp
	}
	if n := runtime.NumCPU(); n > 1 {
		if base, par := perWorkers[1], perWorkers[n]; base > 0 && par > 0 {
			sum.Derived["personalizeSpeedupNumCPUvs1"] = base / par
		}
	}

	out, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s (%d records)", path, len(sum.Benchmarks))
}
