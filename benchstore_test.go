package repro

import (
	"fmt"
	"math/rand"
	"os"
	"sync"
	"testing"

	"repro/internal/head"
	"repro/internal/hrtf"
	"repro/internal/prior"
	"repro/internal/segstore"
	"repro/internal/service"
	"repro/internal/sim"
)

// Store bench shape: enough profiles that reads stride across records, a
// realistic measured table per profile (smooth HRIRs — what the XOR codec
// sees in production, not sparse synthetic impulses). A node's start-up
// scan and prior refit are measured at their own sizes.
const (
	storeBenchProfiles  = 32
	storeBenchBulkBatch = 64
	storeOpenProfiles   = 64
	priorRefitSamples   = 1000
)

// storeBenchTable memoizes one measured ground-truth table shared by every
// store kernel (measuring it costs more than the benchmarks themselves).
var storeBenchTable struct {
	sync.Once
	tab *hrtf.Table
	err error
}

func storeBenchTab() (*hrtf.Table, error) {
	s := &storeBenchTable
	s.Do(func() { s.tab, s.err = sim.MeasureGroundTruthFar(sim.NewVolunteer(1, 3), 48000, 10) })
	return s.tab, s.err
}

// storeBenchProfile builds one profile around the shared table. The
// metadata varies per user so records are not byte-identical.
func storeBenchProfile(user string, i int, tab *hrtf.Table) *segstore.Profile {
	return &segstore.Profile{
		User:            user,
		JobID:           fmt.Sprintf("bench%016x", i),
		CreatedUnixMS:   1700000000000 + int64(i),
		HeadParams:      head.Params{A: 0.09 + float64(i)*1e-4, B: 0.08, C: 0.095},
		MeanResidualDeg: 1.5 + float64(i)*0.01,
		GestureOK:       true,
		Table:           tab,
	}
}

// realShapedBenchTable is a table the shape of a solved profile's: 181
// angles, near- and far-field HRIR pairs of 170 noise-like taps, which
// the XOR codec cannot shrink, so a profile is about 1 MB on disk — like
// the profiles uniqbench seeds its nodes with.
func realShapedBenchTable() *hrtf.Table {
	rng := rand.New(rand.NewSource(1))
	taps := func() []float64 {
		h := make([]float64, 170)
		for i := range h {
			h[i] = 0.05 * rng.NormFloat64()
		}
		return h
	}
	tab := hrtf.NewTable(48000, 0, 1, 181)
	for i := range tab.Near {
		tab.Near[i] = hrtf.HRIR{Left: taps(), Right: taps(), SampleRate: 48000}
		tab.Far[i] = hrtf.HRIR{Left: taps(), Right: taps(), SampleRate: 48000}
	}
	return tab
}

// fillServiceStore writes n profiles around tab through service.Store.Put,
// so every record carries the prior sample a node writes, and closes it.
func fillServiceStore(dir string, n int, tab *hrtf.Table) error {
	st, err := service.OpenStoreWith(dir, 0, segstore.Options{NoSync: true, DisableCompaction: true})
	if err != nil {
		return err
	}
	for i, u := range storeBenchUsers(n) {
		if err := st.Put(storeBenchProfile(u, i, tab)); err != nil {
			st.Close()
			return err
		}
	}
	return st.Close()
}

func storeBenchUsers(n int) []string {
	users := make([]string, n)
	for i := range users {
		users[i] = fmt.Sprintf("bench-user-%03d", i)
	}
	return users
}

// openColdStore fills a fresh segment store under dir with n profiles.
func openColdStore(dir string, n int) (*segstore.Store, []string, error) {
	tab, err := storeBenchTab()
	if err != nil {
		return nil, nil, err
	}
	st, err := segstore.Open(dir, segstore.Options{})
	if err != nil {
		return nil, nil, err
	}
	users := storeBenchUsers(n)
	batch := make([]*segstore.Profile, n)
	for i, u := range users {
		batch[i] = storeBenchProfile(u, i, tab)
	}
	if err := st.PutBatch(batch); err != nil {
		st.Close()
		return nil, nil, err
	}
	return st, users, nil
}

// measureStoreKernel handles the store/* and prior/refit bench.json
// kernels. Each one measures the persistence layer with no LRU in front:
//
//	store/coldread  indexed point read + binary decode per op
//	store/put       one durable profile write (group-commit fsync path)
//	store/bulkload  PutBatch of storeBenchBulkBatch profiles per op
//	store/open      segstore.Open of storeOpenProfiles real-shaped
//	                profiles: the scan and index build a node starts with
//	prior/refit     the population-prior refit over priorRefitSamples
//	                stored profiles: Store.PriorSamples (an index walk)
//	                and prior.Fit, without persisting the model
func measureStoreKernel(name string) (testing.BenchmarkResult, bool) {
	switch name {
	case "store/open":
		dir, err := os.MkdirTemp("", "benchstore")
		if err != nil {
			return testing.BenchmarkResult{}, false
		}
		defer os.RemoveAll(dir)
		if err := fillServiceStore(dir, storeOpenProfiles, realShapedBenchTable()); err != nil {
			return testing.BenchmarkResult{}, false
		}
		return testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				st, err := segstore.Open(dir, segstore.Options{ReadOnly: true})
				if err != nil {
					b.Fatal(err)
				}
				if st.Len() != storeOpenProfiles {
					b.Fatalf("opened %d profiles, want %d", st.Len(), storeOpenProfiles)
				}
				st.Close()
			}
		}), true
	case "prior/refit":
		dir, err := os.MkdirTemp("", "benchstore")
		if err != nil {
			return testing.BenchmarkResult{}, false
		}
		defer os.RemoveAll(dir)
		// The samples are four floats whatever the table, so a small one
		// keeps the set-up short.
		small := hrtf.NewTable(48000, 0, 90, 3)
		for i := range small.Far {
			small.Far[i] = hrtf.HRIR{Left: []float64{1, 0.5, float64(i)}, Right: []float64{0.25, 1}, SampleRate: 48000}
		}
		if err := fillServiceStore(dir, priorRefitSamples, small); err != nil {
			return testing.BenchmarkResult{}, false
		}
		st, err := service.OpenStoreWith(dir, 0, segstore.Options{ReadOnly: true})
		if err != nil {
			return testing.BenchmarkResult{}, false
		}
		defer st.Close()
		return testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m, err := prior.Fit(st.PriorSamples())
				if err != nil {
					b.Fatal(err)
				}
				if m.Count != priorRefitSamples {
					b.Fatalf("refit over %d samples, want %d", m.Count, priorRefitSamples)
				}
			}
		}), true
	case "store/coldread":
		dir, err := os.MkdirTemp("", "benchstore")
		if err != nil {
			return testing.BenchmarkResult{}, false
		}
		defer os.RemoveAll(dir)
		st, users, err := openColdStore(dir, storeBenchProfiles)
		if err != nil {
			return testing.BenchmarkResult{}, false
		}
		defer st.Close()
		return testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := st.Get(users[i%len(users)]); err != nil {
					b.Fatal(err)
				}
			}
		}), true
	case "store/put":
		dir, err := os.MkdirTemp("", "benchstore")
		if err != nil {
			return testing.BenchmarkResult{}, false
		}
		defer os.RemoveAll(dir)
		tab, err := storeBenchTab()
		if err != nil {
			return testing.BenchmarkResult{}, false
		}
		st, err := segstore.Open(dir, segstore.Options{})
		if err != nil {
			return testing.BenchmarkResult{}, false
		}
		defer st.Close()
		users := storeBenchUsers(storeBenchProfiles)
		return testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := st.Put(storeBenchProfile(users[i%len(users)], i, tab)); err != nil {
					b.Fatal(err)
				}
			}
		}), true
	case "store/bulkload":
		tab, err := storeBenchTab()
		if err != nil {
			return testing.BenchmarkResult{}, false
		}
		users := storeBenchUsers(storeBenchBulkBatch)
		batch := make([]*segstore.Profile, len(users))
		for i, u := range users {
			batch[i] = storeBenchProfile(u, i, tab)
		}
		return testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dir, err := os.MkdirTemp("", "benchstore")
				if err != nil {
					b.Fatal(err)
				}
				st, err := segstore.Open(dir, segstore.Options{})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				// The measured span is the bulk-load contract: every profile
				// appended and the batch durable (one group commit).
				if err := st.PutBatch(batch); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				st.Close()
				os.RemoveAll(dir)
				b.StartTimer()
			}
		}), true
	}
	return testing.BenchmarkResult{}, false
}

// storeBenchFootprint reports the segment store's bytes on disk per
// profile over the bench profile set (recorded in bench.json).
func storeBenchFootprint() (int64, error) {
	dir, err := os.MkdirTemp("", "benchstore")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	st, _, err := openColdStore(dir, storeBenchProfiles)
	if err != nil {
		return 0, err
	}
	stats := st.Stats()
	st.Close()
	return stats.DiskBytes / int64(stats.Profiles), nil
}

// TestStoreBenchKernelsRun is a fast sanity check (no env gate) that every
// store kernel measures successfully — so a rename or setup failure shows
// up in plain `go test` rather than only in the opt-in bench jobs.
func TestStoreBenchKernelsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("store bench kernels build real stores; skipped in -short")
	}
	for _, name := range []string{"store/coldread", "store/put", "store/bulkload", "store/open", "prior/refit"} {
		if _, ok := measureKernel(name); !ok {
			t.Errorf("kernel %q did not measure", name)
		}
	}
	segB, err := storeBenchFootprint()
	if err != nil {
		t.Fatal(err)
	}
	if segB <= 0 {
		t.Fatalf("footprint: %d bytes/profile", segB)
	}
	t.Logf("bytes/profile: segment %d", segB)
}
