package obs

import (
	"fmt"
	"io"
	"runtime/metrics"
)

// RegisterRuntime adds the Go runtime's own view of the process to reg,
// read through runtime/metrics at every scrape:
//
//	go_gc_heap_live_bytes  heap bytes the last GC marked live
//	go_gc_heap_goal_bytes  heap size at which the next GC finishes
//	go_gc_cycles_total     GC cycles completed
//	go_goroutines          live goroutines
//	go_gc_pause_seconds    stop-the-world GC pauses (histogram)
//
// The heap goal is what a process's peak RSS follows between
// collections: about twice the live heap at the default GOGC.
func RegisterRuntime(reg *Registry) {
	gauge := func(name, help, key string) {
		reg.GaugeFunc(name, help, func() float64 { return float64(readRuntime(key)) })
	}
	gauge("go_gc_heap_live_bytes", "Heap bytes marked live by the last GC.", "/gc/heap/live:bytes")
	gauge("go_gc_heap_goal_bytes", "Heap size at which the next GC cycle finishes.", "/gc/heap/goal:bytes")
	reg.CounterFunc("go_gc_cycles_total", "GC cycles completed.",
		func() uint64 { return readRuntime("/gc/cycles/total:gc-cycles") })
	gauge("go_goroutines", "Live goroutines.", "/sched/goroutines:goroutines")
	reg.register(gcPauses{})
}

// readRuntime reads one uint64 runtime/metrics value, 0 if the runtime
// does not report it.
func readRuntime(key string) uint64 {
	s := []metrics.Sample{{Name: key}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// gcPauseTargets are the bounds, 10 µs to 100 ms, at which
// go_gc_pause_seconds reports the runtime's pause histogram.
var gcPauseTargets = []float64{1e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 1e-2, 1e-1}

// gcPauses exposes /sched/pauses/total/gc:seconds as the cumulative
// histogram go_gc_pause_seconds. Each target bound is rounded up to the
// runtime's next bucket boundary and labelled with it, so every bucket's
// count is exact. The runtime keeps no sum, so neither does the family.
type gcPauses struct{}

const gcPausesName = "go_gc_pause_seconds"

func (gcPauses) metricName() string { return gcPausesName }

// read returns the reported bounds, the number of pauses below each, and
// the number of pauses in all.
func (gcPauses) read() (bounds []float64, below []uint64, total uint64) {
	s := []metrics.Sample{{Name: "/sched/pauses/total/gc:seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64Histogram {
		return nil, nil, 0
	}
	h := s[0].Value.Float64Histogram()
	// Counts[i] counts the pauses in [Buckets[i], Buckets[i+1]), so total
	// is the count below Buckets[i] when bucket i is reached.
	t := 0
	for i, c := range h.Counts {
		if t < len(gcPauseTargets) && h.Buckets[i] >= gcPauseTargets[t] {
			bounds = append(bounds, h.Buckets[i])
			below = append(below, total)
			for t < len(gcPauseTargets) && h.Buckets[i] >= gcPauseTargets[t] {
				t++
			}
		}
		total += c
	}
	return bounds, below, total
}

func (g gcPauses) writeText(w io.Writer) {
	bounds, below, total := g.read()
	writeHeader(w, gcPausesName, "Stop-the-world GC pause durations.", "histogram")
	for i, b := range bounds {
		fmt.Fprintf(w, "%s_bucket{le=\"%s\"} %d\n", gcPausesName, formatBound(b), below[i])
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", gcPausesName, total)
	fmt.Fprintf(w, "%s_count %d\n", gcPausesName, total)
}

func (g gcPauses) flatten(into map[string]float64) {
	_, _, total := g.read()
	into[gcPausesName+"_count"] = float64(total)
}
