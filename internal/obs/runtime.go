package obs

import "runtime/metrics"

// RegisterRuntime adds the Go runtime's own view of the process to reg,
// read through runtime/metrics at every scrape:
//
//	go_gc_heap_live_bytes  heap bytes the last GC marked live
//	go_gc_heap_goal_bytes  heap size at which the next GC finishes
//	go_gc_cycles_total     GC cycles completed
//	go_goroutines          live goroutines
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
