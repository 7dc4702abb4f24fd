package main

import (
	"testing"
	"time"
)

// TestSpeedProbeSamplesEveryCPU: the probe bursts on every allowed CPU,
// can be read while it runs, and stops (twice) without hanging.
func TestSpeedProbeSamplesEveryCPU(t *testing.T) {
	cpus, err := allowedCPUs()
	if err != nil || len(cpus) == 0 {
		t.Fatalf("allowedCPUs = %v, %v", cpus, err)
	}
	p, err := startSpeedProbe()
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	deadline := start.Add(5 * time.Second)
	for len(p.bursts(window{start: start, end: deadline})) < 4*len(cpus) && time.Now().Before(deadline) {
		time.Sleep(probeInterval)
	}
	p.finish()
	p.finish()
	w := window{start: start, end: time.Now()}
	if n := len(p.bursts(w)); n < 4*len(cpus) {
		t.Fatalf("%d bursts in %v on %d CPUs", n, w.end.Sub(w.start), len(cpus))
	}
	if s := p.slowness(w); s <= 0 || s > 100 {
		t.Errorf("slowness %v", s)
	}
	if c := p.cpu(w); c <= 0 || c > w.end.Sub(w.start)*time.Duration(len(cpus)) {
		t.Errorf("probe CPU %v over %v", c, w.end.Sub(w.start))
	}
	if s := p.slowness(window{start: start.Add(-time.Hour), end: start}); s != 1 {
		t.Errorf("slowness of a period with no burst = %v, want 1", s)
	}
}

func TestAtRefSpeedScalesOnlyTheCPUPart(t *testing.T) {
	// 30 ms hop, 10 of it clock, on a host twice as slow: 10 + 20/2.
	if got := atRefSpeed(30, 10, 2); !near(got, 20) {
		t.Errorf("atRefSpeed(30, 10, 2) = %v, want 20", got)
	}
	if got := atRefSpeed(3, 0, 0.75); !near(got, 4) {
		t.Errorf("atRefSpeed(3, 0, 0.75) = %v, want 4", got)
	}
}
