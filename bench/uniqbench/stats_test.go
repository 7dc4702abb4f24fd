package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3} // sorted: 1 2 3 4 5
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {50, 3}, {100, 5}, {25, 2}, {90, 4.6}, {99, 4.96},
	} {
		if got := percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("p%g = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("single sample p99 = %v, want 7", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("empty sample should give NaN")
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
}

// TestQuartilesMatchPython pins the quartiles to Python's
// statistics.quantiles(xs, n=4), the arithmetic of the acceptance rule.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		// statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
		{[]float64{3, 1, 5, 2, 4}, 1.5, 3, 4.5},
		// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
		{[]float64{2, 1}, 0.75, 1.5, 2.25},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestLatenciesCountOnlySuccessfulOps(t *testing.T) {
	t0 := time.Unix(100, 0)
	ops := []op{
		{start: t0, end: t0.Add(10 * time.Millisecond)},
		{start: t0, end: t0.Add(30 * time.Millisecond), failed: true},
		{start: t0, end: t0.Add(20 * time.Millisecond)},
	}
	lat := latencies(ops)
	if len(lat) != 2 || lat[0] != 10 || lat[1] != 20 {
		t.Errorf("latencies = %v, want [10 20]", lat)
	}
	if n := countFailed(ops); n != 1 {
		t.Errorf("countFailed = %d, want 1", n)
	}
}

func TestWindowOverlapCountsStraddlingOpsByShare(t *testing.T) {
	t0 := time.Unix(100, 0)
	w := window{start: t0, end: t0.Add(10 * time.Second)}
	at := func(s float64) time.Time { return t0.Add(time.Duration(s * float64(time.Second))) }
	for _, c := range []struct {
		from, to, want float64
	}{
		{1, 2, 1},     // inside
		{-1, 1, 0.5},  // straddles the start
		{9, 13, 0.25}, // straddles the end
		{-2, -1, 0},   // before
		{10, 11, 0},   // after (the end is exclusive)
		{-1, 11, 10.0 / 12},
	} {
		if got := w.overlap(at(c.from), at(c.to)); !near(got, c.want) {
			t.Errorf("overlap(%v, %v) = %v, want %v", c.from, c.to, got, c.want)
		}
	}
}

func TestLagClockKeepsWindowSendsOnly(t *testing.T) {
	t0 := time.Unix(100, 0)
	c := lagClock{win: window{start: t0, end: t0.Add(time.Second)}}
	c.sent(t0.Add(-time.Millisecond), t0.Add(5*time.Millisecond))        // due before the window
	c.sent(t0.Add(100*time.Millisecond), t0.Add(103*time.Millisecond))   // 3 ms late
	c.sent(t0.Add(200*time.Millisecond), t0.Add(199*time.Millisecond))   // early counts as on time
	c.sent(t0.Add(time.Second), t0.Add(time.Second+50*time.Millisecond)) // due at the (exclusive) end
	if len(c.lags) != 2 || !near(c.lags[0], 3) || c.lags[1] != 0 {
		t.Errorf("lags = %v, want [3 0]", c.lags)
	}
}
