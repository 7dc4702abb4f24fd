package main

import (
	"math"
	"slices"
	"time"
)

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between order statistics (NaN for an empty sample).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Sorted(slices.Values(xs))
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := min(lo+1, len(s)-1)
	frac := rank - float64(lo)
	return s[lo] + (s[hi]-s[lo])*frac
}

// quartiles returns the first quartile, median and third quartile of xs
// exactly as Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method) computes them, so spreads printed here match the
// acceptance rule's arithmetic. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := slices.Sorted(slices.Values(xs))
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// median is the middle quartile.
func median(xs []float64) float64 {
	_, q2, _ := quartiles(xs)
	return q2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// window is the timed interval of a run.
type window struct{ start, end time.Time }

func (w window) contains(t time.Time) bool { return !t.Before(w.start) && t.Before(w.end) }

func (w window) seconds() float64 { return w.end.Sub(w.start).Seconds() }

// overlap returns the share of [start, end] that lies inside the window:
// 1 for an op wholly inside, a fraction for one straddling an edge.
// Summing it over closed-loop ops counts completed work without the ±1-op
// quantization of counting whole completions.
func (w window) overlap(start, end time.Time) float64 {
	if !end.After(start) {
		if w.contains(end) {
			return 1
		}
		return 0
	}
	lo := start
	if w.start.After(lo) {
		lo = w.start
	}
	hi := end
	if w.end.Before(hi) {
		hi = w.end
	}
	if !hi.After(lo) {
		return 0
	}
	return float64(hi.Sub(lo)) / float64(end.Sub(start))
}

// lagClock accounts for how late the generator issued work. Open loops
// compare each send with its schedule; closed loops compare each send with
// the moment the client became free (its previous reply). Only sends due
// inside the window are kept.
type lagClock struct {
	win  window
	lags []float64 // ms
}

// sent records one send that was due at due and happened at at.
func (c *lagClock) sent(due, at time.Time) {
	if c.win.contains(due) {
		c.lags = append(c.lags, max(ms(at.Sub(due)), 0))
	}
}

// op is one unit of user-visible work: a job, a profile read, a render hop
// or an AoA event. Latency runs from start (the send, or the due time of the
// input sample the output depends on) to end (the completion seen by the
// client).
type op struct {
	start, end time.Time
	failed     bool
}

func (o op) latencyMS() float64 { return ms(o.end.Sub(o.start)) }

// latencies returns the latencies of the successful ops.
func latencies(ops []op) []float64 {
	out := make([]float64, 0, len(ops))
	for _, o := range ops {
		if !o.failed {
			out = append(out, o.latencyMS())
		}
	}
	return out
}

func countFailed(ops []op) int {
	n := 0
	for _, o := range ops {
		if o.failed {
			n++
		}
	}
	return n
}
