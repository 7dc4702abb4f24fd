package main

import (
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/hrtf"
	"repro/internal/sim"
	"repro/internal/stream"
)

var (
	tableOnce sync.Once
	tableVal  *hrtf.Table
)

// testTable is a small real far field (10° grid) for engine replays.
func testTable(t *testing.T) *hrtf.Table {
	t.Helper()
	tableOnce.Do(func() {
		var err error
		tableVal, err = sim.MeasureGroundTruthFar(sim.NewVolunteer(1, 3), sampleRate, 10)
		if err != nil {
			t.Fatal(err)
		}
	})
	return tableVal
}

func TestHopOpsAlignHopsWithTheirInputTick(t *testing.T) {
	t0 := time.Unix(100, 0)
	win := window{start: t0.Add(2 * tick), end: t0.Add(6 * tick)}
	due := func(h int) time.Time { return t0.Add(time.Duration(h) * tick) }
	recvAt := []time.Time{
		due(0).Add(12 * time.Millisecond), // before the window
		due(1).Add(12 * time.Millisecond),
		due(2).Add(11 * time.Millisecond), // on time
		due(3).Add(lateHop + time.Millisecond),
		{}, // hop 4 never arrived
		due(5).Add(15 * time.Millisecond),
		due(6).Add(10 * time.Millisecond), // after the window
	}
	ops := hopOps(recvAt, map[int]bool{5: true}, t0, win)
	if len(ops) != 4 {
		t.Fatalf("%d ops in the window, want 4 (hops 2-5)", len(ops))
	}
	if ops[0].failed || !near(ops[0].latencyMS(), 11) || !ops[0].start.Equal(due(2)) {
		t.Errorf("hop 2: %+v, want 11 ms from its tick", ops[0])
	}
	for i, why := range []string{"late", "missing", "output mismatch"} {
		if !ops[i+1].failed {
			t.Errorf("hop %d (%s) should fail", i+3, why)
		}
	}
}

// TestEventDueMapsTimeSecToItsLastSample: an event's TimeSec is the stream
// time of its window's end, so its last input sample is TimeSec·rate − 1,
// sent with that sample's tick.
func TestEventDueMapsTimeSecToItsLastSample(t *testing.T) {
	t0 := time.Unix(100, 0)
	for _, c := range []struct {
		end  int // window end, samples
		tick int
	}{
		{2400, 4},  // samples 0..2399: the last one rides tick 4 (1920..2399)
		{3600, 7},  // last sample 3599 → tick 7 (3360..3839)
		{4800, 9},  // last sample 4799 → tick 9
		{4801, 10}, // one sample more starts tick 10
	} {
		ev := stream.AngleEvent{TimeSec: float64(c.end) / sampleRate}
		if got, want := eventDue(ev, t0), t0.Add(time.Duration(c.tick)*tick); !got.Equal(want) {
			t.Errorf("window end %d: due %v, want tick %d", c.end, got.Sub(t0), c.tick)
		}
	}
}

func TestScoreAoAChecksEveryWindowEvent(t *testing.T) {
	t0 := time.Unix(100, 0)
	win := window{start: t0, end: t0.Add(time.Second)}
	want := []stream.AngleEvent{
		{TimeSec: 0.05, AngleDeg: 31},
		{TimeSec: 0.075, AngleDeg: 32},
		{TimeSec: 0.1, AngleDeg: 33},
		{TimeSec: 2, AngleDeg: 90}, // outside the window
	}
	got := []aoaEvent{
		{ev: want[0], at: eventDue(want[0], t0).Add(2 * time.Millisecond)},
		{ev: stream.AngleEvent{TimeSec: 0.075, AngleDeg: 32.5}, at: eventDue(want[1], t0)},
	}
	res := scoreAoA(got, want, 2400, t0, win)
	if len(res.ops) != 3 {
		t.Fatalf("%d window events, want 3", len(res.ops))
	}
	if res.ops[0].failed || !near(res.ops[0].latencyMS(), 2) {
		t.Errorf("event 0: %+v, want a 2 ms success", res.ops[0])
	}
	if !res.ops[1].failed || !res.ops[2].failed {
		t.Error("an unequal and a missing event must both fail")
	}
	// The true bearing is taken at the window's centre: 25 ms in, 30.15°.
	if len(res.errDeg) != 2 || !near(res.errDeg[0], math.Abs(31-aoaBearing(0.025))) {
		t.Errorf("errDeg = %v", res.errDeg)
	}
}

func TestCheckHopsFlagsASingleFlippedBit(t *testing.T) {
	p := newSinglePlan("u", testTable(t), 11)
	l, r, err := p.replay(40, &tracer{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	lr := &liveRender{plan: p, outL: l, outR: r}
	bad, err := lr.checkHops(30, &tracer{}, 0)
	if err != nil || len(bad) != 0 {
		t.Fatalf("clean output: bad %v, %v", bad, err)
	}
	i := 25*tickSamples + 7
	lr.outR[i] = math.Float32frombits(math.Float32bits(lr.outR[i]) ^ 1)
	if bad, _ = lr.checkHops(30, &tracer{}, 0); len(bad) != 1 || !bad[25] {
		t.Errorf("flipped hop 25: bad = %v", bad)
	}
}
