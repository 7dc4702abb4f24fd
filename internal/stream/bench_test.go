package stream_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dsp"
	"repro/internal/hrtf"
	"repro/internal/room"
	"repro/internal/sim"
	"repro/internal/stream"
)

func benchTable(b *testing.B) *hrtf.Table {
	b.Helper()
	tableOnce.Do(func() {
		tableVal, tableErr = sim.MeasureGroundTruthFar(sim.NewVolunteer(1, 3), 48000, 10)
	})
	if tableErr != nil {
		b.Fatal(tableErr)
	}
	return tableVal
}

// BenchmarkConvolver measures the steady-state streaming hot path: one hop
// of input in, one hop of binaural output out (i.e. one block per op).
func BenchmarkConvolver(b *testing.B) {
	tab := benchTable(b)
	c, err := stream.NewConvolver(tab, stream.ConvolverOptions{})
	if err != nil {
		b.Fatal(err)
	}
	if err := c.SetArrivals([]stream.Arrival{{AngleDeg: 60, Gain: 1}}); err != nil {
		b.Fatal(err)
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
	b.SetBytes(int64(hop * 8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Push(in)
		c.Read(outL, outR)
	}
}

// benchScene builds an n-source scene in the default order-2 room, primed
// to steady state: each op is one hop of input per source and one mixed
// binaural hop out.
func benchScene(b *testing.B, n int) (*stream.Scene, []float64, []float64, []float64) {
	b.Helper()
	tab := benchTable(b)
	sc, in, outL, outR, err := newBenchScene(tab, n)
	if err != nil {
		b.Fatal(err)
	}
	return sc, in, outL, outR
}

func newBenchScene(tab *hrtf.Table, n int) (*stream.Scene, []float64, []float64, []float64, error) {
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

func benchSceneHop(b *testing.B, n int) {
	sc, in, outL, outR := benchScene(b, n)
	b.SetBytes(int64(n * len(in) * 8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for s := 0; s < n; s++ {
			sc.PushFrame(s, in)
		}
		sc.ReadFrame(outL, outR)
	}
}

// BenchmarkScene4SrcOrder2 / 8SrcOrder2 measure the sources-per-session
// scaling of one scene hop (direct path + 12 image arrivals per source at
// order 2; per source per block one input FFT and two slot IFFTs).
func BenchmarkScene4SrcOrder2(b *testing.B) { benchSceneHop(b, 4) }
func BenchmarkScene8SrcOrder2(b *testing.B) { benchSceneHop(b, 8) }

// BenchmarkSceneSessionsParallel saturates every core with independent
// 4-source scenes — the sessions-per-machine capacity shape. The scenes
// share the table's per-angle spectra cache, so each goroutine pays only
// its own FFT + accumulate work.
func BenchmarkSceneSessionsParallel(b *testing.B) {
	tab := benchTable(b)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		sc, in, outL, outR, err := newBenchScene(tab, 4)
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
}

// BenchmarkAoATracker measures one estimation hop: half a window of stereo
// input in, one eq. 11 estimate out.
func BenchmarkAoATracker(b *testing.B) {
	tab := benchTable(b)
	tr, err := stream.NewAoATracker(tab, stream.TrackerOptions{})
	if err != nil {
		b.Fatal(err)
	}
	h, err := tab.FarAt(40)
	if err != nil {
		b.Fatal(err)
	}
	src := dsp.WhiteNoise(tr.Window(), rand.New(rand.NewSource(4)))
	l, r := h.Render(src)
	l, r = l[:tr.Window()], r[:tr.Window()]
	// Prime one full window so every benchmark push completes a hop.
	tr.Push(l, r)
	hop := tr.Hop()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ev := tr.Push(l[:hop], r[:hop]); len(ev) == 0 {
			b.Fatal("hop produced no estimate")
		}
	}
}
