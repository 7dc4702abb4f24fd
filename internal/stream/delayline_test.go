package stream

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dsp"
	"repro/internal/hrtf"
	"repro/internal/room"
)

// randomTable is a seven-angle (0°..180° in 30° steps) table of white-noise
// HRIRs of length irLen; the last angle's right ear is empty, which the
// kernel must skip.
func randomTable(rng *rand.Rand, irLen int) *hrtf.Table {
	tab := hrtf.NewTable(48000, 0, 30, 7)
	for i := range tab.Far {
		tab.Far[i] = hrtf.HRIR{
			Left:       dsp.WhiteNoise(irLen, rng),
			Right:      dsp.WhiteNoise(irLen-rng.Intn(irLen/4), rng),
			SampleRate: 48000,
		}
	}
	tab.Far[len(tab.Far)-1].Right = nil
	return tab
}

// refRender is the per-arrival accumulate the delay line replaced, kept as
// its reference: per block one forward FFT, then per arrival × ear × IR
// partition (P = N − B + 1) one inverse FFT, scaled by the gain and added
// in the time domain at pos + delay + k·P. setAt(m) is the arrival set in
// force for block m; the output is len(in) + TailLen samples per ear.
func refRender(c *Convolver, in []float64, setAt func(m int) []Arrival) (l, r []float64) {
	block, hop, n, irLen := c.block, c.hop, c.fftSize, c.irLen
	part := n - block + 1
	plan := dsp.PlanFFT(n)
	padded := make([]float64, n)
	split := func(ir []float64) [][]complex128 {
		var parts [][]complex128
		for off := 0; off < len(ir); off += part {
			clear(padded)
			copy(padded, ir[off:min(off+part, len(ir))])
			spec := make([]complex128, n)
			plan.ForwardReal(spec, padded)
			parts = append(parts, spec)
		}
		return parts
	}
	specs := make([][2][][]complex128, c.table.NumAngles())
	for i, h := range c.table.Far {
		specs[i] = [2][][]complex128{split(h.Left), split(h.Right)}
	}
	// out[ear][hop+j] is output sample j: the first block starts at -hop.
	size := hop + len(in) + block + irLen + c.maxDelay
	out := [2][]float64{make([]float64, size), make([]float64, size)}
	x := make([]complex128, n)
	y := make([]complex128, n)
	for m, pos := 0, -hop; pos < len(in); m, pos = m+1, pos+hop {
		clear(padded)
		for i := 0; i < block; i++ {
			if j := pos + i; j >= 0 && j < len(in) {
				padded[i] = in[j] * c.win[i]
			}
		}
		plan.ForwardReal(x, padded)
		for _, a := range setAt(m) {
			for ear, parts := range specs[c.angleIndex(a.AngleDeg)] {
				dst := out[ear]
				if a.SwapEars {
					dst = out[1-ear]
				}
				for k, spec := range parts {
					for f := range y {
						y[f] = x[f] * spec[f]
					}
					plan.Inverse(y)
					base := hop + pos + a.DelaySamples + k*part
					for i := 0; i < block+min(part, irLen-k*part)-1; i++ {
						dst[base+i] += a.Gain * real(y[i])
					}
				}
			}
		}
	}
	end := hop + len(in) + c.TailLen()
	return out[0][hop:end], out[1][hop:end]
}

// TestDelayLineMatchesPerArrivalReference drives the delay line the way a
// live session does — irregular pushes and reads, arrival sets replaced
// between them, a Flush that lands mid-block — and compares it with the
// per-arrival reference. Across the sets in force, the delays hit every
// sub-hop remainder and the headroom maximum, with gains other than one,
// swapped ears and an empty ear; one case has a multi-partition IR.
func TestDelayLineMatchesPerArrivalReference(t *testing.T) {
	for _, tc := range []struct {
		name                   string
		block, irLen, headroom int
		parts                  int // expected IR partitions
	}{
		{"one partition", 64, 40, 200, 1},
		{"long IR", 32, 300, 70, 19},
		{"served geometry", 960, 239, 2000, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(tc.block + tc.irLen)))
			tab := randomTable(rng, tc.irLen)
			c, err := NewConvolver(tab, ConvolverOptions{
				BlockSize:     tc.block,
				MaxPending:    3 * tc.block,
				DelayHeadroom: tc.headroom,
			})
			if err != nil {
				t.Fatal(err)
			}
			if c.nParts != tc.parts {
				t.Fatalf("%d IR partitions, want %d", c.nParts, tc.parts)
			}
			hop := c.hop
			// hop+1 blocks, which carry about twice the hop+1 delays the
			// cycle needs, plus a partial hop: the flushed final block is
			// partly past the end of input.
			in := dsp.WhiteNoise((hop+1)*hop+hop/3, rng)

			// Delay i of the cycle covers remainder i mod hop (on a random
			// whole number of hops), and every hop+1-th is the headroom
			// maximum. The cursor advances past a set only once a block
			// has formed under it, so the sets in force walk the cycle.
			delayAt := func(i int) int {
				if i%(hop+1) == hop {
					return tc.headroom
				}
				rem := i % (hop + 1)
				return rem + hop*rng.Intn((tc.headroom-rem)/hop+1)
			}
			type install struct {
				block int
				set   []Arrival
			}
			var sched []install
			cursor := 0
			setArrivals := func() {
				if k := len(sched); k > 0 && sched[k-1].block != int(c.Blocks()) {
					cursor += len(sched[k-1].set)
				}
				set := make([]Arrival, 1+rng.Intn(13))
				for i := range set {
					set[i] = Arrival{
						AngleDeg:     tab.AngleStep * float64(rng.Intn(tab.NumAngles())),
						Gain:         rng.Float64()*3 - 1.5,
						DelaySamples: delayAt(cursor + i),
						SwapEars:     rng.Intn(2) == 0,
					}
				}
				if err := c.SetArrivals(set); err != nil {
					t.Fatal(err)
				}
				sched = append(sched, install{int(c.Blocks()), set})
			}

			var gotL, gotR []float64
			bufL, bufR := make([]float64, 4*tc.block), make([]float64, 4*tc.block)
			read := func(n int) int {
				k := c.Read(bufL[:n], bufR[:n])
				gotL = append(gotL, bufL[:k]...)
				gotR = append(gotR, bufR[:k]...)
				return k
			}
			setArrivals()
			for off := 0; off < len(in); {
				n := min(1+rng.Intn(2*tc.block), len(in)-off)
				off += c.Push(in[off : off+n])
				if rng.Intn(2) == 0 {
					read(1 + rng.Intn(len(bufL)))
				}
				for rng.Intn(4) != 0 {
					setArrivals()
				}
			}
			c.Flush()
			for !c.Drained() {
				if read(len(bufL)) == 0 {
					t.Fatal("flushed convolver stalled before draining")
				}
			}
			if covered := cursor + len(sched[len(sched)-1].set); covered < hop+1 {
				t.Fatalf("sets in force covered %d of %d remainders+max; lengthen the input", covered, hop+1)
			}

			wantL, wantR := refRender(c, in, func(m int) []Arrival {
				set := sched[0].set
				for _, s := range sched {
					if s.block > m {
						break
					}
					set = s.set
				}
				return set
			})
			if len(gotL) != len(wantL) {
				t.Fatalf("rendered %d samples, reference %d", len(gotL), len(wantL))
			}
			peak, worst, at := 0.0, 0.0, 0
			for i := range wantL {
				peak = math.Max(peak, math.Max(math.Abs(wantL[i]), math.Abs(wantR[i])))
				if e := math.Max(math.Abs(gotL[i]-wantL[i]), math.Abs(gotR[i]-wantR[i])); e > worst {
					worst, at = e, i
				}
			}
			if worst > 1e-12*peak {
				t.Fatalf("max |error| %.3g at sample %d exceeds 1e-12 × peak %.3g", worst, at, peak)
			}
		})
	}
}

// TestSetPoseBurstRebuildsOnce pins the lazy filter rebuild: a burst of
// pose updates between two hops rebuilds each source's delay-line filters
// once, when the next block forms. An eager rebuild would make every
// 8-byte 'p' frame cost a full filter build per source.
func TestSetPoseBurstRebuildsOnce(t *testing.T) {
	tab := randomTable(rand.New(rand.NewSource(3)), 239)
	sc, err := NewScene(tab, SceneOptions{
		Room:    room.DefaultConfig(),
		Sources: []SceneSource{{BearingDeg: 40}, {BearingDeg: 250, Distance: 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	in := dsp.WhiteNoise(sc.BlockSize()/2, rand.New(rand.NewSource(4)))
	outL, outR := make([]float64, len(in)), make([]float64, len(in))
	hop := func() {
		for i := range sc.srcs {
			if _, err := sc.PushFrame(i, in); err != nil {
				t.Fatal(err)
			}
		}
		sc.ReadFrame(outL, outR)
	}
	for i := 0; i < 4; i++ {
		hop()
	}
	before := make([]uint64, len(sc.srcs))
	for i, s := range sc.srcs {
		before[i] = s.conv.rebuilds
	}
	for k := 0; k < 1000; k++ {
		sc.SetPose(float64(k))
	}
	hop()
	for i, s := range sc.srcs {
		if got := s.conv.rebuilds - before[i]; got != 1 {
			t.Errorf("source %d: %d filter rebuilds for 1000 poses and one hop, want 1", i, got)
		}
	}
}
