package prior

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/head"
)

func synthSamples(n int, rng *rand.Rand) []Sample {
	out := make([]Sample, n)
	for i := range out {
		p := head.Params{
			A: 0.095 + 0.006*rng.NormFloat64(),
			B: 0.075 + 0.004*rng.NormFloat64(),
			C: 0.090 + 0.005*rng.NormFloat64(),
		}
		out[i] = Sample{Params: p, ResidualDeg: 1 + 2*rng.Float64()}
	}
	return out
}

func TestFitEmpty(t *testing.T) {
	if _, err := Fit(nil); !errors.Is(err, ErrNoSamples) {
		t.Errorf("Fit(nil) = %v, want ErrNoSamples", err)
	}
}

func TestFitSingleProfile(t *testing.T) {
	p := head.Params{A: 0.101, B: 0.082, C: 0.094}
	m, err := Fit([]Sample{{Params: p, ResidualDeg: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if !m.Usable() || m.Count != 1 {
		t.Fatalf("single-profile model unusable: %+v", m)
	}
	got := m.Predict()
	if got != p {
		t.Errorf("Predict() = %+v, want the lone sample %+v", got, p)
	}
	lo := head.Params{A: 0.070, B: 0.055, C: 0.068}
	hi := head.Params{A: 0.125, B: 0.100, C: 0.120}
	tlo, thi := m.TrustRegion(lo, hi)
	// Zero dispersion must fall back to the minimum half-width, not a
	// degenerate point box.
	for _, d := range [][2]float64{{tlo.A, thi.A}, {tlo.B, thi.B}, {tlo.C, thi.C}} {
		if !(d[0] < d[1]) {
			t.Fatalf("degenerate trust region: %+v .. %+v", tlo, thi)
		}
		if d[1]-d[0] < 0.008 {
			t.Errorf("trust region width %g below the minimum", d[1]-d[0])
		}
	}
	if tlo.A > p.A || thi.A < p.A {
		t.Errorf("trust region %g..%g excludes the sample mean %g", tlo.A, thi.A, p.A)
	}
}

func TestFitRecoversPopulation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m, err := Fit(synthSamples(200, rng))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Mean[0]-0.095) > 0.002 || math.Abs(m.Mean[1]-0.075) > 0.002 || math.Abs(m.Mean[2]-0.090) > 0.002 {
		t.Errorf("mean %v far from the generating population", m.Mean)
	}
	for j, sigma := range []float64{0.006, 0.004, 0.005} {
		if m.Std[j] < sigma/2 || m.Std[j] > sigma*2 {
			t.Errorf("std[%d] = %g, generating sigma %g", j, m.Std[j], sigma)
		}
	}
}

// TestFitPinned pins Fit's mean and spread, bit for bit, over 300 samples
// with residuals up to 20°. The values were recorded from the fit that
// also solved for principal axes and a spectral regression, before those
// were dropped; a warm-started solve reads only Count, Mean and Std, so
// these bits keep every such solve unchanged.
func TestFitPinned(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	samples := make([]Sample, 300)
	for i := range samples {
		samples[i] = Sample{
			Params: head.Params{
				A: 0.095 + 0.006*rng.NormFloat64(),
				B: 0.075 + 0.004*rng.NormFloat64(),
				C: 0.090 + 0.005*rng.NormFloat64(),
			},
			ResidualDeg: 20 * rng.Float64(),
		}
	}
	m, err := Fit(samples)
	if err != nil {
		t.Fatal(err)
	}
	if m.Count != len(samples) {
		t.Fatalf("Count = %d, want %d", m.Count, len(samples))
	}
	mean := [3]uint64{0x3fb82dc80c3fdbff, 0x3fb32be64e882d63, 0x3fb70f7a7cff9f52}
	std := [3]uint64{0x3f791a817e66e812, 0x3f7134efe90e8267, 0x3f748155ea8a1291}
	for j := range mean {
		if got := math.Float64bits(m.Mean[j]); got != mean[j] {
			t.Errorf("Mean[%d] = %v (%#016x), want %v", j, m.Mean[j], got, math.Float64frombits(mean[j]))
		}
		if got := math.Float64bits(m.Std[j]); got != std[j] {
			t.Errorf("Std[%d] = %v (%#016x), want %v", j, m.Std[j], got, math.Float64frombits(std[j]))
		}
	}
}

func TestFitDownweightsNoisyProfiles(t *testing.T) {
	good := make([]Sample, 0, 21)
	for i := 0; i < 20; i++ {
		good = append(good, Sample{Params: head.Params{A: 0.095, B: 0.075, C: 0.090}, ResidualDeg: 1})
	}
	outlier := Sample{Params: head.Params{A: 0.124, B: 0.099, C: 0.119}, ResidualDeg: 60}
	m, err := Fit(append(good, outlier))
	if err != nil {
		t.Fatal(err)
	}
	// An unweighted mean would move A by (0.124-0.095)/21 ≈ 1.4 mm; the
	// quality weight must keep the shift an order of magnitude smaller.
	if d := math.Abs(m.Mean[0] - 0.095); d > 0.0002 {
		t.Errorf("noisy outlier moved the mean by %.4g m", d)
	}
}

func TestTrustRegionClampsToBounds(t *testing.T) {
	m := &Model{Count: 5, Mean: [3]float64{0.071, 0.099, 0.090}, Std: [3]float64{0.02, 0.02, 0}}
	lo := head.Params{A: 0.070, B: 0.055, C: 0.068}
	hi := head.Params{A: 0.125, B: 0.100, C: 0.120}
	tlo, thi := m.TrustRegion(lo, hi)
	if tlo.A < lo.A || thi.B > hi.B {
		t.Errorf("trust region escaped bounds: %+v .. %+v", tlo, thi)
	}
	if !(tlo.A < thi.A && tlo.B < thi.B && tlo.C < thi.C) {
		t.Errorf("trust region degenerate after clamping: %+v .. %+v", tlo, thi)
	}
}

// TestSampleBinaryRoundTrip checks that an encoded sample is 33 bytes and
// decodes bit for bit, and that truncated, padded or mislabelled
// encodings are refused, among them the older form that carried a
// spectral signature after the residual.
func TestSampleBinaryRoundTrip(t *testing.T) {
	for _, s := range []Sample{
		{Params: head.Params{A: 0.1, B: math.Copysign(0, -1), C: math.Inf(1)}, ResidualDeg: math.NaN()},
		{Params: head.Params{A: 0.0975, B: 0.08, C: 5e-324}, ResidualDeg: 2.5},
	} {
		b, err := s.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if len(b) != 33 {
			t.Fatalf("encoded sample is %d bytes, want 33", len(b))
		}
		var got Sample
		if err := got.UnmarshalBinary(b); err != nil {
			t.Fatal(err)
		}
		want := []float64{s.Params.A, s.Params.B, s.Params.C, s.ResidualDeg}
		have := []float64{got.Params.A, got.Params.B, got.Params.C, got.ResidualDeg}
		for i := range want {
			if math.Float64bits(want[i]) != math.Float64bits(have[i]) {
				t.Fatalf("field %d: %v, want %v", i, have[i], want[i])
			}
		}
		// The older form: the same 33 bytes, then the signature's band
		// count (a uvarint) and its values.
		noBands := append(b[:len(b):len(b)], 0)
		eightBands := append(b[:len(b):len(b)], 8)
		eightBands = append(eightBands, make([]byte, 8*8)...)
		for _, bad := range [][]byte{nil, b[:len(b)-1], noBands, eightBands, append([]byte{2}, b[1:]...)} {
			if err := new(Sample).UnmarshalBinary(bad); err == nil {
				t.Errorf("malformed encoding %x accepted", bad)
			}
		}
	}
}
