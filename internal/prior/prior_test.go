package prior

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dsp"
	"repro/internal/head"
	"repro/internal/hrtf"
	"repro/internal/sim"
)

func synthSamples(n int, rng *rand.Rand) []Sample {
	out := make([]Sample, n)
	for i := range out {
		p := head.Params{
			A: 0.095 + 0.006*rng.NormFloat64(),
			B: 0.075 + 0.004*rng.NormFloat64(),
			C: 0.090 + 0.005*rng.NormFloat64(),
		}
		// Signature linearly coupled to the geometry plus noise — the
		// regression should recover the coupling.
		spec := []float64{
			2 + 40*(p.A-0.095) + 0.01*rng.NormFloat64(),
			1 - 25*(p.B-0.075) + 0.01*rng.NormFloat64(),
			0.5 + 10*(p.C-0.090) + 0.01*rng.NormFloat64(),
			-1 + 5*(p.A-0.095) - 5*(p.B-0.075) + 0.01*rng.NormFloat64(),
		}
		out[i] = Sample{Params: p, ResidualDeg: 1 + 2*rng.Float64(), Spectrum: spec}
	}
	return out
}

func TestFitEmpty(t *testing.T) {
	if _, err := Fit(nil, FitOptions{}); !errors.Is(err, ErrNoSamples) {
		t.Errorf("Fit(nil) = %v, want ErrNoSamples", err)
	}
}

func TestFitSingleProfile(t *testing.T) {
	p := head.Params{A: 0.101, B: 0.082, C: 0.094}
	m, err := Fit([]Sample{{Params: p, ResidualDeg: 2}}, FitOptions{})
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
	m, err := Fit(synthSamples(200, rng), FitOptions{})
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
	// Eigen decomposition sanity: descending, non-negative, orthonormal.
	for i := 1; i < len(m.Eigenvalues); i++ {
		if m.Eigenvalues[i] > m.Eigenvalues[i-1]+1e-18 {
			t.Errorf("eigenvalues not descending: %v", m.Eigenvalues)
		}
	}
	for i := range m.Components {
		if m.Eigenvalues[i] < -1e-12 {
			t.Errorf("negative eigenvalue %g", m.Eigenvalues[i])
		}
		for j := range m.Components {
			dot := 0.0
			for k := 0; k < 3; k++ {
				dot += m.Components[i][k] * m.Components[j][k]
			}
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(dot-want) > 1e-9 {
				t.Errorf("components not orthonormal: <%d,%d> = %g", i, j, dot)
			}
		}
	}
	// Spectral regression recovers the planted linear coupling.
	probe := head.Params{A: 0.100, B: 0.072, C: 0.093}
	spec := m.PredictSpectrum(probe)
	if len(spec) != 4 {
		t.Fatalf("PredictSpectrum length %d, want 4", len(spec))
	}
	want := []float64{
		2 + 40*(probe.A-0.095),
		1 - 25*(probe.B-0.075),
		0.5 + 10*(probe.C-0.090),
		-1 + 5*(probe.A-0.095) - 5*(probe.B-0.075),
	}
	for b := range want {
		if math.Abs(spec[b]-want[b]) > 0.05 {
			t.Errorf("band %d predicted %g, want ~%g", b, spec[b], want[b])
		}
	}
}

func TestFitDownweightsNoisyProfiles(t *testing.T) {
	good := make([]Sample, 0, 21)
	for i := 0; i < 20; i++ {
		good = append(good, Sample{Params: head.Params{A: 0.095, B: 0.075, C: 0.090}, ResidualDeg: 1})
	}
	outlier := Sample{Params: head.Params{A: 0.124, B: 0.099, C: 0.119}, ResidualDeg: 60}
	m, err := Fit(append(good, outlier), FitOptions{})
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

func TestSpectralSignature(t *testing.T) {
	tab, err := sim.MeasureGroundTruthFar(sim.NewVolunteer(2, 7), 48000, 30)
	if err != nil {
		t.Fatal(err)
	}
	sig := SpectralSignature(tab, 8)
	if len(sig) != 8 {
		t.Fatalf("signature length %d, want 8", len(sig))
	}
	again := SpectralSignature(tab, 8)
	for b := range sig {
		if sig[b] != again[b] {
			t.Fatal("signature not deterministic")
		}
		if math.IsNaN(sig[b]) || math.IsInf(sig[b], 0) {
			t.Fatalf("band %d is %g", b, sig[b])
		}
	}
	// Different heads → different signatures.
	other, err := sim.MeasureGroundTruthFar(sim.NewVolunteer(9, 7), 48000, 30)
	if err != nil {
		t.Fatal(err)
	}
	diff := 0.0
	for b, v := range SpectralSignature(other, 8) {
		diff += math.Abs(v - sig[b])
	}
	if diff == 0 {
		t.Error("distinct volunteers produced identical signatures")
	}
	if SpectralSignature(nil, 8) != nil {
		t.Error("nil table should give nil")
	}
}

// refSpectralSignature is SpectralSignature as it was before it reused one
// plan and two buffers: a fresh zero-padded copy and spectrum per HRIR.
func refSpectralSignature(t *hrtf.Table, bands int) []float64 {
	n := dsp.NextPow2(2 * t.MaxFarIRLen())
	energy := make([]float64, bands)
	half := n / 2
	binsPer := float64(half) / float64(bands)
	count := 0
	for _, h := range t.Far {
		for _, ir := range [][]float64{h.Left, h.Right} {
			if len(ir) == 0 {
				continue
			}
			spec := dsp.FFTReal(dsp.ZeroPad(ir, n))
			for k := 0; k < half; k++ {
				b := min(int(float64(k)/binsPer), bands-1)
				re, im := real(spec[k]), imag(spec[k])
				energy[b] += re*re + im*im
			}
			count++
		}
	}
	out := make([]float64, bands)
	for b := range out {
		out[b] = math.Log10(energy[b]/float64(count) + 1e-12)
	}
	return out
}

// TestSpectralSignatureMatchesReference pins the buffer-reusing signature
// to the per-HRIR-allocating one, bit for bit, on a table whose HRIRs have
// different lengths (so a reused buffer must be re-zeroed past each one).
func TestSpectralSignatureMatchesReference(t *testing.T) {
	tab, err := sim.MeasureGroundTruthFar(sim.NewVolunteer(3, 11), 48000, 30)
	if err != nil {
		t.Fatal(err)
	}
	tab.Far[1].Left = tab.Far[1].Left[:len(tab.Far[1].Left)/3]
	tab.Far[2].Right = nil
	for _, bands := range []int{1, 8, 13} {
		got, want := SpectralSignature(tab, bands), refSpectralSignature(tab, bands)
		for b := range want {
			if math.Float64bits(got[b]) != math.Float64bits(want[b]) {
				t.Fatalf("bands=%d: band %d = %v, reference %v", bands, b, got[b], want[b])
			}
		}
	}
}

// TestSampleBinaryRoundTrip checks that an encoded sample decodes bit for
// bit and that truncated or padded encodings are refused.
func TestSampleBinaryRoundTrip(t *testing.T) {
	for _, s := range []Sample{
		{Params: head.Params{A: 0.1, B: math.Copysign(0, -1), C: math.Inf(1)}, ResidualDeg: math.NaN()},
		{Params: head.Params{A: 0.0975, B: 0.08, C: 0.095}, ResidualDeg: 2.5, Spectrum: []float64{-3.25, 5e-324, 1}},
	} {
		b, err := s.MarshalBinary()
		if err != nil {
			t.Fatal(err)
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
		if len(got.Spectrum) != len(s.Spectrum) || (s.Spectrum == nil) != (got.Spectrum == nil) {
			t.Fatalf("spectrum %v, want %v", got.Spectrum, s.Spectrum)
		}
		for i := range s.Spectrum {
			if math.Float64bits(got.Spectrum[i]) != math.Float64bits(s.Spectrum[i]) {
				t.Fatalf("spectrum[%d] = %v, want %v", i, got.Spectrum[i], s.Spectrum[i])
			}
		}
		for _, bad := range [][]byte{nil, b[:len(b)-1], append(b[:len(b):len(b)], 0), append([]byte{2}, b[1:]...)} {
			if err := new(Sample).UnmarshalBinary(bad); err == nil {
				t.Errorf("malformed encoding %x accepted", bad)
			}
		}
	}
}
