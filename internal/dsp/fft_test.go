package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNextPow2(t *testing.T) {
	cases := map[int]int{1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 1000: 1024, 1024: 1024, 1025: 2048}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Errorf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestIsPow2(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 1024} {
		if !IsPow2(n) {
			t.Errorf("IsPow2(%d) = false", n)
		}
	}
	for _, n := range []int{0, -2, 3, 6, 1000} {
		if IsPow2(n) {
			t.Errorf("IsPow2(%d) = true", n)
		}
	}
}

func TestFFTKnownValues(t *testing.T) {
	// DFT of [1, 0, 0, 0] is [1, 1, 1, 1].
	x := []complex128{1, 0, 0, 0}
	got := FFT(x)
	for i, v := range got {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Errorf("bin %d = %v, want 1", i, v)
		}
	}
	// DFT of a single cosine cycle concentrates in bins 1 and N-1.
	n := 16
	c := make([]complex128, n)
	for i := range c {
		c[i] = complex(math.Cos(2*math.Pi*float64(i)/float64(n)), 0)
	}
	spec := FFT(c)
	if math.Abs(real(spec[1])-float64(n)/2) > 1e-9 {
		t.Errorf("bin 1 = %v, want %v", spec[1], float64(n)/2)
	}
	for i := 2; i < n-1; i++ {
		if cmplx.Abs(spec[i]) > 1e-9 {
			t.Errorf("bin %d should be ~0, got %v", i, spec[i])
		}
	}
}

func TestFFTRoundTripAllLengths(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 5, 7, 8, 12, 16, 17, 31, 64, 100, 127, 128, 1000} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		y := IFFT(FFT(x))
		for i := range x {
			if cmplx.Abs(x[i]-y[i]) > 1e-9 {
				t.Fatalf("n=%d: roundtrip mismatch at %d: %v vs %v", n, i, x[i], y[i])
			}
		}
	}
}

func TestFFTMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{4, 9, 16, 21, 8, 100, 128, 1000, 1024} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		want := naiveDFT(x)
		got := FFT(x)
		for i := range want {
			if cmplx.Abs(want[i]-got[i]) > 1e-8 {
				t.Fatalf("n=%d bin %d: got %v want %v", n, i, got[i], want[i])
			}
		}
	}
}

func naiveDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var s complex128
		for t := 0; t < n; t++ {
			ang := -2 * math.Pi * float64(k*t) / float64(n)
			s += x[t] * cmplx.Exp(complex(0, ang))
		}
		out[k] = s
	}
	return out
}

func TestFFTParseval(t *testing.T) {
	// Energy in time domain equals energy in frequency domain / N.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(200)
		x := make([]complex128, n)
		var te float64
		for i := range x {
			x[i] = complex(rng.NormFloat64(), 0)
			te += real(x[i]) * real(x[i])
		}
		spec := FFT(x)
		var fe float64
		for _, v := range spec {
			fe += real(v)*real(v) + imag(v)*imag(v)
		}
		return math.Abs(te-fe/float64(n)) < 1e-6*math.Max(1, te)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestFFTLinearity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(60)
		a := make([]complex128, n)
		b := make([]complex128, n)
		sum := make([]complex128, n)
		for i := range a {
			a[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			b[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			sum[i] = a[i] + b[i]
		}
		fa, fb, fs := FFT(a), FFT(b), FFT(sum)
		for i := range fs {
			if cmplx.Abs(fs[i]-fa[i]-fb[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestFFTRealAndIFFTReal(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := make([]float64, 77)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	spec := FFTReal(x)
	// Hermitian symmetry for real input.
	n := len(x)
	for k := 1; k < n; k++ {
		if cmplx.Abs(spec[k]-cmplx.Conj(spec[n-k])) > 1e-8 {
			t.Fatalf("spectrum not Hermitian at bin %d", k)
		}
	}
	back := IFFTReal(spec)
	for i := range x {
		if math.Abs(back[i]-x[i]) > 1e-9 {
			t.Fatalf("roundtrip mismatch at %d", i)
		}
	}
}

func TestFFTFreqs(t *testing.T) {
	f := FFTFreqs(8, 48000)
	// Even n: the Nyquist bin is negative by the fftfreq convention.
	want := []float64{0, 6000, 12000, 18000, -24000, -18000, -12000, -6000}
	for i := range want {
		if math.Abs(f[i]-want[i]) > 1e-9 {
			t.Errorf("bin %d: got %g want %g", i, f[i], want[i])
		}
	}
	f = FFTFreqs(5, 100)
	want = []float64{0, 20, 40, -40, -20}
	for i := range want {
		if math.Abs(f[i]-want[i]) > 1e-9 {
			t.Errorf("odd n bin %d: got %g want %g", i, f[i], want[i])
		}
	}
}

func TestFFTEmptyAndSingle(t *testing.T) {
	if got := FFT(nil); len(got) != 0 {
		t.Error("FFT(nil) should be empty")
	}
	got := FFT([]complex128{5})
	if len(got) != 1 || got[0] != 5 {
		t.Errorf("FFT([5]) = %v", got)
	}
	if got := IFFT([]complex128{5}); len(got) != 1 || got[0] != 5 {
		t.Errorf("IFFT([5]) = %v", got)
	}
}

func BenchmarkFFT1024(b *testing.B) {
	x := make([]complex128, 1024)
	rng := rand.New(rand.NewSource(1))
	for i := range x {
		x[i] = complex(rng.NormFloat64(), 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FFT(x)
	}
}

func BenchmarkFFTBluestein1000(b *testing.B) {
	x := make([]complex128, 1000)
	rng := rand.New(rand.NewSource(1))
	for i := range x {
		x[i] = complex(rng.NormFloat64(), 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FFT(x)
	}
}

// benchSizes cover both plan kernels: pow2 radix-2² and Bluestein.
var benchSizes = []struct {
	name string
	n    int
}{
	{"pow2-1024", 1024},
	{"pow2-16384", 16384},
	{"bluestein-1000", 1000},
	{"bluestein-4410", 4410},
}

func benchInputComplex(n int) []complex128 {
	rng := rand.New(rand.NewSource(1))
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

func benchInputReal(n int) []float64 {
	rng := rand.New(rand.NewSource(1))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

// BenchmarkFFTPlanned measures the plan-cached engine through the Plan API
// (caller-owned buffers: zero allocations on the pow2 path, pooled scratch
// on the Bluestein path).
func BenchmarkFFTPlanned(b *testing.B) {
	for _, bc := range benchSizes {
		b.Run(bc.name, func(b *testing.B) {
			src := benchInputComplex(bc.n)
			buf := make([]complex128, bc.n)
			p := PlanFFT(bc.n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(buf, src)
				p.Forward(buf)
			}
		})
	}
	for _, bc := range benchSizes {
		b.Run("real-"+bc.name, func(b *testing.B) {
			src := benchInputReal(bc.n)
			dst := make([]complex128, bc.n)
			p := PlanFFT(bc.n)
			p.ForwardReal(dst, src) // warm the real-trick tables
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.ForwardReal(dst, src)
			}
		})
	}
}

// BenchmarkFFTWrapper measures the unchanged package-level API (allocates
// its output but shares the cached plan) — the speedup every existing
// caller gets for free.
func BenchmarkFFTWrapper(b *testing.B) {
	for _, bc := range benchSizes {
		b.Run(bc.name, func(b *testing.B) {
			src := benchInputComplex(bc.n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				FFT(src)
			}
		})
	}
}
