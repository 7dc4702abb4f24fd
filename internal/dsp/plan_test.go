package dsp

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"sync"
	"testing"
)

// bluesteinSizes are the non-power-of-two lengths the plan-cache tests
// sweep: primes, highly composite sizes, and the paper-scale ones.
var bluesteinSizes = []int{3, 5, 6, 7, 9, 11, 12, 15, 21, 33, 77, 100, 125, 250, 1000}

// TestPlanMatchesNaiveDFT cross-validates the plan-cached transform against
// a naive O(n²) DFT on random inputs for every Bluestein size, forward and
// round-trip.
func TestPlanMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range bluesteinSizes {
		if IsPow2(n) {
			t.Fatalf("size %d is a power of two; this test targets the Bluestein path", n)
		}
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		want := naiveDFT(x)
		got := FFT(x)
		for i := range want {
			if cmplx.Abs(want[i]-got[i]) > 1e-8*float64(n) {
				t.Fatalf("n=%d bin %d: got %v want %v", n, i, got[i], want[i])
			}
		}
		back := IFFT(got)
		for i := range x {
			if cmplx.Abs(back[i]-x[i]) > 1e-9*float64(n) {
				t.Fatalf("n=%d: roundtrip mismatch at %d", n, i)
			}
		}
	}
}

// TestPlanRootMatchesExp pins Root across the whole circle, both halves of
// the twiddle table included.
func TestPlanRootMatchesExp(t *testing.T) {
	for _, n := range []int{2, 8, 2048} {
		p := PlanFFT(n)
		for k := 0; k < n; k++ {
			want := cmplx.Exp(complex(0, -2*math.Pi*float64(k)/float64(n)))
			if got := p.Root(k); cmplx.Abs(got-want) > 1e-15 {
				t.Fatalf("n=%d: Root(%d) = %v, want %v", n, k, got, want)
			}
		}
	}
}

// TestPlanForwardRealMatchesComplex checks the half-size real-input trick
// against the complex transform of the widened signal, across even pow2,
// even Bluestein, and odd (fallback) sizes.
func TestPlanForwardRealMatchesComplex(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{2, 4, 6, 8, 10, 16, 26, 64, 100, 128, 250, 1000, 1024, 3, 7, 77, 125} {
		x := make([]float64, n)
		c := make([]complex128, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			c[i] = complex(x[i], 0)
		}
		want := FFT(c)
		got := FFTReal(x)
		for i := range want {
			if cmplx.Abs(want[i]-got[i]) > 1e-9*float64(n) {
				t.Fatalf("n=%d bin %d: real path %v, complex path %v", n, i, got[i], want[i])
			}
		}
		back := IFFTReal(got)
		for i := range x {
			if d := back[i] - x[i]; d > 1e-9 || d < -1e-9 {
				t.Fatalf("n=%d: real roundtrip mismatch at %d", n, i)
			}
		}
	}
}

// TestPlanRegistrySharing asserts the registry hands every caller the same
// plan instance per size.
func TestPlanRegistrySharing(t *testing.T) {
	if PlanFFT(48) != PlanFFT(48) {
		t.Error("PlanFFT(48) returned distinct instances")
	}
	if PlanFFT(64) == PlanFFT(128) {
		t.Error("different sizes share a plan")
	}
	if got := PlanFFT(96).Size(); got != 96 {
		t.Errorf("Size() = %d, want 96", got)
	}
}

// TestPlanConcurrentCallers hammers the plan registry and the pooled
// scratch from many goroutines at once — sizes are deliberately shared so
// the same plan (and its sync.Pool) is exercised concurrently. Run under
// `go test -race` this is the memory-safety proof for the cache; the
// results are also checked against single-threaded references, which
// doubles as the determinism proof (planned transforms are pure
// functions of their input).
func TestPlanConcurrentCallers(t *testing.T) {
	sizes := []int{8, 48, 77, 100, 128, 250, 1000, 1024}
	type ref struct {
		in       []float64
		spec     []complex128
		specReal []complex128
	}
	refs := make([]ref, len(sizes))
	rng := rand.New(rand.NewSource(11))
	for i, n := range sizes {
		in := make([]float64, n)
		c := make([]complex128, n)
		for j := range in {
			in[j] = rng.NormFloat64()
			c[j] = complex(in[j], 0)
		}
		refs[i] = ref{in: in, spec: FFT(c), specReal: FFTReal(in)}
	}
	const goroutines = 16
	const rounds = 40
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (g + r) % len(sizes)
				n := sizes[i]
				// Complex path through the shared plan.
				buf := make([]complex128, n)
				for j, v := range refs[i].in {
					buf[j] = complex(v, 0)
				}
				PlanFFT(n).Forward(buf)
				for j := range buf {
					if cmplx.Abs(buf[j]-refs[i].spec[j]) > 1e-9*float64(n) {
						errc <- fmt.Errorf("goroutine %d round %d: n=%d complex bin %d diverged", g, r, n, j)
						return
					}
				}
				// Real path (shares the plan's scratch pool).
				out := make([]complex128, n)
				PlanFFT(n).ForwardReal(out, refs[i].in)
				for j := range out {
					if cmplx.Abs(out[j]-refs[i].specReal[j]) > 1e-9*float64(n) {
						errc <- fmt.Errorf("goroutine %d round %d: n=%d real bin %d diverged", g, r, n, j)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestFFTRadix2ShimAnyPow2 pins the internal shim the convolution helpers
// scale against: unscaled forward/inverse round-trip through the plan.
func TestFFTRadix2ShimAnyPow2(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{2, 8, 64, 512} {
		x := make([]complex128, n)
		orig := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			orig[i] = x[i]
		}
		fftRadix2(x, false)
		fftRadix2(x, true)
		scale := 1 / float64(n)
		for i := range x {
			if cmplx.Abs(x[i]*complex(scale, 0)-orig[i]) > 1e-9 {
				t.Fatalf("n=%d: unscaled roundtrip mismatch at %d", n, i)
			}
		}
	}
}
