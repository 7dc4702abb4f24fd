package dsp

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
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

// --- bit-exact oracle ---------------------------------------------------
//
// refPow2Transform is the textbook radix-2 kernel the plan ran before the
// radix-2² rewrite: a branchy bit-reversal pass, then one full sweep per
// stage reading twiddles at stride n/size. It is kept verbatim as the
// oracle the planned kernel must match bit for bit; its twiddles come from
// refTwiddles, the expression the plan has always used.
func refPow2Transform(x []complex128, inverse bool) {
	if inverse {
		for i, v := range x {
			x[i] = complex(real(v), -imag(v))
		}
	}
	n := len(x)
	shift := 64 - uint(bits.Len(uint(n-1)))
	for i := 0; i < n; i++ {
		if j := int(bits.Reverse64(uint64(i)) >> shift); j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	tw := refTwiddles(n)
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		stride := n / size
		for start := 0; start < n; start += size {
			ti := 0
			for k := start; k < start+half; k++ {
				w := tw[ti]
				a := x[k]
				b := x[k+half] * w
				x[k] = a + b
				x[k+half] = a - b
				ti += stride
			}
		}
	}
	if inverse {
		for i, v := range x {
			x[i] = complex(real(v), -imag(v))
		}
	}
}

// refTwiddles returns exp(-2πik/n) for k < n/2.
func refTwiddles(n int) []complex128 {
	tw := make([]complex128, n/2)
	for k := range tw {
		ang := -2 * math.Pi * float64(k) / float64(n)
		tw[k] = complex(math.Cos(ang), math.Sin(ang))
	}
	return tw
}

// refTransform is the unscaled reference transform at any size n >= 2:
// refPow2Transform for powers of two, otherwise Bluestein's composition
// over the plan's chirp with both filter spectra rebuilt through the
// reference kernel.
func refTransform(x []complex128, inverse bool) {
	n := len(x)
	if IsPow2(n) {
		refPow2Transform(x, inverse)
		return
	}
	p := PlanFFT(n)
	m := p.m
	spectrum := func(conjugate bool) []complex128 {
		b := make([]complex128, m)
		for k, c := range p.chirp {
			if conjugate {
				c = complex(real(c), -imag(c))
			}
			b[k] = c
			if k > 0 {
				b[m-k] = c
			}
		}
		refPow2Transform(b, false)
		return b
	}
	bf := spectrum(!inverse)
	a := make([]complex128, m)
	for k := 0; k < n; k++ {
		c := p.chirp[k]
		if inverse {
			c = complex(real(c), -imag(c))
		}
		a[k] = x[k] * c
	}
	refPow2Transform(a, false)
	for i := range a {
		a[i] *= bf[i]
	}
	refPow2Transform(a, true)
	invM := complex(1/float64(m), 0)
	for k := 0; k < n; k++ {
		c := p.chirp[k]
		if inverse {
			c = complex(real(c), -imag(c))
		}
		x[k] = a[k] * invM * c
	}
}

// refInverse is Inverse over the reference: the unscaled conjugate
// transform, then one complex multiply by 1/N per bin.
func refInverse(x []complex128) {
	refTransform(x, true)
	scale := complex(1/float64(len(x)), 0)
	for i := range x {
		x[i] *= scale
	}
}

// refForwardReal is ForwardReal's even-size composition over the
// reference: the half-size transform of the packed pairs, then the
// untangling pass with the post-twiddles from refTwiddles.
func refForwardReal(src []float64) []complex128 {
	n := len(src)
	h := n / 2
	z := make([]complex128, h)
	for j := range z {
		z[j] = complex(src[2*j], src[2*j+1])
	}
	if h > 1 {
		refTransform(z, false)
	}
	rtw := refTwiddles(n)
	dst := make([]complex128, n)
	for k := 0; k < h; k++ {
		zk, zc := z[k], z[(h-k)%h]
		zc = complex(real(zc), -imag(zc))
		e := (zk + zc) * 0.5
		o := (zk - zc) * complex(0, -0.5)
		wo := rtw[k] * o
		dst[k] = e + wo
		dst[k+h] = e - wo
	}
	return dst
}

// sameFloatBits reports whether got reproduces want: the same bits, or
// any NaN where want is NaN. A NaN's payload may differ, because the
// compiler may commute the operands of an add of two NaNs.
func sameFloatBits(got, want float64) bool {
	if math.IsNaN(want) {
		return math.IsNaN(got)
	}
	return math.Float64bits(got) == math.Float64bits(want)
}

// firstBitMismatch returns the first bin where got does not reproduce
// want by sameFloatBits, or -1.
func firstBitMismatch(got, want []complex128) int {
	for i := range want {
		if !sameFloatBits(real(got[i]), real(want[i])) || !sameFloatBits(imag(got[i]), imag(want[i])) {
			return i
		}
	}
	return -1
}

// checkPlanMatchesReference runs x through the plan's Forward, Inverse and
// (for even n) ForwardReal over the real parts of x, and the reference
// compositions over copies, and reports the first bin that differs.
func checkPlanMatchesReference(t *testing.T, label string, x []complex128) {
	t.Helper()
	n := len(x)
	p := PlanFFT(n)
	got := append([]complex128(nil), x...)
	want := append([]complex128(nil), x...)
	p.Forward(got)
	refTransform(want, false)
	if i := firstBitMismatch(got, want); i >= 0 {
		t.Fatalf("%s n=%d Forward bin %d: got %v (%#x, %#x), want %v (%#x, %#x)", label, n, i,
			got[i], math.Float64bits(real(got[i])), math.Float64bits(imag(got[i])),
			want[i], math.Float64bits(real(want[i])), math.Float64bits(imag(want[i])))
	}
	copy(got, x)
	copy(want, x)
	p.Inverse(got)
	refInverse(want)
	if i := firstBitMismatch(got, want); i >= 0 {
		t.Fatalf("%s n=%d Inverse bin %d: got %v, want %v", label, n, i, got[i], want[i])
	}
	if n%2 == 1 {
		return
	}
	src := make([]float64, n)
	for i, v := range x {
		src[i] = real(v)
	}
	p.ForwardReal(got, src)
	want = refForwardReal(src)
	if i := firstBitMismatch(got, want); i >= 0 {
		t.Fatalf("%s n=%d ForwardReal bin %d: got %v, want %v", label, n, i, got[i], want[i])
	}
}

// kernelInputs are the input families TestKernelMatchesReference feeds
// every size: the transforms see network-supplied samples, so besides
// ordinary signals they must reproduce the reference on signed zeros,
// subnormals, infinities and NaNs.
var kernelInputs = []struct {
	name string
	gen  func(rng *rand.Rand, n int) []complex128
}{
	{"gaussian", func(rng *rand.Rand, n int) []complex128 {
		return fillComplex(n, func(int) (float64, float64) { return rng.NormFloat64(), rng.NormFloat64() })
	}},
	{"real", func(rng *rand.Rand, n int) []complex128 {
		return fillComplex(n, func(int) (float64, float64) { return rng.NormFloat64(), 0 })
	}},
	// The stream convolver's blocks: samples in the first half, zero
	// padding in the second.
	{"half-zero", func(rng *rand.Rand, n int) []complex128 {
		return fillComplex(n, func(i int) (float64, float64) {
			if i >= n/2 {
				return 0, 0
			}
			return rng.NormFloat64(), rng.NormFloat64()
		})
	}},
	{"signed-zero", func(rng *rand.Rand, n int) []complex128 {
		z := func() float64 {
			switch rng.Intn(4) {
			case 0:
				return math.Copysign(0, -1)
			case 1:
				return rng.NormFloat64()
			}
			return 0
		}
		return fillComplex(n, func(int) (float64, float64) { return z(), z() })
	}},
	{"subnormal", func(rng *rand.Rand, n int) []complex128 {
		s := func() float64 {
			v := math.Float64frombits(uint64(rng.Int63n(1 << 52)))
			if rng.Intn(2) == 0 {
				v = -v
			}
			return v
		}
		return fillComplex(n, func(int) (float64, float64) { return s(), s() })
	}},
	{"inf", func(rng *rand.Rand, n int) []complex128 {
		v := func() float64 {
			if rng.Intn(16) == 0 {
				return math.Inf(1 - 2*rng.Intn(2))
			}
			return rng.NormFloat64()
		}
		return fillComplex(n, func(int) (float64, float64) { return v(), v() })
	}},
	{"nan", func(rng *rand.Rand, n int) []complex128 {
		v := func() float64 {
			if rng.Intn(16) == 0 {
				return math.Float64frombits(0x7ff8000000000000 | uint64(rng.Int63n(1<<51)) | uint64(rng.Intn(2))<<63)
			}
			return rng.NormFloat64()
		}
		return fillComplex(n, func(int) (float64, float64) { return v(), v() })
	}},
}

func fillComplex(n int, f func(i int) (re, im float64)) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		re, im := f(i)
		x[i] = complex(re, im)
	}
	return x
}

// TestKernelMatchesReference pins the planned kernel to the reference bit
// for bit: every power of two from 2 to 32768, and two Bluestein sizes
// whose sub-plans run the kernel twice per transform, through Forward,
// Inverse (1/N scale included) and ForwardReal, on every input family.
// No tolerance: a NaN bin need only be NaN, every other bin must carry
// the reference's exact bits.
func TestKernelMatchesReference(t *testing.T) {
	sizes := []int{1000, 4410}
	for n := 2; n <= 32768; n *= 2 {
		sizes = append(sizes, n)
	}
	rng := rand.New(rand.NewSource(25))
	for _, n := range sizes {
		for _, in := range kernelInputs {
			checkPlanMatchesReference(t, in.name, in.gen(rng, n))
		}
	}
}

// FuzzFFTMatchesReference feeds arbitrary float64 bit patterns, eight
// fuzz bytes each, cyclically into every power-of-two length up to 64 and
// one Bluestein length, and requires the reference's bits from Forward,
// Inverse and ForwardReal. The stream routes transform client-supplied
// samples, so the kernel must reproduce the reference on any bits.
func FuzzFFTMatchesReference(f *testing.F) {
	bitsOf := func(vs ...float64) []byte {
		b := make([]byte, 8*len(vs))
		for i, v := range vs {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
		}
		return b
	}
	f.Add(bitsOf(1, 2, 3, 4, 5, 6, 7))
	f.Add(bitsOf(math.Copysign(0, -1), 0, 1, math.Copysign(0, -1)))
	f.Add(bitsOf(math.Inf(1), 1, math.Inf(-1), 0.5, 2))
	f.Add(bitsOf(math.NaN(), 5e-324, -1e308, 1e308, math.Float64frombits(0xfff4000000000001)))
	f.Fuzz(func(t *testing.T, data []byte) {
		vals := make([]float64, len(data)/8)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		if len(vals) == 0 {
			return
		}
		for _, n := range []int{2, 4, 8, 16, 32, 64, 12} {
			x := fillComplex(n, func(i int) (float64, float64) {
				return vals[2*i%len(vals)], vals[(2*i+1)%len(vals)]
			})
			checkPlanMatchesReference(t, "fuzz", x)
		}
	})
}
