package dsp

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
)

// Plan holds everything precomputable about a DFT of one size: the twiddle
// table and bit-reversal permutation for power-of-two sizes, and for every
// other size the Bluestein chirp together with its pre-transformed spectra.
// Plans are immutable after construction and safe for concurrent use; the
// per-transform scratch they need is recycled through a sync.Pool, so a
// transform through a warm plan performs no allocations beyond whatever
// output buffer the caller chooses.
//
// Callers that own their buffers use Plan directly (Forward / Inverse /
// ForwardReal); the package-level FFT / IFFT / FFTReal / IFFTReal wrappers
// look plans up in the registry and keep their allocate-and-return
// signatures.
type Plan struct {
	n int

	// Power-of-two kernel state (nil for Bluestein sizes, where sub holds
	// it instead): perm is the bit-reversal permutation, tw the first half
	// of the forward roots of unity, tw[k] = exp(-2πik/n).
	perm []int32
	tw   []complex128

	// Bluestein state (nil for power-of-two sizes): the convolution length
	// m = NextPow2(2n-1), its power-of-two plan, the forward chirp
	// chirp[k] = exp(-iπk²/n), and the m-point spectra of the chirp filter
	// for the forward and inverse transforms.
	m       int
	sub     *Plan
	chirp   []complex128
	bFFTFwd []complex128
	bFFTInv []complex128

	// scratch recycles one m-length []complex128 per concurrent
	// Bluestein transform.
	scratch sync.Pool

	// Real-input state, built on first ForwardReal for even n: the
	// half-size plan and the untangling twiddles rtw[k] = exp(-2πik/n),
	// k < n/2.
	realOnce sync.Once
	half     *Plan
	rtw      []complex128
}

// planRegistry caches one Plan per size. Sizes in a deployment are few (a
// handful of probe/CIR/window lengths), so the registry is unbounded.
var planRegistry sync.Map // map[int]*Plan

// planHits / planMisses count registry lookups, exported for the
// /debug/metrics page. A miss is a plan built from scratch (twiddle and
// chirp-spectrum tables computed), the expensive path the cache exists to
// avoid; a near-zero production hit rate means transform sizes are churning
// and the cache is not earning its memory.
var planHits, planMisses atomic.Uint64

// PlanCacheStats reports cumulative plan-registry hits and misses. Safe
// for concurrent use.
func PlanCacheStats() (hits, misses uint64) {
	return planHits.Load(), planMisses.Load()
}

// PlanFFT returns the cached transform plan for n-point DFTs, building it
// on first use. n must be >= 1. The returned plan is shared: it is safe for
// any number of goroutines to transform through it concurrently.
func PlanFFT(n int) *Plan {
	if p, ok := planRegistry.Load(n); ok {
		planHits.Add(1)
		return p.(*Plan)
	}
	planMisses.Add(1)
	p := newPlan(n)
	actual, _ := planRegistry.LoadOrStore(n, p)
	return actual.(*Plan)
}

func newPlan(n int) *Plan {
	if n < 1 {
		panic("dsp: FFT plan size must be >= 1")
	}
	p := &Plan{n: n}
	if IsPow2(n) {
		p.buildPow2()
		return p
	}
	p.buildBluestein()
	return p
}

func (p *Plan) buildPow2() {
	n := p.n
	p.perm = make([]int32, n)
	if n > 1 {
		shift := 64 - uint(bits.Len(uint(n-1)))
		for i := 0; i < n; i++ {
			p.perm[i] = int32(bits.Reverse64(uint64(i)) >> shift)
		}
	}
	p.tw = make([]complex128, n/2)
	for k := range p.tw {
		ang := -2 * math.Pi * float64(k) / float64(n)
		p.tw[k] = complex(math.Cos(ang), math.Sin(ang))
	}
}

func (p *Plan) buildBluestein() {
	n := p.n
	m := NextPow2(2*n - 1)
	p.m = m
	p.sub = PlanFFT(m)
	// chirp[k] = exp(-iπk²/n); k² is reduced mod 2n first so the angle
	// stays in [0, 2π) and never loses precision to a huge argument.
	p.chirp = make([]complex128, n)
	for k := 0; k < n; k++ {
		kk := (int64(k) * int64(k)) % int64(2*n)
		ang := -math.Pi * float64(kk) / float64(n)
		p.chirp[k] = complex(math.Cos(ang), math.Sin(ang))
	}
	// The convolution filter for the forward transform is the conjugate
	// chirp mirrored onto [0] ∪ [1,n) ∪ (m-n, m]; for the inverse it is
	// the chirp itself. Both spectra are fixed per size, so transform them
	// once here.
	p.bFFTFwd = chirpSpectrum(p.chirp, m, true)
	p.bFFTInv = chirpSpectrum(p.chirp, m, false)
	p.scratch.New = func() any {
		buf := make([]complex128, m)
		return &buf
	}
}

// chirpSpectrum builds the m-point spectrum of the Bluestein filter from
// the forward chirp, conjugating it when conjugate is true.
func chirpSpectrum(chirp []complex128, m int, conjugate bool) []complex128 {
	n := len(chirp)
	b := make([]complex128, m)
	for k := 0; k < n; k++ {
		c := chirp[k]
		if conjugate {
			c = complex(real(c), -imag(c))
		}
		b[k] = c
		if k > 0 {
			b[m-k] = c
		}
	}
	PlanFFT(m).transform(b, false)
	return b
}

// Size returns the transform length the plan was built for.
func (p *Plan) Size() int { return p.n }

// Forward computes the in-place forward DFT of x. len(x) must equal the
// plan size.
func (p *Plan) Forward(x []complex128) { p.transform(x, false) }

// Inverse computes the in-place inverse DFT of x with the usual 1/N
// normalization. len(x) must equal the plan size.
func (p *Plan) Inverse(x []complex128) {
	p.transform(x, true)
	scale := complex(1/float64(p.n), 0)
	for i := range x {
		x[i] *= scale
	}
}

// transform is the unscaled in-place kernel: the forward DFT, or for
// inverse the conjugate (unnormalized) transform — the same contract the
// convolution helpers build their own scaling on.
func (p *Plan) transform(x []complex128, inverse bool) {
	if len(x) != p.n {
		panic("dsp: FFT plan size mismatch")
	}
	if p.n <= 1 {
		return
	}
	if p.tw != nil {
		p.pow2Transform(x, inverse)
		return
	}
	p.bluesteinTransform(x, inverse)
}

// pow2Transform runs the table-driven radix-2 kernel. The inverse is the
// conjugate of the forward transform of the conjugate input, which keeps a
// single branch-free butterfly loop.
func (p *Plan) pow2Transform(x []complex128, inverse bool) {
	if inverse {
		for i, v := range x {
			x[i] = complex(real(v), -imag(v))
		}
	}
	n := p.n
	for i, j := range p.perm {
		if int(j) > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	tw := p.tw
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

// bluesteinTransform runs the chirp-z transform through the precomputed
// chirp spectra, writing the result back into x. Scratch comes from the
// plan's pool, so a warm transform allocates nothing.
func (p *Plan) bluesteinTransform(x []complex128, inverse bool) {
	n, m := p.n, p.m
	bf := p.bFFTFwd
	if inverse {
		bf = p.bFFTInv
	}
	aPtr := p.scratch.Get().(*[]complex128)
	a := *aPtr
	for k := 0; k < n; k++ {
		c := p.chirp[k]
		if inverse {
			c = complex(real(c), -imag(c))
		}
		a[k] = x[k] * c
	}
	for k := n; k < m; k++ {
		a[k] = 0
	}
	p.sub.pow2Transform(a, false)
	for i := range a {
		a[i] *= bf[i]
	}
	p.sub.pow2Transform(a, true)
	invM := complex(1/float64(m), 0)
	for k := 0; k < n; k++ {
		c := p.chirp[k]
		if inverse {
			c = complex(real(c), -imag(c))
		}
		x[k] = a[k] * invM * c
	}
	p.scratch.Put(aPtr)
}

// ForwardReal computes the full complex spectrum of the real signal src
// into dst (both of the plan's size). Even sizes use the half-size complex
// trick — one n/2-point transform plus an untangling pass — instead of
// widening src to complex128; odd sizes fall back to the complex kernel.
// The half-size transform runs in the upper half of dst, so this path
// needs no scratch.
func (p *Plan) ForwardReal(dst []complex128, src []float64) {
	if len(dst) != p.n || len(src) != p.n {
		panic("dsp: FFT plan size mismatch")
	}
	n := p.n
	if n <= 1 || n%2 == 1 {
		for i, v := range src {
			dst[i] = complex(v, 0)
		}
		if n > 1 {
			p.transform(dst, false)
		}
		return
	}
	p.realOnce.Do(func() {
		h := n / 2
		p.half = PlanFFT(h)
		p.rtw = make([]complex128, h)
		for k := range p.rtw {
			ang := -2 * math.Pi * float64(k) / float64(n)
			p.rtw[k] = complex(math.Cos(ang), math.Sin(ang))
		}
	})
	h := n / 2
	z := dst[h:]
	for j := 0; j < h; j++ {
		z[j] = complex(src[2*j], src[2*j+1])
	}
	p.half.transform(z, false)
	// Untangle: with E/O the spectra of the even/odd samples,
	//   E[k] = (Z[k] + conj(Z[h-k]))/2,  O[k] = (Z[k] - conj(Z[h-k]))·(-i/2),
	//   X[k] = E[k] + W^k·O[k],  X[k+h] = E[k] - W^k·O[k].
	// Bins k and j = h-k read only Z[k] and Z[j], and their upper outputs
	// X[k+h], X[j+h] overwrite exactly those two, so each pair is read
	// before either half is written.
	for k := 0; k <= h/2; k++ {
		j := (h - k) % h
		zk, zj := z[k], z[j]
		p.untangle(dst, k, zk, zj)
		if j != k {
			p.untangle(dst, j, zj, zk)
		}
	}
}

// untangle writes bins k and k+n/2 of a real-input spectrum from the
// half-size transform values Z[k] and Z[(n/2-k) mod n/2].
func (p *Plan) untangle(dst []complex128, k int, zk, zc complex128) {
	h := len(p.rtw)
	zc = complex(real(zc), -imag(zc))
	e := (zk + zc) * 0.5
	o := (zk - zc) * complex(0, -0.5)
	wo := p.rtw[k] * o
	dst[k] = e + wo
	dst[k+h] = e - wo
}
