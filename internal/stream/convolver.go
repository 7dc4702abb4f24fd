package stream

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/dsp"
	"repro/internal/hrtf"
)

// ConvolverOptions tunes a streaming convolver.
type ConvolverOptions struct {
	// BlockSize is the crossfade granularity in samples (default 20 ms
	// worth, minimum 16, rounded up to even). Each block uses the HRIR of
	// the angle current when the block is formed; adjacent 50%-overlapped
	// blocks crossfade under a Bartlett window, so angle and profile
	// switches are click-free.
	BlockSize int
	// MaxPending bounds the input samples buffered ahead of processing
	// (default 8 blocks). The effective bound is MaxPending + BlockSize:
	// the FIFO also holds up to one block of overlap history for the
	// 50%-overlapped windows, so a fresh convolver accepts exactly
	// MaxPending + BlockSize samples before its first drop (pinned by
	// TestConvolverPendingBound). Pushes beyond the bound are dropped and
	// counted as overruns. Output buffering is bounded by the same amount:
	// when the reader lags further behind, processing stalls and input
	// backs up into the pending bound.
	MaxPending int
	// DelayHeadroom is the largest Arrival.DelaySamples SetArrivals will
	// accept (default 0: direct arrivals only). It sizes the delay line
	// and the output accumulators and extends the stream tail, so scenes
	// pass the worst-case image-source delay for their room here.
	DelayHeadroom int
}

// Arrival is one propagation path from a source to the listener: the HRTF
// angle it arrives from (already folded into the table span, [0,180] for
// the standard left-hemisphere table), an amplitude gain, a whole-sample
// delay, and whether the ears swap (a right-hemisphere arrival rendered
// through its left-hemisphere mirror). A free-field source is the single
// arrival {AngleDeg: a, Gain: 1}; a source in a room adds one delayed,
// attenuated arrival per room.Config image.
type Arrival struct {
	AngleDeg     float64
	Gain         float64
	DelaySamples int
	SwapEars     bool
}

// FoldIntoSpan folds an arbitrary world/relative angle into the table's
// tabulated span and reports whether the fold crossed hemispheres (the
// caller renders such an arrival with SwapEars). The standard table covers
// the left hemisphere [0, 180]; angles beyond map to their mirror 360-a.
func FoldIntoSpan(angleDeg float64, t *hrtf.Table) (deg float64, swapEars bool) {
	a := math.Mod(angleDeg, 360)
	if a < 0 {
		a += 360
	}
	if a > 180 {
		a = 360 - a
		swapEars = true
	}
	if a < t.MinAngle {
		a = t.MinAngle
	}
	if a > t.MaxAngle() {
		a = t.MaxAngle()
	}
	return a, swapEars
}

// Convolver renders a mono stream into binaural audio one chunk at a time:
// block convolution of 50%-overlapped Bartlett-windowed blocks against
// per-angle far-field HRIR spectra, through a frequency-domain delay line.
//
// Output is organized in slots, one per block: slot m starts where block m
// does and is emitted by one inverse FFT per ear once block m has been
// transformed. An arrival delayed by D = q·hop + r samples (0 <= r < hop)
// renders block m into slot m+q, shifted by r inside the slot's transform
// by the linear-phase ramp e^{-2πi·f·r/N}. The arrival set is folded into
// one filter spectrum per (q, ear) — gain × HRTF spectrum × ramp, summed
// over the arrivals that share a q — so a block costs one forward FFT, one
// multiply-accumulate per filter and two inverse FFTs however many
// arrivals it carries. Impulse responses longer than one transform split
// into uniform partitions a whole number of hops long, each an extra
// delay of k·P on the same grouping.
//
// For the common short-IR case the spectra are the ones cached on the
// hrtf.Table itself (computed once per table, shared by every convolver and
// AoA query). The steady-state Push/Read hot path performs no allocations —
// buffers are preallocated and FFTs run through the dsp plan cache.
//
// A Convolver is single-goroutine; Scene adds locking, pose state and the
// source mix.
type Convolver struct {
	table   *hrtf.Table
	block   int // B: windowed block length
	hop     int // B/2: block advance
	irLen   int // longest far-field IR accommodated (fixed at construction)
	fftSize int // N: transform length, >= B + min(P, irLen) - 1 + largest remainder
	part    int // P: partition length (irLen when K == 1, else a multiple of hop)
	nParts  int // K: ceil(irLen / P)

	win  []float64
	plan *dsp.Plan
	// specL/specR[angle][k] is the N-point spectrum of the k-th partition
	// of that angle's far-field IR (nil for empty ears). With K == 1 the
	// inner slices alias the table's shared FarSpectra cache.
	specL, specR [][][]complex128

	// arrival state: the set of paths rendered per block, installed by
	// SetArrivals (a single arrival is stored in one, so the common
	// free-field case never allocates).
	arrivals []Arrival
	one      [1]Arrival
	maxDelay int // largest DelaySamples SetArrivals accepts

	// Delay line. taps holds the arrival set folded into filters, rebuilt
	// from arrivals when the next block forms after SetArrivals (stale).
	// slots is a ring of per-ear spectral accumulators, two per slot, and
	// head is the ring position of the slot the next block completes.
	taps     []tap
	stale    bool
	rebuilds uint64 // tap rebuilds (read by TestSetPoseBurstRebuildsOnce)
	slots    []slot
	head     int

	// stream positions, all in absolute sample indices.
	pos      int  // start of the next block to process (first is -hop)
	inEnd    int  // total input samples accepted
	emitted  int  // output samples handed to Read
	flushed  bool // end of input declared
	finalOut int  // total output length once flushed (inEnd + irLen)

	// pending input FIFO: samples [pendStart, pendStart+pendLen).
	pending   []float64
	pendStart int
	pendLen   int

	// time-domain output accumulators, origin at emitted; accValid counts
	// the entries that may be nonzero.
	accL, accR []float64
	accValid   int

	// per-block FFT scratch, shareable across co-resident convolvers.
	ws *workspace

	// Counters (read through Stats by Scene).
	blocks   uint64 // blocks processed
	overruns uint64 // input samples dropped at the pending bound
}

// tap is one delay-line filter: the sum over the arrivals (and IR
// partitions) whose delay falls in slot offset q, for one output ear.
type tap struct {
	q, ear int
	// ext is how many samples past the slot start its products reach:
	// the largest remainder r plus the partition's convolution span.
	ext int
	// spec is the filter spectrum: buf, or — for a lone unit-gain arrival
	// on a whole hop — the table's HRTF spectrum itself, so the free-field
	// render keeps the bits of a plain block convolution.
	spec []complex128
	buf  []complex128 // owned storage, kept across rebuilds
}

// slot is one ear's spectral accumulator for one output slot.
type slot struct {
	spec []complex128
	ext  int // samples its products reach past the slot start; 0 while empty
}

// workspace is the per-block FFT scratch a convolver renders through.
// Convolvers are single-goroutine, so convolvers driven strictly
// sequentially — a Scene's sources under the scene lock — share one
// workspace instead of each holding fftSize floats and complexes;
// standalone convolvers own theirs.
type workspace struct {
	padded []float64
	freqX  []complex128
}

// ensure grows the workspace to serve transforms of length fftSize.
func (w *workspace) ensure(fftSize int) {
	if len(w.padded) < fftSize {
		w.padded = make([]float64, fftSize)
		w.freqX = make([]complex128, fftSize)
	}
}

// ErrNoFarField is returned when a table carries no usable far-field data.
var ErrNoFarField = errors.New("stream: table has no far-field HRIRs")

// NewConvolver builds a streaming convolver over a table's far field.
func NewConvolver(t *hrtf.Table, opt ConvolverOptions) (*Convolver, error) {
	return newConvolver(t, opt, nil)
}

// newConvolver is NewConvolver with an optional shared FFT workspace
// (nil allocates a private one).
func newConvolver(t *hrtf.Table, opt ConvolverOptions, ws *workspace) (*Convolver, error) {
	if t == nil || t.NumAngles() == 0 {
		return nil, ErrNoFarField
	}
	irLen := t.MaxFarIRLen()
	if irLen == 0 {
		return nil, ErrNoFarField
	}
	sr := t.SampleRate
	block := opt.BlockSize
	if block <= 0 {
		block = int(0.02 * sr)
	}
	if block < 16 {
		block = 16
	}
	block += block % 2 // even, so hop = block/2 tiles exactly
	maxPending := opt.MaxPending
	if maxPending <= 0 {
		maxPending = 8 * block
	}
	if maxPending < block {
		maxPending = block
	}
	c := &Convolver{
		table:    t,
		block:    block,
		hop:      block / 2,
		irLen:    irLen,
		win:      bartlettWindow(block),
		maxDelay: max(opt.DelayHeadroom, 0),
		pos:      -block / 2,
	}
	deg, _ := FoldIntoSpan(90, t)
	c.one[0] = Arrival{AngleDeg: deg, Gain: 1}
	c.arrivals = c.one[:]
	c.stale = true
	// Transform length: at least double the block so a partition is never
	// shorter than the block itself, stretched further while the whole IR
	// still fits in one partition (the K == 1 fast path). A product shifted
	// by its sub-hop remainder r must not wrap: B + P - 1 + r <= N.
	rmax := min(c.hop-1, c.maxDelay)
	c.fftSize = dsp.NextPow2(2 * block)
	if n := dsp.NextPow2(block + irLen - 1 + rmax); n > c.fftSize && irLen <= 4*block {
		c.fftSize = n
	}
	c.part = irLen
	if block+irLen-1+rmax > c.fftSize {
		// Partitions start a whole number of hops apart, so partition k
		// keeps its arrival's remainder and lands k·P/hop slots later.
		c.part = (c.fftSize - block + 1 - rmax) / c.hop * c.hop
	}
	c.nParts = (irLen + c.part - 1) / c.part
	c.plan = dsp.PlanFFT(c.fftSize)
	if err := c.loadSpectra(t); err != nil {
		return nil, err
	}
	c.pending = make([]float64, 0, maxPending+block)
	accCap := maxPending + block + irLen + c.maxDelay
	c.accL = make([]float64, accCap)
	c.accR = make([]float64, accCap)
	// One ring position per slot offset a delay plus the last partition
	// can reach.
	nSlots := (c.maxDelay+(c.nParts-1)*c.part)/c.hop + 1
	ring := make([]complex128, 2*nSlots*c.fftSize)
	c.slots = make([]slot, 2*nSlots)
	for i := range c.slots {
		c.slots[i].spec = ring[i*c.fftSize : (i+1)*c.fftSize]
	}
	if ws == nil {
		ws = &workspace{}
	}
	ws.ensure(c.fftSize)
	c.ws = ws
	return c, nil
}

// loadSpectra builds the per-angle partition spectra for a table.
func (c *Convolver) loadSpectra(t *hrtf.Table) error {
	n := t.NumAngles()
	specL := make([][][]complex128, n)
	specR := make([][][]complex128, n)
	if c.nParts == 1 {
		// Short IRs: one partition per angle — exactly the table's shared
		// spectra cache, computed once per table across all convolvers.
		s, err := t.FarSpectra(c.fftSize)
		if err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			if s.Left[i] != nil {
				specL[i] = [][]complex128{s.Left[i]}
			}
			if s.Right[i] != nil {
				specR[i] = [][]complex128{s.Right[i]}
			}
		}
	} else {
		// Long IRs: uniform partitions of length c.part, spectra built
		// here (partitioning is convolver-geometry specific, so these do
		// not live on the table cache).
		plan := c.plan
		padded := make([]float64, c.fftSize)
		split := func(ir []float64) [][]complex128 {
			if len(ir) == 0 {
				return nil
			}
			parts := make([][]complex128, 0, c.nParts)
			for off := 0; off < len(ir); off += c.part {
				chunk := ir[off:min(off+c.part, len(ir))]
				copy(padded, chunk)
				for i := len(chunk); i < c.fftSize; i++ {
					padded[i] = 0
				}
				spec := make([]complex128, c.fftSize)
				plan.ForwardReal(spec, padded)
				parts = append(parts, spec)
			}
			return parts
		}
		for i := 0; i < n; i++ {
			specL[i] = split(t.Far[i].Left)
			specR[i] = split(t.Far[i].Right)
		}
	}
	c.specL, c.specR = specL, specR
	return nil
}

// SetArrivals installs the set of propagation paths rendered for blocks
// formed from now on (copied; the caller keeps arr); a new convolver
// renders one unit-gain arrival from 90°. Angles must already be folded
// into the table span (FoldIntoSpan). Delays are whole samples in
// [0, DelayHeadroom]; an arrival outside that range is an error and
// leaves the previous set in place. The delay-line filters are rebuilt
// when the next block forms, so any number of calls between two blocks
// costs one rebuild.
func (c *Convolver) SetArrivals(arr []Arrival) error {
	if len(arr) == 0 {
		return errors.New("stream: empty arrival set")
	}
	for _, a := range arr {
		if a.DelaySamples < 0 || a.DelaySamples > c.maxDelay {
			return fmt.Errorf("stream: arrival delay %d outside [0, %d] headroom", a.DelaySamples, c.maxDelay)
		}
	}
	c.stale = true
	if len(arr) == 1 {
		c.one[0] = arr[0]
		c.arrivals = c.one[:]
		return nil
	}
	// Multi-arrival sets reuse the previous heap slice when it fits
	// (c.one has cap 1, so it can never be aliased here).
	if cap(c.arrivals) < len(arr) {
		c.arrivals = make([]Arrival, len(arr))
	}
	c.arrivals = c.arrivals[:len(arr)]
	copy(c.arrivals, arr)
	return nil
}

// BlockSize returns the crossfade block length in samples.
func (c *Convolver) BlockSize() int { return c.block }

// TailLen returns the convolution tail appended after the input ends:
// the IR length plus the configured delay headroom.
func (c *Convolver) TailLen() int { return c.irLen + c.maxDelay }

// Drained reports whether the input was flushed and every output sample
// (including the tail) has been read.
func (c *Convolver) Drained() bool { return c.flushed && c.emitted >= c.finalOut }

// Overruns returns the cumulative count of input samples dropped because
// the pending bound was full.
func (c *Convolver) Overruns() uint64 { return c.overruns }

// Blocks returns the number of blocks processed so far.
func (c *Convolver) Blocks() uint64 { return c.blocks }

// Push appends mono input samples and processes every block that is both
// complete and has output room. It returns how many samples were accepted;
// the remainder (dropped at the pending bound) is added to Overruns.
func (c *Convolver) Push(in []float64) int {
	if c.flushed {
		c.overruns += uint64(len(in))
		return 0
	}
	room := cap(c.pending) - c.pendLen
	n := min(room, len(in))
	c.pending = c.pending[:c.pendLen+n]
	copy(c.pending[c.pendLen:], in[:n])
	c.pendLen += n
	c.inEnd += n
	if dropped := len(in) - n; dropped > 0 {
		c.overruns += uint64(dropped)
	}
	c.process()
	return n
}

// Flush declares the end of input: the remaining blocks (zero-padded past
// the final sample) are processed as output room allows and the stream's
// total output length becomes input length + tail.
func (c *Convolver) Flush() {
	if c.flushed {
		return
	}
	c.flushed = true
	c.finalOut = c.inEnd + c.irLen + c.maxDelay
	if c.inEnd == 0 {
		c.finalOut = 0
	}
	c.process()
}

// Available returns how many output samples Read can currently deliver.
func (c *Convolver) Available() int {
	ready := c.pos
	if c.flushed && c.pos >= c.inEnd {
		ready = c.finalOut
	}
	if ready < c.emitted {
		return 0
	}
	return ready - c.emitted
}

// Read moves up to min(len(l), len(r)) ready output samples into l and r,
// returning how many were written. Reading frees output room, which lets
// stalled blocks process; Read therefore also advances the engine.
func (c *Convolver) Read(l, r []float64) int {
	want := min(len(l), len(r))
	n := min(want, c.Available())
	if n > 0 {
		// With delay headroom the flushed tail can extend past the last
		// sample any arrival touched; those accumulator entries are
		// guaranteed zero, so fold them under accValid before shifting.
		if c.accValid < n {
			c.accValid = n
		}
		copy(l[:n], c.accL[:n])
		copy(r[:n], c.accR[:n])
		copy(c.accL, c.accL[n:c.accValid])
		copy(c.accR, c.accR[n:c.accValid])
		for i := c.accValid - n; i < c.accValid; i++ {
			c.accL[i] = 0
			c.accR[i] = 0
		}
		c.accValid -= n
		c.emitted += n
	}
	c.process()
	return n
}

// process runs every block that is complete (or tail-padded after Flush)
// and fits in the output accumulator.
func (c *Convolver) process() {
	for {
		ready := c.pos+c.block <= c.inEnd || (c.flushed && c.pos < c.inEnd)
		if !ready {
			return
		}
		// Output room for this block's whole contribution span
		// (including the most-delayed arrival it could carry).
		if c.pos+c.block+c.irLen+c.maxDelay-1-c.emitted > len(c.accL) {
			return
		}
		c.processBlock()
		c.pos += c.hop
		if c.flushed && c.pos >= c.inEnd {
			// That was the last block: every slot still holding products
			// is final.
			for q := 0; q < len(c.slots)/2-1; q++ {
				c.emitSlot(c.pos + q*c.hop - c.emitted)
			}
		}
		// Input before the next block start is never needed again.
		if drop := c.pos - c.pendStart; drop > 0 {
			drop = min(drop, c.pendLen)
			copy(c.pending, c.pending[drop:c.pendLen])
			c.pendStart += drop
			c.pendLen -= drop
			c.pending = c.pending[:c.pendLen]
		}
	}
}

// processBlock windows the block at c.pos, transforms it once,
// multiply-accumulates that spectrum through every tap into its slot, and
// emits the block's own slot, which no later block can reach.
func (c *Convolver) processBlock() {
	c.blocks++
	n := c.fftSize
	padded := c.ws.padded[:n]
	// Window the block; samples outside [pendStart, pendStart+pendLen)
	// (before the stream start or past its end) are zero.
	for i := 0; i < c.block; i++ {
		j := c.pos + i
		v := 0.0
		if j >= c.pendStart && j < c.pendStart+c.pendLen {
			v = c.pending[j-c.pendStart] * c.win[i]
		}
		padded[i] = v
	}
	for i := c.block; i < n; i++ {
		padded[i] = 0
	}
	x := c.ws.freqX[:n]
	c.plan.ForwardReal(x, padded)

	if c.stale {
		c.buildTaps()
	}
	nSlots := len(c.slots) / 2
	for i := range c.taps {
		t := &c.taps[i]
		p := c.head + t.q
		if p >= nSlots {
			p -= nSlots
		}
		s := &c.slots[2*p+t.ear]
		h, acc := t.spec[:n], s.spec[:n]
		if s.ext == 0 {
			// A slot's first product is stored, not added to zeros.
			for f := range acc {
				acc[f] = x[f] * h[f]
			}
		} else {
			for f := range acc {
				acc[f] += x[f] * h[f]
			}
		}
		s.ext = max(s.ext, t.ext)
	}
	c.emitSlot(c.pos - c.emitted)
}

// emitSlot inverse-transforms the slot at the ring head, overlap-adds each
// ear into the output accumulators at offset off (relative to emitted),
// empties it and advances the head.
func (c *Convolver) emitSlot(off int) {
	for ear, acc := range [2][]float64{c.accL, c.accR} {
		s := &c.slots[2*c.head+ear]
		if s.ext == 0 {
			continue
		}
		c.plan.Inverse(s.spec)
		lo, hi := max(0, -off), min(s.ext, len(acc)-off)
		for i := lo; i < hi; i++ {
			acc[off+i] += real(s.spec[i])
		}
		c.accValid = max(c.accValid, off+s.ext)
		s.ext = 0
	}
	if c.head++; c.head == len(c.slots)/2 {
		c.head = 0
	}
}

// buildTaps folds the arrival set into the delay line's filters. An
// arrival's partition k sits at delay D = DelaySamples + k·P, so it feeds
// slot offset q = D / hop through its ear's spectrum scaled by the gain and
// shifted by the remainder r = D % hop; arrivals sharing (q, ear) sum into
// one tap. Ears swap for mirrored arrivals.
func (c *Convolver) buildTaps() {
	c.stale = false
	c.rebuilds++
	c.taps = c.taps[:0]
	for _, a := range c.arrivals {
		idx := c.angleIndex(a.AngleDeg)
		src := [2][][]complex128{c.specL[idx], c.specR[idx]}
		if a.SwapEars {
			src[0], src[1] = src[1], src[0]
		}
		for ear, parts := range src {
			for k, spec := range parts {
				if spec == nil {
					continue
				}
				d := a.DelaySamples + k*c.part
				r := d % c.hop
				span := c.block + min(c.part, c.irLen-k*c.part) - 1
				c.addTap(d/c.hop, ear, spec, a.Gain, r, r+span)
			}
		}
	}
}

// addTap adds gain × spec delayed by r samples into the (q, ear) tap.
func (c *Convolver) addTap(q, ear int, spec []complex128, gain float64, r, ext int) {
	var t *tap
	for i := range c.taps {
		if c.taps[i].q == q && c.taps[i].ear == ear {
			t = &c.taps[i]
			break
		}
	}
	if t == nil {
		// Reuse a previous rebuild's tap, and with it its buf.
		if len(c.taps) < cap(c.taps) {
			c.taps = c.taps[:len(c.taps)+1]
		} else {
			c.taps = append(c.taps, tap{})
		}
		t = &c.taps[len(c.taps)-1]
		t.q, t.ear, t.ext, t.spec = q, ear, ext, nil
		if gain == 1 && r == 0 {
			t.spec = spec
			return
		}
	}
	t.ext = max(t.ext, ext)
	if t.buf == nil {
		t.buf = make([]complex128, c.fftSize)
	}
	switch {
	case t.spec == nil:
		clear(t.buf)
	case &t.spec[0] != &t.buf[0]:
		copy(t.buf, t.spec) // un-alias a table spectrum
	}
	t.spec = t.buf
	// Bin f of a delay by r samples is e^{-2πi·f·r/N}: root (f·r mod N).
	n, j := c.fftSize, 0
	for f, h := range spec[:n] {
		w := c.plan.Root(j)
		t.buf[f] += complex(gain*real(w), gain*imag(w)) * h
		if j += r; j >= n {
			j -= n
		}
	}
}

// angleIndex maps a folded angle to the nearest table entry.
func (c *Convolver) angleIndex(angleDeg float64) int {
	t := c.table
	if t.AngleStep <= 0 {
		return 0
	}
	i := int(math.Round((angleDeg - t.MinAngle) / t.AngleStep))
	if i < 0 {
		i = 0
	}
	if i >= t.NumAngles() {
		i = t.NumAngles() - 1
	}
	return i
}

// bartlettWindow returns the triangular window whose 50%-overlapped copies
// sum to unity (identical to the batch renderer's crossfade window).
func bartlettWindow(n int) []float64 {
	w := make([]float64, n)
	half := float64(n) / 2
	for i := range w {
		x := float64(i)
		if x < half {
			w[i] = x / half
		} else {
			w[i] = 2 - x/half
		}
	}
	return w
}
