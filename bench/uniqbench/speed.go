package main

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// The shared 2-vCPU hosts this benchmark runs on change compute speed from
// one tenth of a second to the next: a vCPU alternates between a fast state
// and one about twice as slow (a busy hyperthread sibling on the machine
// underneath), and the share of time spent slow drifts by tens of percent
// over minutes. Every CPU-bound number moves with it, whatever the code
// does. A run therefore measures the host's speed alongside the workload —
// a fixed burst of math.Sin, code no change to this repository can touch,
// run on every CPU by a thread pinned there and timed by that thread's CPU
// clock — and reports CPU-driven times at the reference speed at which one
// burst takes refBurstNominal of CPU.

// refBurstNominal is the burst's mean CPU time on the reference host.
const refBurstNominal = 280 * time.Microsecond

// probeInterval is each probe thread's period: dense enough to sample every
// fast or slow episode several times (they last about 100 ms), sparse
// enough to take 1–2% of a CPU.
const probeInterval = 20 * time.Millisecond

// burstSink keeps the burst's result alive; every probe thread stores it.
var burstSink atomic.Uint64

// refBurst is the fixed unit of reference work.
func refBurst() {
	s := 0.0
	for i := 0; i < 20000; i++ {
		s += math.Sin(float64(i))
	}
	burstSink.Store(math.Float64bits(s))
}

// threadCPU returns the calling thread's CPU clock (CLOCK_THREAD_CPUTIME_ID,
// nanosecond run time; getrusage's thread times advance in clock ticks).
func threadCPU() time.Duration {
	var ts syscall.Timespec
	const clockThreadCPUTimeID = 3
	if _, _, e := syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// cpuMask is a sched_{get,set}affinity CPU set.
type cpuMask [16]uint64

// allowedCPUs lists the CPUs this process may run on.
func allowedCPUs() ([]int, error) {
	var m cpuMask
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); e != 0 {
		return nil, fmt.Errorf("sched_getaffinity: %w", e)
	}
	var cpus []int
	for w, word := range m {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			cpus = append(cpus, w*64+b)
			word &^= 1 << b
		}
	}
	return cpus, nil
}

// pinThread binds the calling OS thread to one CPU.
func pinThread(cpu int) error {
	var m cpuMask
	m[cpu/64] = 1 << (cpu % 64)
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); e != 0 {
		return fmt.Errorf("pin to CPU %d: %w", cpu, e)
	}
	return nil
}

// speedProbe samples the reference burst on every CPU until stopped. Thread
// CPU time excludes waiting for a core, so a busy host does not read as a
// slow one.
type speedProbe struct {
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
	mu       sync.Mutex
	samples  []speedSample
}

// speedSample is one burst: when it ended and the CPU time it took.
type speedSample struct {
	at  time.Time
	cpu time.Duration
}

func startSpeedProbe() (*speedProbe, error) {
	cpus, err := allowedCPUs()
	if err != nil {
		return nil, err
	}
	p := &speedProbe{stop: make(chan struct{})}
	pinned := make(chan error, len(cpus)) // one send per thread
	for i, cpu := range cpus {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			// The thread stays locked: when this goroutine returns, the
			// runtime ends the pinned thread instead of reusing it.
			runtime.LockOSThread()
			err := pinThread(cpu)
			pinned <- err
			if err != nil {
				return
			}
			// Threads take turns, so at most one holds a generator P.
			offset := probeInterval * time.Duration(i) / time.Duration(len(cpus))
			next := time.Now().Add(offset)
			for {
				next = next.Add(probeInterval)
				select {
				case <-p.stop:
					return
				case <-time.After(time.Until(next)):
				}
				start := threadCPU()
				refBurst()
				s := speedSample{at: time.Now(), cpu: threadCPU() - start}
				p.mu.Lock()
				p.samples = append(p.samples, s)
				p.mu.Unlock()
			}
		}()
	}
	for range cpus {
		if err := <-pinned; err != nil {
			p.finish()
			return nil, err
		}
	}
	return p, nil
}

// finish stops the probe and waits for its threads. It may be called more
// than once.
func (p *speedProbe) finish() {
	p.stopOnce.Do(func() { close(p.stop) })
	p.wg.Wait()
}

// bursts returns the CPU time of each burst that ended in a period.
func (p *speedProbe) bursts(w window) []float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var in []float64
	for _, s := range p.samples {
		if w.contains(s.at) {
			in = append(in, float64(s.cpu))
		}
	}
	return in
}

// slowness returns the host's slowness over a period: the mean burst CPU
// time in it over refBurstNominal (2 means half the reference speed). The
// mean, not the median, because a period's CPU-bound work takes the mean
// of the fast and slow episodes it runs through. It is 1 when no burst
// fell in the period.
func (p *speedProbe) slowness(w window) float64 {
	in := p.bursts(w)
	if len(in) == 0 {
		return 1
	}
	return mean(in) / float64(refBurstNominal)
}

// cpu returns the CPU time the probe's bursts took in a period, which this
// process's CPU time includes.
func (p *speedProbe) cpu(w window) time.Duration {
	total := 0.0
	for _, b := range p.bursts(w) {
		total += b
	}
	return time.Duration(total)
}

// atRefSpeed scales the CPU-driven part of a time to the reference speed;
// fixed is the part set by a clock (a stream hop's wait for the next
// frame), which host speed does not change.
func atRefSpeed(v, fixed, slowness float64) float64 {
	return fixed + (v-fixed)/slowness
}
