package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/geom"
	"repro/internal/hrtf"
	"repro/internal/room"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/stream"
)

const (
	// tickSamples is one 10 ms frame: the generator sends one per source
	// per tick, on the audio clock.
	tickSamples = 480
	tick        = 10 * time.Millisecond
	// lateHop marks an audible glitch: a hop arriving later than this
	// counts as a failed op.
	lateHop = 250 * time.Millisecond
)

// serverConvolver mirrors the pending bound the service's stream handlers
// give their engines; replays must match it to be bit-identical.
var serverConvolver = stream.ConvolverOptions{MaxPending: 1 << 15}

// renderPlan is one render session's input. Every frame is a pure function
// of the tick, so a replay regenerates the session without storing it.
type renderPlan struct {
	user   string
	table  *hrtf.Table        // the user's stored profile
	scene  *service.SceneDesc // nil for a single-source session
	source float64            // single-source bearing, degrees
	key    uint64             // noise stream key
}

// sceneLayout places the scene's sources around the listener of the default
// room ({bearing°, metres}). Every source stays inside the room all along
// its ±30° orbit, so each keeps its full set of twelve order-2 images and
// every seed renders the same arrival count. Two sources keep one session
// at about half a core of the 2-vCPU reference host; four took 80–95% of
// a core, so the host's slower minutes pushed the session into queueing.
var sceneLayout = [][2]float64{{0, 1.2}, {300, 2}}

// newScenePlan lays out the scene's sources in the default order-2 room.
func newScenePlan(user string, table *hrtf.Table, key uint64) *renderPlan {
	rc := room.DefaultConfig()
	desc := &service.SceneDesc{Room: &service.SceneRoom{
		Width: rc.Width, Depth: rc.Depth,
		OriginX: rc.Origin.X, OriginY: rc.Origin.Y,
		Absorption: rc.Absorption, MaxOrder: rc.MaxOrder,
	}}
	for _, s := range sceneLayout {
		desc.Sources = append(desc.Sources, service.SceneSourceDesc{BearingDeg: s[0], Distance: s[1], Gain: 1})
	}
	return &renderPlan{user: user, table: table, scene: desc, key: key}
}

// newSinglePlan places one source at a fixed world bearing; the head yaw
// sweeps under it.
func newSinglePlan(user string, table *hrtf.Table, key uint64) *renderPlan {
	return &renderPlan{user: user, table: table, source: 60, key: key}
}

func (p *renderPlan) sources() int {
	if p.scene == nil {
		return 1
	}
	return len(p.scene.Sources)
}

// frame fills dst with source src's samples for tick k.
func (p *renderPlan) frame(dst []float64, src, k int) []float64 {
	if cap(dst) < tickSamples {
		dst = make([]float64, tickSamples)
	}
	dst = dst[:tickSamples]
	key := p.key + uint64(src)*0x632BE59BD9B4E019
	for i := range dst {
		dst[i] = noise(key, k*tickSamples+i)
	}
	return dst
}

// control returns the update sent before tick k's audio, if any: in a scene
// one source's bearing every 100 ms (sources take turns, each orbiting
// ±30° over 8 s); in a single-source session the head yaw at 50 Hz
// (±45° over 4 s).
func (p *renderPlan) control(k int) (src int, deg float64, ok bool) {
	sec := float64(k) * tick.Seconds()
	if p.scene != nil {
		if k%10 != 0 {
			return 0, 0, false
		}
		src = (k / 10) % len(p.scene.Sources)
		return src, p.scene.Sources[src].BearingDeg + 30*math.Sin(2*math.Pi*sec/8), true
	}
	if k%2 != 0 {
		return 0, 0, false
	}
	return 0, 45 * math.Sin(2*math.Pi*sec/4), true
}

// open starts the live session and returns its per-tick sender.
func (p *renderPlan) open(ctx context.Context, c *service.Client) (func(k int) error, renderStream, error) {
	var buf []float64
	if p.scene != nil {
		ss, err := c.StreamRenderScene(ctx, p.user, *p.scene)
		if err != nil {
			return nil, nil, fmt.Errorf("open scene session for %s: %w", p.user, err)
		}
		return func(k int) error {
			if src, deg, ok := p.control(k); ok {
				if err := ss.SendBearing(src, deg); err != nil {
					return err
				}
			}
			for src := 0; src < p.sources(); src++ {
				buf = p.frame(buf, src, k)
				if err := ss.SendSourceAudio(src, buf); err != nil {
					return err
				}
			}
			return nil
		}, ss, nil
	}
	rs, err := c.StreamRender(ctx, p.user, p.source)
	if err != nil {
		return nil, nil, fmt.Errorf("open render session for %s: %w", p.user, err)
	}
	return func(k int) error {
		if _, yaw, ok := p.control(k); ok {
			if err := rs.SendPose(yaw); err != nil {
				return err
			}
		}
		buf = p.frame(buf, 0, k)
		return rs.SendAudio(buf)
	}, rs, nil
}

// renderStream is the client side shared by scene and single-source
// sessions.
type renderStream interface {
	Recv() (left, right []float64, err error)
	CloseSend() error
	Close() error
}

// renderEngine is the in-process twin of a server-side render session.
type renderEngine struct {
	kind string // span prefix: "scene" or "session"
	push func(src int, x []float64)
	ctrl func(src int, deg float64)
	read func(l, r []float64) int
	// hop is the engine's block advance in samples.
	hop int
}

// engine builds the twin with the options the service handler gives the
// live session.
func (p *renderPlan) engine() (*renderEngine, error) {
	if p.scene != nil {
		opt := stream.SceneOptions{Convolver: serverConvolver}
		if r := p.scene.Room; r != nil {
			opt.Room = room.Config{
				Width: r.Width, Depth: r.Depth,
				Origin:     geom.Vec{X: r.OriginX, Y: r.OriginY},
				Absorption: r.Absorption, MaxOrder: r.MaxOrder,
			}
		}
		for _, s := range p.scene.Sources {
			opt.Sources = append(opt.Sources, stream.SceneSource{BearingDeg: s.BearingDeg, Distance: s.Distance, Gain: s.Gain})
		}
		sc, err := stream.NewScene(p.table, opt)
		if err != nil {
			return nil, err
		}
		return &renderEngine{
			kind: "scene",
			// Source indices come from the plan and are always in range.
			push: func(src int, x []float64) { _, _ = sc.PushFrame(src, x) },
			ctrl: func(src int, deg float64) { _ = sc.SetBearing(src, deg) },
			read: sc.ReadFrame,
			hop:  sc.BlockSize() / 2,
		}, nil
	}
	sess, err := stream.NewSession(p.table, stream.SessionOptions{
		SourceDeg: p.source, HasSource: true, Convolver: serverConvolver,
	})
	if err != nil {
		return nil, err
	}
	return &renderEngine{
		kind: "session",
		push: func(_ int, x []float64) { sess.PushFrame(x) },
		ctrl: func(_ int, yaw float64) { sess.SetPose(yaw) },
		read: sess.ReadFrame,
		hop:  sess.BlockSize() / 2,
	}, nil
}

// replay reproduces hops [0, to) in-process: it renders from tick 0 until
// hop to−1's output is complete (a sample leaves the engine once the input
// is one block hop past it) and returns the output rounded to float32 like
// the wire.
func (p *renderPlan) replay(to int, tr *tracer, trace uint64) (l, r []float32, err error) {
	e, err := p.engine()
	if err != nil {
		return nil, nil, err
	}
	outL := make([]float64, tickSamples*8)
	outR := make([]float64, tickSamples*8)
	var buf []float64
	last := to + (e.hop+tickSamples-1)/tickSamples
	for k := 0; k < last; k++ {
		if src, deg, ok := p.control(k); ok {
			e.ctrl(src, deg)
		}
		for src := 0; src < p.sources(); src++ {
			buf = p.frame(buf, src, k)
			start := time.Now()
			e.push(src, buf)
			tr.span(e.kind+".PushFrame", trace, trace, start, time.Now())
		}
		start := time.Now()
		n := e.read(outL, outR)
		tr.span(e.kind+".ReadFrame", trace, trace, start, time.Now())
		for i := 0; i < n; i++ {
			l = append(l, float32(outL[i]))
			r = append(r, float32(outR[i]))
		}
	}
	return l, r, nil
}

// liveRender is one render session's client-side record.
type liveRender struct {
	plan       *renderPlan
	recvAt     []time.Time // per hop: arrival of its last output sample
	outL, outR []float32
	done       int // hops fully received
}

// receive reads mixed output until the server ends the stream, stamping
// each hop with the arrival time of its last sample.
func (lr *liveRender) receive(s renderStream) error {
	for {
		l, r, err := s.Recv()
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		now := time.Now()
		for i := range l {
			lr.outL = append(lr.outL, float32(l[i]))
			lr.outR = append(lr.outR, float32(r[i]))
		}
		for lr.done < len(lr.recvAt) && len(lr.outL) >= (lr.done+1)*tickSamples {
			lr.recvAt[lr.done] = now
			lr.done++
		}
	}
}

// hopOps returns the ops of the hops due inside the window: latency from
// the due time of the hop's last input sample (its tick) to the arrival of
// its last output sample. Hops never received, later than lateHop, or
// listed in bad (a failed output check) fail.
func hopOps(recvAt []time.Time, bad map[int]bool, t0 time.Time, win window) []op {
	var ops []op
	for h, at := range recvAt {
		due := t0.Add(time.Duration(h) * tick)
		if !win.contains(due) {
			continue
		}
		ops = append(ops, op{
			start:  due,
			end:    at,
			failed: at.IsZero() || at.Sub(due) > lateHop || bad[h],
		})
	}
	return ops
}

// checkHops replays hops [0, to) of a live session and reports the hops
// whose output differs by a single bit.
func (lr *liveRender) checkHops(to int, tr *tracer, trace uint64) (bad map[int]bool, err error) {
	l, r, err := lr.plan.replay(to, tr, trace)
	if err != nil {
		return nil, err
	}
	bad = make(map[int]bool)
	for h := 0; h < to; h++ {
		for i := h * tickSamples; i < (h+1)*tickSamples; i++ {
			if i >= len(lr.outL) || i >= len(l) ||
				math.Float32bits(lr.outL[i]) != math.Float32bits(l[i]) ||
				math.Float32bits(lr.outR[i]) != math.Float32bits(r[i]) {
				bad[h] = true
				break
			}
		}
	}
	return bad, nil
}

// runRender drives one live render session: ticks frames on the audio clock
// from t0, then the tail until the server closes the stream.
func runRender(ctx context.Context, lr *liveRender, send func(int) error, s renderStream,
	t0 time.Time, ticks int, lag *lagClock) error {
	defer s.Close()
	recvErr := make(chan error, 1)
	go func() { recvErr <- lr.receive(s) }()
	sendErr := runTicks(ctx, t0, ticks, lag, send)
	if err := s.CloseSend(); err != nil && sendErr == nil {
		sendErr = err
	}
	if sendErr != nil {
		s.Close() // unblocks the receiver
		<-recvErr
		return sendErr
	}
	return <-recvErr
}

// runTicks calls send(k) at t0 + k·tick for every k in [0, ticks), recording
// how late each send was against its schedule.
func runTicks(ctx context.Context, t0 time.Time, ticks int, lag *lagClock, send func(int) error) error {
	for k := 0; k < ticks; k++ {
		due := t0.Add(time.Duration(k) * tick)
		if d := time.Until(due); d > 0 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(d):
			}
		}
		lag.sent(due, time.Now())
		if err := send(k); err != nil {
			return fmt.Errorf("send tick %d: %w", k, err)
		}
	}
	return nil
}

// aoaPlan is one AoA tracking session's input: noise rendered through the
// volunteer's ground-truth far field at a bearing sweeping 30°→150°→30°.
type aoaPlan struct {
	user        string
	table       *hrtf.Table // the user's stored profile, which the tracker matches against
	left, right []float64   // float32-rounded stereo input
}

// aoaBearing is the true source bearing at stream time sec: a triangle
// sweep between 30° and 150° with a 20 s period.
func aoaBearing(sec float64) float64 {
	x := math.Mod(sec/20, 1)
	return 30 + 120*(1-math.Abs(2*x-1))
}

// newAoAPlan renders ticks frames of input for pop.users[i].
func newAoAPlan(pop *population, i int, key uint64, ticks int) (*aoaPlan, error) {
	gnd, err := sim.MeasureGroundTruthFar(pop.vols[pop.volunteerOf(i)], sampleRate, 1)
	if err != nil {
		return nil, err
	}
	sess, err := stream.NewSession(gnd, stream.SessionOptions{SourceDeg: aoaBearing(0), HasSource: true})
	if err != nil {
		return nil, err
	}
	n := ticks * tickSamples
	p := &aoaPlan{user: pop.users[i], table: pop.table(i)}
	mono := make([]float64, tickSamples)
	outL := make([]float64, 4096)
	outR := make([]float64, 4096)
	drain := func() {
		for {
			k := sess.ReadFrame(outL, outR)
			if k == 0 {
				return
			}
			p.left = append(p.left, outL[:k]...)
			p.right = append(p.right, outR[:k]...)
		}
	}
	for k := 0; k < ticks; k++ {
		sess.SetSource(aoaBearing(float64(k) * tick.Seconds()))
		for j := range mono {
			mono[j] = noise(key, k*tickSamples+j)
		}
		sess.PushFrame(mono)
		drain()
	}
	sess.Flush()
	drain()
	p.left, p.right = p.left[:n], p.right[:n]
	for j := range p.left {
		p.left[j] = float64(float32(p.left[j]))
		p.right[j] = float64(float32(p.right[j]))
	}
	return p, nil
}

// aoaEvent is one received angle event.
type aoaEvent struct {
	ev stream.AngleEvent
	at time.Time
}

// runAoA drives one live AoA session: stereo frames on the audio clock,
// events read until the server closes the stream.
func runAoA(ctx context.Context, p *aoaPlan, t0 time.Time, ticks int,
	lag *lagClock, s *service.AoAStream) ([]aoaEvent, error) {
	defer s.Close()
	var events []aoaEvent
	recvErr := make(chan error, 1)
	go func() {
		for {
			ev, err := s.Recv()
			if errors.Is(err, io.EOF) {
				recvErr <- nil
				return
			}
			if err != nil {
				recvErr <- err
				return
			}
			events = append(events, aoaEvent{ev: ev, at: time.Now()})
		}
	}()
	sendErr := runTicks(ctx, t0, ticks, lag, func(k int) error {
		lo, hi := k*tickSamples, (k+1)*tickSamples
		return s.SendStereo(p.left[lo:hi], p.right[lo:hi])
	})
	if err := s.CloseSend(); err != nil && sendErr == nil {
		sendErr = err
	}
	if sendErr != nil {
		s.Close()
		<-recvErr
		return nil, sendErr
	}
	return events, <-recvErr
}

// replayAoA runs the tracker in-process over the same input, one tick per
// push, and returns its events and the number of estimation windows.
func (p *aoaPlan) replayAoA(ticks int, tr *tracer, trace uint64) ([]stream.AngleEvent, uint64, int, error) {
	t, err := stream.NewAoATracker(p.table, stream.TrackerOptions{})
	if err != nil {
		return nil, 0, 0, err
	}
	var out []stream.AngleEvent
	for k := 0; k < ticks; k++ {
		lo, hi := k*tickSamples, (k+1)*tickSamples
		start := time.Now()
		evs := t.Push(p.left[lo:hi], p.right[lo:hi])
		tr.span("aoa.Push", trace, trace, start, time.Now())
		out = append(out, evs...)
	}
	return out, t.Windows(), t.Window(), nil
}

// eventDue maps an event to the due time of its window's last input sample:
// TimeSec is the stream time of the window end, so the last sample is
// TimeSec·rate − 1, carried by tick (TimeSec·rate − 1) / tickSamples.
func eventDue(ev stream.AngleEvent, t0 time.Time) time.Time {
	last := int(math.Round(ev.TimeSec*sampleRate)) - 1
	return t0.Add(time.Duration(last/tickSamples) * tick)
}

// aoaResult scores a live AoA session against its replay.
type aoaResult struct {
	ops    []op      // window events; failed when missing, late or unequal to the replay
	errDeg []float64 // |committed angle − true bearing| per window event
}

func scoreAoA(events []aoaEvent, want []stream.AngleEvent, window int, t0 time.Time, win window) aoaResult {
	var res aoaResult
	for i, w := range want {
		due := eventDue(w, t0)
		if !win.contains(due) {
			continue
		}
		if i >= len(events) {
			res.ops = append(res.ops, op{start: due, end: due, failed: true})
			continue
		}
		got := events[i]
		o := op{start: due, end: got.at}
		o.failed = got.ev != w || got.at.Sub(due) > lateHop
		res.ops = append(res.ops, o)
		center := (w.TimeSec*sampleRate - float64(window)/2) / sampleRate
		res.errDeg = append(res.errDeg, math.Abs(got.ev.AngleDeg-aoaBearing(center)))
	}
	return res
}
