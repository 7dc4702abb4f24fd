package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"reflect"
	"strings"
	"time"

	"repro/internal/service"
	"repro/internal/sim"
)

// jobDeadline fails an enrollment whose job is not done in time.
const jobDeadline = 60 * time.Second

// call sends one request to the gateway over the load client and reads the
// whole reply into buf. Non-2xx replies are errors.
func (e *env) call(ctx context.Context, trace uint64, route, method, path string,
	body io.Reader, size int64, buf *bytes.Buffer) (http.Header, error) {
	req, err := http.NewRequestWithContext(ctx, method, e.cl.gw.url+path, body)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.ContentLength = size
		req.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	resp, err := e.load.Do(req)
	if err != nil {
		return nil, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	end := time.Now()
	e.tr.span("http."+route, trace, trace, start, end)
	if e.win.contains(start) {
		e.callTime += end.Sub(start)
	}
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		msg, _, _ := strings.Cut(buf.String(), "\n")
		return nil, fmt.Errorf("%s %s: status %d: %.200s", method, path, resp.StatusCode, msg)
	}
	return resp.Header, nil
}

// traceOps records one root span per stream op, after the session: the
// timestamps exist anyway, so the window pays nothing for them.
func (e *env) traceOps(name string, ops []op) {
	for _, o := range ops {
		if !o.failed {
			e.tr.span(name, 0, 0, o.start, o.end)
		}
	}
}

// closedLoop runs one client back to back from t0 until the window
// closes; the op in flight then runs to completion. issue performs one op
// and returns its send time. The lag is the gap between the client
// becoming free and its next send.
func (e *env) closedLoop(issue func() (sent time.Time)) []float64 {
	lag := lagClock{win: e.win}
	for free := e.t0; time.Now().Before(e.win.end); free = time.Now() {
		lag.sent(free, issue())
	}
	return lag.lags
}

// enrollOp is one enrollment: submit, poll until done, fetch the profile.
type enrollOp struct {
	user       string
	vol        sim.Volunteer
	sent, done time.Time
	body       []byte // the fetched profile
	err        error
}

// The enroll roster is the same on every run: solve cost differs by ±25%
// between volunteers and a window holds about six enrollments, so a roster
// drawn from each run's seed moved the window's median by up to 0.09 of
// it over ten runs. Six sessions, about what one window completes, so every
// window enrolls nearly the whole roster; the run's seed picks where the
// client starts in it.
const (
	enrollRoster     = 6
	enrollRosterSeed = 1
)

// runEnroll: one closed-loop client submits the next roster session under
// a fresh user, polls the job every 20 ms and fetches the profile. The op
// ends at the job's finish time (the same host clock as the send), so the
// poll interval does not quantize it.
func runEnroll(ctx context.Context, e *env) (*outcome, error) {
	sessions, err := simulateEnrollments(ctx, enrollRosterSeed, enrollRoster)
	if err != nil {
		return nil, err
	}
	first := rand.New(rand.NewSource(e.cfg.seed)).Intn(len(sessions))
	ref, err := newQualityRef()
	if err != nil {
		return nil, err
	}
	var ops []enrollOp
	e.startClock(ctx)
	lags := e.closedLoop(func() time.Time {
		i := len(ops)
		s := sessions[(first+i)%len(sessions)]
		o := enrollOp{user: fmt.Sprintf("e%05d", i), vol: s.vol, sent: time.Now()}
		o.done, o.body, o.err = e.enrollOne(ctx, o.user, s.body, o.sent)
		ops = append(ops, o)
		return o.sent
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Check every profile made in the window against its volunteer's
	// ground truth, off the clock.
	var inWin []enrollOp
	for _, o := range ops {
		if e.win.contains(o.sent) {
			inWin = append(inWin, o)
		}
	}
	profiles := make([]*service.StoredProfile, len(inWin))
	corr := make([]float64, len(inWin))
	_ = parallel(len(inWin), func(i int) error {
		o := &inWin[i]
		if o.err == nil {
			profiles[i], corr[i], o.err = checkEnrolled(ref, *o)
		}
		return nil
	})
	oc := &outcome{lags: lags, enrollInput: &sessions[0]}
	for _, o := range ops {
		if o.err == nil {
			oc.cpuOps += e.win.overlap(o.sent, o.done)
		}
	}
	for i, o := range inWin {
		if o.err != nil {
			e.logf("enroll %s: %v", o.user, o.err)
			oc.ops = append(oc.ops, op{start: o.sent, end: o.sent, failed: true})
			continue
		}
		oc.ops = append(oc.ops, op{start: o.sent, end: o.done})
		oc.corr = append(oc.corr, corr[i])
		oc.enrolled = append(oc.enrolled, profiles[i])
	}
	return oc, nil
}

// enrollOne submits one session for user and waits for its profile. It
// returns the job's finish time and the profile body.
func (e *env) enrollOne(ctx context.Context, user string, input []byte, sent time.Time) (time.Time, []byte, error) {
	root := e.tr.newID()
	var buf bytes.Buffer
	prefix := `{"user":"` + user + `","input":`
	body := io.MultiReader(strings.NewReader(prefix), bytes.NewReader(input), strings.NewReader("}"))
	size := int64(len(prefix) + len(input) + 1)
	if _, err := e.call(ctx, root, "POST /v1/sessions", http.MethodPost, "/v1/sessions", body, size, &buf); err != nil {
		return time.Time{}, nil, err
	}
	var ack service.SubmitResponse
	if err := json.Unmarshal(buf.Bytes(), &ack); err != nil {
		return time.Time{}, nil, fmt.Errorf("submit reply: %w", err)
	}
	var st service.JobStatus
	for {
		if _, err := e.call(ctx, root, "GET /v1/jobs/{id}", http.MethodGet, "/v1/jobs/"+ack.JobID, nil, 0, &buf); err != nil {
			return time.Time{}, nil, err
		}
		st = service.JobStatus{}
		if err := json.Unmarshal(buf.Bytes(), &st); err != nil {
			return time.Time{}, nil, fmt.Errorf("job reply: %w", err)
		}
		if st.State.Terminal() {
			break
		}
		if time.Since(sent) > jobDeadline {
			return time.Time{}, nil, fmt.Errorf("job %s not done within %v", ack.JobID, jobDeadline)
		}
		select {
		case <-ctx.Done():
			return time.Time{}, nil, ctx.Err()
		case <-time.After(20 * time.Millisecond):
		}
	}
	if st.State != service.JobDone {
		return time.Time{}, nil, fmt.Errorf("job %s %s: %s", ack.JobID, st.State, st.Error)
	}
	started, done := time.UnixMilli(st.StartedUnixMS), time.UnixMilli(st.FinishedUnixMS)
	e.tr.span("job.queue", root, root, time.UnixMilli(st.SubmittedUnixMS), started)
	e.tr.span("job.run", root, root, started, done)
	if _, err := e.call(ctx, root, "GET /v1/profiles/{user}", http.MethodGet, "/v1/profiles/"+user, nil, 0, &buf); err != nil {
		return time.Time{}, nil, err
	}
	e.tr.add(root, "op.enroll", 0, 0, sent, time.Now())
	return done, bytes.Clone(buf.Bytes()), nil
}

// checkEnrolled decodes an enrolled profile and requires it to beat the
// global template against the volunteer's ground truth.
func checkEnrolled(ref *qualityRef, o enrollOp) (*service.StoredProfile, float64, error) {
	var p service.StoredProfile
	if err := json.Unmarshal(o.body, &p); err != nil {
		return nil, 0, fmt.Errorf("decode profile: %w", err)
	}
	if p.User != o.user || p.Table == nil {
		return nil, 0, fmt.Errorf("profile has user %q and table %v", p.User, p.Table != nil)
	}
	corr, better, err := ref.judge(o.vol, p.Table)
	if err != nil {
		return nil, 0, err
	}
	if !better {
		return nil, 0, fmt.Errorf("far-field correlation %.3f does not beat the global template", corr)
	}
	return &p, corr, nil
}

// readOp is one profile read and the node that served it.
type readOp struct {
	user int
	node string
}

// profileBodies holds what a read of each seeded user must return. The
// gateway re-encodes the node's profile with encoding/json, so a user's
// body is `{"user":"<id>"` followed by its volunteer's tail.
type profileBodies struct {
	pop   *population
	tails [][]byte
}

func newProfileBodies(pop *population) (*profileBodies, error) {
	b := &profileBodies{pop: pop}
	for _, p := range pop.profiles {
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(p); err != nil {
			return nil, err
		}
		tail, ok := bytes.CutPrefix(buf.Bytes(), []byte(`{"user":""`))
		if !ok {
			return nil, errors.New("profile encoding does not start with its user")
		}
		b.tails = append(b.tails, tail)
	}
	return b, nil
}

// matches reports whether body is exactly user i's seeded profile: equal
// bytes to its expected encoding, or — should the encoding change shape —
// equal after decoding both.
func (b *profileBodies) matches(body []byte, i int) bool {
	v := b.pop.volunteerOf(i)
	prefix := []byte(`{"user":"` + b.pop.users[i] + `"`)
	if rest, ok := bytes.CutPrefix(body, prefix); ok && bytes.Equal(rest, b.tails[v]) {
		return true
	}
	want := *b.pop.profiles[v]
	want.User = b.pop.users[i]
	data, err := json.Marshal(&want)
	if err != nil {
		return false
	}
	var got, wantRT service.StoredProfile
	if json.Unmarshal(body, &got) != nil || json.Unmarshal(data, &wantRT) != nil {
		return false
	}
	return reflect.DeepEqual(got, wantRT)
}

// runProfileRead: one closed-loop client reads profiles of users drawn
// uniformly from the seeded store; each body must be the seeded profile.
func runProfileRead(ctx context.Context, e *env) (*outcome, error) {
	bodies, err := newProfileBodies(e.pop)
	if err != nil {
		return nil, err
	}
	type readRec struct {
		readOp
		start, end time.Time
		ok         bool
	}
	var (
		recs []readRec
		buf  bytes.Buffer
		rng  = rand.New(rand.NewSource(e.cfg.seed))
	)
	e.startClock(ctx)
	lags := e.closedLoop(func() time.Time {
		i := rng.Intn(len(e.pop.users))
		root := e.tr.newID()
		r := readRec{readOp: readOp{user: i}, start: time.Now()}
		h, err := e.call(ctx, root, "GET /v1/profiles/{user}", http.MethodGet,
			"/v1/profiles/"+e.pop.users[i], nil, 0, &buf)
		r.end = time.Now()
		r.ok = err == nil && bodies.matches(buf.Bytes(), i)
		switch {
		case err != nil:
			e.logf("read %s: %v", e.pop.users[i], err)
		case !r.ok:
			e.logf("read %s: the body is not the seeded profile", e.pop.users[i])
		default:
			r.node = h.Get("Uniq-Served-By")
		}
		e.tr.add(root, "op.profile-read", 0, 0, r.start, time.Now())
		recs = append(recs, r)
		return r.start
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	oc := &outcome{lags: lags}
	for _, r := range recs {
		if r.ok {
			oc.cpuOps += e.win.overlap(r.start, r.end)
		}
		oc.reads = append(oc.reads, r.readOp)
		if e.win.contains(r.start) {
			oc.ops = append(oc.ops, op{start: r.start, end: r.end, failed: !r.ok})
		}
	}
	return oc, nil
}

// windowEndHop returns the first hop due after the window.
func (e *env) windowEndHop() int {
	return int(math.Ceil((warmup.Seconds() + e.cfg.seconds) / tick.Seconds()))
}

// runScene: one open-loop scene session on the audio clock — the
// sceneLayout sources in the default order-2 room; every 10 ms one frame
// per source, every 100 ms one bearing update.
func runScene(ctx context.Context, e *env) (*outcome, error) {
	rng := rand.New(rand.NewSource(e.cfg.seed))
	ticks := e.ticks()
	i := rng.Intn(len(e.pop.users))
	p := newScenePlan(e.pop.users[i], e.pop.table(i), streamKey(e.cfg.seed, "scene"))
	send, s, err := p.open(ctx, e.api)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	lr := &liveRender{plan: p, recvAt: make([]time.Time, ticks)}
	e.startClock(ctx)
	lag := lagClock{win: e.win}
	if err := runRender(ctx, lr, send, s, e.t0, ticks, &lag); err != nil {
		return nil, err
	}

	// Check every hop up to the window's end against an in-process replay.
	end := e.windowEndHop()
	root := e.tr.newID()
	start := time.Now()
	bad, err := lr.checkHops(end, e.tr, root)
	e.tr.add(root, "replay.scene", 0, 0, start, time.Now())
	if err != nil {
		return nil, err
	}
	if len(bad) > 0 {
		e.logf("scene: output mismatches at hops %v", bad)
	}
	oc := &outcome{
		lags:      lag.lags,
		streamHop: true,
		replayed:  map[string]bool{"scene": true},
		ops:       hopOps(lr.recvAt, bad, e.t0, e.win),
		cpuOps:    e.win.seconds(),
	}
	e.traceOps("op.scene.hop", oc.ops)
	return oc, nil
}

// runTrack: two open-loop sessions on the audio clock — a single-source
// render whose head yaw sweeps at 50 Hz, and AoA tracking of noise rendered
// through the volunteer's ground truth at a sweeping bearing. The render
// session and the AoA stream are replayed whole.
func runTrack(ctx context.Context, e *env) (*outcome, error) {
	rng := rand.New(rand.NewSource(e.cfg.seed))
	ticks := e.ticks()
	idx := rng.Perm(len(e.pop.users))[:2]
	render := newSinglePlan(e.pop.users[idx[0]], e.pop.table(idx[0]), streamKey(e.cfg.seed, "track"))
	aoa, err := newAoAPlan(e.pop, idx[1], streamKey(e.cfg.seed, "aoa"), ticks)
	if err != nil {
		return nil, err
	}
	send, rs, err := render.open(ctx, e.api)
	if err != nil {
		return nil, err
	}
	defer rs.Close()
	as, err := e.api.StreamAoA(ctx, aoa.user, service.AoAStreamOptions{})
	if err != nil {
		return nil, fmt.Errorf("open aoa session for %s: %w", aoa.user, err)
	}
	defer as.Close()
	lr := &liveRender{plan: render, recvAt: make([]time.Time, ticks)}
	var events []aoaEvent
	e.startClock(ctx)
	lags := []lagClock{{win: e.win}, {win: e.win}}
	// The two sessions run side by side, one per generator thread.
	err = parallel(2, func(i int) (err error) {
		if i == 0 {
			return runRender(ctx, lr, send, rs, e.t0, ticks, &lags[0])
		}
		events, err = runAoA(ctx, aoa, e.t0, ticks, &lags[1], as)
		return err
	})
	if err != nil {
		return nil, err
	}

	end := e.windowEndHop()
	root := e.tr.newID()
	start := time.Now()
	bad, err := lr.checkHops(end, e.tr, root)
	e.tr.add(root, "replay.session", 0, 0, start, time.Now())
	if err != nil {
		return nil, err
	}
	root = e.tr.newID()
	start = time.Now()
	want, windows, winLen, err := aoa.replayAoA(ticks, e.tr, root)
	e.tr.add(root, "replay.aoa", 0, 0, start, time.Now())
	if err != nil {
		return nil, err
	}
	res := scoreAoA(events, want, winLen, e.t0, e.win)
	if f, g := countFailed(res.ops), len(bad); f > 0 || g > 0 {
		e.logf("track: %d of %d aoa events failed; render output mismatches %v", f, len(res.ops), bad)
	}
	oc := &outcome{
		lags:       append(lags[0].lags, lags[1].lags...),
		streamHop:  true,
		ops:        hopOps(lr.recvAt, bad, e.t0, e.win),
		extra:      res.ops,
		aoa:        &res,
		aoaWindows: windows,
		replayed:   map[string]bool{"session": true, "aoa": true},
	}
	oc.cpuOps = 2 * e.win.seconds()
	e.traceOps("op.track.hop", oc.ops)
	e.traceOps("op.track.aoa-event", oc.extra)
	return oc, nil
}
