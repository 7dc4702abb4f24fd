package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/hrtf"
	"repro/internal/service"
	"repro/internal/sim"
)

const (
	// sampleRate is the audio rate of every simulated session and profile.
	sampleRate = 48000
	// usersPerVolunteer is how many user IDs share each seeded profile.
	usersPerVolunteer = 16
	// enrollVolunteerBase keeps enrollment volunteers disjoint from the
	// seeded ones.
	enrollVolunteerBase = 1000
)

// population is the seeded store's content: a few solved volunteers, each
// stored under usersPerVolunteer user IDs.
type population struct {
	vols     []sim.Volunteer
	profiles []*service.StoredProfile // one per volunteer; User is empty
	users    []string                 // users[i] holds profiles[i%len(vols)]
}

// volunteerOf returns the index of the volunteer whose profile user i holds.
func (p *population) volunteerOf(i int) int { return i % len(p.vols) }

// table returns the personalized table stored for user i.
func (p *population) table(i int) *hrtf.Table { return p.profiles[p.volunteerOf(i)].Table }

// sessionInput converts a simulated session into the pipeline's input.
func sessionInput(s *sim.Session) core.SessionInput {
	in := core.SessionInput{
		Probe:      s.Probe,
		SampleRate: s.SampleRate,
		IMU:        s.IMU,
		SystemIR:   s.SystemIR,
		SyncOffset: s.SyncOffset,
	}
	for _, m := range s.Measurements {
		in.Stops = append(in.Stops, core.StopRecording{Time: m.Time, Left: m.Rec.Left, Right: m.Rec.Right})
	}
	return in
}

// simulate runs volunteer v's measurement gesture.
func simulate(v sim.Volunteer) (core.SessionInput, error) {
	s, err := sim.RunSession(v, sim.SessionConfig{SampleRate: sampleRate, Quality: sim.GestureGood})
	if err != nil {
		return core.SessionInput{}, fmt.Errorf("simulate %v: %w", v, err)
	}
	return sessionInput(s), nil
}

// parallel runs fn(i) for i in [0, n) on two goroutines (the generator's
// GOMAXPROCS) and returns the first error.
func parallel(n int, fn func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	next := make(chan int, n)
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// firstAccepted tries candidate volunteer IDs base, base+1, … two at a time
// (the generator's two threads) and returns the first n that try accepts,
// in ID order, so the outcome depends on the seed alone.
func firstAccepted[T any](n, base int, try func(id int) (T, bool, error)) ([]T, error) {
	var out []T
	for id := base; len(out) < n; id += 2 {
		if id-base > 4*n+8 {
			return nil, fmt.Errorf("only %d of %d volunteers from ID %d accepted", len(out), id-base, base)
		}
		var (
			res  [2]T
			ok   [2]bool
			errs [2]error
			wg   sync.WaitGroup
		)
		for j := range res {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res[j], ok[j], errs[j] = try(id + j)
			}()
		}
		wg.Wait()
		for j := range res {
			if errs[j] != nil {
				return nil, errs[j]
			}
			if ok[j] && len(out) < n {
				out = append(out, res[j])
			}
		}
	}
	return out, nil
}

// seedPopulation solves the first n volunteers drawn from seed whose sweep
// the pipeline accepts (a few percent are rejected as bad gestures) and
// writes every user's profile into a segment store at dir through
// service.Store.
func seedPopulation(ctx context.Context, seed int64, n int, dir string) (*population, error) {
	type solved struct {
		v   sim.Volunteer
		res *core.Personalization
	}
	vols, err := firstAccepted(n, 1, func(id int) (solved, bool, error) {
		v := sim.NewVolunteer(id, seed)
		in, err := simulate(v)
		if err != nil {
			return solved{}, false, err
		}
		// One pipeline worker per solve: two solves run side by side.
		res, err := core.PersonalizeContext(ctx, in, core.PipelineOptions{Workers: 1})
		if errors.Is(err, core.ErrBadGesture) {
			return solved{}, false, nil
		}
		if err != nil {
			return solved{}, false, fmt.Errorf("seed solve %v: %w", v, err)
		}
		return solved{v, res}, true, nil
	})
	if err != nil {
		return nil, err
	}
	p := &population{}
	for i, s := range vols {
		prof := &service.StoredProfile{
			CreatedUnixMS:   1_700_000_000_000 + int64(i),
			HeadParams:      s.res.HeadParams,
			MeanResidualDeg: s.res.MeanResidualDeg,
			GestureOK:       s.res.Gesture.OK,
			GestureReason:   s.res.Gesture.Reason,
			SkippedStops:    s.res.SkippedStops,
			Table:           s.res.Table,
		}
		if s.res.StopError != nil {
			prof.StopError = s.res.StopError.Error()
		}
		p.vols = append(p.vols, s.v)
		p.profiles = append(p.profiles, prof)
	}
	store, err := service.OpenStore(dir, 0)
	if err != nil {
		return nil, err
	}
	for i := 0; i < n*usersPerVolunteer; i++ {
		user := fmt.Sprintf("u%03d", i)
		p.users = append(p.users, user)
		prof := *p.profiles[p.volunteerOf(i)]
		prof.User = user
		if err := store.Put(&prof); err != nil {
			store.Close()
			return nil, err
		}
	}
	if err := store.Close(); err != nil {
		return nil, err
	}
	return p, nil
}

// enrollment is one pre-simulated session a client submits.
type enrollment struct {
	vol   sim.Volunteer
	input core.SessionInput
	// body is the JSON encoding of input, made once at set-up.
	body []byte
}

// gestureGate cancels a solve as soon as its gesture check passes: the
// stages after it cannot reject the sweep, so vetting a session costs only
// channel estimation and fusion.
type gestureGate struct {
	cancel context.CancelFunc
	passed bool
}

func (g *gestureGate) StageDone(stage string, _ time.Duration, err error) {
	if stage == core.StageGestureCheck && err == nil {
		g.passed = true
		g.cancel()
	}
}

func (g *gestureGate) SkippedStops(int) {}

// vetMaxResidualDeg is the gesture limit a session must pass at set-up:
// stricter than the service's 10°, so the prior warm start the nodes add
// (which moves the residual by well under a degree) cannot tip an enrolled
// session into rejection.
const vetMaxResidualDeg = 8

// simulateEnrollments prepares n sessions from volunteers drawn from seed,
// skipping those whose sweep the service would reject.
func simulateEnrollments(ctx context.Context, seed int64, n int) ([]enrollment, error) {
	out, err := firstAccepted(n, enrollVolunteerBase, func(id int) (enrollment, bool, error) {
		v := sim.NewVolunteer(id, seed)
		in, err := simulate(v)
		if err != nil {
			return enrollment{}, false, err
		}
		vctx, cancel := context.WithCancel(ctx)
		gate := &gestureGate{cancel: cancel}
		// The gate, not the error, tells the outcome: a passing sweep ends
		// in the gate's cancellation, a failing one in any other error.
		_, _ = core.PersonalizeContext(vctx, in, core.PipelineOptions{
			Workers:  1,
			Gesture:  core.GestureLimits{MaxResidualDeg: vetMaxResidualDeg},
			Observer: gate,
		})
		cancel()
		if !gate.passed {
			if err := ctx.Err(); err != nil {
				return enrollment{}, false, err
			}
			return enrollment{}, false, nil
		}
		body, err := json.Marshal(in)
		if err != nil {
			return enrollment{}, false, err
		}
		return enrollment{vol: v, input: in, body: body}, true, nil
	})
	// Only the first session's decoded input is replayed; the rest travel
	// as JSON alone.
	for i := 1; i < len(out); i++ {
		out[i].input = core.SessionInput{}
	}
	return out, err
}

// farCorrelation is the quality measure of TestPersonalizeEndToEnd: the mean
// per-angle correlation of a table's far-field HRIRs against ref over ref's
// angles.
func farCorrelation(t, ref *hrtf.Table) float64 {
	sum, n := 0.0, 0
	for i := 0; i < ref.NumAngles(); i++ {
		h, err := t.FarAt(ref.Angle(i))
		if err != nil || h.Empty() {
			continue
		}
		sum += hrtf.MeanCorrelation(h, ref.Far[i])
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// qualityRef holds the ground truth a personalized table is judged against.
type qualityRef struct {
	global *hrtf.Table
	mu     sync.Mutex
	truth  map[int]*hrtf.Table // by volunteer ID
}

func newQualityRef() (*qualityRef, error) {
	g, err := sim.GlobalTemplateFar(sampleRate, 5)
	if err != nil {
		return nil, err
	}
	return &qualityRef{global: g, truth: make(map[int]*hrtf.Table)}, nil
}

// judge returns the table's correlation with volunteer v's ground truth and
// whether it beats the global template, as TestPersonalizeEndToEnd asserts.
func (q *qualityRef) judge(v sim.Volunteer, t *hrtf.Table) (corr float64, ok bool, err error) {
	q.mu.Lock()
	gnd := q.truth[v.ID]
	q.mu.Unlock()
	if gnd == nil {
		if gnd, err = sim.MeasureGroundTruthFar(v, sampleRate, 5); err != nil {
			return 0, false, err
		}
		q.mu.Lock()
		q.truth[v.ID] = gnd
		q.mu.Unlock()
	}
	corr = farCorrelation(t, gnd)
	return corr, corr > farCorrelation(q.global, gnd), nil
}

// noise returns a deterministic white-noise sample in [-0.25, 0.25) for
// (key, i), rounded to float32 like every sample on the wire. Random access
// lets a replay regenerate any span of a stream.
func noise(key uint64, i int) float64 {
	z := key + uint64(i)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return float64(float32((float64(z>>11)/(1<<53) - 0.5) / 2))
}

// streamKey derives a noise stream key from the seed and a label.
func streamKey(seed int64, label string) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, label)
	return h.Sum64()
}
