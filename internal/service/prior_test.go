package service

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/head"
	"repro/internal/prior"
)

// priorProbe is a stub solver that records the prior each solve received
// and returns profiles with distinct head geometries.
type priorProbe struct {
	mu     sync.Mutex
	priors []*prior.Model
	n      int
}

func (p *priorProbe) run(_ context.Context, _ core.SessionInput, opt core.PipelineOptions) (*core.Personalization, error) {
	p.mu.Lock()
	p.priors = append(p.priors, opt.Fusion.Prior)
	p.n++
	n := p.n
	p.mu.Unlock()
	res := fakeResult()
	res.HeadParams = head.Params{
		A: 0.100 + 0.002*float64(n%3),
		B: 0.080 + 0.001*float64(n%4),
		C: 0.092 + 0.001*float64(n%2),
	}
	res.MeanResidualDeg = 2
	return res, nil
}

func (p *priorProbe) prior(i int) *prior.Model {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.priors[i]
}

// submitAndWait pushes one session through the pool and requires it done.
func submitAndWait(t *testing.T, svc *Service, user string) {
	t.Helper()
	st, err := svc.Pool().Submit(user, tinySession())
	if err != nil {
		t.Fatal(err)
	}
	if final := waitState(t, svc.Pool(), st.ID); final.State != JobDone {
		t.Fatalf("job for %s finished %s (%s)", user, final.State, final.Error)
	}
}

// waitPrior polls until the service publishes a prior (refits are
// asynchronous) or the deadline passes.
func waitPrior(svc *Service, d time.Duration) *prior.Model {
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if m := svc.PriorModel(); m != nil {
			return m
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}

// TestPriorLifecycle walks the population prior through one process's
// life: cold start (no profiles, solves run without a prior), warm-up
// (refits kick in once the store crosses the minimum) and injection (later
// solves see the model). TestPriorRefitsAtEveryStart covers restarts.
func TestPriorLifecycle(t *testing.T) {
	probe := &priorProbe{}
	svc, err := New(Config{
		StoreDir:          t.TempDir(),
		Workers:           1,
		PriorEnabled:      true,
		PriorRefreshEvery: 1,
		PriorMinProfiles:  2,
		Solver:            probe.run,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Cold start: an empty store fits nothing.
	if m := svc.PriorModel(); m != nil {
		t.Fatalf("cold service published a prior: %+v", m)
	}
	submitAndWait(t, svc, "u1")
	if probe.prior(0) != nil {
		t.Error("first solve should run without a prior")
	}

	// One profile is below PriorMinProfiles; still cold.
	if m := waitPrior(svc, 200*time.Millisecond); m != nil {
		t.Fatalf("prior fitted below the profile minimum: count %d", m.Count)
	}
	submitAndWait(t, svc, "u2")
	m := waitPrior(svc, 5*time.Second)
	if m == nil {
		t.Fatal("prior never fitted after reaching the minimum")
	}
	if m.Count != 2 {
		t.Errorf("prior fitted over %d profiles, want 2", m.Count)
	}

	// A later solve receives the model.
	submitAndWait(t, svc, "u3")
	if probe.prior(2) == nil {
		t.Error("third solve should have been warm-started")
	}

	users, err := svc.Store().Users()
	if err != nil {
		t.Fatal(err)
	}
	if len(users) != 3 {
		t.Errorf("store lists %d users, want 3: %v", len(users), users)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestPriorSingleProfile pins the smallest warm store: with the minimum at
// one, a single profile yields a usable (if degenerate) model predicting
// that profile's geometry.
func TestPriorSingleProfile(t *testing.T) {
	probe := &priorProbe{}
	svc, err := New(Config{
		StoreDir:          t.TempDir(),
		Workers:           1,
		PriorEnabled:      true,
		PriorRefreshEvery: 1,
		PriorMinProfiles:  1,
		Solver:            probe.run,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = svc.Shutdown(ctx)
	}()
	submitAndWait(t, svc, "solo")
	m := waitPrior(svc, 5*time.Second)
	if m == nil {
		t.Fatal("single-profile prior never fitted")
	}
	if m.Count != 1 || !m.Usable() {
		t.Fatalf("single-profile model unusable: %+v", m)
	}
	prof, err := svc.Store().Get("solo")
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Predict(); got != prof.HeadParams {
		t.Errorf("Predict() = %+v, want the lone profile's %+v", got, prof.HeadParams)
	}
}

// TestPriorDisabled pins the default-off path: no model, no injection.
func TestPriorDisabled(t *testing.T) {
	probe := &priorProbe{}
	svc, err := New(Config{StoreDir: t.TempDir(), Workers: 1, Solver: probe.run})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = svc.Shutdown(ctx)
	}()
	for i := 0; i < 3; i++ {
		submitAndWait(t, svc, fmt.Sprintf("user%d", i))
	}
	if m := svc.PriorModel(); m != nil {
		t.Errorf("disabled prior published a model: %+v", m)
	}
	for i, p := range probe.priors {
		if p != nil {
			t.Errorf("solve %d received a prior while disabled", i)
		}
	}
}

// TestPriorRefitsAtEveryStart: a node restarted after a put that did not
// trigger a refit publishes a model over every stored profile, the prior
// writes nothing beside the store's segments, and a model file left in the
// directory by an older build is ignored.
func TestPriorRefitsAtEveryStart(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		StoreDir:          dir,
		Workers:           1,
		PriorEnabled:      true,
		PriorRefreshEvery: 2,
		PriorMinProfiles:  2,
		Solver:            (&priorProbe{}).run,
	}
	start := func() *Service {
		t.Helper()
		svc, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return svc
	}
	stop := func(svc *Service) {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := svc.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
	}
	// restartCovers restarts the node and requires its model to cover every
	// stored profile, bit for bit as a fit over the decoded profiles.
	restartCovers := func() {
		t.Helper()
		svc := start()
		defer stop(svc)
		users, err := svc.Store().Users()
		if err != nil {
			t.Fatal(err)
		}
		m := svc.PriorModel()
		if m == nil || m.Count != len(users) {
			t.Fatalf("restarted node's prior %+v, want one over all %d stored profiles", m, len(users))
		}
		sameModel(t, m, referenceModel(t, dir))
	}

	svc := start()
	submitAndWait(t, svc, "u1")
	submitAndWait(t, svc, "u2") // the second put refits over two profiles
	if m := waitPrior(svc, 5*time.Second); m == nil || m.Count != 2 {
		t.Fatalf("prior after two puts: %+v, want one over 2 profiles", m)
	}
	submitAndWait(t, svc, "u3") // one put short of the next refit
	if m := svc.PriorModel(); m.Count != 2 {
		t.Fatalf("a put below the refresh count refitted: %d profiles", m.Count)
	}
	stop(svc)
	restartCovers()

	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if ok, _ := filepath.Match("seg-*.uqs", e.Name()); !ok || e.IsDir() {
			t.Errorf("store directory holds %q besides its segments", e.Name())
		}
	}

	// A model file an older build persisted, valid but over one profile.
	leftover := filepath.Join(dir, ".population-prior.json")
	if err := os.WriteFile(leftover, []byte(`{"version":1,"count":1,"weightSum":1,"mean":[0.1,0.08,0.09],"std":[0,0,0]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	restartCovers()
	if _, err := os.Stat(leftover); err != nil {
		t.Errorf("the leftover model file was removed: %v", err)
	}
}
