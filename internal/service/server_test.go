package service

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dsp"
)

// newTestServer starts a service with a stubbed (instant) solver.
func newTestServer(t *testing.T) (*Service, *Client) {
	t.Helper()
	svc, err := New(Config{
		StoreDir: t.TempDir(),
		Workers:  2,
		Solver: func(ctx context.Context, in core.SessionInput, opt core.PipelineOptions) (*core.Personalization, error) {
			return fakeResult(), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = svc.Shutdown(ctx)
	})
	return svc, NewClient(ts.URL)
}

func TestServerSubmitPollFetch(t *testing.T) {
	_, c := newTestServer(t)
	ctx := context.Background()

	id, err := c.Submit(ctx, "alice", tinySession())
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.WaitDone(ctx, id, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.SubmittedUnixMS == 0 || st.StartedUnixMS == 0 || st.FinishedUnixMS == 0 {
		t.Errorf("missing timestamps in %+v", st)
	}
	prof, err := c.Profile(ctx, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if prof.User != "alice" || prof.JobID != id || prof.Table == nil {
		t.Fatalf("bad profile %+v", prof)
	}
	users, err := c.Users(ctx)
	if err != nil || len(users) != 1 || users[0] != "alice" {
		t.Fatalf("Users = %v, %v", users, err)
	}
}

func TestServerErrorMapping(t *testing.T) {
	_, c := newTestServer(t)
	ctx := context.Background()

	wantStatus := func(err error, code int, label string) {
		t.Helper()
		var ae *APIError
		if !errors.As(err, &ae) || ae.StatusCode != code {
			t.Errorf("%s: got %v, want HTTP %d", label, err, code)
		}
	}

	bad := tinySession()
	bad.Probe = nil
	_, err := c.Submit(ctx, "alice", bad)
	wantStatus(err, http.StatusBadRequest, "invalid session")

	_, err = c.Submit(ctx, "no spaces allowed", tinySession())
	wantStatus(err, http.StatusBadRequest, "bad user")

	_, err = c.Job(ctx, "0000000000000000")
	wantStatus(err, http.StatusNotFound, "unknown job")

	_, err = c.Profile(ctx, "ghost")
	wantStatus(err, http.StatusNotFound, "unknown profile")

	_, err = c.AoA(ctx, "ghost", AoARequest{Left: []float64{1}, Right: []float64{1}})
	wantStatus(err, http.StatusNotFound, "aoa for unknown profile")

	if err := c.Health(ctx); err != nil {
		t.Errorf("health: %v", err)
	}
}

func TestServerAoAAndRender(t *testing.T) {
	svc, c := newTestServer(t)
	ctx := context.Background()
	prof := sampleProfile("bob")
	if err := svc.Store().Put(prof); err != nil {
		t.Fatal(err)
	}

	src := dsp.Chirp(500, 8000, 0.02, 48000)
	h := prof.Table.Far[6]
	left, right := h.Render(src)
	resp, err := c.AoA(ctx, "bob", AoARequest{Left: left, Right: right, Src: src})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Method != "known" {
		t.Errorf("method %q, want known", resp.Method)
	}
	want, err := coreAoAKnown(left, right, src, prof.Table)
	if err != nil {
		t.Fatal(err)
	}
	if resp.AngleDeg != want.AngleDeg {
		t.Errorf("served AoA %.2f differs from direct call %.2f", resp.AngleDeg, want.AngleDeg)
	}

	// Missing channels are a client error.
	if _, err := c.AoA(ctx, "bob", AoARequest{Left: left}); err == nil {
		t.Error("aoa without right channel should fail")
	}

	mono := dsp.Chirp(300, 4000, 0.05, 48000)
	rend, err := c.Render(ctx, "bob", RenderRequest{Mono: mono, AngleDeg: 60})
	if err != nil {
		t.Fatal(err)
	}
	if len(rend.Left) < len(mono) || len(rend.Right) < len(mono) || rend.SampleRate != 48000 {
		t.Fatalf("render shape: %d/%d samples at %g Hz", len(rend.Left), len(rend.Right), rend.SampleRate)
	}
	end := 120.0
	if _, err := c.Render(ctx, "bob", RenderRequest{Mono: mono, AngleDeg: 20, EndAngleDeg: &end}); err != nil {
		t.Errorf("moving render: %v", err)
	}
	if _, err := c.Render(ctx, "bob", RenderRequest{AngleDeg: 60}); err == nil {
		t.Error("render without a signal should fail")
	}
}

func TestServerMetricsExposition(t *testing.T) {
	_, c := newTestServer(t)
	ctx := context.Background()
	id, err := c.Submit(ctx, "carol", tinySession())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitDone(ctx, id, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Profile(ctx, "carol"); err != nil {
		t.Fatal(err)
	}

	page, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`uniqd_requests_total{endpoint="POST /v1/sessions",code="202"} 1`,
		`uniqd_requests_total{endpoint="GET /v1/profiles/{user}",code="200"} 1`,
		`uniqd_request_seconds_bucket{endpoint="POST /v1/sessions",le="+Inf"} 1`,
		"uniqd_workers_total 2",
		"uniqd_jobs_done_total 1",
		"uniqd_profiles_stored 1",
		"uniqd_queue_capacity 64",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("metrics page missing %q\n---\n%s", want, page)
		}
	}
}
