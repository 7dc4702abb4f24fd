package service

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/buildinfo"
)

// TestHealthzHealthy: a serving node reports 200 with its load detail.
func TestHealthzHealthy(t *testing.T) {
	_, c := newTestServer(t)
	ctx := context.Background()

	st, err := c.HealthInfo(ctx)
	if err != nil {
		t.Fatalf("healthy node HealthInfo: %v", err)
	}
	if st.Status != "ok" {
		t.Fatalf("status = %q, want ok", st.Status)
	}
	if st.WorkersTotal != 2 {
		t.Fatalf("workersTotal = %d, want the configured 2", st.WorkersTotal)
	}
	if st.QueueCapacity <= 0 {
		t.Fatalf("queueCapacity = %d, want > 0", st.QueueCapacity)
	}
	if st.QueueDepth != 0 || st.WorkersBusy != 0 || st.ActiveStreamSessions != 0 {
		t.Fatalf("idle node reports load: %+v", st)
	}
	if st.Version != buildinfo.Version() {
		t.Fatalf("version = %q, want %q", st.Version, buildinfo.Version())
	}
}

// TestHealthzDraining: after shutdown begins, /healthz flips to 503 +
// Retry-After with status "draining" — but still answers, so probers see
// the state instead of a dead socket.
func TestHealthzDraining(t *testing.T) {
	svc, c := newTestServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	st, err := c.HealthInfo(ctx)
	var ae *APIError
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining HealthInfo err = %v, want 503 APIError", err)
	}
	if ae.Code != CodeDraining {
		t.Fatalf("code = %q, want %q", ae.Code, CodeDraining)
	}
	if ae.RetryAfter <= 0 {
		t.Fatal("draining 503 lacks Retry-After")
	}
	if st.Status != "draining" {
		t.Fatalf("body status = %q, want draining (body must decode even on 503)", st.Status)
	}

	// The plain Health ping agrees.
	if err := c.Health(ctx); err == nil {
		t.Fatal("Health on a draining node should fail")
	}
}

// TestErrorResponsesAreJSON pins the error contract on every failure
// shape: Content-Type application/json plus a stable machine-readable
// code, including the mux catch-all.
func TestErrorResponsesAreJSON(t *testing.T) {
	_, c := newTestServer(t)

	cases := []struct {
		name     string
		method   string
		path     string
		body     string
		wantCode int
		wantErr  string
	}{
		{"bad json", http.MethodPost, "/v1/sessions", "{not json", http.StatusBadRequest, CodeBadJSON},
		{"trailing data", http.MethodPost, "/v1/sessions", `{"user":"u","input":{}} {"user":"v"}`, http.StatusBadRequest, CodeBadJSON},
		{"bad user", http.MethodPost, "/v1/sessions", `{"user":"","input":{}}`, http.StatusBadRequest, CodeBadUser},
		{"invalid session", http.MethodPost, "/v1/sessions", `{"user":"u","input":{}}`, http.StatusBadRequest, CodeInvalidSession},
		{"job not found", http.MethodGet, "/v1/jobs/nope", "", http.StatusNotFound, CodeJobNotFound},
		{"profile not found", http.MethodGet, "/v1/profiles/ghost", "", http.StatusNotFound, CodeProfileNotFound},
		{"no route", http.MethodGet, "/v1/nonsense", "", http.StatusNotFound, CodeNoRoute},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var body *strings.Reader
			if tc.body != "" {
				body = strings.NewReader(tc.body)
			} else {
				body = strings.NewReader("")
			}
			req, err := http.NewRequest(tc.method, c.BaseURL+tc.path, body)
			if err != nil {
				t.Fatal(err)
			}
			if tc.body != "" {
				req.Header.Set("Content-Type", "application/json")
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.wantCode {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.wantCode)
			}
			if got := resp.Header.Get("Content-Type"); got != "application/json" {
				t.Fatalf("Content-Type = %q, want application/json", got)
			}
			var e struct {
				Error string `json:"error"`
				Code  string `json:"code"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
				t.Fatalf("error body is not JSON: %v", err)
			}
			if e.Code != tc.wantErr {
				t.Fatalf("code = %q, want %q", e.Code, tc.wantErr)
			}
			if e.Error == "" {
				t.Fatal("error message is empty")
			}
		})
	}
}

// TestClientDecodesErrorCode: the typed client surfaces the code and
// Retry-After from the error body/headers.
func TestClientDecodesErrorCode(t *testing.T) {
	_, c := newTestServer(t)

	_, err := c.Profile(context.Background(), "ghost")
	var ae *APIError
	if !errors.As(err, &ae) {
		t.Fatalf("err = %v, want *APIError", err)
	}
	if ae.Code != CodeProfileNotFound {
		t.Fatalf("decoded code = %q, want %q", ae.Code, CodeProfileNotFound)
	}
	if !strings.Contains(ae.Error(), CodeProfileNotFound) {
		t.Fatalf("Error() should mention the code: %q", ae.Error())
	}
}
