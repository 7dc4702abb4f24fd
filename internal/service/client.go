package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
)

// Client is the typed Go client for a uniqd server. The zero HTTPClient
// uses http.DefaultClient; BaseURL is e.g. "http://127.0.0.1:8080".
type Client struct {
	BaseURL    string
	HTTPClient *http.Client
	// Retry, when enabled, re-sends requests that failed transiently
	// (transport errors and 503s). The zero value disables retries.
	Retry RetryPolicy
}

// RetryPolicy is an opt-in bounded retry for transient failures: transport
// errors and 503 responses (queue full, draining). Waits honor a numeric
// Retry-After header when the server sent one, otherwise exponential
// backoff with jitter, and every wait is cut short by context cancellation.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries; <= 1 disables retries.
	MaxAttempts int
	// BaseDelay seeds the exponential backoff (default 100 ms).
	BaseDelay time.Duration
	// MaxDelay caps any single wait, Retry-After included (default 5 s).
	MaxDelay time.Duration
}

func (p RetryPolicy) enabled() bool { return p.MaxAttempts > 1 }

// wait returns the pre-jitter delay before attempt (1-based count of
// attempts already made). retryAfter > 0 is the server's explicit ask.
func (p RetryPolicy) wait(attempt int, retryAfter time.Duration) time.Duration {
	base, max := p.BaseDelay, p.MaxDelay
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	if max <= 0 {
		max = 5 * time.Second
	}
	if retryAfter > 0 {
		return min(retryAfter, max)
	}
	d := base << (attempt - 1)
	if d > max || d <= 0 { // <= 0 guards shift overflow
		d = max
	}
	return d
}

// retryable reports whether err is worth another attempt: transport
// failures and 503s (the server explicitly said "later"). Context
// cancellation is never retried.
func retryable(err error) bool {
	if err == nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var ae *APIError
	if errors.As(err, &ae) {
		return ae.StatusCode == http.StatusServiceUnavailable
	}
	return true // transport-level failure
}

// sleepCtx waits for d with jitter in [d/2, d), or until ctx is done.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d > time.Millisecond {
		d = d/2 + time.Duration(rand.Int63n(int64(d/2)))
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// NewClient returns a client for the given base URL.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/")}
}

func (c *Client) http() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// APIError is a non-2xx response decoded from the server's error body.
type APIError struct {
	StatusCode int
	Message    string
	// Code is the machine-readable cause from the error body (e.g.
	// "queue_full", "profile_not_found"); empty for servers predating it.
	Code string
	// RetryAfter carries a numeric Retry-After response header (0 when
	// absent) so retry loops and the gateway can honor the server's ask.
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	if e.Code != "" {
		return fmt.Sprintf("service: server returned %d (%s): %s", e.StatusCode, e.Code, e.Message)
	}
	return fmt.Sprintf("service: server returned %d: %s", e.StatusCode, e.Message)
}

// decodeAPIError drains a non-2xx response into an *APIError.
func decodeAPIError(resp *http.Response) *APIError {
	out := &APIError{StatusCode: resp.StatusCode}
	var ae apiError
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&ae); err == nil {
		out.Message = ae.Error
		out.Code = ae.Code
	}
	if s := resp.Header.Get("Retry-After"); s != "" {
		if secs, err := strconv.Atoi(s); err == nil && secs >= 0 {
			out.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	return out
}

// do runs one JSON round trip (with retries per c.Retry). in may be nil
// (GET); out may be nil.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var data []byte
	if in != nil {
		var err error
		if data, err = json.Marshal(in); err != nil {
			return fmt.Errorf("service: encode request: %w", err)
		}
	}
	for attempt := 1; ; attempt++ {
		err := c.doOnce(ctx, method, path, data, out)
		if err == nil || !c.Retry.enabled() || attempt >= c.Retry.MaxAttempts || !retryable(err) {
			return err
		}
		var retryAfter time.Duration
		var ae *APIError
		if errors.As(err, &ae) {
			retryAfter = ae.RetryAfter
		}
		if serr := sleepCtx(ctx, c.Retry.wait(attempt, retryAfter)); serr != nil {
			return err // the last transport/server error, not the context's
		}
	}
}

func (c *Client) doOnce(ctx context.Context, method, path string, data []byte, out any) error {
	resp, err := c.Send(ctx, method, path, data, nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("service: decode response: %w", err)
	}
	return nil
}

// Send runs one request, never retried, and returns a 2xx response for
// the caller to read and close. A non-nil body is sent as is, labelled
// application/json; hdr adds request headers. Any other status comes back
// as an *APIError, the response already closed.
func (c *Client) Send(ctx context.Context, method, path string, body []byte, hdr http.Header) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, rd)
	if err != nil {
		return nil, err
	}
	for k, v := range hdr {
		req.Header[k] = v
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		defer resp.Body.Close()
		return nil, decodeAPIError(resp)
	}
	return resp, nil
}

// Submit uploads a measurement session for user and returns the accepted
// job's ID.
func (c *Client) Submit(ctx context.Context, user string, in core.SessionInput) (string, error) {
	resp, err := c.SubmitJob(ctx, user, in)
	if err != nil {
		return "", err
	}
	return resp.JobID, nil
}

// SubmitJob is Submit returning the full acknowledgement: the job's ID,
// its state and the URL to poll.
func (c *Client) SubmitJob(ctx context.Context, user string, in core.SessionInput) (SubmitResponse, error) {
	var resp SubmitResponse
	err := c.do(ctx, http.MethodPost, "/v1/sessions", SubmitRequest{User: user, Input: in}, &resp)
	return resp, err
}

// Job fetches a job's status.
func (c *Client) Job(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id), nil, &st)
	return st, err
}

// WaitJob polls a job until it reaches a terminal state or the context
// expires. poll <= 0 defaults to 100 ms.
func (c *Client) WaitJob(ctx context.Context, id string, poll time.Duration) (JobStatus, error) {
	if poll <= 0 {
		poll = 100 * time.Millisecond
	}
	t := time.NewTicker(poll)
	defer t.Stop()
	for {
		st, err := c.Job(ctx, id)
		if err != nil {
			return JobStatus{}, err
		}
		if st.State.Terminal() {
			return st, nil
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-t.C:
		}
	}
}

// ErrJobFailed is returned by WaitDone when the job reached a terminal
// state other than done.
var ErrJobFailed = errors.New("service: job did not complete")

// WaitDone polls like WaitJob but also fails when the job finishes in any
// state other than done.
func (c *Client) WaitDone(ctx context.Context, id string, poll time.Duration) (JobStatus, error) {
	st, err := c.WaitJob(ctx, id, poll)
	if err != nil {
		return st, err
	}
	if st.State != JobDone {
		return st, fmt.Errorf("%w: job %s is %s: %s", ErrJobFailed, id, st.State, st.Error)
	}
	return st, nil
}

// Profile fetches a user's stored profile.
func (c *Client) Profile(ctx context.Context, user string) (*StoredProfile, error) {
	var p StoredProfile
	if err := c.do(ctx, http.MethodGet, "/v1/profiles/"+url.PathEscape(user), nil, &p); err != nil {
		return nil, err
	}
	return &p, nil
}

// Users lists users with stored profiles.
func (c *Client) Users(ctx context.Context) ([]string, error) {
	var resp struct {
		Users []string `json:"users"`
	}
	if err := c.do(ctx, http.MethodGet, "/v1/profiles", nil, &resp); err != nil {
		return nil, err
	}
	return resp.Users, nil
}

// AoA runs an angle-of-arrival query against a user's stored table.
func (c *Client) AoA(ctx context.Context, user string, req AoARequest) (AoAResponse, error) {
	var resp AoAResponse
	err := c.do(ctx, http.MethodPost, "/v1/profiles/"+url.PathEscape(user)+"/aoa", req, &resp)
	return resp, err
}

// Render asks the server for a short binaural render.
func (c *Client) Render(ctx context.Context, user string, req RenderRequest) (RenderResponse, error) {
	var resp RenderResponse
	err := c.do(ctx, http.MethodPost, "/v1/profiles/"+url.PathEscape(user)+"/render", req, &resp)
	return resp, err
}

// Metrics fetches the /debug/metrics exposition page.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/debug/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", &APIError{StatusCode: resp.StatusCode, Message: string(data)}
	}
	return string(data), nil
}

// MetricsJSON fetches /debug/metrics?format=json: every registered series
// flattened to one name{labels} -> value map.
func (c *Client) MetricsJSON(ctx context.Context) (map[string]float64, error) {
	var out map[string]float64
	if err := c.do(ctx, http.MethodGet, "/debug/metrics?format=json", nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Health pings /healthz.
func (c *Client) Health(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/healthz", nil, nil)
}

// HealthInfo fetches /healthz with its load detail. The body is decoded
// even on 503 (a draining node still reports its state), in which case st
// is valid and err is the *APIError. Never retried: probes must see the
// node as it is right now.
func (c *Client) HealthInfo(ctx context.Context) (HealthStatus, error) {
	var st HealthStatus
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/healthz", nil)
	if err != nil {
		return st, err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return st, err
	}
	_ = json.Unmarshal(body, &st) // best effort: the status code is the contract
	if resp.StatusCode != http.StatusOK {
		ae := &APIError{StatusCode: resp.StatusCode, Message: st.Status}
		if st.Status == "draining" {
			ae.Code = CodeDraining
		}
		if s := resp.Header.Get("Retry-After"); s != "" {
			if secs, err := strconv.Atoi(s); err == nil && secs >= 0 {
				ae.RetryAfter = time.Duration(secs) * time.Second
			}
		}
		return st, ae
	}
	return st, nil
}
