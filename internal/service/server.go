package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/prior"
	"repro/internal/render"
	"repro/internal/segstore"
)

// Config assembles a Service.
type Config struct {
	// StoreDir is the profile store's directory (required).
	StoreDir string
	// CacheSize bounds the in-memory profile cache (default 128).
	CacheSize int
	// StoreSegmentBytes rolls the profile store to a new segment file past
	// this size (default 64 MiB).
	StoreSegmentBytes int64
	// StoreCompactRatio triggers background segment compaction once this
	// fraction of a sealed segment's bytes is dead (default 0.5).
	StoreCompactRatio float64
	// Workers / QueueDepth / JobTimeout tune the solve pool (see
	// PoolConfig).
	Workers    int
	QueueDepth int
	JobTimeout time.Duration
	// Pipeline is applied to every personalization solve.
	Pipeline core.PipelineOptions
	// PipelineWorkers overrides Pipeline.Workers when non-zero: the size
	// of the per-solve worker pool that fans channel estimation and the
	// fusion seeding grid across cores. Independent of Workers (concurrent
	// solves): total parallelism is roughly Workers × PipelineWorkers.
	PipelineWorkers int
	// PriorEnabled turns on the population prior: at startup the service
	// loads (or fits from stored profiles) a model persisted under the
	// store directory, injects it into every non-exact fusion solve as a
	// warm start, and refits it in the background as profiles accumulate.
	PriorEnabled bool
	// PriorRefreshEvery refits the prior after that many newly stored
	// profiles (default 16).
	PriorRefreshEvery int
	// PriorMinProfiles is the fewest stored profiles a prior may be fitted
	// over (default 3); below it solves run cold.
	PriorMinProfiles int
	// MaxBodyBytes bounds request bodies (default 64 MiB — a measurement
	// session is a few MB of JSON).
	MaxBodyBytes int64
	// Logger receives the service's structured records (job transitions,
	// pipeline stage outcomes); nil discards them.
	Logger *slog.Logger

	// Solver overrides the personalization solver; nil means the real
	// pipeline (core.PersonalizeContext). Cluster and load-harness tests
	// use it to stand up real uniqd nodes with deterministic, instant (or
	// deliberately blocked) solves.
	Solver func(context.Context, core.SessionInput, core.PipelineOptions) (*core.Personalization, error)

	// run overrides the solver (in-package tests); Solver wins when both
	// are set.
	run func(context.Context, core.SessionInput, core.PipelineOptions) (*core.Personalization, error)
}

// maxRenderSamples bounds POST .../render input so one request cannot
// convolve minutes of audio on the serving path.
const maxRenderSamples = 1 << 20

// Service wires the store, the job pool and the HTTP API together.
type Service struct {
	cfg     Config
	store   *Store
	pool    *Pool
	prior   *priorManager // nil unless PriorEnabled
	metrics *serviceMetrics
	log     *slog.Logger
	handler http.Handler
}

// New opens the store, starts the worker pool and builds the HTTP handler.
func New(cfg Config) (*Service, error) {
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 64 << 20
	}
	if cfg.Logger == nil {
		cfg.Logger = obs.NopLogger()
	}
	if cfg.PipelineWorkers != 0 {
		cfg.Pipeline.Workers = cfg.PipelineWorkers
	}
	if cfg.Solver != nil {
		cfg.run = cfg.Solver
	}
	// One registry per service instance: the HTTP middleware, the pool/store
	// views and the pipeline stage histograms all land in it, and
	// /debug/metrics scrapes it. The pipeline observer is installed before
	// the pool is built because PoolConfig copies PipelineOptions by value.
	reg := obs.NewRegistry()
	if cfg.Pipeline.Observer == nil {
		cfg.Pipeline.Observer = obs.NewPipelineObserver(reg, cfg.Logger)
	}
	store, err := OpenStoreWith(cfg.StoreDir, cfg.CacheSize, segstore.Options{
		SegmentBytes: cfg.StoreSegmentBytes,
		CompactRatio: cfg.StoreCompactRatio,
	})
	if err != nil {
		return nil, err
	}
	if n := store.Migrated(); n > 0 {
		cfg.Logger.Info("migrated legacy JSON profiles", "count", n)
	}
	for _, issue := range store.MigrationIssues() {
		cfg.Logger.Warn("legacy profile left unmigrated", "issue", issue)
	}
	var (
		pm       *priorManager
		onStored func(*StoredProfile)
	)
	if cfg.PriorEnabled {
		pm = newPriorManager(store, cfg.PriorRefreshEvery, cfg.PriorMinProfiles, cfg.Logger)
		onStored = func(*StoredProfile) { pm.onStored() }
		// Inject the current model into every solve. The exact path ignores
		// FusionOptions.Prior, so the frozen bit-exact mode stays frozen
		// even with the prior enabled.
		inner := cfg.run
		if inner == nil {
			inner = core.PersonalizeContext
		}
		cfg.run = func(ctx context.Context, in core.SessionInput, opt core.PipelineOptions) (*core.Personalization, error) {
			if m := pm.current(); m.Usable() && opt.Fusion.Prior == nil {
				opt.Fusion.Prior = m
			}
			return inner(ctx, in, opt)
		}
	}
	pool, err := NewPool(PoolConfig{
		Workers:    cfg.Workers,
		QueueDepth: cfg.QueueDepth,
		JobTimeout: cfg.JobTimeout,
		Pipeline:   cfg.Pipeline,
		Store:      store,
		Logger:     cfg.Logger,
		run:        cfg.run,
		onStored:   onStored,
	})
	if err != nil {
		return nil, err
	}
	s := &Service{
		cfg:     cfg,
		store:   store,
		pool:    pool,
		prior:   pm,
		metrics: newServiceMetrics(reg, pool, store),
		log:     cfg.Logger,
	}

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/profiles", s.handleProfiles)
	mux.HandleFunc("GET /v1/profiles/{user}", s.handleProfile)
	mux.HandleFunc("POST /v1/profiles/{user}/aoa", s.handleAoA)
	mux.HandleFunc("POST /v1/profiles/{user}/render", s.handleRender)
	mux.HandleFunc("POST /v1/stream/render/{user}", s.handleStreamRender)
	mux.HandleFunc("POST /v1/stream/aoa/{user}", s.handleStreamAoA)
	mux.HandleFunc("GET /debug/metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	// Catch-all so unmatched routes answer in the same JSON error shape
	// (Content-Type and code included) as every other error path, instead
	// of the mux's text/plain 404.
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		httpErrorCode(w, http.StatusNotFound, CodeNoRoute, "no route for %s %s", r.Method, r.URL.Path)
	})
	s.handler = s.instrument(mux)
	return s, nil
}

// Handler returns the service's HTTP handler.
func (s *Service) Handler() http.Handler { return s.handler }

// Store exposes the profile store (the daemon reports its directory; tests
// inspect it).
func (s *Service) Store() *Store { return s.store }

// Pool exposes the job pool.
func (s *Service) Pool() *Pool { return s.pool }

// PriorModel returns the current population-prior model, or nil when the
// prior is disabled or still cold (too few stored profiles).
func (s *Service) PriorModel() *prior.Model {
	if s.prior == nil {
		return nil
	}
	return s.prior.current()
}

// Shutdown drains the job pool (see Pool.Shutdown), then closes the
// profile store — stopping its background compactor and flushing the
// active segment. Stored profiles stay readable afterwards, so in-flight
// response writes finish cleanly. The HTTP server is drained separately by
// its own Shutdown.
func (s *Service) Shutdown(ctx context.Context) error {
	err := s.pool.Shutdown(ctx)
	if cerr := s.store.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// statusRecorder captures the response code for metrics.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// Unwrap lets http.ResponseController reach the underlying writer's
// Flush/EnableFullDuplex, which the streaming handlers depend on.
func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

// instrument wraps the router with request counting and latency
// histograms, labelled by route pattern so path wildcards don't explode
// cardinality.
func (s *Service) instrument(next *http.ServeMux) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(rec, r)
		endpoint := r.Pattern
		if endpoint == "" {
			endpoint = "unmatched"
		}
		s.metrics.Observe(endpoint, rec.code, time.Since(start).Seconds())
	})
}

// --- wire types ---

// SubmitRequest is the body of POST /v1/sessions.
type SubmitRequest struct {
	// User owns the resulting profile.
	User string `json:"user"`
	// Input is the measurement session to personalize.
	Input core.SessionInput `json:"input"`
}

// SubmitResponse acknowledges an accepted session.
type SubmitResponse struct {
	JobID     string   `json:"jobId"`
	State     JobState `json:"state"`
	StatusURL string   `json:"statusUrl"`
}

// AoARequest is the body of POST /v1/profiles/{user}/aoa: a stereo earbud
// recording. When Src is present the known-source estimator (eq. 9) runs;
// otherwise the unknown-source estimator (eq. 11).
type AoARequest struct {
	Left  []float64 `json:"left"`
	Right []float64 `json:"right"`
	Src   []float64 `json:"src,omitempty"`
}

// AoAResponse reports the estimated arrival angle.
type AoAResponse struct {
	AngleDeg float64 `json:"angleDeg"`
	Score    float64 `json:"score"`
	Front    bool    `json:"front"`
	Method   string  `json:"method"`
}

// RenderRequest is the body of POST /v1/profiles/{user}/render: a mono
// signal placed at AngleDeg, optionally sweeping linearly to EndAngleDeg
// over the signal's duration.
type RenderRequest struct {
	Mono        []float64 `json:"mono"`
	AngleDeg    float64   `json:"angleDeg"`
	EndAngleDeg *float64  `json:"endAngleDeg,omitempty"`
}

// RenderResponse carries the binaural pair.
type RenderResponse struct {
	Left       []float64 `json:"left"`
	Right      []float64 `json:"right"`
	SampleRate float64   `json:"sampleRate"`
}

// apiError is the uniform error body: a human-readable message plus a
// stable machine-readable code, so clients (and the gateway's forwarding
// path) can branch on the cause without parsing English.
type apiError struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
}

// Machine-readable error codes carried in apiError.Code.
const (
	CodeBadJSON         = "bad_json"
	CodeTooLarge        = "too_large"
	CodeBadRequest      = "bad_request"
	CodeBadUser         = "bad_user"
	CodeInvalidSession  = "invalid_session"
	CodeQueueFull       = "queue_full"
	CodeDraining        = "draining"
	CodeJobNotFound     = "job_not_found"
	CodeProfileNotFound = "profile_not_found"
	CodeUnprocessable   = "unprocessable"
	CodeNoRoute         = "no_route"
	CodeInternal        = "internal"
)

// defaultErrCode maps a status to a generic code for call sites without a
// more specific cause.
func defaultErrCode(status int) string {
	switch status {
	case http.StatusBadRequest:
		return CodeBadRequest
	case http.StatusRequestEntityTooLarge:
		return CodeTooLarge
	case http.StatusUnprocessableEntity:
		return CodeUnprocessable
	case http.StatusNotFound:
		return CodeNoRoute
	case http.StatusServiceUnavailable:
		return CodeDraining
	default:
		return CodeInternal
	}
}

// --- helpers ---

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v) // the connection is the client's problem at this point
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	httpErrorCode(w, code, defaultErrCode(code), format, args...)
}

func httpErrorCode(w http.ResponseWriter, code int, errCode, format string, args ...any) {
	writeJSON(w, code, apiError{Error: fmt.Sprintf(format, args...), Code: errCode})
}

// decodeBody decodes a JSON request body under the configured size limit,
// reporting 400/413 itself. It returns false when the caller should stop.
func (s *Service) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := json.NewDecoder(body).Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpErrorCode(w, http.StatusRequestEntityTooLarge, CodeTooLarge, "body exceeds %d bytes", tooBig.Limit)
		} else {
			httpErrorCode(w, http.StatusBadRequest, CodeBadJSON, "bad JSON body: %v", err)
		}
		return false
	}
	return true
}

// profileFor fetches a user's profile, reporting 400/404 itself. It
// returns nil when the caller should stop.
func (s *Service) profileFor(w http.ResponseWriter, user string) *StoredProfile {
	p, err := s.store.Get(user)
	switch {
	case errors.Is(err, ErrBadUser):
		httpErrorCode(w, http.StatusBadRequest, CodeBadUser, "%v", err)
		return nil
	case errors.Is(err, ErrProfileNotFound):
		httpErrorCode(w, http.StatusNotFound, CodeProfileNotFound, "%v", err)
		return nil
	case err != nil:
		httpError(w, http.StatusInternalServerError, "%v", err)
		return nil
	}
	return p
}

// --- handlers ---

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	st, err := s.pool.Submit(req.User, req.Input)
	switch {
	case errors.Is(err, ErrBadUser):
		httpErrorCode(w, http.StatusBadRequest, CodeBadUser, "%v", err)
		return
	case errors.Is(err, core.ErrInvalidSession):
		httpErrorCode(w, http.StatusBadRequest, CodeInvalidSession, "%v", err)
		return
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		httpErrorCode(w, http.StatusServiceUnavailable, CodeQueueFull, "%v", err)
		return
	case errors.Is(err, ErrPoolClosed):
		httpErrorCode(w, http.StatusServiceUnavailable, CodeDraining, "%v", err)
		return
	case err != nil:
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, SubmitResponse{
		JobID:     st.ID,
		State:     st.State,
		StatusURL: "/v1/jobs/" + st.ID,
	})
}

func (s *Service) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, ok := s.pool.Job(id)
	if !ok {
		httpErrorCode(w, http.StatusNotFound, CodeJobNotFound, "no such job %q", id)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Service) handleProfiles(w http.ResponseWriter, r *http.Request) {
	users, err := s.store.Users()
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if users == nil {
		users = []string{}
	}
	writeJSON(w, http.StatusOK, map[string][]string{"users": users})
}

func (s *Service) handleProfile(w http.ResponseWriter, r *http.Request) {
	p := s.profileFor(w, r.PathValue("user"))
	if p == nil {
		return
	}
	writeJSON(w, http.StatusOK, p)
}

func (s *Service) handleAoA(w http.ResponseWriter, r *http.Request) {
	p := s.profileFor(w, r.PathValue("user"))
	if p == nil {
		return
	}
	var req AoARequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if len(req.Left) == 0 || len(req.Right) == 0 {
		httpError(w, http.StatusBadRequest, "aoa needs both left and right recordings")
		return
	}
	var (
		est    core.AoAEstimate
		err    error
		method = "unknown"
	)
	if len(req.Src) > 0 {
		method = "known"
		est, err = core.EstimateAoAKnown(req.Left, req.Right, req.Src, p.Table, core.AoAOptions{})
	} else {
		est, err = core.EstimateAoAUnknown(req.Left, req.Right, p.Table, core.AoAOptions{})
	}
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, "aoa estimation failed: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, AoAResponse{
		AngleDeg: est.AngleDeg,
		Score:    est.Score,
		Front:    core.FrontBack(est.AngleDeg),
		Method:   method,
	})
}

func (s *Service) handleRender(w http.ResponseWriter, r *http.Request) {
	p := s.profileFor(w, r.PathValue("user"))
	if p == nil {
		return
	}
	var req RenderRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if len(req.Mono) == 0 {
		httpError(w, http.StatusBadRequest, "render needs a mono signal")
		return
	}
	if len(req.Mono) > maxRenderSamples {
		httpError(w, http.StatusRequestEntityTooLarge,
			"mono signal too long: %d samples (max %d)", len(req.Mono), maxRenderSamples)
		return
	}
	rr := &render.Renderer{Table: p.Table}
	bearingAt := func(float64) float64 { return req.AngleDeg }
	if req.EndAngleDeg != nil {
		dur := float64(len(req.Mono)) / p.Table.SampleRate
		start, end := req.AngleDeg, *req.EndAngleDeg
		bearingAt = func(t float64) float64 {
			return start + (end-start)*t/dur
		}
	}
	left, right, err := rr.RenderMoving(req.Mono, bearingAt)
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, "render failed: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, RenderResponse{
		Left:       left,
		Right:      right,
		SampleRate: p.Table.SampleRate,
	})
}

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "json" {
		// The pre-registry JSON shape: one flat name -> value object. Kept
		// for scripts that scraped the old hand-rolled endpoint.
		writeJSON(w, http.StatusOK, s.metrics.reg.Flatten())
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.reg.WriteText(w)
}

// HealthStatus is the body of GET /healthz: enough live load detail for a
// gateway to do load-aware routing instead of binary up/down. The status
// code keeps the old binary contract — 200 while serving, 503 once the
// pool is draining — so plain probes keep working unchanged.
type HealthStatus struct {
	// Status is "ok" while accepting work, "draining" during shutdown.
	Status string `json:"status"`
	// QueueDepth / QueueCapacity describe the bounded job queue.
	QueueDepth    int `json:"queueDepth"`
	QueueCapacity int `json:"queueCapacity"`
	// WorkersBusy / WorkersTotal describe the solve pool.
	WorkersBusy  int `json:"workersBusy"`
	WorkersTotal int `json:"workersTotal"`
	// ActiveStreamSessions counts live /v1/stream/* sessions.
	ActiveStreamSessions int `json:"activeStreamSessions"`
	// Version is the binary's build version.
	Version string `json:"version"`
}

func (s *Service) handleHealth(w http.ResponseWriter, r *http.Request) {
	st := HealthStatus{
		Status:               "ok",
		QueueDepth:           s.pool.QueueDepth(),
		QueueCapacity:        s.pool.QueueCapacity(),
		WorkersBusy:          s.pool.Busy(),
		WorkersTotal:         s.pool.Workers(),
		ActiveStreamSessions: s.metrics.activeStreams(),
		Version:              buildinfo.Version(),
	}
	code := http.StatusOK
	if s.pool.Closed() {
		st.Status = "draining"
		code = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, code, st)
}
