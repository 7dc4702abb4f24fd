package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/url"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/obs"
	"repro/internal/service"
)

// GatewayConfig assembles a Gateway.
type GatewayConfig struct {
	// Nodes are the backend uniqd nodes (at least one).
	Nodes []NodeSpec
	// VNodes is the virtual-node count per backend (default DefaultVNodes).
	VNodes int
	// ProbeInterval / ProbeTimeout / EjectAfter tune the health prober
	// (see RegistryConfig).
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	EjectAfter    int
	// ReadFallback is how many ring successors a profile read tries after
	// the owner fails — a dead primary degrades to a (possibly stale)
	// successor copy instead of an error (default 1, negative disables).
	ReadFallback int
	// MaxBodyBytes bounds request bodies on unary routes (default 64 MiB).
	MaxBodyBytes int64
	// HTTPClient overrides the backend client (probes and unary
	// forwarding); nil uses http.DefaultClient.
	HTTPClient *http.Client
	// Logger receives routing and node-state records; nil discards them.
	Logger *slog.Logger
}

// Gateway fronts N uniqd nodes: it owns the ring, the node registry and
// the forwarding handler. Jobs it acknowledges carry node-qualified IDs
// ("<jobid>@<node>") so polls route back to the accepting node.
type Gateway struct {
	cfg     GatewayConfig
	reg     *Registry
	metrics *gatewayMetrics
	bodies  *service.BodyReader
	log     *slog.Logger
	handler http.Handler
}

// NewGateway validates the fleet, starts the health prober and builds the
// HTTP handler. Call Close on shutdown.
func NewGateway(cfg GatewayConfig) (*Gateway, error) {
	if len(cfg.Nodes) == 0 {
		return nil, errors.New("cluster: gateway needs at least one backend node")
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 64 << 20
	}
	if cfg.ReadFallback == 0 {
		cfg.ReadFallback = 1
	}
	if cfg.ReadFallback < 0 {
		cfg.ReadFallback = 0
	}
	if cfg.Logger == nil {
		cfg.Logger = obs.NopLogger()
	}
	reg, err := NewRegistry(RegistryConfig{
		ProbeInterval: cfg.ProbeInterval,
		ProbeTimeout:  cfg.ProbeTimeout,
		EjectAfter:    cfg.EjectAfter,
		HTTPClient:    cfg.HTTPClient,
		Logger:        cfg.Logger,
	}, NewRing(cfg.VNodes), cfg.Nodes)
	if err != nil {
		return nil, err
	}
	g := &Gateway{
		cfg:     cfg,
		reg:     reg,
		metrics: newGatewayMetrics(obs.NewRegistry(), reg),
		bodies:  service.NewBodyReader(cfg.MaxBodyBytes),
		log:     cfg.Logger,
	}

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", g.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", g.handleJob)
	mux.HandleFunc("GET /v1/profiles", g.handleList)
	mux.HandleFunc("GET /v1/profiles/{user}", g.handleProfile)
	mux.HandleFunc("POST /v1/profiles/{user}/aoa", g.handleProfilePost("aoa"))
	mux.HandleFunc("POST /v1/profiles/{user}/render", g.handleProfilePost("render"))
	mux.HandleFunc("POST /v1/stream/render/{user}", g.handleStream)
	mux.HandleFunc("POST /v1/stream/aoa/{user}", g.handleStream)
	mux.HandleFunc("GET /v1/cluster/nodes", g.handleNodes)
	mux.HandleFunc("GET /debug/metrics", g.handleMetrics)
	mux.HandleFunc("GET /healthz", g.handleHealth)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		service.WriteError(w, http.StatusNotFound, service.CodeNoRoute, "no route for %s %s", r.Method, r.URL.Path)
	})
	g.handler = g.instrument(mux)
	return g, nil
}

// Handler returns the gateway's HTTP handler.
func (g *Gateway) Handler() http.Handler { return g.handler }

// Registry exposes the node registry (uniqctl nodes, tests).
func (g *Gateway) Registry() *Registry { return g.reg }

// Close stops the health prober.
func (g *Gateway) Close() { g.reg.Close() }

// --- shared helpers ---

// gwStatusRecorder captures the front-door status for metrics; Unwrap lets
// the streaming relay reach Flush/EnableFullDuplex.
type gwStatusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *gwStatusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *gwStatusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

func (g *Gateway) instrument(next *http.ServeMux) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := &gwStatusRecorder{ResponseWriter: w, code: http.StatusOK}
		// Deferred, so a relay aborted mid-body (see relay) still counts.
		defer func() {
			route := r.Pattern
			if route == "" {
				route = "unmatched"
			}
			g.metrics.observeRequest(route, rec.code)
		}()
		next.ServeHTTP(rec, r)
	})
}

// writeUpstream propagates a forwarding failure: an *APIError travels
// through unchanged — status, code, message and Retry-After — so backend
// backpressure (503 queue-full) reaches the external caller exactly as
// the node emitted it; transport failures become 502.
func writeUpstream(w http.ResponseWriter, err error) {
	var ae *service.APIError
	if errors.As(err, &ae) {
		if ae.RetryAfter > 0 {
			w.Header().Set("Retry-After", fmt.Sprintf("%d", int(ae.RetryAfter.Seconds())))
		}
		code := ae.Code
		if code == "" {
			code = "upstream_error"
		}
		service.WriteError(w, ae.StatusCode, code, "%s", ae.Message)
		return
	}
	service.WriteError(w, http.StatusBadGateway, "node_unreachable", "backend unreachable: %v", err)
}

// report classifies one exchange for the breaker and metrics: any HTTP
// response — success or error — proves the node alive; only transport
// failures count against it. ctx is the caller's request context.
func (g *Gateway) report(ctx context.Context, n *Node, route string, took time.Duration, err error) {
	outcome := outcomeOK
	var ae *service.APIError
	switch {
	case err == nil:
		g.reg.ReportSuccess(n)
	case errors.As(err, &ae):
		g.reg.ReportSuccess(n)
		if ae.StatusCode >= 500 {
			outcome = outcomeUpstream5xx
		} else {
			outcome = outcomeUpstream4xx
		}
	default:
		outcome = g.failed(ctx, n, err)
	}
	g.metrics.observeRoute(n.Name, route, outcome, took)
}

// failed charges a transport failure to node n and returns its routing
// outcome — unless the caller hung up: its request context ctx is done,
// which cancels the upstream request, or a write to it failed. Then the
// node is not at fault.
func (g *Gateway) failed(ctx context.Context, n *Node, err error) string {
	if ctx.Err() != nil || errors.Is(err, errCallerGone) {
		return outcomeCanceled
	}
	g.reg.ReportFailure(n, err)
	return outcomeTransport
}

// answer is a node's 2xx reply whose body the handler has yet to read;
// settle closes it.
type answer struct {
	ctx      context.Context // the caller's request context
	node     *Node
	resp     *http.Response
	route    string
	start    time.Time
	fallback bool // a ring successor answered, not the key's owner
}

// forward sends r's method to key's candidate nodes in ring order, with
// the upstream path, body bytes and headers given, and returns the first
// 2xx answer. Transport errors advance to the next candidate (the node may
// just be gone), resending the same bytes. An HTTP error answer stops the
// walk, coming back as the *service.APIError, unless walkOn (nil: never)
// says to try the successor.
func (g *Gateway) forward(r *http.Request, key string, max int, path string, body []byte,
	hdr http.Header, walkOn func(*service.APIError) bool) (*answer, error) {
	nodes := g.reg.Pick(key, max)
	if len(nodes) == 0 {
		return nil, errNoNodes
	}
	var err error
	for i, n := range nodes {
		start := time.Now()
		var resp *http.Response
		if resp, err = n.Client().Send(r.Context(), r.Method, path, body, hdr); err == nil {
			return &answer{ctx: r.Context(), node: n, resp: resp, route: r.Pattern, start: start, fallback: i > 0}, nil
		}
		g.report(r.Context(), n, r.Pattern, time.Since(start), err)
		if r.Context().Err() != nil {
			return nil, err // the caller hung up: no successor can help
		}
		var ae *service.APIError
		if errors.As(err, &ae) && (walkOn == nil || !walkOn(ae)) {
			return nil, err
		}
	}
	return nil, err
}

// settle closes a's body and reports the exchange, timed to its last
// byte; err is what cut the body short, if anything.
func (g *Gateway) settle(a *answer, err error) {
	a.resp.Body.Close()
	g.report(a.ctx, a.node, a.route, time.Since(a.start), err)
}

// relay copies a 2xx answer to the caller — its status, Content-Type and
// body, streamed as it arrives — and settles it. The status is committed
// before the first body byte, so a node failing mid-body is charged for it
// and the reply is aborted (http.ErrAbortHandler, as httputil.ReverseProxy
// does): the caller sees a truncated response, never a short one that
// looks whole.
func (g *Gateway) relay(w http.ResponseWriter, a *answer) {
	if ct := a.resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(a.resp.StatusCode)
	err := pipe(w, a.resp.Body, nil)
	g.settle(a, err)
	if err != nil {
		panic(http.ErrAbortHandler)
	}
}

var errNoNodes = errors.New("cluster: no available node for key")

// writeForwardErr maps a forward() failure onto the front door.
func writeForwardErr(w http.ResponseWriter, err error) {
	if errors.Is(err, errNoNodes) {
		w.Header().Set("Retry-After", "1")
		service.WriteError(w, http.StatusServiceUnavailable, "no_nodes", "no available backend node")
		return
	}
	writeUpstream(w, err)
}

// checkUser answers 400 bad_user for a key the store would refuse, so a
// crafted path value never reaches a node, let alone charges it.
func checkUser(w http.ResponseWriter, user string) bool {
	if service.ValidUser(user) {
		return true
	}
	service.WriteError(w, http.StatusBadRequest, service.CodeBadUser, "%v: %q", service.ErrBadUser, user)
	return false
}

// readBody reads a unary request body whole through the gateway's
// service.BodyReader, bounded by MaxBodyBytes, answering 400/413 itself.
// It returns false when the caller should stop.
func (g *Gateway) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := g.bodies.Read(w, r)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			service.WriteError(w, http.StatusRequestEntityTooLarge, service.CodeTooLarge, "body exceeds %d bytes", tooBig.Limit)
		} else {
			service.WriteError(w, http.StatusBadRequest, service.CodeBadRequest, "read body: %v", err)
		}
		return nil, false
	}
	return body, true
}

// --- user-keyed unary routes ---

func (g *Gateway) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, ok := g.readBody(w, r)
	if !ok {
		return
	}
	user, err := submitUser(body)
	if err != nil {
		service.WriteError(w, http.StatusBadRequest, service.CodeBadJSON, "bad JSON body: %v", err)
		return
	}
	if !checkUser(w, user) {
		return
	}
	// Transport-level failover is safe for submits: a node that never
	// answered never accepted the job, so trying the successor cannot
	// double-run a session. The node checks the header against the user it
	// decodes.
	a, err := g.forward(r, user, g.reg.Len(), "/v1/sessions", body,
		http.Header{service.RoutedUserHeader: {user}}, nil)
	if err != nil {
		writeForwardErr(w, err)
		return
	}
	var ack service.SubmitResponse
	err = json.NewDecoder(a.resp.Body).Decode(&ack)
	g.settle(a, err)
	if err != nil {
		service.WriteError(w, http.StatusBadGateway, "node_unreachable", "read ack from %s: %v", a.node.Name, err)
		return
	}
	// Qualify the job ID with the accepting node so polls route back to it
	// without a global job table.
	ack.JobID = ack.JobID + "@" + a.node.Name
	ack.StatusURL = "/v1/jobs/" + ack.JobID
	service.WriteJSON(w, a.resp.StatusCode, ack)
}

// submitUser returns the routing key of a POST /v1/sessions body: the value
// of its first top-level key that case-folds to "user", matched the way
// encoding/json matches field names. It reads tokens only that far, so a
// body that starts with its user costs a few bytes; the values of earlier
// keys (a leading "input") are skipped whole. A body whose user is a
// duplicate key under another case is caught by the node, which compares
// RoutedUserHeader with the user it decodes.
func submitUser(body []byte) (string, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	if t, err := dec.Token(); err != nil || t != json.Delim('{') {
		return "", errors.New("body is not a JSON object")
	}
	for dec.More() {
		t, err := dec.Token()
		if err != nil {
			return "", err
		}
		if key, _ := t.(string); strings.EqualFold(key, "user") {
			if t, err = dec.Token(); err != nil {
				return "", err
			}
			user, ok := t.(string)
			if !ok {
				return "", fmt.Errorf("user is %v, not a string", t)
			}
			return user, nil
		}
		var skip json.RawMessage
		if err := dec.Decode(&skip); err != nil {
			return "", err
		}
	}
	if _, err := dec.Token(); err != nil {
		return "", err
	}
	return "", nil
}

func (g *Gateway) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	at := strings.LastIndex(id, "@")
	if at <= 0 || at == len(id)-1 {
		service.WriteError(w, http.StatusNotFound, service.CodeJobNotFound,
			"job id %q is not node-qualified (want <jobid>@<node>)", id)
		return
	}
	bare, nodeName := id[:at], id[at+1:]
	n, ok := g.reg.Node(nodeName)
	if !ok {
		service.WriteError(w, http.StatusNotFound, service.CodeJobNotFound, "unknown node %q in job id", nodeName)
		return
	}
	start := time.Now()
	st, err := n.Client().Job(r.Context(), bare)
	g.report(r.Context(), n, r.Pattern, time.Since(start), err)
	if err != nil {
		writeUpstream(w, err)
		return
	}
	st.ID = id // keep the node-qualified form callers poll with
	service.WriteJSON(w, http.StatusOK, st)
}

func (g *Gateway) handleProfile(w http.ResponseWriter, r *http.Request) {
	user := r.PathValue("user")
	if !checkUser(w, user) {
		return
	}
	// Not-found and 5xx both walk on to the successors: the owner may have
	// just taken over an arc it never stored, while the previous owner
	// still holds the profile. A 400 is bad everywhere.
	a, err := g.forward(r, user, 1+g.cfg.ReadFallback, "/v1/profiles/"+url.PathEscape(user), nil, nil,
		func(ae *service.APIError) bool { return ae.StatusCode != http.StatusBadRequest })
	if err != nil {
		writeForwardErr(w, err)
		return
	}
	w.Header().Set("Uniq-Served-By", a.node.Name)
	if a.fallback {
		// A successor answered: after a failover or rebalance this may be
		// a stale copy — say so rather than hide it.
		w.Header().Set("Uniq-Fallback", "true")
		g.metrics.fallback.Inc()
	}
	g.relay(w, a)
}

// handleProfilePost forwards POST /v1/profiles/{user}/<op> (aoa, render):
// the request body's bytes go to the key's owner, failing over like a
// submit, and the node's answer is relayed.
func (g *Gateway) handleProfilePost(op string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		user := r.PathValue("user")
		if !checkUser(w, user) {
			return
		}
		body, ok := g.readBody(w, r)
		if !ok {
			return
		}
		a, err := g.forward(r, user, 1+g.cfg.ReadFallback, "/v1/profiles/"+url.PathEscape(user)+"/"+op,
			body, nil, nil)
		if err != nil {
			writeForwardErr(w, err)
			return
		}
		g.relay(w, a)
	}
}

// --- fan-out list ---

func (g *Gateway) handleList(w http.ResponseWriter, r *http.Request) {
	nodes := g.reg.Healthy()
	if len(nodes) == 0 {
		writeForwardErr(w, errNoNodes)
		return
	}
	type part struct {
		users []string
		err   error
	}
	parts := make([]part, len(nodes))
	var wg sync.WaitGroup
	for i, n := range nodes {
		wg.Add(1)
		go func(i int, n *Node) {
			defer wg.Done()
			start := time.Now()
			users, err := n.Client().Users(r.Context())
			g.report(r.Context(), n, r.Pattern, time.Since(start), err)
			parts[i] = part{users: users, err: err}
		}(i, n)
	}
	wg.Wait()
	merged := make([]string, 0, 64)
	seen := make(map[string]struct{}, 64)
	failed := 0
	for _, p := range parts {
		if p.err != nil {
			failed++
			continue
		}
		for _, u := range p.users {
			if _, dup := seen[u]; !dup {
				seen[u] = struct{}{}
				merged = append(merged, u)
			}
		}
	}
	if failed == len(nodes) {
		writeUpstream(w, parts[0].err)
		return
	}
	// Ejected nodes are excluded from the fan-out upfront; their keys are
	// just as absent from the merge as those of a node that failed mid
	// fan-out, so both degrade to a partial list rather than erroring the
	// whole fleet view. The header lets callers distinguish partial from
	// complete.
	if ejected := g.reg.Ring().Len() - len(nodes); failed > 0 || ejected > 0 {
		w.Header().Set("Uniq-Partial", "true")
		g.metrics.fanParts.Inc()
	}
	slices.Sort(merged)
	service.WriteJSON(w, http.StatusOK, map[string][]string{"users": merged})
}

// --- cluster introspection ---

func (g *Gateway) handleNodes(w http.ResponseWriter, r *http.Request) {
	service.WriteJSON(w, http.StatusOK, map[string]any{
		"ring":  map[string]any{"nodes": g.reg.Ring().Nodes(), "vnodesPerNode": g.ringVNodes()},
		"nodes": g.reg.Snapshot(),
	})
}

func (g *Gateway) ringVNodes() int {
	if g.cfg.VNodes > 0 {
		return g.cfg.VNodes
	}
	return DefaultVNodes
}

func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "json" {
		service.WriteJSON(w, http.StatusOK, g.metrics.reg.Flatten())
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	g.metrics.reg.WriteText(w)
}

func (g *Gateway) handleHealth(w http.ResponseWriter, r *http.Request) {
	counts := g.reg.CountByState()
	available := counts[NodeHealthy] + counts[NodeProbation]
	body := map[string]any{
		"status":    "ok",
		"nodes":     g.reg.Len(),
		"available": available,
		"version":   buildinfo.Version(),
	}
	if available == 0 {
		body["status"] = "degraded"
		w.Header().Set("Retry-After", "1")
		service.WriteJSON(w, http.StatusServiceUnavailable, body)
		return
	}
	service.WriteJSON(w, http.StatusOK, body)
}

// NodesView is the body of GET /v1/cluster/nodes.
type NodesView struct {
	Ring struct {
		Nodes         []string `json:"nodes"`
		VNodesPerNode int      `json:"vnodesPerNode"`
	} `json:"ring"`
	Nodes []NodeInfo `json:"nodes"`
}

// FetchNodes retrieves a gateway's cluster view (uniqctl nodes).
func FetchNodes(ctx context.Context, gatewayURL string) (NodesView, error) {
	var out NodesView
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		strings.TrimRight(gatewayURL, "/")+"/v1/cluster/nodes", nil)
	if err != nil {
		return out, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("cluster: gateway returned %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return out, fmt.Errorf("cluster: decode nodes view: %w", err)
	}
	return out, nil
}
