package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/service"
)

// fakeNode is a scriptable uniqd stand-in: enough of the JSON surface for
// the gateway's unary routes, with per-route overrides.
type fakeNode struct {
	name     string
	ts       *httptest.Server
	requests atomic.Int64 // every request but health probes
	submits  atomic.Int64
	profiles atomic.Int64
	// saturated flips /v1/sessions into 503 queue_full + Retry-After.
	saturated atomic.Bool
	// missing flips profile reads into 404.
	missing atomic.Bool
	users   []string
}

func newFakeNode(t *testing.T, name string, users ...string) *fakeNode {
	f := &fakeNode{name: name, users: users}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, `{"status":"ok","version":"fake-%s"}`, name)
	})
	mux.HandleFunc("POST /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		if f.saturated.Load() {
			w.Header().Set("Retry-After", "7")
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprint(w, `{"error":"job queue is full","code":"queue_full"}`)
			return
		}
		f.submits.Add(1)
		var req service.SubmitRequest
		json.NewDecoder(r.Body).Decode(&req)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(service.SubmitResponse{
			JobID:     "job-on-" + name,
			State:     service.JobQueued,
			StatusURL: "/v1/jobs/job-on-" + name,
		})
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		if !strings.HasPrefix(id, "job-on-") {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusNotFound)
			fmt.Fprintf(w, `{"error":"no job %s","code":"job_not_found"}`, id)
			return
		}
		json.NewEncoder(w).Encode(service.JobStatus{ID: id, User: "u", State: service.JobDone})
	})
	mux.HandleFunc("GET /v1/profiles", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string][]string{"users": f.users})
	})
	mux.HandleFunc("GET /v1/profiles/{user}", func(w http.ResponseWriter, r *http.Request) {
		f.profiles.Add(1)
		if f.missing.Load() {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusNotFound)
			fmt.Fprintf(w, `{"error":"no profile","code":"profile_not_found"}`)
			return
		}
		json.NewEncoder(w).Encode(service.StoredProfile{User: r.PathValue("user"), JobID: "from-" + name})
	})
	f.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/healthz" {
			f.requests.Add(1)
		}
		mux.ServeHTTP(w, r)
	}))
	t.Cleanup(f.ts.Close)
	return f
}

func newTestGateway(t *testing.T, fakes ...*fakeNode) (*Gateway, *httptest.Server) {
	return newTestGatewayWith(t, nil, fakes...)
}

// newTestGatewayWith is newTestGateway with a hook to adjust the config.
func newTestGatewayWith(t *testing.T, tune func(*GatewayConfig), fakes ...*fakeNode) (*Gateway, *httptest.Server) {
	specs := make([]NodeSpec, len(fakes))
	for i, f := range fakes {
		specs[i] = NodeSpec{Name: f.name, BaseURL: f.ts.URL}
	}
	cfg := GatewayConfig{
		Nodes:         specs,
		VNodes:        64,
		ProbeInterval: 25 * time.Millisecond,
		ProbeTimeout:  time.Second,
		EjectAfter:    2,
	}
	if tune != nil {
		tune(&cfg)
	}
	gw, err := NewGateway(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw.Close)
	front := httptest.NewServer(gw.Handler())
	t.Cleanup(front.Close)
	return gw, front
}

// errorBody is the uniform error body every gateway and node error carries.
type errorBody struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

func decodeJSON[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return v
}

// TestGatewaySubmitRewritesJobID: an accepted job comes back node-qualified
// and polling that qualified ID routes to the accepting node.
func TestGatewaySubmitRewritesJobID(t *testing.T) {
	a, b := newFakeNode(t, "a"), newFakeNode(t, "b")
	_, front := newTestGateway(t, a, b)

	resp, err := http.Post(front.URL+"/v1/sessions", "application/json",
		strings.NewReader(`{"user":"user-7","input":{}}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	ack := decodeJSON[service.SubmitResponse](t, resp)
	owner := ack.JobID[strings.LastIndex(ack.JobID, "@")+1:]
	if owner != "a" && owner != "b" {
		t.Fatalf("job id %q not node-qualified", ack.JobID)
	}
	if !strings.HasPrefix(ack.JobID, "job-on-"+owner+"@") {
		t.Fatalf("job id %q does not name its backend", ack.JobID)
	}
	if ack.StatusURL != "/v1/jobs/"+ack.JobID {
		t.Fatalf("status url %q does not use the qualified id", ack.StatusURL)
	}

	// Poll through the gateway: it must strip the qualifier, hit the right
	// node, and restore the qualified ID in the reply.
	resp, err = http.Get(front.URL + ack.StatusURL)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("job poll status = %d, want 200", resp.StatusCode)
	}
	st := decodeJSON[service.JobStatus](t, resp)
	if st.ID != ack.JobID {
		t.Fatalf("polled id %q, want the qualified %q", st.ID, ack.JobID)
	}

	// An unqualified ID is rejected with the job_not_found code.
	resp, err = http.Get(front.URL + "/v1/jobs/bare-id")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("bare id status = %d, want 404", resp.StatusCode)
	}
	if got := resp.Header.Get("Content-Type"); got != "application/json" {
		t.Fatalf("error Content-Type = %q", got)
	}
	e := decodeJSON[errorBody](t, resp)
	if e.Code != service.CodeJobNotFound {
		t.Fatalf("error code = %q, want %q", e.Code, service.CodeJobNotFound)
	}
}

// TestGatewayBackpressurePropagates: a saturated backend's 503 passes
// through the gateway with its Retry-After and error code intact — the
// gateway must never absorb or re-queue it.
func TestGatewayBackpressurePropagates(t *testing.T) {
	a := newFakeNode(t, "a")
	a.saturated.Store(true)
	_, front := newTestGateway(t, a)

	resp, err := http.Post(front.URL+"/v1/sessions", "application/json",
		strings.NewReader(`{"user":"user-1","input":{}}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "7" {
		t.Fatalf("Retry-After = %q, want the backend's 7", got)
	}
	e := decodeJSON[errorBody](t, resp)
	if e.Code != service.CodeQueueFull {
		t.Fatalf("error code = %q, want %q", e.Code, service.CodeQueueFull)
	}
	// The node answered; backpressure must not trip the breaker.
	n, _ := newTestGatewayNode(t, front, "a")
	if n.State != NodeHealthy {
		t.Fatalf("node state after 503 = %s, want healthy", n.State)
	}
}

// newTestGatewayNode fetches one node's info via the cluster endpoint.
func newTestGatewayNode(t *testing.T, front *httptest.Server, name string) (NodeInfo, NodesView) {
	t.Helper()
	view, err := FetchNodes(t.Context(), front.URL)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range view.Nodes {
		if n.Name == name {
			return n, view
		}
	}
	t.Fatalf("node %s not in cluster view %+v", name, view)
	return NodeInfo{}, view
}

// TestGatewayReadFallback: when the profile owner is dead, the read lands
// on the ring successor and the response says so.
func TestGatewayReadFallback(t *testing.T) {
	a, b := newFakeNode(t, "a"), newFakeNode(t, "b")
	gw, front := newTestGateway(t, a, b)

	owner := gw.Registry().Ring().Owner("user-55")
	var ownerFake, otherFake *fakeNode
	if owner == "a" {
		ownerFake, otherFake = a, b
	} else {
		ownerFake, otherFake = b, a
	}
	ownerFake.ts.Close() // kill the primary

	resp, err := http.Get(front.URL + "/v1/profiles/user-55")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fallback read status = %d, want 200", resp.StatusCode)
	}
	if got := resp.Header.Get("Uniq-Served-By"); got != otherFake.name {
		t.Fatalf("served by %q, want the successor %q", got, otherFake.name)
	}
	if resp.Header.Get("Uniq-Fallback") != "true" {
		t.Fatal("fallback read not flagged with Uniq-Fallback")
	}
	p := decodeJSON[service.StoredProfile](t, resp)
	if p.JobID != "from-"+otherFake.name {
		t.Fatalf("profile came from %q, want %q", p.JobID, otherFake.name)
	}
}

// TestGatewayOwner404FallsThrough: a 404 from the owner (fresh arc after a
// rebalance) still tries the successor, which may hold the profile.
func TestGatewayOwner404FallsThrough(t *testing.T) {
	a, b := newFakeNode(t, "a"), newFakeNode(t, "b")
	gw, front := newTestGateway(t, a, b)

	owner := gw.Registry().Ring().Owner("user-55")
	if owner == "a" {
		a.missing.Store(true)
	} else {
		b.missing.Store(true)
	}

	resp, err := http.Get(front.URL + "/v1/profiles/user-55")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 from the successor", resp.StatusCode)
	}
	resp.Body.Close()

	// Both holding a 404 propagates the backend's error code.
	a.missing.Store(true)
	b.missing.Store(true)
	resp, err = http.Get(front.URL + "/v1/profiles/user-55")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
	e := decodeJSON[errorBody](t, resp)
	if e.Code != service.CodeProfileNotFound {
		t.Fatalf("error code = %q, want %q", e.Code, service.CodeProfileNotFound)
	}
}

// TestGatewayListFanOut: the user list merges every node, dedupes, sorts,
// and flags partial results when a node is down.
func TestGatewayListFanOut(t *testing.T) {
	a := newFakeNode(t, "a", "alice", "carol")
	b := newFakeNode(t, "b", "bob", "carol")
	gw, front := newTestGateway(t, a, b)

	resp, err := http.Get(front.URL + "/v1/profiles")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.Get("Uniq-Partial") != "" {
		t.Fatal("complete fan-out flagged partial")
	}
	list := decodeJSON[map[string][]string](t, resp)
	want := []string{"alice", "bob", "carol"}
	if fmt.Sprint(list["users"]) != fmt.Sprint(want) {
		t.Fatalf("users = %v, want %v", list["users"], want)
	}

	b.ts.Close()
	resp, err = http.Get(front.URL + "/v1/profiles")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("partial fan-out status = %d, want 200", resp.StatusCode)
	}
	if resp.Header.Get("Uniq-Partial") != "true" {
		t.Fatal("degraded fan-out not flagged partial")
	}
	list = decodeJSON[map[string][]string](t, resp)
	if fmt.Sprint(list["users"]) != fmt.Sprint([]string{"alice", "carol"}) {
		t.Fatalf("partial users = %v", list["users"])
	}

	// Once the breaker ejects b it is excluded from the fan-out upfront —
	// the list must still be flagged partial, not silently complete.
	nb, ok := gw.Registry().Node("b")
	if !ok {
		t.Fatal("node b missing from registry")
	}
	waitState(t, nb, NodeEjected)
	resp, err = http.Get(front.URL + "/v1/profiles")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.Get("Uniq-Partial") != "true" {
		t.Fatal("fan-out excluding an ejected node not flagged partial")
	}
	list = decodeJSON[map[string][]string](t, resp)
	if fmt.Sprint(list["users"]) != fmt.Sprint([]string{"alice", "carol"}) {
		t.Fatalf("ejected-excluded users = %v", list["users"])
	}
}

// TestGatewayTransportFailover: a dead owner's submit lands on the next
// ring candidate instead of erroring.
func TestGatewayTransportFailover(t *testing.T) {
	a, b := newFakeNode(t, "a"), newFakeNode(t, "b")
	gw, front := newTestGateway(t, a, b)

	owner := gw.Registry().Ring().Owner("user-9")
	surviving := b
	if owner == "a" {
		a.ts.Close()
	} else {
		b.ts.Close()
		surviving = a
	}

	resp, err := http.Post(front.URL+"/v1/sessions", "application/json",
		strings.NewReader(`{"user":"user-9","input":{}}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("failover submit status = %d (%s), want 202", resp.StatusCode, body)
	}
	ack := decodeJSON[service.SubmitResponse](t, resp)
	if !strings.HasSuffix(ack.JobID, "@"+surviving.name) {
		t.Fatalf("job %q not on the surviving node %q", ack.JobID, surviving.name)
	}
	if surviving.submits.Load() != 1 {
		t.Fatalf("surviving node saw %d submits, want 1", surviving.submits.Load())
	}
}

// TestGatewayJSON404: unknown routes answer machine-readable JSON, like
// every other gateway error.
func TestGatewayJSON404(t *testing.T) {
	a := newFakeNode(t, "a")
	_, front := newTestGateway(t, a)

	resp, err := http.Get(front.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
	if got := resp.Header.Get("Content-Type"); got != "application/json" {
		t.Fatalf("Content-Type = %q, want application/json", got)
	}
	e := decodeJSON[errorBody](t, resp)
	if e.Code != service.CodeNoRoute {
		t.Fatalf("code = %q, want %q", e.Code, service.CodeNoRoute)
	}
}

// TestGatewayHealthDegrades: with every backend gone the gateway's own
// /healthz flips to 503 so upstream load balancers stop sending traffic.
func TestGatewayHealthDegrades(t *testing.T) {
	a := newFakeNode(t, "a")
	gw, front := newTestGateway(t, a)

	resp, err := http.Get(front.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy gateway /healthz = %d, want 200", resp.StatusCode)
	}

	a.ts.Close()
	n, _ := gw.Registry().Node("a")
	deadline := time.Now().Add(2 * time.Second)
	for n.State() != NodeEjected && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	resp, err = http.Get(front.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("gateway /healthz with dead fleet = %d, want 503", resp.StatusCode)
	}

	// And user traffic gets an honest 503 + Retry-After, not a hang.
	resp, err = http.Get(front.URL + "/v1/profiles/user-1")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("routing with dead fleet = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	e := decodeJSON[errorBody](t, resp)
	if e.Code != "no_nodes" {
		t.Fatalf("code = %q, want no_nodes", e.Code)
	}
}

// TestGatewayMetricsExposed: the routing counters show up on the gateway's
// own /debug/metrics in both formats.
func TestGatewayMetricsExposed(t *testing.T) {
	a := newFakeNode(t, "a")
	_, front := newTestGateway(t, a)

	resp, err := http.Get(front.URL + "/v1/profiles/user-3")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	runtime.GC() // so go_gc_pause_seconds has a pause to count
	resp, err = http.Get(front.URL + "/debug/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	flat := decodeJSON[map[string]float64](t, resp)
	if flat[`uniqgw_route_total{node="a",route="GET /v1/profiles/{user}",outcome="ok"}`] < 1 {
		t.Fatalf("route counter missing from %v", flat)
	}
	if flat["uniqgw_ring_nodes"] != 1 {
		t.Fatalf("ring gauge = %v, want 1", flat["uniqgw_ring_nodes"])
	}
	for _, name := range []string{"go_gc_heap_live_bytes", "go_gc_heap_goal_bytes", "go_gc_cycles_total", "go_goroutines", "go_gc_pause_seconds_count"} {
		if _, ok := flat[name]; !ok {
			t.Errorf("runtime series %s missing", name)
		}
	}
	if flat["go_goroutines"] < 1 || flat["go_gc_heap_goal_bytes"] <= 0 || flat["go_gc_pause_seconds_count"] < 1 {
		t.Errorf("runtime series read %v goroutines, heap goal %v bytes, %v GC pauses",
			flat["go_goroutines"], flat["go_gc_heap_goal_bytes"], flat["go_gc_pause_seconds_count"])
	}

	resp, err = http.Get(front.URL + "/debug/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"uniqgw_route_total", "uniqgw_backend_seconds", "uniqgw_requests_total", "uniqgw_nodes{", "go_gc_heap_goal_bytes"} {
		if !strings.Contains(string(text), want) {
			t.Fatalf("text exposition missing %s", want)
		}
	}
}

// TestGatewayObserveAllocatesNothing pins the gateway's per-request metric
// path: a warm front-door request and its forwarded exchange are counted
// without allocating.
func TestGatewayObserveAllocatesNothing(t *testing.T) {
	a := newFakeNode(t, "a")
	gw, front := newTestGateway(t, a)
	const route = "GET /v1/profiles/{user}"
	if allocs := testing.AllocsPerRun(100, func() {
		gw.metrics.observeRequest(route, http.StatusOK)
		gw.metrics.observeRequest(route, http.StatusNotFound)
		gw.metrics.observeRoute("a", route, outcomeUpstream4xx, time.Millisecond)
	}); allocs != 0 {
		t.Errorf("a warm request's metric calls allocate %v times", allocs)
	}
	resp, err := http.Get(front.URL + "/debug/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	flat := decodeJSON[map[string]float64](t, resp)
	for key, want := range map[string]float64{
		`uniqgw_requests_total{route="GET /v1/profiles/{user}",code="200"}`:                   101,
		`uniqgw_requests_total{route="GET /v1/profiles/{user}",code="404"}`:                   101,
		`uniqgw_route_total{node="a",route="GET /v1/profiles/{user}",outcome="upstream_4xx"}`: 101,
		`uniqgw_backend_seconds_count{node="a"}`:                                              101,
	} {
		if got := flat[key]; got != want {
			t.Errorf("%s = %v, want %v", key, got, want)
		}
	}
}
