package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hrtf"
	"repro/internal/service"
)

// profileBody is the JSON a node serves for a profile the shape of a real
// one: 181 angles, near- and far-field HRIR pairs of 170 taps each, about
// 2.5 MB.
func profileBody(tb testing.TB, user string) []byte {
	tb.Helper()
	rng := rand.New(rand.NewSource(1))
	taps := func() []float64 {
		h := make([]float64, 170)
		for i := range h {
			h[i] = 0.05 * rng.NormFloat64()
		}
		return h
	}
	tab := hrtf.NewTable(48000, 0, 1, 181)
	for i := range tab.Near {
		tab.Near[i] = hrtf.HRIR{Left: taps(), Right: taps(), SampleRate: 48000}
		tab.Far[i] = hrtf.HRIR{Left: taps(), Right: taps(), SampleRate: 48000}
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(service.StoredProfile{User: user, JobID: "j1", Table: tab}); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// newProbedGateway fronts the given nodes with a gateway whose prober has
// run its first round and stopped: the test owns every later breaker
// transition.
func newProbedGateway(t testing.TB, ejectAfter int, specs ...NodeSpec) *Gateway {
	t.Helper()
	gw, err := NewGateway(GatewayConfig{Nodes: specs, ProbeInterval: time.Hour, EjectAfter: ejectAfter})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw.Close)
	gw.Registry().Close() // returns once the start-up round is done
	return gw
}

func wantError(t *testing.T, resp *http.Response, status int, code string) {
	t.Helper()
	if resp.StatusCode != status {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("status = %d (%s), want %d", resp.StatusCode, body, status)
	}
	if got := resp.Header.Get("Content-Type"); got != "application/json" {
		t.Fatalf("error Content-Type = %q", got)
	}
	if e := decodeJSON[errorBody](t, resp); e.Code != code {
		t.Fatalf("error code = %q (%s), want %q", e.Code, e.Error, code)
	}
}

// TestGatewayFrontDoorLimits: the gateway itself refuses oversized bodies
// (413 too_large) and submits it cannot route — not an object, a user that
// is not a string (400 bad_json), a missing or invalid user (400
// bad_user) — without a node seeing a request.
func TestGatewayFrontDoorLimits(t *testing.T) {
	a, b := newFakeNode(t, "a"), newFakeNode(t, "b")
	_, front := newTestGatewayWith(t, func(c *GatewayConfig) { c.MaxBodyBytes = 1 << 10 }, a, b)

	big := `{"user":"user-1","input":"` + strings.Repeat("x", 2<<10) + `"}`
	for _, tc := range []struct {
		name, path string
		body       io.Reader
		status     int
		code       string
	}{
		{"oversized submit", "/v1/sessions", strings.NewReader(big), 413, service.CodeTooLarge},
		{"oversized chunked submit", "/v1/sessions", io.MultiReader(strings.NewReader(big)), 413, service.CodeTooLarge},
		{"oversized render", "/v1/profiles/user-1/render", strings.NewReader(big), 413, service.CodeTooLarge},
		{"oversized aoa", "/v1/profiles/user-1/aoa", io.MultiReader(strings.NewReader(big)), 413, service.CodeTooLarge},
		{"array", "/v1/sessions", strings.NewReader(`[{"user":"user-1"}]`), 400, service.CodeBadJSON},
		{"string", "/v1/sessions", strings.NewReader(`"user-1"`), 400, service.CodeBadJSON},
		{"not JSON", "/v1/sessions", strings.NewReader(`user=user-1`), 400, service.CodeBadJSON},
		{"empty", "/v1/sessions", strings.NewReader(``), 400, service.CodeBadJSON},
		{"numeric user", "/v1/sessions", strings.NewReader(`{"user":7,"input":{}}`), 400, service.CodeBadJSON},
		{"null user", "/v1/sessions", strings.NewReader(`{"user":null,"input":{}}`), 400, service.CodeBadJSON},
		{"object user", "/v1/sessions", strings.NewReader(`{"input":{},"USER":{"id":"user-1"}}`), 400, service.CodeBadJSON},
		{"truncated", "/v1/sessions", strings.NewReader(`{"input":{}`), 400, service.CodeBadJSON},
		{"no user", "/v1/sessions", strings.NewReader(`{"input":{}}`), 400, service.CodeBadUser},
		{"invalid user", "/v1/sessions", strings.NewReader(`{"user":"../user-1","input":{}}`), 400, service.CodeBadUser},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(front.URL+tc.path, "application/json", tc.body)
			if err != nil {
				t.Fatal(err)
			}
			wantError(t, resp, tc.status, tc.code)
		})
	}
	if n := a.requests.Load() + b.requests.Load(); n != 0 {
		t.Fatalf("nodes saw %d requests, want 0", n)
	}
}

// TestGatewayRejectsCraftedPaths: an escaped path value must not reach a
// node as a path of its own. A crafted user is refused at the gateway on
// every user-keyed route, and a crafted job ID travels escaped, so the
// node answers "no such job" instead of redirecting to its /debug pages
// (which the gateway used to count as a transport failure: three such
// requests ejected a healthy node).
func TestGatewayRejectsCraftedPaths(t *testing.T) {
	svc, err := service.New(service.Config{StoreDir: t.TempDir(), Workers: 1, QueueDepth: 1, Solver: instantSolver})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = svc.Shutdown(context.Background()) })
	var (
		mu   sync.Mutex
		seen []string
	)
	node := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/healthz" {
			mu.Lock()
			seen = append(seen, r.Method+" "+r.URL.EscapedPath())
			mu.Unlock()
		}
		svc.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(node.Close)
	gw := newProbedGateway(t, 3, NodeSpec{Name: "a", BaseURL: node.URL})
	front := httptest.NewServer(gw.Handler())
	t.Cleanup(front.Close)
	n, _ := gw.Registry().Node("a")

	const crafted = "..%2F..%2Fdebug%2Fmetrics"
	for _, tc := range []struct {
		method, path string
		status       int
		code         string
	}{
		{"GET", "/v1/profiles/" + crafted, 400, service.CodeBadUser},
		{"GET", "/v1/jobs/" + crafted + "@a", 404, service.CodeJobNotFound},
		{"POST", "/v1/profiles/" + crafted + "/aoa", 400, service.CodeBadUser},
		{"POST", "/v1/profiles/" + crafted + "/render", 400, service.CodeBadUser},
		{"POST", "/v1/stream/render/" + crafted, 400, service.CodeBadUser},
		{"POST", "/v1/stream/aoa/" + crafted, 400, service.CodeBadUser},
	} {
		for i := 0; i < 3; i++ {
			req, err := http.NewRequest(tc.method, front.URL+tc.path, strings.NewReader(`{}`))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			wantError(t, resp, tc.status, tc.code)
		}
		if st := n.State(); st != NodeHealthy {
			t.Fatalf("after three %s %s the node is %s, want healthy", tc.method, tc.path, st)
		}
	}
	// Only the job lookups reached the node, still escaped.
	mu.Lock()
	got := strings.Join(seen, "\n") + "\n"
	mu.Unlock()
	if want := strings.Repeat("GET /v1/jobs/"+crafted+"\n", 3); got != want {
		t.Fatalf("node saw:\n%swant:\n%s", got, want)
	}
}

// TestGatewayRoutedUserIsStoredUser: the gateway routes a submit by its
// first user key, encoding/json stores the last. A body whose keys
// disagree, by duplicate or by case folding, must be refused or stored on
// the ring owner of the user it is stored under — never on another node.
func TestGatewayRoutedUserIsStoredUser(t *testing.T) {
	names := []string{"n1", "n2", "n3"}
	nodes := map[string]*service.Service{}
	specs := make([]NodeSpec, len(names))
	for i, name := range names {
		svc, ts := startUniqd(t, instantSolver, 1, 8)
		nodes[name] = svc
		specs[i] = NodeSpec{Name: name, BaseURL: ts.URL}
	}
	gw, err := NewGateway(GatewayConfig{Nodes: specs, ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw.Close)
	front := httptest.NewServer(gw.Handler())
	t.Cleanup(front.Close)
	gwc := service.NewClient(front.URL)
	ring := gw.Registry().Ring()

	// Two users per case, each pair owned by different nodes.
	var users []string
	for i := 0; len(users) < 8; i++ {
		u := fmt.Sprintf("dup-%d", i)
		if len(users)%2 == 1 && ring.Owner(u) == ring.Owner(users[len(users)-1]) {
			continue
		}
		users = append(users, u)
	}
	input, err := json.Marshal(e2eSession())
	if err != nil {
		t.Fatal(err)
	}
	in := string(input)
	for i, tc := range []struct{ body, stored string }{
		{`{"user":"` + users[0] + `","input":` + in + `,"USER":"` + users[1] + `"}`, users[1]},
		{`{"user":"` + users[2] + `","input":` + in + `,"u` + "ſ" + `er":"` + users[3] + `"}`, users[3]},
		{`{"input":` + in + `,"User":"` + users[4] + `","user":"` + users[5] + `"}`, users[5]},
		{`{"USER":"` + users[6] + `","input":` + in + `}`, users[6]},
	} {
		resp, err := http.Post(front.URL+"/v1/sessions", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusAccepted {
			wantError(t, resp, http.StatusBadRequest, service.CodeBadUser)
			continue
		}
		ack := decodeJSON[service.SubmitResponse](t, resp)
		if _, err := gwc.WaitDone(t.Context(), ack.JobID, 10*time.Millisecond); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		owner := ring.Owner(tc.stored)
		for name, svc := range nodes {
			if _, err := svc.Store().Get(tc.stored); (err == nil) != (name == owner) {
				t.Fatalf("case %d: %s stored on %s? %v; the ring owner is %s", i, tc.stored, name, err == nil, owner)
			}
		}
	}
	// The plain case-folded key is a valid body and must be accepted.
	if _, err := nodes[ring.Owner(users[6])].Store().Get(users[6]); err != nil {
		t.Fatalf("upper-case USER body not stored: %v", err)
	}
}

// TestOversizedSessionsRejected: a session whose sample rate or audio
// lengths would size a solve past the session caps gets 400
// invalid_session, from the node and through the gateway, and the node
// stays up. The node runs the real solver: a sample rate of 1e20 used to
// panic it in channel estimation, which ended the process.
func TestOversizedSessionsRejected(t *testing.T) {
	_, node := startUniqd(t, core.PersonalizeContext, 1, 4)
	gw := newProbedGateway(t, 2, NodeSpec{Name: "n1", BaseURL: node.URL})
	front := httptest.NewServer(gw.Handler())
	t.Cleanup(front.Close)
	for _, tc := range []struct {
		name   string
		mutate func(*core.SessionInput)
	}{
		{"sample rate 1e20", func(in *core.SessionInput) { in.SampleRate = 1e20 }},
		{"1000x sample rate", func(in *core.SessionInput) { in.SampleRate *= 1000 }},
		{"2097152-sample probe", func(in *core.SessionInput) { in.Probe = make([]float64, 2097152) }},
		{"10 s stop", func(in *core.SessionInput) {
			in.Stops[0].Left, in.Stops[0].Right = make([]float64, 480000), make([]float64, 480000)
		}},
	} {
		in := e2eSession()
		tc.mutate(&in)
		body, err := json.Marshal(service.SubmitRequest{User: "big", Input: in})
		if err != nil {
			t.Fatal(err)
		}
		for _, url := range []string{node.URL, front.URL} {
			resp, err := http.Post(url+"/v1/sessions", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatalf("%s via %s: %v", tc.name, url, err)
			}
			wantError(t, resp, http.StatusBadRequest, service.CodeInvalidSession)
		}
	}
	resp, err := http.Get(node.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("node /healthz %d after the oversized sessions", resp.StatusCode)
	}
}

// TestGatewayForwardsBytes: unary bodies cross the gateway as bytes in both
// directions — a re-encode would normalize this whitespace and number
// spelling — and a submit carries the user it was routed by.
func TestGatewayForwardsBytes(t *testing.T) {
	var (
		mu     sync.Mutex
		got    = map[string]string{}
		routed string
	)
	reply := func(w http.ResponseWriter, ct, body string) {
		w.Header().Set("Content-Type", ct)
		io.WriteString(w, body)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		mu.Lock()
		got[r.Method+" "+r.URL.Path] = string(body)
		if r.URL.Path == "/v1/sessions" {
			routed = r.Header.Get(service.RoutedUserHeader)
		}
		mu.Unlock()
		switch r.URL.Path {
		case "/v1/sessions":
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusAccepted)
			io.WriteString(w, `{"jobId":"j7","state":"queued","statusUrl":"/v1/jobs/j7"}`)
		case "/v1/profiles/user-1":
			reply(w, "application/json; charset=utf-8", `{"user": "user-1" ,"table":{"near":[1.50E0]}}`+"\n")
		default:
			reply(w, "application/json", `{"angleDeg": 4.0e1, "method":"known"}`)
		}
	})
	node := httptest.NewServer(mux)
	t.Cleanup(node.Close)
	gw := newProbedGateway(t, 3, NodeSpec{Name: "a", BaseURL: node.URL})
	front := httptest.NewServer(gw.Handler())
	t.Cleanup(front.Close)

	submit := `{ "user" : "user-1", "input": {"sampleRate": 4.8e4} }`
	post := `{"left": [1.0, 2], "right":[0.50]}`
	for _, tc := range []struct {
		method, path, body, wantCT, wantBody string
		status                               int
	}{
		{"GET", "/v1/profiles/user-1", "", "application/json; charset=utf-8",
			`{"user": "user-1" ,"table":{"near":[1.50E0]}}` + "\n", 200},
		{"POST", "/v1/profiles/user-1/aoa", post, "application/json", `{"angleDeg": 4.0e1, "method":"known"}`, 200},
		{"POST", "/v1/profiles/user-1/render", post, "application/json", `{"angleDeg": 4.0e1, "method":"known"}`, 200},
		{"POST", "/v1/sessions", submit, "application/json",
			`{"jobId":"j7@a","state":"queued","statusUrl":"/v1/jobs/j7@a"}` + "\n", 202},
	} {
		req, err := http.NewRequest(tc.method, front.URL+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.status || resp.Header.Get("Content-Type") != tc.wantCT || string(body) != tc.wantBody {
			t.Fatalf("%s %s = %d %q %q, want %d %q %q", tc.method, tc.path,
				resp.StatusCode, resp.Header.Get("Content-Type"), body, tc.status, tc.wantCT, tc.wantBody)
		}
		mu.Lock()
		sent := got[tc.method+" "+tc.path]
		mu.Unlock()
		if sent != tc.body {
			t.Fatalf("%s %s: node received %q, want the caller's bytes %q", tc.method, tc.path, sent, tc.body)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if routed != "user-1" {
		t.Fatalf("%s = %q, want user-1", service.RoutedUserHeader, routed)
	}
}

// TestGatewayRelayAbortsMidBody: once a node's 2xx status is relayed, a
// node failure mid-body cannot become an error status. The caller's reply
// is cut short — a read error, not a short body that looks whole — and
// the failure counts against the node.
func TestGatewayRelayAbortsMidBody(t *testing.T) {
	node := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"user":"user-1","table":{"near":[` + strings.Repeat("0.125,", 20000)))
		http.NewResponseController(w).Flush()
		panic(http.ErrAbortHandler) // the node dies mid-body
	}))
	t.Cleanup(node.Close)
	gw := newProbedGateway(t, 3, NodeSpec{Name: "a", BaseURL: node.URL})
	front := httptest.NewServer(gw.Handler())
	t.Cleanup(front.Close)

	resp, err := http.Get(front.URL + "/v1/profiles/user-1")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want the node's 200", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err == nil {
		t.Fatalf("read a %d-byte body without error; want the truncation surfaced", len(body))
	}
	info, _ := newTestGatewayNode(t, front, "a")
	if info.ConsecFails != 1 || info.LastErr == "" {
		t.Fatalf("node after a mid-body failure: %+v, want one failure recorded", info)
	}
	resp, err = http.Get(front.URL + "/debug/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	flat := decodeJSON[map[string]float64](t, resp)
	if flat[`uniqgw_route_total{node="a",route="GET /v1/profiles/{user}",outcome="transport_error"}`] != 1 {
		t.Fatalf("mid-body failure not counted as a transport error: %v", flat)
	}
	if flat[`uniqgw_requests_total{route="GET /v1/profiles/{user}",code="200"}`] != 1 {
		t.Fatalf("aborted reply missing from the front-door count: %v", flat)
	}
}

// discardWriter is a ResponseWriter that checks the relayed bytes against
// want as they arrive, allocating nothing.
type discardWriter struct {
	h    http.Header
	code int
	want []byte
	off  int
	bad  bool
}

func (d *discardWriter) Header() http.Header  { return d.h }
func (d *discardWriter) WriteHeader(code int) { d.code = code }
func (d *discardWriter) Write(p []byte) (int, error) {
	if d.off+len(p) > len(d.want) || !bytes.Equal(p, d.want[d.off:d.off+len(p)]) {
		d.bad = true
	}
	d.off += len(p)
	return len(p), nil
}

// TestGatewayProfileReadStreams pins the relay: a profile read streams the
// node's body through a fixed buffer, so the gateway allocates a small
// fixed amount per read however large the profile is. Decoding and
// re-encoding the profile allocated several times its size.
func TestGatewayProfileReadStreams(t *testing.T) {
	body := profileBody(t, "user-1")
	node := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write(body)
	}))
	t.Cleanup(node.Close)
	h := newProbedGateway(t, 3, NodeSpec{Name: "a", BaseURL: node.URL}).Handler()
	dw := &discardWriter{want: body}
	read := func() {
		*dw = discardWriter{h: http.Header{}, want: body}
		h.ServeHTTP(dw, httptest.NewRequest(http.MethodGet, "/v1/profiles/user-1", nil))
		if dw.code != http.StatusOK || dw.bad || dw.off != len(body) {
			t.Fatalf("relayed status %d, %d of %d bytes, mismatch %v", dw.code, dw.off, len(body), dw.bad)
		}
	}
	read() // dial and warm the connection

	const reads = 8
	const budget = 256 << 10 // bytes per read, a tenth of the body
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reads; i++ {
		read()
	}
	runtime.ReadMemStats(&after)
	perRead := (after.TotalAlloc - before.TotalAlloc) / reads
	t.Logf("%d-byte profile: %d bytes allocated per read", len(body), perRead)
	if perRead > budget {
		t.Fatalf("a %d-byte profile read allocated %d bytes in the gateway and node, budget %d", len(body), perRead, budget)
	}
}

// BenchmarkGatewayProfileRead: one profile read from a client through the
// gateway to a node serving a pre-encoded 2.5 MB profile, all on loopback.
// bench.json's gateway/profile-read record measures the same exchange.
func BenchmarkGatewayProfileRead(b *testing.B) {
	body := profileBody(b, "user-1")
	node := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write(body)
	}))
	defer node.Close()
	gw := newProbedGateway(b, 3, NodeSpec{Name: "a", BaseURL: node.URL})
	front := httptest.NewServer(gw.Handler())
	defer front.Close()
	client := front.Client()
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Get(front.URL + "/v1/profiles/user-1")
		if err != nil {
			b.Fatal(err)
		}
		n, err := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || n != int64(len(body)) {
			b.Fatalf("read %d of %d bytes: %v", n, len(body), err)
		}
	}
}

// FuzzSubmitUser: no body may make the routing scan panic, and for a
// body with one user key — marshalled from SubmitRequest or spelled in
// any case, before or after the input — the scan routes by exactly the
// user encoding/json stores.
func FuzzSubmitUser(f *testing.F) {
	for _, seed := range []struct {
		user, key  string
		inputFirst bool
		raw        string
	}{
		{"alice", "user", false, `{"user":"alice","input":{}}`},
		{"bob", "USER", true, `{"input":[1,{"user":"x"}],"USER":"y"}`},
		{"bſob", "uſer", false, `{"uſer":"k","user":"z"}`},
		{"\"\\\x00 \xffé", "User", true, `{"input":"}","user":"a\"b"}`},
		{"", "input", false, `{"user":`},
		{"x", "us\u0000er", true, `[`},
		{"x", "user", false, `{"user":7}`},
	} {
		f.Add(seed.user, seed.key, seed.inputFirst, []byte(seed.raw))
	}
	in := e2eSession()
	f.Fuzz(func(t *testing.T, user, key string, inputFirst bool, raw []byte) {
		submitUser(raw) // any bytes: an answer or an error, never a panic

		var body []byte
		var err error
		if inputFirst {
			body, err = json.Marshal(struct {
				Input core.SessionInput `json:"input"`
				User  string            `json:"user"`
			}{in, user})
		} else {
			body, err = json.Marshal(service.SubmitRequest{User: user, Input: in})
		}
		if err != nil {
			t.Fatal(err)
		}
		check := func(body []byte) {
			var want service.SubmitRequest
			if err := json.Unmarshal(body, &want); err != nil {
				return // not a well-formed submit; the scan need not agree
			}
			got, err := submitUser(body)
			if err != nil || got != want.User {
				t.Fatalf("submitUser(%q) = %q, %v; encoding/json stores %q", body, got, err, want.User)
			}
		}
		check(body)
		// The same body with the key respelled.
		k, _ := json.Marshal(key)
		check(bytes.Replace(body, []byte(`"user":`), append(k, ':'), 1))
	})
}
