package cluster

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestGatewayCallerHangUpNotChargedToNode: a caller that hangs up while
// its reply streams cancels the gateway's upstream request, and that
// cancellation is the caller's doing, not the node's. Three hang-ups
// against a node stalled mid-body leave it healthy; three mid-body node
// failures with the caller still there eject it.
func TestGatewayCallerHangUpNotChargedToNode(t *testing.T) {
	var dies atomic.Bool
	stop := make(chan struct{})
	node := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"user":"user-1","table":{"near":[` + strings.Repeat("0.125,", 20000)))
		http.NewResponseController(w).Flush()
		if dies.Load() {
			panic(http.ErrAbortHandler) // the node dies mid-body
		}
		select { // the node stalls mid-body
		case <-r.Context().Done():
		case <-stop:
		}
	}))
	t.Cleanup(node.Close)
	t.Cleanup(func() { close(stop) })
	gw := newProbedGateway(t, 3, NodeSpec{Name: "a", BaseURL: node.URL})
	front := httptest.NewServer(gw.Handler())
	t.Cleanup(front.Close)

	// settled waits until the gateway has recorded n profile exchanges
	// with node a, whatever their outcome.
	settled := func(n int) map[string]float64 {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			resp, err := http.Get(front.URL + "/debug/metrics?format=json")
			if err != nil {
				t.Fatal(err)
			}
			flat := decodeJSON[map[string]float64](t, resp)
			got := 0.0
			for k, v := range flat {
				if strings.HasPrefix(k, `uniqgw_route_total{node="a",route="GET /v1/profiles/{user}"`) {
					got += v
				}
			}
			if got >= float64(n) {
				return flat
			}
			if time.Now().After(deadline) {
				t.Fatalf("gateway settled %v of %d exchanges: %v", got, n, flat)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	for i := 1; i <= 3; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, front.URL+"/v1/profiles/user-1", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(resp.Body, make([]byte, 1024)); err != nil {
			t.Fatalf("hang-up %d: the relay never started: %v", i, err)
		}
		cancel() // the caller hangs up mid-body
		resp.Body.Close()
		settled(i)
	}
	flat := settled(3)
	if info, _ := newTestGatewayNode(t, front, "a"); info.State != NodeHealthy || info.ConsecFails != 0 {
		t.Fatalf("node after three caller hang-ups: %+v, want healthy with no failures", info)
	}
	if got := flat[`uniqgw_route_total{node="a",route="GET /v1/profiles/{user}",outcome="caller_canceled"}`]; got != 3 {
		t.Fatalf("caller hang-ups counted %v times as caller_canceled, want 3: %v", got, flat)
	}

	dies.Store(true)
	for i := 1; i <= 3; i++ {
		resp, err := http.Get(front.URL + "/v1/profiles/user-1")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadAll(resp.Body); err == nil {
			t.Fatalf("failure %d: read the reply whole; want the node's failure surfaced", i)
		}
		resp.Body.Close()
		settled(3 + i)
	}
	if info, _ := newTestGatewayNode(t, front, "a"); info.State != NodeEjected {
		t.Fatalf("node after three mid-body failures: %+v, want ejected", info)
	}
}
