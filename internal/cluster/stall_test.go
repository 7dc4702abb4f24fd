package cluster

import (
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"
)

// TestGatewayStalledSubmitsBoundHeap: a Content-Length is a claim, not
// bytes. k submits that each declare MaxBodyBytes and then stall after one
// byte may raise the gateway's live heap by at most one MaxBodyBytes (its
// presize budget) plus 1 MiB, for as long as they stay open.
func TestGatewayStalledSubmitsBoundHeap(t *testing.T) {
	const (
		limit = 16 << 20
		k     = 6
	)
	a := newFakeNode(t, "a")
	gw, _ := newTestGatewayWith(t, func(c *GatewayConfig) { c.MaxBodyBytes = limit }, a)
	entered := make(chan struct{}, k)
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/sessions" {
			entered <- struct{}{}
		}
		gw.Handler().ServeHTTP(w, r)
	}))
	// Cleanups run last-in first-out: the connections close before the
	// server waits for their handlers.
	t.Cleanup(front.Close)

	heap := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	base := heap()
	for range k {
		c, err := net.Dial("tcp", front.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		if _, err := fmt.Fprintf(c, "POST /v1/sessions HTTP/1.1\r\nHost: gw\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n{", limit); err != nil {
			t.Fatal(err)
		}
	}
	for range k {
		select {
		case <-entered:
		case <-time.After(10 * time.Second):
			t.Fatal("stalled submits never reached the gateway's handler")
		}
	}
	// Each handler sizes its buffer as soon as it starts reading; take the
	// peak over a short window while all of them wait for bytes.
	var peak int64
	for range 10 {
		time.Sleep(20 * time.Millisecond)
		peak = max(peak, heap())
	}
	if rise := peak - base; rise > limit+1<<20 {
		t.Fatalf("%d stalled submits declaring %d MiB each raised the heap by %.1f MiB, want at most %d MiB",
			k, limit>>20, float64(rise)/(1<<20), limit>>20+1)
	} else {
		t.Logf("%d stalled submits raised the heap by %.2f MiB", k, float64(rise)/(1<<20))
	}
	if n := a.requests.Load(); n != 0 {
		t.Fatalf("node saw %d requests, want 0", n)
	}
}
