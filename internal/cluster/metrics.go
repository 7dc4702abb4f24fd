package cluster

import (
	"time"

	"repro/internal/obs"
)

// backendLatencyBuckets cover gateway-to-backend round trips: sub-ms
// profile cache hits through multi-second saturated submits.
var backendLatencyBuckets = []float64{
	0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// gatewayMetrics is the uniqgw obs registry: per-node routing outcomes and
// latency, front-door request counts, and ring/breaker gauges.
type gatewayMetrics struct {
	reg      *obs.Registry
	routes   *obs.CounterVec   // uniqgw_route_total{node,route,outcome}
	backend  *obs.HistogramVec // uniqgw_backend_seconds{node}
	requests *obs.CounterVec   // uniqgw_requests_total{route,code}
	fanParts *obs.Counter      // partial fan-out list responses
	fallback *obs.Counter      // profile reads served by a non-owner
}

// Routing outcomes for uniqgw_route_total.
const (
	outcomeOK          = "ok"
	outcomeUpstream4xx = "upstream_4xx"
	outcomeUpstream5xx = "upstream_5xx"
	outcomeTransport   = "transport_error"
	// outcomeCanceled is an exchange cut short by the caller hanging up;
	// it does not count against the node.
	outcomeCanceled = "caller_canceled"
)

func newGatewayMetrics(reg *obs.Registry, r *Registry) *gatewayMetrics {
	m := &gatewayMetrics{
		reg: reg,
		routes: reg.CounterVec("uniqgw_route_total",
			"Requests forwarded to backends by node, route pattern and outcome.",
			"node", "route", "outcome"),
		backend: reg.HistogramVec("uniqgw_backend_seconds",
			"Gateway-to-backend round-trip latency by node.",
			backendLatencyBuckets, "node"),
		requests: reg.CounterVec("uniqgw_requests_total",
			"Front-door HTTP requests by route pattern and status code.",
			"route", "code"),
		fanParts: reg.Counter("uniqgw_list_partial_total",
			"GET /v1/profiles fan-outs that skipped at least one unreachable node."),
		fallback: reg.Counter("uniqgw_read_fallback_total",
			"Profile reads served by a ring successor because the owner failed."),
	}
	obs.RegisterRuntime(reg)
	reg.GaugeFunc("uniqgw_ring_nodes", "Nodes on the hash ring.",
		func() float64 { return float64(r.Ring().Len()) })
	nodesByState := reg.GaugeVec("uniqgw_nodes", "Nodes by breaker state.", "state")
	reg.OnCollect(func() {
		for state, count := range r.CountByState() {
			nodesByState.With(string(state)).Set(float64(count))
		}
	})
	return m
}

// observeRoute records one forwarded exchange.
func (m *gatewayMetrics) observeRoute(node, route, outcome string, took time.Duration) {
	m.routes.With(node, route, outcome).Inc()
	m.backend.With(node).Observe(took.Seconds())
}

// observeRequest records one front-door request.
func (m *gatewayMetrics) observeRequest(route string, code int) {
	m.requests.With(route, obs.StatusLabel(code)).Inc()
}
