package cluster

import (
	"errors"
	"io"
	"net/http"
	"time"

	"repro/internal/service"
)

// streamRelayHeaders are the backend response headers a stream relay
// forwards to the caller before the first output byte.
var streamRelayHeaders = []string{"Content-Type", "Uniq-Sample-Rate", "Retry-After"}

// handleStream relays a full-duplex chunked stream (/v1/stream/render/...,
// /v1/stream/aoa/...) to the key owner. Unlike the unary routes there is
// no transport-level failover: the caller's request body is consumed as it
// forwards, so a mid-dial retry could replay a partial stream. The caller
// reconnects instead — by then the prober has moved the key.
func (g *Gateway) handleStream(w http.ResponseWriter, r *http.Request) {
	user := r.PathValue("user")
	if !checkUser(w, user) {
		return
	}
	nodes := g.reg.Pick(user, 1)
	if len(nodes) == 0 {
		writeForwardErr(w, errNoNodes)
		return
	}
	n := nodes[0]
	start := time.Now()
	outcome := g.relayStream(w, r, n)
	g.metrics.observeRoute(n.Name, r.Pattern, outcome, time.Since(start))
}

// relayStream pipes one streaming exchange through to node n and returns
// the routing outcome for metrics. Breaker accounting happens inline: a
// response — any status — proves the node alive; a dial/transport failure
// counts against it unless the caller hung up.
func (g *Gateway) relayStream(w http.ResponseWriter, r *http.Request, n *Node) string {
	out, err := http.NewRequestWithContext(r.Context(), http.MethodPost,
		n.BaseURL+r.URL.EscapedPath()+queryOf(r), r.Body)
	if err != nil {
		service.WriteError(w, http.StatusInternalServerError, service.CodeInternal, "build upstream request: %v", err)
		return outcomeTransport
	}
	out.Header.Set("Content-Type", r.Header.Get("Content-Type"))
	// The backend replies (headers) before the stream body completes; the
	// transport must not wait for request EOF. Chunked both ways.
	out.ContentLength = -1

	client := g.cfg.HTTPClient
	if client == nil {
		client = http.DefaultClient
	}
	resp, err := client.Do(out)
	if err != nil {
		service.WriteError(w, http.StatusBadGateway, "node_unreachable", "backend unreachable: %v", err)
		return g.failed(r.Context(), n, err)
	}
	defer resp.Body.Close()
	g.reg.ReportSuccess(n)

	for _, h := range streamRelayHeaders {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.Header().Set("Uniq-Served-By", n.Name)
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		// Pre-stream rejection (no profile, draining, bad params): the
		// backend's JSON error body passes through with its status.
		w.Header().Set("Connection", "close")
		w.WriteHeader(resp.StatusCode)
		_, _ = io.Copy(w, io.LimitReader(resp.Body, 1<<20))
		if resp.StatusCode >= 500 {
			return outcomeUpstream5xx
		}
		return outcomeUpstream4xx
	}

	rc := http.NewResponseController(w)
	// Full duplex: keep reading the caller's request body while writing the
	// backend's response — the stream protocol interleaves both directions.
	if err := rc.EnableFullDuplex(); err != nil {
		w.Header().Set("Connection", "close")
		service.WriteError(w, http.StatusInternalServerError, service.CodeInternal, "full-duplex relay unsupported: %v", err)
		return outcomeTransport
	}
	w.WriteHeader(resp.StatusCode)
	_ = rc.Flush()

	// Flush per read so low-rate sessions (one AoA event at a time) see
	// output promptly instead of when a buffer fills. A mid-stream backend
	// death is too late for a status change: the truncated body is the
	// signal the caller sees.
	if err := pipe(w, resp.Body, func() { _ = rc.Flush() }); err != nil {
		return g.failed(r.Context(), n, err)
	}
	return outcomeOK
}

// errCallerGone cuts a relay short when a write to the caller fails: the
// caller, not the node, went away.
var errCallerGone = errors.New("cluster: caller went away")

// pipe copies src to w until src ends, calling flush (when set) after each
// write. It returns nil at EOF, errCallerGone when a write fails, and
// otherwise the error that cut src short.
func pipe(w io.Writer, src io.Reader, flush func()) error {
	buf := make([]byte, 32<<10)
	for {
		n, rerr := src.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return errCallerGone
			}
			if flush != nil {
				flush()
			}
		}
		if errors.Is(rerr, io.EOF) {
			return nil
		}
		if rerr != nil {
			return rerr
		}
	}
}

func queryOf(r *http.Request) string {
	if r.URL.RawQuery == "" {
		return ""
	}
	return "?" + r.URL.RawQuery
}
