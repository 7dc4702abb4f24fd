package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one record of the trace file. Spans of one op share Trace (the
// root span's ID); Parent is 0 for a root.
type span struct {
	Name    string `json:"name"`
	Trace   uint64 `json:"trace"`
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent"`
	StartNs int64  `json:"startNs"`
	EndNs   int64  `json:"endNs"`
}

// tracer keeps spans in memory until the run ends. A disabled tracer
// records nothing, so untraced runs pay only the clock reads their own
// measurements need.
type tracer struct {
	on    bool
	next  atomic.Uint64
	mu    sync.Mutex
	spans []span
}

// newID reserves a span ID, so children can name a parent recorded later.
func (t *tracer) newID() uint64 {
	if !t.on {
		return 0
	}
	return t.next.Add(1)
}

// add records a span under a reserved ID; trace 0 makes it its own trace.
func (t *tracer) add(id uint64, name string, trace, parent uint64, start, end time.Time) {
	if !t.on {
		return
	}
	if trace == 0 {
		trace = id
	}
	s := span{Name: name, Trace: trace, ID: id, Parent: parent, StartNs: start.UnixNano(), EndNs: end.UnixNano()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// span records a span under a fresh ID and returns the ID.
func (t *tracer) span(name string, trace, parent uint64, start, end time.Time) uint64 {
	id := t.newID()
	t.add(id, name, trace, parent, start, end)
	return id
}

// count returns how many spans have been recorded.
func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans)
}

// write stores the spans as a JSON array.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// spanCost measures what recording one span costs, to size the tracing
// overhead inside the window.
func spanCost() time.Duration {
	const n = 20000
	t := &tracer{on: true}
	now := time.Now()
	start := time.Now()
	for i := 0; i < n; i++ {
		t.span("calibrate", 1, 1, now, now)
	}
	return time.Since(start) / n
}

// layerStat aggregates the spans of one name.
type layerStat struct {
	name        string
	count       int
	total, self time.Duration
}

func (s *layerStat) meanMS() float64 { return ms(s.total) / float64(s.count) }

// selfTimes aggregates spans by name. A span's self time is its duration
// minus the part of its interval its children cover.
func selfTimes(spans []span) map[string]*layerStat {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 && s.Parent != s.ID {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]*layerStat)
	for _, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &layerStat{name: s.Name}
			out[s.Name] = st
		}
		d := s.EndNs - s.StartNs
		st.count++
		st.total += time.Duration(d)
		st.self += time.Duration(d - covered(children[s.ID], s.StartNs, s.EndNs))
	}
	return out
}

// covered returns how much of [lo, hi) the union of the spans covers.
func covered(spans []span, lo, hi int64) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, s := range spans {
		a, b := max(s.StartNs, lo), min(s.EndNs, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	end = lo
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		total += v.b - max(v.a, end)
		end = v.b
	}
	return total
}

// printSelfTimes writes the per-layer self-time table, heaviest first.
func printSelfTimes(w io.Writer, stats map[string]*layerStat) {
	rows := make([]*layerStat, 0, len(stats))
	for _, s := range stats {
		rows = append(rows, s)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].self > rows[j].self })
	fmt.Fprintf(w, "%-32s %8s %12s %12s %12s\n", "span", "count", "mean ms", "self ms", "total self s")
	for _, s := range rows {
		fmt.Fprintf(w, "%-32s %8d %12.3f %12.3f %12.3f\n", s.name, s.count, s.meanMS(),
			ms(s.self)/float64(s.count), s.self.Seconds())
	}
}

// scrape is one /debug/metrics?format=json page: "name{labels}" -> value.
type scrape map[string]float64

func fetchScrape(ctx context.Context, client *http.Client, baseURL string) (scrape, error) {
	var s scrape
	err := getJSON(ctx, client, baseURL+"/debug/metrics?format=json", &s)
	return s, err
}

// sum adds the series of family name whose label set passes keep (nil keeps
// all).
func (s scrape) sum(name string, keep func(labels string) bool) float64 {
	total := 0.0
	for k, v := range s {
		family, labels, _ := strings.Cut(k, "{")
		if family == name && (keep == nil || keep(labels)) {
			total += v
		}
	}
	return total
}

// delta sums a family across every scraped process between two snapshots.
func delta(before, after []scrape, name string, keep func(labels string) bool) float64 {
	d := 0.0
	for i := range after {
		d += after[i].sum(name, keep)
		if i < len(before) {
			d -= before[i].sum(name, keep)
		}
	}
	return d
}
