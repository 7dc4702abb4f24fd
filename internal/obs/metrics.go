package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds a fixed set of named metrics and renders them in
// Prometheus text exposition format (or as a flat JSON object). Metric
// registration and scraping lock; metric updates never do — counters,
// gauges and histogram observations are single atomic operations, safe on
// the solve hot path.
type Registry struct {
	mu      sync.Mutex
	ordered []collector
	byName  map[string]collector
	hooks   []func()
}

// collector is one metric family (a scalar or a labelled vector).
type collector interface {
	metricName() string
	// writeText renders the family, HELP/TYPE header included.
	writeText(w io.Writer)
	// flatten adds "name{labels}" -> value entries for the JSON view.
	flatten(into map[string]float64)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]collector)}
}

// OnCollect registers a hook run at the start of every scrape, before any
// metric is read. Use it to refresh gauge vectors whose values are derived
// from live state (queue depths, job states).
func (r *Registry) OnCollect(fn func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.hooks = append(r.hooks, fn)
}

// register adds c under its name, or returns the existing collector when
// one with the same name was registered before. A name clash between
// different metric kinds is a programming error and panics.
func (r *Registry) register(c collector) collector {
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, ok := r.byName[c.metricName()]; ok {
		return prev
	}
	r.byName[c.metricName()] = c
	r.ordered = append(r.ordered, c)
	return c
}

func (r *Registry) snapshot() []collector {
	r.mu.Lock()
	hooks := append([]func(){}, r.hooks...)
	ordered := append([]collector{}, r.ordered...)
	r.mu.Unlock()
	for _, fn := range hooks {
		fn()
	}
	return ordered
}

// WriteText renders every registered metric in Prometheus text exposition
// format. Families appear in registration order; labelled children are
// sorted, so the page is deterministic.
func (r *Registry) WriteText(w io.Writer) {
	for _, c := range r.snapshot() {
		c.writeText(w)
	}
}

// Flatten returns the registry as a flat metric-line -> value map (the
// /debug/metrics?format=json compatibility view). Histograms contribute
// their _count and _sum series.
func (r *Registry) Flatten() map[string]float64 {
	out := make(map[string]float64)
	for _, c := range r.snapshot() {
		c.flatten(out)
	}
	return out
}

// --- scalar counter ---

// Counter is a monotonically increasing uint64. The zero value is unusable;
// obtain counters from a Registry.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

type scalarCounter struct {
	name, help string
	Counter
}

func (c *scalarCounter) metricName() string { return c.name }
func (c *scalarCounter) writeText(w io.Writer) {
	writeHeader(w, c.name, c.help, "counter")
	fmt.Fprintf(w, "%s %d\n", c.name, c.Value())
}
func (c *scalarCounter) flatten(into map[string]float64) {
	into[c.name] = float64(c.Value())
}

// Counter registers (or returns the existing) scalar counter under name.
func (r *Registry) Counter(name, help string) *Counter {
	c := r.register(&scalarCounter{name: name, help: help})
	return &c.(*scalarCounter).Counter
}

// counterFunc exposes an externally maintained monotone counter (e.g. a
// package-level atomic in dsp or core) without copying it on every update.
type counterFunc struct {
	name, help string
	fn         func() uint64
}

func (c *counterFunc) metricName() string { return c.name }
func (c *counterFunc) writeText(w io.Writer) {
	writeHeader(w, c.name, c.help, "counter")
	fmt.Fprintf(w, "%s %d\n", c.name, c.fn())
}
func (c *counterFunc) flatten(into map[string]float64) {
	into[c.name] = float64(c.fn())
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time. fn must be safe for concurrent use.
func (r *Registry) CounterFunc(name, help string, fn func() uint64) {
	r.register(&counterFunc{name: name, help: help, fn: fn})
}

// --- scalar gauge ---

// Gauge is a settable float64. The zero value is unusable; obtain gauges
// from a Registry.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the stored value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

type scalarGauge struct {
	name, help string
	Gauge
}

func (g *scalarGauge) metricName() string { return g.name }
func (g *scalarGauge) writeText(w io.Writer) {
	writeHeader(w, g.name, g.help, "gauge")
	fmt.Fprintf(w, "%s %s\n", g.name, formatValue(g.Value()))
}
func (g *scalarGauge) flatten(into map[string]float64) {
	into[g.name] = g.Value()
}

// Gauge registers (or returns the existing) scalar gauge under name.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := r.register(&scalarGauge{name: name, help: help})
	return &g.(*scalarGauge).Gauge
}

type gaugeFunc struct {
	name, help string
	fn         func() float64
}

func (g *gaugeFunc) metricName() string { return g.name }
func (g *gaugeFunc) writeText(w io.Writer) {
	writeHeader(w, g.name, g.help, "gauge")
	fmt.Fprintf(w, "%s %s\n", g.name, formatValue(g.fn()))
}
func (g *gaugeFunc) flatten(into map[string]float64) {
	into[g.name] = g.fn()
}

// GaugeFunc registers a gauge whose value is read from fn at scrape time.
// fn must be safe for concurrent use.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(&gaugeFunc{name: name, help: help, fn: fn})
}

// --- labelled vectors ---

// vec is the shared child management for labelled families: a lock-free
// lookup for warm children plus a mutex for first-use creation.
type vec struct {
	name, help string
	labels     []string

	children sync.Map // childKey -> child
	mu       sync.Mutex
}

// maxLabels bounds a family's label count, so a child's key can be a
// fixed-size array: a warm lookup then builds no key on the heap.
const maxLabels = 4

// childKey holds a child's label values; slots past the family's label
// count stay empty.
type childKey [maxLabels]string

// less orders keys label by label, the order the exposition lists
// children in.
func (k childKey) less(o childKey) bool {
	for i := range k {
		if k[i] != o[i] {
			return k[i] < o[i]
		}
	}
	return false
}

// checkLabels panics when a family declares more labels than a childKey
// holds.
func checkLabels(name string, labels []string) {
	if len(labels) > maxLabels {
		panic(fmt.Sprintf("obs: %s declares %d labels, more than %d", name, len(labels), maxLabels))
	}
}

// labelPairs renders {a="x",b="y"} for the declared label names.
func (v *vec) labelPairs(values []string, extra ...string) string {
	var b strings.Builder
	b.WriteByte('{')
	for i, name := range v.labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	for i := 0; i+1 < len(extra); i += 2 {
		if len(v.labels) > 0 || i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extra[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(extra[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// sortedChildren returns (key, child) pairs sorted by key for deterministic
// exposition.
func (v *vec) sortedChildren() []childEntry {
	var out []childEntry
	v.children.Range(func(k, c any) bool {
		out = append(out, childEntry{k.(childKey), c})
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].key.less(out[j].key) })
	return out
}

type childEntry struct {
	key   childKey
	child any
}

func (v *vec) getOrMake(values []string, make func() any) any {
	if len(values) != len(v.labels) {
		panic("obs: wrong label value count for " + v.name)
	}
	var key childKey
	copy(key[:], values)
	if c, ok := v.children.Load(key); ok {
		return c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c, ok := v.children.Load(key); ok {
		return c
	}
	c := make()
	v.children.Store(key, c)
	return c
}

// CounterVec is a counter family with a fixed label set.
type CounterVec struct {
	vec
}

type counterChild struct {
	values []string
	Counter
}

// With returns the child counter for the given label values, creating it on
// first use. Warm lookups are lock-free.
func (v *CounterVec) With(values ...string) *Counter {
	c := v.getOrMake(values, func() any {
		return &counterChild{values: append([]string(nil), values...)}
	})
	return &c.(*counterChild).Counter
}

func (v *CounterVec) metricName() string { return v.name }
func (v *CounterVec) writeText(w io.Writer) {
	writeHeader(w, v.name, v.help, "counter")
	for _, e := range v.sortedChildren() {
		c := e.child.(*counterChild)
		fmt.Fprintf(w, "%s%s %d\n", v.name, v.labelPairs(c.values), c.Value())
	}
}
func (v *CounterVec) flatten(into map[string]float64) {
	for _, e := range v.sortedChildren() {
		c := e.child.(*counterChild)
		into[v.name+v.labelPairs(c.values)] = float64(c.Value())
	}
}

// CounterVec registers (or returns the existing) labelled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	checkLabels(name, labels)
	c := r.register(&CounterVec{vec{name: name, help: help, labels: labels}})
	return c.(*CounterVec)
}

// GaugeVec is a gauge family with a fixed label set, refreshed either by
// direct Set calls or from an OnCollect hook.
type GaugeVec struct {
	vec
}

type gaugeChild struct {
	values []string
	Gauge
}

// With returns the child gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	c := v.getOrMake(values, func() any {
		return &gaugeChild{values: append([]string(nil), values...)}
	})
	return &c.(*gaugeChild).Gauge
}

func (v *GaugeVec) metricName() string { return v.name }
func (v *GaugeVec) writeText(w io.Writer) {
	writeHeader(w, v.name, v.help, "gauge")
	for _, e := range v.sortedChildren() {
		g := e.child.(*gaugeChild)
		fmt.Fprintf(w, "%s%s %s\n", v.name, v.labelPairs(g.values), formatValue(g.Value()))
	}
}
func (v *GaugeVec) flatten(into map[string]float64) {
	for _, e := range v.sortedChildren() {
		g := e.child.(*gaugeChild)
		into[v.name+v.labelPairs(g.values)] = g.Value()
	}
}

// GaugeVec registers (or returns the existing) labelled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	checkLabels(name, labels)
	g := r.register(&GaugeVec{vec{name: name, help: help, labels: labels}})
	return g.(*GaugeVec)
}

// --- histograms ---

// Histogram is a fixed-bucket latency histogram. Observations are three
// atomic operations (bucket, count, CAS-added sum); no lock is ever taken.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Uint64 // len(bounds)+1; last is +Inf
	count   atomic.Uint64
	sumBits atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	idx := len(h.bounds)
	for i, ub := range h.bounds {
		if v <= ub {
			idx = i
			break
		}
	}
	h.counts[idx].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// writeSeries emits the _bucket/_sum/_count series with the given label
// prefix rendering function.
func (h *Histogram) writeSeries(w io.Writer, name string, pairs func(extra ...string) string) {
	cum := uint64(0)
	for i, ub := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, pairs("le", formatBound(ub)), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, pairs("le", "+Inf"), cum)
	fmt.Fprintf(w, "%s_sum%s %s\n", name, pairs(), formatValue(h.Sum()))
	fmt.Fprintf(w, "%s_count%s %d\n", name, pairs(), h.count.Load())
}

type scalarHistogram struct {
	name, help string
	*Histogram
}

func (h *scalarHistogram) metricName() string { return h.name }
func (h *scalarHistogram) writeText(w io.Writer) {
	writeHeader(w, h.name, h.help, "histogram")
	h.writeSeries(w, h.name, func(extra ...string) string {
		if len(extra) == 0 {
			return ""
		}
		return "{" + extra[0] + `="` + escapeLabel(extra[1]) + `"}`
	})
}
func (h *scalarHistogram) flatten(into map[string]float64) {
	into[h.name+"_count"] = float64(h.Count())
	into[h.name+"_sum"] = h.Sum()
}

// Histogram registers (or returns the existing) fixed-bucket histogram.
// bounds are the inclusive upper bucket bounds, ascending; an implicit
// +Inf bucket is appended.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	h := r.register(&scalarHistogram{name: name, help: help, Histogram: newHistogram(bounds)})
	return h.(*scalarHistogram).Histogram
}

// HistogramVec is a histogram family with a fixed label set; every child
// shares the same bucket bounds.
type HistogramVec struct {
	vec
	bounds []float64
}

type histogramChild struct {
	values []string
	*Histogram
}

// With returns the child histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	c := v.getOrMake(values, func() any {
		return &histogramChild{
			values:    append([]string(nil), values...),
			Histogram: newHistogram(v.bounds),
		}
	})
	return c.(*histogramChild).Histogram
}

func (v *HistogramVec) metricName() string { return v.name }
func (v *HistogramVec) writeText(w io.Writer) {
	writeHeader(w, v.name, v.help, "histogram")
	for _, e := range v.sortedChildren() {
		h := e.child.(*histogramChild)
		h.writeSeries(w, v.name, func(extra ...string) string {
			return v.labelPairs(h.values, extra...)
		})
	}
}
func (v *HistogramVec) flatten(into map[string]float64) {
	for _, e := range v.sortedChildren() {
		h := e.child.(*histogramChild)
		into[v.name+"_count"+v.labelPairs(h.values)] = float64(h.Count())
		into[v.name+"_sum"+v.labelPairs(h.values)] = h.Sum()
	}
}

// HistogramVec registers (or returns the existing) labelled histogram
// family with shared bucket bounds.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	checkLabels(name, labels)
	h := r.register(&HistogramVec{
		vec:    vec{name: name, help: help, labels: labels},
		bounds: append([]float64(nil), bounds...),
	})
	return h.(*HistogramVec)
}

// --- rendering helpers ---

func writeHeader(w io.Writer, name, help, kind string) {
	if help != "" {
		fmt.Fprintf(w, "# HELP %s %s\n", name, help)
	}
	fmt.Fprintf(w, "# TYPE %s %s\n", name, kind)
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func escapeLabel(v string) string { return labelEscaper.Replace(v) }

// formatValue renders a sample value: integers without an exponent, other
// values in the shortest round-trip form.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// formatBound renders a bucket bound the way Prometheus expects.
func formatBound(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// statusDigits is "100101102…599": every three-digit HTTP status code's
// text, so StatusLabel can slice a label instead of formatting one.
var statusDigits = func() string {
	b := make([]byte, 0, 3*500)
	for code := 100; code < 600; code++ {
		b = strconv.AppendInt(b, int64(code), 10)
	}
	return string(b)
}()

// StatusLabel returns an HTTP status code as a label value, without
// allocating for codes 100–599.
func StatusLabel(code int) string {
	if code < 100 || code > 599 {
		return strconv.Itoa(code)
	}
	i := 3 * (code - 100)
	return statusDigits[i : i+3]
}
