// Package metrics is a dependency-free registry of atomic counters,
// function-backed counters and gauges, and fixed-bucket histograms with
// Prometheus text-format exposition.
//
// It is the live complement of internal/trace: the trace answers *which* and
// *why* post mortem, the registry answers *how many right now* while the
// process runs. The design constraints mirror the tracer's:
//
//   - allocation-free on the hot path: Add/Inc/Observe are a handful of
//     atomic operations on preallocated state — no maps, no interface
//     boxing, no label rendering (label sets are fixed at registration and
//     pre-rendered into the series name);
//   - nil-safe: every method works on a nil receiver as a no-op, so
//     instrumented code holds a possibly-nil metric and calls it
//     unconditionally, exactly like trace.Tracer.Emit;
//   - exact: counters are int64 atomics read at scrape time, so an exported
//     value reconciles against its source counter to the unit
//     (internal/e2e's TestMetricsReconcileExactly enforces this, like
//     trace.CheckDir does for the trace).
//
// Exposition (WritePrometheus) is the only allocating path; it renders the
// Prometheus text format (HELP/TYPE comments, cumulative `le` buckets,
// `_sum`/`_count`) and is called once per scrape, never per event.
// Function-backed series (CounterFunc, GaugeFunc) are read at scrape time,
// so an existing atomic counter can be exported live with zero additional
// hot-path cost.
package metrics

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one fixed name="value" pair attached to a series at registration.
// Labels never vary per observation — dynamic label values would force a map
// lookup (and allocation) onto the hot path, which this package exists to
// avoid.
type Label struct {
	Name, Value string
}

// Counter is a monotonically increasing int64.
type Counter struct {
	v atomic.Int64
	// pad keeps independently incremented counters off one cache line when
	// they are allocated together (same reason the detector shards pad).
	_ [56]byte
}

// Inc adds one. Nil-safe.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n. Nil-safe.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count. Nil-safe (zero).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Histogram is a fixed-bucket histogram over int64 observations (typically
// nanoseconds or sizes). Bucket upper bounds are set at registration; an
// implicit +Inf bucket catches the tail. Observe is a short linear scan over
// the bounds plus three atomic adds — allocation-free and lock-free.
//
// The unit multiplier converts raw observations to the exposition scale
// (e.g. 1e-9 to observe nanoseconds and expose Prometheus-conventional
// seconds); it is applied only at scrape time, so the hot path stays in
// integer arithmetic.
type Histogram struct {
	bounds []int64 // ascending upper bounds, raw units (≤ bound lands in bucket)
	unit   float64
	counts []atomic.Int64 // len(bounds)+1; the last is +Inf
	sum    atomic.Int64
	n      atomic.Int64
}

// Observe records v (raw units). Nil-safe.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.n.Add(1)
}

// Count returns the number of observations. Nil-safe (zero).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.n.Load()
}

// Sum returns the raw-unit sum of observations. Nil-safe (zero).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// ExpBounds builds n ascending bounds starting at start, each factor× the
// previous — the standard exponential bucket layout for latencies and sizes.
func ExpBounds(start int64, factor float64, n int) []int64 {
	out := make([]int64, n)
	v := float64(start)
	for i := range out {
		out[i] = int64(v)
		v *= factor
	}
	return out
}

// series is one exported time series within a family: a pre-rendered label
// set plus either a value function (counter/gauge) or a histogram.
type series struct {
	labels string // rendered `k="v",...` without braces; "" for no labels
	value  func() float64
	hist   *Histogram
}

// family groups series sharing one metric name (Prometheus requires one
// HELP/TYPE block per name).
type family struct {
	name, help, typ string
	series          []*series
}

// Registry holds registered metrics and renders them. Registration locks;
// the metrics themselves never do. The zero Registry is NOT usable — use
// NewRegistry — but a nil *Registry is: every registration method on nil
// returns a nil metric (whose methods are no-ops), so "metrics off" needs no
// branches at instrumentation sites.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*family{}}
}

func (r *Registry) register(name, help, typ string, s *series) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.byName[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ}
		r.byName[name] = f
		r.families = append(r.families, f)
	} else if f.typ != typ {
		panic(fmt.Sprintf("metrics: %s registered as both %s and %s", name, f.typ, typ))
	}
	f.series = append(f.series, s)
}

// Counter registers and returns a counter. Nil-safe (returns nil).
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	c := &Counter{}
	r.register(name, help, "counter", &series{
		labels: renderLabels(labels),
		value:  func() float64 { return float64(c.Value()) },
	})
	return c
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time — the zero-hot-path-cost way to export an existing atomic counter.
// fn must be monotonic and safe for concurrent use. Nil-safe (no-op).
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	r.register(name, help, "counter", &series{labels: renderLabels(labels), value: fn})
}

// GaugeFunc registers a gauge read from fn at scrape time. Nil-safe (no-op).
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	r.register(name, help, "gauge", &series{labels: renderLabels(labels), value: fn})
}

// Histogram registers and returns a histogram with the given raw-unit bucket
// upper bounds (ascending) and exposition unit multiplier. Nil-safe
// (returns nil).
func (r *Registry) Histogram(name, help string, unit float64, bounds []int64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	bs := append([]int64(nil), bounds...)
	sort.Slice(bs, func(i, j int) bool { return bs[i] < bs[j] })
	h := &Histogram{bounds: bs, unit: unit, counts: make([]atomic.Int64, len(bs)+1)}
	r.register(name, help, "histogram", &series{labels: renderLabels(labels), hist: h})
	return h
}

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format (version 0.0.4), families in registration order.
// Nil-safe (writes nothing).
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	fams := append([]*family(nil), r.families...)
	r.mu.Unlock()

	var b []byte
	for _, f := range fams {
		b = b[:0]
		b = append(b, "# HELP "...)
		b = append(b, f.name...)
		b = append(b, ' ')
		b = append(b, escapeHelp(f.help)...)
		b = append(b, "\n# TYPE "...)
		b = append(b, f.name...)
		b = append(b, ' ')
		b = append(b, f.typ...)
		b = append(b, '\n')
		for _, s := range f.series {
			if s.hist != nil {
				b = appendHistogram(b, f.name, s)
			} else {
				b = appendSeries(b, f.name, s.labels, s.value())
			}
		}
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}

// ParseValues parses a Prometheus text exposition back into a map from
// series (name plus rendered labels, exactly as exposed) to value. It is
// the reconciliation half of WritePrometheus: tests and the chaos oracles
// scrape, parse, and compare against source counters.
func ParseValues(text string) (map[string]float64, error) {
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics: malformed series line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: bad value in %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, nil
}

// Values scrapes the registry in-process: WritePrometheus piped through
// ParseValues. Nil-safe (empty map).
func (r *Registry) Values() map[string]float64 {
	var sb strings.Builder
	r.WritePrometheus(&sb)
	out, _ := ParseValues(sb.String()) // own output always parses
	return out
}

// appendSeries renders one `name{labels} value` line.
func appendSeries(b []byte, name, labels string, v float64) []byte {
	b = append(b, name...)
	if labels != "" {
		b = append(b, '{')
		b = append(b, labels...)
		b = append(b, '}')
	}
	b = append(b, ' ')
	b = strconv.AppendFloat(b, v, 'g', -1, 64)
	return append(b, '\n')
}

// appendHistogram renders the cumulative bucket lines plus _sum and _count.
func appendHistogram(b []byte, name string, s *series) []byte {
	h := s.hist
	withLe := func(le string) string {
		if s.labels == "" {
			return `le="` + le + `"`
		}
		return s.labels + `,le="` + le + `"`
	}
	var cum int64
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		// Bucket bounds are coarse by construction, so 9 significant digits
		// render them cleanly ("1e-06", not "1.0000000000000002e-06" from
		// the unit multiplication); series values below keep full round-trip
		// precision because reconciliation depends on it.
		le := strconv.FormatFloat(float64(bound)*h.unit, 'g', 9, 64)
		b = appendSeries(b, name+"_bucket", withLe(le), float64(cum))
	}
	cum += h.counts[len(h.bounds)].Load()
	b = appendSeries(b, name+"_bucket", withLe("+Inf"), float64(cum))
	b = appendSeries(b, name+"_sum", s.labels, float64(h.Sum())*h.unit)
	b = appendSeries(b, name+"_count", s.labels, float64(cum))
	return b
}

// renderLabels pre-renders a fixed label set as `k="v",k2="v2"`, sorted by
// name for deterministic output.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	var sb strings.Builder
	for i, l := range ls {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(l.Name)
		sb.WriteString(`="`)
		sb.WriteString(escapeValue(l.Value))
		sb.WriteByte('"')
	}
	return sb.String()
}

// escapeValue escapes a label value per the text format: backslash, quote
// and newline.
func escapeValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// escapeHelp escapes a HELP string: backslash and newline (quotes are legal
// there).
func escapeHelp(v string) string {
	if !strings.ContainsAny(v, "\\\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(v)
}
