package trace

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry is a named metrics registry: the single place the
// replication, migration, failover, fault-injection, wire and simnet
// subsystems register their counters, gauges and histograms, replacing
// per-package ad-hoc counters. Registration is get-or-create: asking
// for an existing name of the same type returns the shared instrument
// (so several replicators on one cluster aggregate), asking with a
// different type panics — that is a programming error.
//
// Naming scheme: here_<subsystem>_<metric>[_<unit>], Prometheus style
// (counters end in _total, histograms carry a base unit such as
// _seconds). WritePrometheus emits the text exposition format.
//
// Labelled series are supported through Labeled: the full series name
// ("base{k=\"v\"}") is the registration key, so each label set is its
// own instrument, while WritePrometheus groups all series of one base
// under a single # HELP/# TYPE pair. All series of a base must be the
// same metric type — register panics otherwise.
type Registry struct {
	mu       sync.Mutex
	order    []string
	byName   map[string]metric
	helps    map[string]string
	baseKind map[string]string
}

// Labeled builds a series name "base{k=\"v\",…}" from key/value pairs,
// escaping label values per the Prometheus text exposition format
// (backslash, double quote and newline). Pass the result to Counter,
// Gauge or Histogram to get the per-label-set instrument.
func Labeled(base string, kv ...string) string {
	if len(kv) == 0 {
		return base
	}
	if len(kv)%2 != 0 {
		panic("trace: Labeled requires key/value pairs")
	}
	var b strings.Builder
	b.WriteString(base)
	b.WriteByte('{')
	for i := 0; i < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(labelEscaper.Replace(kv[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// labelEscaper escapes label values; helpEscaper escapes HELP text
// (where a bare double quote is legal).
var (
	labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	helpEscaper  = strings.NewReplacer(`\`, `\\`, "\n", `\n`)
)

// seriesBase returns the metric family name: the series name without
// its {labels} suffix.
func seriesBase(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// metric is anything the registry can expose.
type metric interface {
	expose(w io.Writer, name, help string) error
	kind() string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		byName:   make(map[string]metric),
		helps:    make(map[string]string),
		baseKind: make(map[string]string),
	}
}

// register implements get-or-create.
func (r *Registry) register(name, help string, fresh metric) metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byName[name]; ok {
		if m.kind() != fresh.kind() {
			panic(fmt.Sprintf("trace: metric %q re-registered as %s (was %s)",
				name, fresh.kind(), m.kind()))
		}
		return m
	}
	base := seriesBase(name)
	if k, ok := r.baseKind[base]; ok && k != fresh.kind() {
		panic(fmt.Sprintf("trace: metric family %q re-registered as %s (was %s)",
			base, fresh.kind(), k))
	}
	r.baseKind[base] = fresh.kind()
	r.byName[name] = fresh
	r.order = append(r.order, name)
	r.helps[name] = help
	return fresh
}

// Counter returns the named monotone counter, creating it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(name, help, &Counter{}).(*Counter)
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.register(name, help, &Gauge{}).(*Gauge)
}

// Histogram returns the named histogram, creating it on first use with
// the given upper bucket bounds (ascending; an implicit +Inf bucket is
// always present). The bounds of an existing histogram are not
// altered.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	h := &Histogram{bounds: append([]float64(nil), buckets...)}
	h.counts = make([]uint64, len(h.bounds)+1)
	return r.register(name, help, h).(*Histogram)
}

// WritePrometheus writes every registered metric in the Prometheus
// text exposition format, metric families in sorted name order. All
// series of one family (base name) are emitted contiguously under a
// single # HELP/# TYPE pair, as the format requires.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := append([]string(nil), r.order...)
	metrics := make(map[string]metric, len(names))
	helps := make(map[string]string, len(names))
	for _, n := range names {
		metrics[n] = r.byName[n]
		helps[n] = r.helps[n]
	}
	r.mu.Unlock()
	sort.Strings(names)
	groups := make(map[string][]string)
	var bases []string
	for _, n := range names {
		b := seriesBase(n)
		if _, ok := groups[b]; !ok {
			bases = append(bases, b)
		}
		groups[b] = append(groups[b], n)
	}
	sort.Strings(bases)
	for _, b := range bases {
		series := groups[b]
		help := ""
		for _, n := range series {
			if helps[n] != "" {
				help = helps[n]
				break
			}
		}
		if help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", b, helpEscaper.Replace(help)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", b, metrics[series[0]].kind()); err != nil {
			return err
		}
		for _, n := range series {
			if err := metrics[n].expose(w, n, ""); err != nil {
				return err
			}
		}
	}
	return nil
}

// Counter is a monotonically increasing int64 counter. The zero value
// is ready; increments are lock-free. A nil *Counter is a no-op, so
// optional instrumentation sites need no guards.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n; negative deltas are ignored (a counter only moves
// forward).
func (c *Counter) Add(n int64) {
	if c != nil && n > 0 {
		c.v.Add(n)
	}
}

// Value reports the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

func (c *Counter) kind() string { return "counter" }

func (c *Counter) expose(w io.Writer, name, _ string) error {
	_, err := fmt.Fprintf(w, "%s %d\n", name, c.Value())
	return err
}

// Gauge is a float64 value that can go up and down. The zero value is
// ready; updates are lock-free.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value reports the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) kind() string { return "gauge" }

func (g *Gauge) expose(w io.Writer, name, _ string) error {
	_, err := fmt.Fprintf(w, "%s %s\n", name, formatValue(g.Value()))
	return err
}

// Histogram counts observations into fixed buckets (cumulative on
// exposition, Prometheus style). It is safe for concurrent use.
type Histogram struct {
	bounds []float64 // ascending upper bounds; +Inf implicit

	mu     sync.Mutex
	counts []uint64 // len(bounds)+1, last is the +Inf bucket
	sum    float64
	count  uint64
}

// DurationBuckets is the fixed bucket layout (seconds) used for the
// pause and period histograms: microseconds through tens of seconds.
func DurationBuckets() []float64 {
	return []float64{1e-6, 1e-5, 1e-4, 1e-3, 0.01, 0.05, 0.1, 0.5, 1, 2.5, 5, 10, 25}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.mu.Lock()
	h.counts[i]++
	h.sum += v
	h.count++
	h.mu.Unlock()
}

// Count reports the number of observations.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum reports the sum of all observations.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

func (h *Histogram) kind() string { return "histogram" }

func (h *Histogram) expose(w io.Writer, name, _ string) error {
	h.mu.Lock()
	counts := append([]uint64(nil), h.counts...)
	sum, count := h.sum, h.count
	h.mu.Unlock()
	// A labelled histogram series folds its labels into each sample
	// line: base_bucket{<labels>,le="…"}, base_sum{<labels>}, ….
	base, labels, suffix := name, "", ""
	if i := strings.IndexByte(name, '{'); i >= 0 {
		base = name[:i]
		labels = name[i+1:len(name)-1] + ","
		suffix = name[i:]
	}
	var cum uint64
	for i, bound := range h.bounds {
		cum += counts[i]
		if _, err := fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n",
			base, labels, formatValue(bound), cum); err != nil {
			return err
		}
	}
	cum += counts[len(counts)-1]
	if _, err := fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", base, labels, cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", base, suffix, formatValue(sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", base, suffix, count)
	return err
}

// formatValue renders a float compactly without scientific surprises
// for integral values.
func formatValue(v float64) string {
	s := fmt.Sprintf("%g", v)
	return strings.TrimSuffix(s, ".0")
}
