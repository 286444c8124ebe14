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

// Registry is a flat namespace of counters and gauges, rendered as
// Prometheus text exposition format (cmd/stcd serves it at /metrics). All
// operations are safe for concurrent use; reads (the /metrics scrape) never
// block writers beyond an atomic load.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]metric
	help    map[string]string // family -> one-line description
}

type metric interface {
	kind() string
	value() float64
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: map[string]metric{}, help: map[string]string{}}
}

// Describe registers a one-line description for a metric family, emitted as
// the family's # HELP line by WriteProm. Call it once where the family's
// metrics are created; later calls overwrite (families are described by
// their owner, not negotiated). Newlines are flattened to spaces because the
// text format is line-oriented.
func (r *Registry) Describe(family, help string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.help[family] = strings.ReplaceAll(help, "\n", " ")
}

// Counter is a monotonically increasing uint64.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value reads the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

func (c *Counter) kind() string   { return "counter" }
func (c *Counter) value() float64 { return float64(c.v.Load()) }

// Gauge is a float64 that can move both ways.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(floatBits(v)) }

// Value reads the gauge.
func (g *Gauge) Value() float64 { return bitsFloat(g.bits.Load()) }

func (g *Gauge) kind() string   { return "gauge" }
func (g *Gauge) value() float64 { return g.Value() }

// funcGauge reads its value from a callback at scrape time. The callback
// must be safe to call from any goroutine.
type funcGauge func() float64

func (f funcGauge) kind() string   { return "gauge" }
func (f funcGauge) value() float64 { return f() }

// CounterWith returns the counter for one labelled series of the family
// name, creating it on first use. Labels are alternating key, value pairs;
// the series renders as name{k="v",...} with keys sorted, so a fleet's
// per-session metrics (session="id") coexist in one flat registry and
// scrape deterministically.
func (r *Registry) CounterWith(name string, labels ...string) *Counter {
	return r.Counter(seriesName(name, labels))
}

// GaugeWith returns the gauge for one labelled series of the family name,
// creating it on first use (see CounterWith).
func (r *Registry) GaugeWith(name string, labels ...string) *Gauge {
	return r.Gauge(seriesName(name, labels))
}

// seriesName renders a family name plus alternating key, value label pairs
// into the canonical series name. Keys are sorted so the same label set
// always names the same series; values are escaped per the Prometheus text
// format. An odd label list is a programming error.
func seriesName(name string, labels []string) string {
	if len(labels) == 0 {
		return name
	}
	if len(labels)%2 != 0 {
		panic("obs: labels must be alternating key, value pairs")
	}
	type kv struct{ k, v string }
	kvs := make([]kv, 0, len(labels)/2)
	for i := 0; i < len(labels); i += 2 {
		kvs = append(kvs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(kvs, func(i, j int) bool { return kvs[i].k < kvs[j].k })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, p := range kvs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(p.v))
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes a label value per the Prometheus text exposition
// format (backslash, double quote and newline).
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, c := range v {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// family strips the label block from a series name.
func family(series string) string {
	if i := strings.IndexByte(series, '{'); i >= 0 {
		return series[:i]
	}
	return series
}

// Counter returns the counter registered under name, creating it on first
// use. Registering a name that already holds a different metric type panics:
// that is a programming error, not a runtime condition.
func (r *Registry) Counter(name string) *Counter {
	c, ok := r.lookup(name, func() metric { return new(Counter) }).(*Counter)
	if !ok {
		panic("obs: metric " + name + " already registered with a different type")
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	g, ok := r.lookup(name, func() metric { return new(Gauge) }).(*Gauge)
	if !ok {
		panic("obs: metric " + name + " already registered with a different type")
	}
	return g
}

// Func registers a gauge whose value is read from fn at scrape time —
// the bridge for counters a subsystem already maintains internally (e.g.
// the replay engine's memoiser counters).
func (r *Registry) Func(name string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.metrics[name] = funcGauge(fn)
}

func (r *Registry) lookup(name string, mk func() metric) metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.metrics[name]
	if !ok {
		m = mk()
		r.metrics[name] = m
	}
	return m
}

// WriteProm renders every metric in Prometheus text exposition format,
// sorted by series name so the output is deterministic. Labelled series of
// one family share a single # TYPE line (and # HELP line, when the family
// has been Described), as the format requires. Histogram families render as
// cumulative _bucket series plus _sum and _count.
func (r *Registry) WriteProm(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	// Sort by family first so a family's labelled and unlabelled series
	// stay contiguous under one TYPE line ('{' sorts after '_', so a raw
	// string sort could interleave foo_bar between foo and foo{...}).
	sort.Slice(names, func(i, j int) bool {
		fi, fj := family(names[i]), family(names[j])
		if fi != fj {
			return fi < fj
		}
		return names[i] < names[j]
	})
	snap := make([]metric, len(names))
	for i, n := range names {
		snap[i] = r.metrics[n]
	}
	help := make(map[string]string, len(r.help))
	for f, h := range r.help {
		help[f] = h
	}
	r.mu.Unlock()
	lastFamily := ""
	for i, n := range names {
		m := snap[i]
		if fam := family(n); fam != lastFamily {
			lastFamily = fam
			if h, ok := help[fam]; ok {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", fam, h); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", fam, m.kind()); err != nil {
				return err
			}
		}
		if h, ok := m.(*Histogram); ok {
			if err := writePromHistogram(w, n, h); err != nil {
				return err
			}
			continue
		}
		v := m.value()
		var val string
		if m.kind() == "counter" || v == float64(int64(v)) {
			val = strconv.FormatInt(int64(v), 10)
		} else {
			val = strconv.FormatFloat(v, 'g', -1, 64)
		}
		if _, err := fmt.Fprintf(w, "%s %s\n", n, val); err != nil {
			return err
		}
	}
	return nil
}

// writePromHistogram renders one histogram series (whose name may carry a
// label block) as its cumulative _bucket lines plus _sum and _count. The le
// label is appended after any existing labels; bounds format with %g so
// 0.001 renders as "0.001", not "1e-03".
func writePromHistogram(w io.Writer, series string, h *Histogram) error {
	fam := family(series)
	inner := ""
	if i := strings.IndexByte(series, '{'); i >= 0 {
		inner = series[i+1:len(series)-1] + ","
	}
	cum, count, sum := h.snapshot()
	for i, c := range cum {
		le := "+Inf"
		if i < len(h.bounds) {
			le = strconv.FormatFloat(h.bounds[i], 'g', -1, 64)
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", fam, inner, le, c); err != nil {
			return err
		}
	}
	suffix := ""
	if inner != "" {
		suffix = "{" + strings.TrimSuffix(inner, ",") + "}"
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", fam, suffix, strconv.FormatFloat(sum, 'g', -1, 64)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", fam, suffix, count)
	return err
}

func floatBits(f float64) uint64 { return math.Float64bits(f) }
func bitsFloat(b uint64) float64 { return math.Float64frombits(b) }
