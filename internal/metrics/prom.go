package metrics

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Prom is a Prometheus-style metric collector: counters, gauges and
// fixed-bucket histograms grouped into families, rendered in the
// Prometheus text exposition format (version 0.0.4) by Write.
//
// Unlike the simulation streams in this package, a Prom is safe for
// concurrent use: the HTTP frontend's live engines update it from
// several handler goroutines while /metrics scrapes concurrently. All
// updates go through one collector mutex — scrape-rate traffic never
// contends meaningfully, and the hot observation paths (Counter.Add,
// Gauge.Set, Histogram.Observe) stay allocation-free so
// per-request accounting costs nothing beyond the lock.
//
// Registration (Counter/Gauge/Histogram lookups) allocates and is
// meant for setup time: callers register once per label combination
// and cache the returned handle. Registering the same family name
// with the same labels returns the existing series, so counters are
// monotonic across re-registration (e.g. live-engine recycling).
type Prom struct {
	mu       sync.Mutex
	families []*promFamily
}

// promKind is the family's Prometheus metric type.
type promKind int

const (
	kindCounter promKind = iota
	kindGauge
	kindHistogram
)

func (k promKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// Label is one name="value" pair of a series.
type Label struct {
	Name  string
	Value string
}

// promFamily is one metric family (shared name, help and type) with
// its label-distinguished series. Series are held in a slice and
// matched by linear scan — families carry a handful of series
// (systems, tenants), and avoiding maps keeps every iteration order
// deterministic.
type promFamily struct {
	name    string
	help    string
	kind    promKind
	buckets []float64 // histogram families only
	series  []*promSeries
}

// promSeries is one labeled time series.
type promSeries struct {
	mu     *sync.Mutex // the collector's lock
	labels []Label

	// Scalar value: counter total or gauge level.
	val float64

	// Histogram state: cumulative bucket counts (one per upper bound,
	// +Inf implied), total count and sum.
	bucketN []uint64
	count   uint64
	sum     float64
}

// Counter is a monotonically increasing series.
type Counter struct{ s *promSeries }

// Gauge is a set-to-current-value series.
type Gauge struct{ s *promSeries }

// PromHistogram is a fixed-bucket cumulative histogram series.
type PromHistogram struct {
	s      *promSeries
	bounds []float64
}

// NewProm returns an empty collector.
func NewProm() *Prom { return &Prom{} }

// DefaultLatencyBuckets are the histogram bounds (milliseconds) used
// by the serving frontend's TTFT/E2E/queue-wait histograms: roughly
// logarithmic from sub-millisecond scheduling delays to the
// multi-minute tail of saturated replays.
func DefaultLatencyBuckets() []float64 {
	return []float64{1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 30000, 60000}
}

// family finds or creates a family, enforcing kind consistency.
func (p *Prom) family(name, help string, kind promKind, buckets []float64) *promFamily {
	for _, f := range p.families {
		if f.name == name {
			if f.kind != kind {
				panic(fmt.Sprintf("metrics: family %q re-registered as %v (was %v)", name, kind, f.kind))
			}
			return f
		}
	}
	f := &promFamily{name: name, help: help, kind: kind, buckets: buckets}
	p.families = append(p.families, f)
	return f
}

// lookup finds or creates the series of one label combination.
func (f *promFamily) lookup(mu *sync.Mutex, labels []Label) *promSeries {
	for _, s := range f.series {
		if labelsEqual(s.labels, labels) {
			return s
		}
	}
	s := &promSeries{mu: mu, labels: append([]Label(nil), labels...)}
	if f.kind == kindHistogram {
		s.bucketN = make([]uint64, len(f.buckets))
	}
	f.series = append(f.series, s)
	return s
}

func labelsEqual(a, b []Label) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Counter registers (or retrieves) a counter series.
func (p *Prom) Counter(name, help string, labels ...Label) *Counter {
	p.mu.Lock()
	defer p.mu.Unlock()
	return &Counter{s: p.family(name, help, kindCounter, nil).lookup(&p.mu, labels)}
}

// Gauge registers (or retrieves) a gauge series.
func (p *Prom) Gauge(name, help string, labels ...Label) *Gauge {
	p.mu.Lock()
	defer p.mu.Unlock()
	return &Gauge{s: p.family(name, help, kindGauge, nil).lookup(&p.mu, labels)}
}

// Histogram registers (or retrieves) a histogram series with the
// given upper bounds (strictly increasing; +Inf is implicit). All
// series of one family share the first registration's bounds.
func (p *Prom) Histogram(name, help string, bounds []float64, labels ...Label) *PromHistogram {
	p.mu.Lock()
	defer p.mu.Unlock()
	f := p.family(name, help, kindHistogram, append([]float64(nil), bounds...))
	return &PromHistogram{s: f.lookup(&p.mu, labels), bounds: f.buckets}
}

// Inc adds 1.
//
//valora:hotpath
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by n (negative deltas are ignored:
// counters never go backwards).
//
//valora:hotpath
func (c *Counter) Add(n float64) {
	if n < 0 {
		return
	}
	c.s.mu.Lock()
	c.s.val += n
	c.s.mu.Unlock()
}

// Value reports the counter's current total.
func (c *Counter) Value() float64 {
	c.s.mu.Lock()
	defer c.s.mu.Unlock()
	return c.s.val
}

// Set replaces the gauge's value.
//
//valora:hotpath
func (g *Gauge) Set(v float64) {
	g.s.mu.Lock()
	g.s.val = v
	g.s.mu.Unlock()
}

// Value reports the gauge's current value.
func (g *Gauge) Value() float64 {
	g.s.mu.Lock()
	defer g.s.mu.Unlock()
	return g.s.val
}

// Observe records one sample into the histogram.
//
//valora:hotpath
func (h *PromHistogram) Observe(v float64) {
	h.s.mu.Lock()
	for i, ub := range h.bounds {
		if v <= ub {
			h.s.bucketN[i]++
		}
	}
	h.s.count++
	h.s.sum += v
	h.s.mu.Unlock()
}

// ObserveDuration records a duration sample in milliseconds.
//
//valora:hotpath
func (h *PromHistogram) ObserveDuration(d time.Duration) {
	h.Observe(float64(d) / float64(time.Millisecond))
}

// Count reports the histogram's total observation count.
func (h *PromHistogram) Count() uint64 {
	h.s.mu.Lock()
	defer h.s.mu.Unlock()
	return h.s.count
}

// Write renders the collector in the Prometheus text exposition
// format. Families print sorted by name and series by label
// signature, so the output is deterministic for a given state.
func (p *Prom) Write(w io.Writer) error {
	p.mu.Lock()
	fams := make([]*promFamily, len(p.families))
	copy(fams, p.families)
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	var b strings.Builder
	for _, f := range fams {
		if len(f.series) == 0 {
			continue
		}
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		series := make([]*promSeries, len(f.series))
		copy(series, f.series)
		sort.Slice(series, func(i, j int) bool {
			return labelSignature(series[i].labels) < labelSignature(series[j].labels)
		})
		for _, s := range series {
			switch f.kind {
			case kindCounter, kindGauge:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, labelString(s.labels, ""), formatValue(s.val))
			case kindHistogram:
				for i, ub := range f.buckets {
					fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name,
						labelString(s.labels, formatValue(ub)), s.bucketN[i])
				}
				fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name, labelString(s.labels, "+Inf"), s.count)
				fmt.Fprintf(&b, "%s_sum%s %s\n", f.name, labelString(s.labels, ""), formatValue(s.sum))
				fmt.Fprintf(&b, "%s_count%s %d\n", f.name, labelString(s.labels, ""), s.count)
			}
		}
	}
	p.mu.Unlock()

	_, err := io.WriteString(w, b.String())
	return err
}

// labelSignature is the sort key of a series within its family.
func labelSignature(labels []Label) string {
	var b strings.Builder
	for _, l := range labels {
		b.WriteString(l.Name)
		b.WriteByte('=')
		b.WriteString(l.Value)
		b.WriteByte(',')
	}
	return b.String()
}

// labelString renders {k="v",...}; le, when non-empty, is appended as
// the histogram bucket bound label.
func labelString(labels []Label, le string) string {
	if len(labels) == 0 && le == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	if le != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`le="`)
		b.WriteString(le)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabelValue escapes backslash, double-quote and newline per the
// exposition format.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// formatValue renders a sample value: integral values print without a
// decimal point (counter idiom), others in shortest-round-trip form.
func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
