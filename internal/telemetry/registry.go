// Package telemetry is the repository's observability substrate: a
// dependency-free metrics registry (atomic counters, gauges, and
// fixed-bucket histograms with Prometheus text exposition) and a decision
// flight recorder (a ring buffer of per-round records served as JSON).
//
// The controller daemon and the node agent publish through the same
// registry so one scrape format covers both deployed processes; the
// simulator has no registry, it fills the same round record the daemon
// does (Round.Fill). Nothing here imports outside the standard library:
// the paper's 3-byte protocol argues for a controller with no
// heavyweight dependencies, and the metrics path follows suit.
//
// # Histogram bucket choice
//
// Buckets are fixed at registration, so each histogram picks bounds for
// the path it measures rather than falling back to a generic layout. The
// rule: (1) the bucket range brackets the full plausible range of the
// measured path — the fastest value the hardware can produce to the
// slowest value that is still "working" rather than "stuck" — so the tail
// quantiles fall inside finite buckets and a p99 estimated from bucket
// counts (internal/telemetry/series) interpolates instead of saturating
// at +Inf; (2) bounds follow a 1–2.5–5 progression per decade, giving
// ~±25 % quantile resolution at every scale for ~3 buckets per decade;
// (3) the bucket count stays small (≤ ~20) because every series carries
// its full bucket vector in each exposition. DefSecondsBuckets applies
// the rule to in-process stage timings (1 µs–1 s); paths with different
// physics — e.g. the network-crossing apply echo round trip — register
// their own bounds instead of reusing it.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// metric kinds, matching Prometheus TYPE annotations.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

// Registry holds metric families and renders them in the Prometheus text
// exposition format. All methods are safe for concurrent use; the lookup
// path (Counter/Gauge/Histogram with an existing name+labels) is
// lock-free after first registration only in the sense that the returned
// handles are, so callers should capture handles once and update them on
// the hot path.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	// gen counts the series ever registered. The registry is append-only,
	// so an unchanged generation means an unchanged series set.
	gen atomic.Uint64
	// unitSigs are the label signatures {unit="0"}, {unit="1"}, … that
	// every gauge column shares, grown to the longest column. Append-only
	// like the families, so a column's prefix of it never changes.
	unitSigs []string
}

type family struct {
	name, help, kind string
	buckets          []float64 // histogram upper bounds, nil otherwise

	mu sync.Mutex
	// order and handles are parallel and append-only: label signatures and
	// metric handles in registration order. Elements below a length read
	// under mu never change, so a copied slice header is a stable view.
	order   []string
	handles []any
	series  map[string]any // signature → handle, the lookup path
	// col is a gauge column's reader; a column family has no handles.
	col *Column
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Label is one name="value" pair attached to a series.
type Label struct {
	Key, Value string
}

// The exposition format's escapes for a label value and for HELP text.
// Replace returns its argument when nothing needs escaping.
var (
	labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	helpEscaper  = strings.NewReplacer(`\`, `\\`, "\n", `\n`)
)

// labelSignature renders labels into the canonical `{k="v",...}` form used
// both as the series key and in the exposition output.
func labelSignature(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(labelEscaper.Replace(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func (r *Registry) family(name, help, kind string, buckets []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, buckets: buckets, series: make(map[string]any)}
		r.families[name] = f
		return f
	}
	if f.kind != kind || f.col != nil {
		panic(fmt.Sprintf("telemetry: metric %q re-registered as %s, was %s", name, kind, f.kind))
	}
	return f
}

func (r *Registry) series1(f *family, sig string, mk func() any) any {
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[sig]; ok {
		return s
	}
	s := mk()
	f.series[sig] = s
	f.order = append(f.order, sig)
	f.handles = append(f.handles, s)
	r.gen.Add(1)
	return s
}

// Generation returns the number of series registered so far. Series are
// never removed, so a reader that cached handles (Families) needs to look
// again only when this moved.
func (r *Registry) Generation() uint64 { return r.gen.Load() }

// Counter registers (or looks up) a monotonically increasing counter.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	f := r.family(name, help, kindCounter, nil)
	return r.series1(f, labelSignature(labels), func() any { return &Counter{} }).(*Counter)
}

// Gauge registers (or looks up) a gauge.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	f := r.family(name, help, kindGauge, nil)
	return r.series1(f, labelSignature(labels), func() any { return &Gauge{} }).(*Gauge)
}

// Histogram registers (or looks up) a fixed-bucket histogram. The buckets
// are upper bounds in increasing order; a +Inf bucket is implicit. The
// bucket layout is fixed by the first registration of the family.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	if len(buckets) == 0 {
		buckets = DefSecondsBuckets
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("telemetry: histogram %q buckets not increasing at %d", name, i))
		}
	}
	f := r.family(name, help, kindHistogram, buckets)
	return r.series1(f, labelSignature(labels), func() any { return newHistogram(f.buckets) }).(*Histogram)
}

// GaugeColumn registers a gauge family of n series labelled
// {unit="0"} … {unit="n-1"} whose values the registry does not hold:
// read fills dst[i] with series i's current value, for every i <
// len(dst) ≤ n, whenever WritePrometheus, Each or a sampler asks. Its
// exposition is byte for byte that of n gauges registered in unit order
// and Set to those values, but the family keeps no handle, map entry or
// label string per series (the signatures come from one table every
// column of the registry shares), and nothing is written between
// scrapes. read runs on the scraping goroutine, possibly concurrently
// with itself. A column is registered once, whole, under a name no other
// family has.
func (r *Registry) GaugeColumn(name, help string, n int, read func(dst []float64)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.families[name]; ok {
		panic(fmt.Sprintf("telemetry: gauge column %q registered over an existing family", name))
	}
	for u := len(r.unitSigs); u < n; u++ {
		r.unitSigs = append(r.unitSigs, `{unit="`+strconv.Itoa(u)+`"}`)
	}
	r.families[name] = &family{name: name, help: help, kind: kindGauge,
		order: r.unitSigs[:n:n], col: &Column{read: read, n: n}}
	r.gen.Add(uint64(n))
}

// Column is a gauge column's reader, as Families hands it out.
type Column struct {
	read func(dst []float64)
	n    int
	// spare is the values buffer the last scrape handed back, for the
	// next to take; a scrape that finds none (the first, or one racing
	// another) makes its own.
	spare atomic.Pointer[[]float64]
}

// Len returns the column's series count.
func (c *Column) Len() int { return c.n }

// Read fills dst[i] with series i's current value, i < len(dst) ≤ Len().
func (c *Column) Read(dst []float64) { c.read(dst) }

// DefSecondsBuckets spans one microsecond to one second, the range of
// interest for a control loop with a one-second decision interval.
var DefSecondsBuckets = []float64{
	1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1,
}

// Counter is a monotonically increasing uint64.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float64 that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add increments the gauge by delta (CAS loop; fine off the hot path).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed buckets and tracks their sum.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is +Inf
	sum    atomic.Uint64   // float64 bits, CAS-accumulated
	count  atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Bounds returns the upper bucket bounds (shared; callers must not
// mutate).
func (h *Histogram) Bounds() []float64 { return h.bounds }

// Buckets loads the per-bucket (non-cumulative) observation counts into
// dst, len(Bounds())+1 with the +Inf bucket last, reusing dst's capacity.
func (h *Histogram) Buckets(dst []uint64) []uint64 {
	if cap(dst) < len(h.counts) {
		dst = make([]uint64, len(h.counts))
	}
	dst = dst[:len(h.counts)]
	for i := range h.counts {
		dst[i] = h.counts[i].Load()
	}
	return dst
}

// Family is one metric family as captured by Families: the handles are
// shared with the registry (their values are read atomically) and the
// slices are views of append-only storage, stable at the captured length.
type Family struct {
	Name, Help, Kind string
	// Labels are the canonical `{k="v",...}` signatures in registration
	// order, "" for an unlabeled series.
	Labels []string
	// Series are the *Counter, *Gauge or *Histogram handles, parallel to
	// Labels; nil for a gauge column.
	Series []any
	// Column reads a gauge column's values, nil for any other family.
	Column *Column
}

// Families captures every family, sorted by name, under the registry and
// family locks, holding each only long enough to copy two slice headers —
// O(families), never O(series), and never while formatting. A first
// registration racing a scrape therefore waits for a few copies, not for
// the whole exposition to render.
func (r *Registry) Families() []Family {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	fams := make([]*family, 0, len(names))
	for _, name := range names {
		fams = append(fams, r.families[name])
	}
	r.mu.Unlock()

	out := make([]Family, 0, len(fams))
	for _, f := range fams {
		f.mu.Lock()
		out = append(out, Family{Name: f.name, Help: f.help, Kind: f.kind, Labels: f.order, Series: f.handles, Column: f.col})
		f.mu.Unlock()
	}
	return out
}

// expoChunk is the capacity of the one buffer a scrape formats into. It
// goes to the writer, cut at a line end, when a finished line leaves less
// than expoSlack free and once more at the end; a line longer than the
// slack grows it and is still delivered whole.
const expoChunk, expoSlack = 64 << 10, 1 << 10

// expo is one scrape in progress; err is the failed Write that ended it.
type expo struct {
	w   io.Writer
	buf []byte
	err error
}

func (e *expo) flush() {
	if e.err == nil && len(e.buf) > 0 {
		_, e.err = e.w.Write(e.buf)
	}
	e.buf = e.buf[:0]
}

// sample starts a sample line: name, suffix, label signature, space.
func (e *expo) sample(name, suffix, sig string) {
	e.buf = append(append(append(append(e.buf, name...), suffix...), sig...), ' ')
}

// endLine ends the line and flushes a full chunk; false: the scrape failed.
func (e *expo) endLine() bool {
	e.buf = append(e.buf, '\n')
	if len(e.buf) > expoChunk-expoSlack {
		e.flush()
	}
	return e.err == nil
}

func (e *expo) uintLine(v uint64) bool {
	e.buf = strconv.AppendUint(e.buf, v, 10)
	return e.endLine()
}

func (e *expo) floatLine(v float64) bool {
	e.buf = strconv.AppendFloat(e.buf, v, 'g', -1, 64)
	return e.endLine()
}

// histogram writes one histogram series. Each bucket counter is loaded
// once, and the +Inf bucket and _count are the sum of those loads: buckets
// never decrease and _count equals +Inf even while Observe runs (it bumps
// a bucket before the total).
func (e *expo) histogram(name, sig string, h *Histogram) bool {
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		e.buf = append(append(e.buf, name...), "_bucket{"...)
		if sig != "" { // "{...}": le is spliced into it
			e.buf = append(append(e.buf, sig[1:len(sig)-1]...), ',')
		}
		e.buf = append(e.buf, `le="`...)
		if i < len(h.bounds) {
			e.buf = strconv.AppendFloat(e.buf, h.bounds[i], 'g', -1, 64)
		} else {
			e.buf = append(e.buf, "+Inf"...)
		}
		e.buf = append(e.buf, `"} `...)
		e.uintLine(cum)
	}
	e.sample(name, "_sum", sig)
	e.floatLine(h.Sum())
	e.sample(name, "_count", sig)
	return e.uintLine(cum)
}

// column writes a gauge column's series from one read of its values into
// the column's spare buffer, handed back for the next scrape.
func (e *expo) column(name string, sigs []string, c *Column) {
	buf := c.spare.Swap(nil)
	if buf == nil {
		vals := make([]float64, c.n)
		buf = &vals
	}
	defer c.spare.Store(buf)
	vals := *buf
	c.read(vals)
	for i := 0; i < len(sigs) && e.err == nil; i++ {
		e.sample(name, "", sigs[i])
		e.floatLine(vals[i])
	}
}

// WritePrometheus writes every family in the text exposition format,
// families sorted by name, series in registration order, streamed to w in
// chunks of whole lines. The registry is snapshotted first and formatted
// lock-free, so a slow or huge scrape cannot stall hot-path
// first-registrations; a scrape allocates that snapshot and one chunk,
// whatever the series count. A gauge column is read once, into a buffer
// the next scrape reuses, and formatted from that copy. The first failed
// Write ends it: its error is returned and w is not written to again, but
// the chunks before it have been delivered.
func (r *Registry) WritePrometheus(w io.Writer) error {
	e := expo{w: w, buf: make([]byte, 0, expoChunk)}
	for _, f := range r.Families() {
		if len(f.Labels) == 0 {
			continue
		}
		e.buf = append(append(append(e.buf, "# HELP "...), f.Name...), ' ')
		e.buf = append(e.buf, helpEscaper.Replace(f.Help)...)
		e.buf = append(append(append(e.buf, "\n# TYPE "...), f.Name...), ' ')
		e.buf = append(e.buf, f.Kind...)
		ok := e.endLine()
		if f.Column != nil {
			e.column(f.Name, f.Labels, f.Column)
			continue
		}
		for i := 0; ok && i < len(f.Labels); i++ {
			switch f.Kind {
			case kindCounter:
				e.sample(f.Name, "", f.Labels[i])
				ok = e.uintLine(f.Series[i].(*Counter).Value())
			case kindGauge:
				e.sample(f.Name, "", f.Labels[i])
				ok = e.floatLine(f.Series[i].(*Gauge).Value())
			case kindHistogram:
				ok = e.histogram(f.Name, f.Labels[i], f.Series[i].(*Histogram))
			}
		}
	}
	e.flush()
	return e.err
}

// Exported kind names, the values of Sample.Kind.
const (
	KindCounter   = kindCounter
	KindGauge     = kindGauge
	KindHistogram = kindHistogram
)

// Sample is one series' instantaneous state as delivered to Each: the
// scrape-side view a sampler turns into time-series history.
type Sample struct {
	// Name is the metric family name.
	Name string
	// Labels is the canonical `{k="v",...}` signature, "" when unlabeled.
	Labels string
	// Kind is KindCounter, KindGauge or KindHistogram.
	Kind string
	// Value holds the counter count or gauge level; for histograms it is
	// the sum of observations.
	Value float64
	// Count is the histogram observation count (0 for other kinds).
	Count uint64
	// Bounds are the histogram's upper bucket bounds (shared with the
	// registry; callers must not mutate). Nil for other kinds.
	Bounds []float64
	// BucketCounts are the per-bucket (non-cumulative) observation counts,
	// len(Bounds)+1 with the +Inf bucket last. The slice is a buffer
	// reused across callbacks — copy it to retain it.
	BucketCounts []uint64
}

// Each calls fn once per registered series with its current value,
// families in name order and series in registration order. Like
// WritePrometheus it walks a snapshot, so a concurrent first registration
// never blocks on the visit; values are read atomically per series (a
// scrape is not a cross-series atomic cut, which is true of any
// Prometheus exposition too), and a gauge column's all at once, as its
// reader yields them.
func (r *Registry) Each(fn func(Sample)) {
	var counts []uint64
	for _, f := range r.Families() {
		if f.Column != nil {
			vals := make([]float64, f.Column.Len())
			f.Column.Read(vals)
			for i, sig := range f.Labels {
				fn(Sample{Name: f.Name, Labels: sig, Kind: f.Kind, Value: vals[i]})
			}
			continue
		}
		for i, sig := range f.Labels {
			s := Sample{Name: f.Name, Labels: sig, Kind: f.Kind}
			switch m := f.Series[i].(type) {
			case *Counter:
				s.Value = float64(m.Value())
			case *Gauge:
				s.Value = m.Value()
			case *Histogram:
				counts = m.Buckets(counts)
				s.Bounds = m.bounds
				s.BucketCounts = counts
				s.Count = m.Count()
				s.Value = m.Sum()
			}
			fn(s)
		}
	}
}

// Handler serves the registry at any path, for mounting as GET /metrics.
// The exposition is streamed in chunks under the 200 its first Write
// commits, so a failed Write leaves no status to change and nobody to
// tell: the handler stops, and the client sees a truncated body.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w) // every error is a failed Write on w itself
	})
}
