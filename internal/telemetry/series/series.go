// Package series is the daemon's embedded metric history: a fixed-memory,
// downsampling time-series store fed by a sampler that scrapes the
// process's own telemetry.Registry once per interval. It exists because an
// operator of a power controller needs the last minutes of every metric —
// "when did the cap sum start climbing", "what was the e2e latency before
// the alert" — without deploying an external TSDB next to a daemon whose
// whole design argument is having no heavyweight dependencies.
//
// Storage is two rings per series: a raw ring at the scrape interval
// (default 1 s × 10 min) and a rollup ring of fixed-width means (default
// 10 s × 1 h). Memory is bounded at construction: each series costs
// (RawSamples+RollupSamples) × 16 bytes and the store refuses new series
// past MaxSeries (counting refusals) rather than growing. Counters are
// stored as per-second rates, gauges as levels, and histograms as three
// derived series — count rate, sum rate, and a p99 estimated from the
// fixed buckets — so every stored point is directly plottable.
//
// Like the rest of the repository, nothing here imports outside the
// standard library.
package series

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"
)

// Series kinds, recorded for display so a dashboard knows whether a point
// is a level or a rate.
const (
	KindGauge = "gauge" // instantaneous level
	KindRate  = "rate"  // per-second rate over the scrape interval
	KindP99   = "p99"   // estimated 99th percentile over the scrape interval
)

// Config sizes the store. The zero value of any field selects its default.
type Config struct {
	// RawInterval is the nominal scrape period, used only to decide which
	// ring serves a query window (points carry real timestamps). Default
	// 1 s, matching the paper's decision interval.
	RawInterval time.Duration
	// RawSamples is the raw ring length. Default 600 (10 min at 1 s).
	RawSamples int
	// RollupEvery is how many raw samples fold into one rollup mean.
	// Default 10.
	RollupEvery int
	// RollupSamples is the rollup ring length. Default 360 (1 h at 10 s).
	RollupSamples int
	// MaxSeries bounds the store's footprint: series first seen past the
	// cap are dropped and counted, never stored. Default 1024 (~16 MiB at
	// the default ring geometry).
	MaxSeries int
}

func (c Config) withDefaults() Config {
	if c.RawInterval <= 0 {
		c.RawInterval = time.Second
	}
	if c.RawSamples <= 0 {
		c.RawSamples = 600
	}
	if c.RollupEvery <= 0 {
		c.RollupEvery = 10
	}
	if c.RollupSamples <= 0 {
		c.RollupSamples = 360
	}
	if c.MaxSeries <= 0 {
		c.MaxSeries = 1024
	}
	return c
}

// ring is a fixed-capacity circular buffer of (time, value) points.
// Pushes never allocate after construction.
type ring struct {
	times []int64 // unix nanoseconds
	vals  []float64
	n     int // valid points
	next  int // slot the next push writes
}

func newRing(capacity int) ring {
	return ring{times: make([]int64, capacity), vals: make([]float64, capacity)}
}

func (r *ring) push(t int64, v float64) {
	r.times[r.next] = t
	r.vals[r.next] = v
	r.next++
	if r.next == len(r.times) {
		r.next = 0
	}
	if r.n < len(r.times) {
		r.n++
	}
}

// appendSince appends the points with time >= since, oldest first.
func (r *ring) appendSince(out []Point, since int64) []Point {
	first := r.next - r.n
	if first < 0 {
		first += len(r.times)
	}
	for i := 0; i < r.n; i++ {
		j := first + i
		if j >= len(r.times) {
			j -= len(r.times)
		}
		if r.times[j] >= since {
			out = append(out, Point{T: r.times[j], V: r.vals[j]})
		}
	}
	return out
}

// latest returns the newest point, if any.
func (r *ring) latest() (Point, bool) {
	if r.n == 0 {
		return Point{}, false
	}
	j := r.next - 1
	if j < 0 {
		j += len(r.times)
	}
	return Point{T: r.times[j], V: r.vals[j]}, true
}

// oneSeries is one stored series: raw and rollup rings plus the rollup
// accumulator.
type oneSeries struct {
	key  string
	kind string
	raw  ring
	roll ring
	// accSum/accN accumulate raw pushes toward the next rollup mean.
	accSum float64
	accN   int
}

// Point is one stored sample.
type Point struct {
	T int64   `json:"t"` // unix nanoseconds
	V float64 `json:"v"`
}

// Series is one query result.
type Series struct {
	Name string `json:"name"`
	// Kind is KindGauge, KindRate or KindP99.
	Kind string `json:"kind"`
	// Resolution is the ring the points came from: "raw" or "rollup".
	Resolution string  `json:"resolution"`
	Points     []Point `json:"points"`
}

// Store holds every series. All methods are safe for concurrent use; the
// push path (Push on an existing series) takes one lock and never
// allocates.
type Store struct {
	cfg Config

	mu      sync.Mutex
	series  map[string]*oneSeries
	names   []string // sorted lazily on demand
	sorted  bool
	dropped uint64
}

// NewStore returns an empty store with the given geometry.
func NewStore(cfg Config) *Store {
	return &Store{cfg: cfg.withDefaults(), series: make(map[string]*oneSeries)}
}

// Config returns the store's resolved geometry.
func (s *Store) Config() Config { return s.cfg }

// Dropped returns the number of pushes refused because the series cap was
// reached.
func (s *Store) Dropped() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// Len returns the number of stored series.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.series)
}

// admit returns the named series, creating it with the given kind on
// first sight (kind is fixed thereafter) while the store has room; nil
// once MaxSeries series exist. Caller holds mu.
func (s *Store) admit(key, kind string) *oneSeries {
	sr, ok := s.series[key]
	if !ok && len(s.series) < s.cfg.MaxSeries {
		sr = &oneSeries{
			key:  key,
			kind: kind,
			raw:  newRing(s.cfg.RawSamples),
			roll: newRing(s.cfg.RollupSamples),
		}
		s.series[key] = sr
		s.names = append(s.names, key)
		s.sorted = false
	}
	return sr
}

// Push appends one sample to the named series, admitting it on first
// sight. Pushes to series beyond MaxSeries are dropped and counted.
func (s *Store) Push(key, kind string, t time.Time, v float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.push(s.admit(key, kind), t.UnixNano(), v)
}

// push appends one sample to sr, or counts a refused push when the store
// had no room for the series (sr nil). Caller holds mu.
func (s *Store) push(sr *oneSeries, t int64, v float64) {
	if sr == nil {
		s.dropped++
		return
	}
	sr.raw.push(t, v)
	sr.accSum += v
	sr.accN++
	if sr.accN >= s.cfg.RollupEvery {
		sr.roll.push(t, sr.accSum/float64(sr.accN))
		sr.accSum, sr.accN = 0, 0
	}
}

// Names returns every stored series key, sorted.
func (s *Store) Names() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.sorted {
		sort.Strings(s.names)
		s.sorted = true
	}
	return append([]string(nil), s.names...)
}

// Query returns the named series' points within the trailing window
// [now-last, now], raw-resolution when the window fits inside the raw
// ring's span and rollup-resolution otherwise. ok is false for an unknown
// series.
func (s *Store) Query(key string, last time.Duration, now time.Time) (Series, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sr, ok := s.series[key]
	if !ok {
		return Series{}, false
	}
	if last <= 0 {
		last = time.Duration(s.cfg.RawSamples) * s.cfg.RawInterval
	}
	out := Series{Name: key, Kind: sr.kind, Resolution: "raw"}
	since := now.Add(-last).UnixNano()
	rawSpan := time.Duration(s.cfg.RawSamples) * s.cfg.RawInterval
	if last > rawSpan {
		out.Resolution = "rollup"
		out.Points = sr.roll.appendSince(make([]Point, 0, sr.roll.n), since)
	} else {
		out.Points = sr.raw.appendSince(make([]Point, 0, sr.raw.n), since)
	}
	return out, true
}

// Latest returns the newest raw sample of the named series.
func (s *Store) Latest(key string) (Point, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sr, ok := s.series[key]
	if !ok {
		return Point{}, false
	}
	return sr.raw.latest()
}

// WindowMean returns the mean and count of raw samples with timestamps in
// [now-window, now] — the alert engine's burn-rate input.
func (s *Store) WindowMean(key string, window time.Duration, now time.Time) (mean float64, n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sr, ok := s.series[key]
	if !ok {
		return 0, 0
	}
	since := now.Add(-window).UnixNano()
	r := &sr.raw
	first := r.next - r.n
	if first < 0 {
		first += len(r.times)
	}
	var sum float64
	for i := 0; i < r.n; i++ {
		j := first + i
		if j >= len(r.times) {
			j -= len(r.times)
		}
		if r.times[j] >= since {
			sum += r.vals[j]
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return sum / float64(n), n
}

// Handler serves the store for mounting at GET /debug/series:
//
//	GET /debug/series                  the sorted series index as JSON
//	GET /debug/series?name=K           one series, default window
//	GET /debug/series?name=K&last=5m   one series, trailing window
//
// now supplies the query-time clock (nil selects time.Now), so tests with
// a stubbed server clock get deterministic windows.
func (s *Store) Handler(now func() time.Time) http.Handler {
	if now == nil {
		now = time.Now
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		name := req.URL.Query().Get("name")
		if name == "" {
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(struct {
				Series  []string `json:"series"`
				Dropped uint64   `json:"dropped"`
			}{s.Names(), s.Dropped()})
			return
		}
		last := time.Duration(0)
		if q := req.URL.Query().Get("last"); q != "" {
			d, err := time.ParseDuration(q)
			if err != nil || d <= 0 {
				http.Error(w, "last must be a positive duration (e.g. 5m)", http.StatusBadRequest)
				return
			}
			last = d
		}
		out, ok := s.Query(name, last, now())
		if !ok {
			http.Error(w, fmt.Sprintf("unknown series %q", name), http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(out); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}
