package series

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"dps/internal/telemetry"
)

func at(s int) time.Time { return time.Unix(1700000000+int64(s), 0).UTC() }

func TestStorePushQueryAndRollup(t *testing.T) {
	st := NewStore(Config{RawSamples: 8, RollupEvery: 4, RollupSamples: 4})
	for i := 0; i < 12; i++ {
		st.Push("g", KindGauge, at(i), float64(i))
	}

	// Raw ring holds the newest 8 points.
	out, ok := st.Query("g", 0, at(12))
	if !ok {
		t.Fatal("unknown series")
	}
	if out.Resolution != "raw" || len(out.Points) != 8 {
		t.Fatalf("raw query: resolution %q, %d points", out.Resolution, len(out.Points))
	}
	if out.Points[0].V != 4 || out.Points[7].V != 11 {
		t.Fatalf("raw window = [%g..%g], want [4..11]", out.Points[0].V, out.Points[7].V)
	}

	// 12 pushes at RollupEvery=4 → 3 rollup means: mean(0..3)=1.5,
	// mean(4..7)=5.5, mean(8..11)=9.5. A window wider than the raw span
	// (8 × 1s) selects the rollup ring.
	out, ok = st.Query("g", time.Hour, at(12))
	if !ok || out.Resolution != "rollup" {
		t.Fatalf("wide query: ok=%v resolution %q", ok, out.Resolution)
	}
	want := []float64{1.5, 5.5, 9.5}
	if len(out.Points) != len(want) {
		t.Fatalf("rollup points = %d, want %d", len(out.Points), len(want))
	}
	for i, p := range out.Points {
		if p.V != want[i] {
			t.Errorf("rollup[%d] = %g, want %g", i, p.V, want[i])
		}
	}

	if p, ok := st.Latest("g"); !ok || p.V != 11 {
		t.Fatalf("Latest = %+v %v, want 11", p, ok)
	}
	// Trailing-4s window covers pushes at t=8..11.
	if mean, n := st.WindowMean("g", 3*time.Second, at(11)); n != 4 || mean != 9.5 {
		t.Fatalf("WindowMean = %g over %d, want 9.5 over 4", mean, n)
	}
	if _, ok := st.Query("missing", 0, at(0)); ok {
		t.Fatal("unknown series reported ok")
	}
}

func TestStoreMaxSeriesDropsAndCounts(t *testing.T) {
	st := NewStore(Config{MaxSeries: 2, RawSamples: 4})
	st.Push("a", KindGauge, at(0), 1)
	st.Push("b", KindGauge, at(0), 2)
	st.Push("c", KindGauge, at(0), 3) // over the cap: dropped
	st.Push("a", KindGauge, at(1), 4) // existing series still accepted
	if st.Len() != 2 || st.Dropped() != 1 {
		t.Fatalf("len=%d dropped=%d, want 2 and 1", st.Len(), st.Dropped())
	}
	if names := st.Names(); len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("Names = %v", names)
	}
}

func TestSamplerCountersBecomeRates(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := reg.Counter("reqs_total", "test")
	g := reg.Gauge("level", "test")
	sm := NewSampler(reg, NewStore(Config{}))

	g.Set(7)
	sm.SampleOnce(at(0)) // seeds the counter baseline, stores the gauge
	if _, ok := sm.Store().Latest("reqs_total"); ok {
		t.Fatal("counter rate stored on the seeding scrape")
	}
	if p, ok := sm.Store().Latest("level"); !ok || p.V != 7 {
		t.Fatalf("gauge = %+v %v, want 7", p, ok)
	}

	c.Add(10)
	sm.SampleOnce(at(2)) // 10 counts over 2 s → 5/s
	if p, ok := sm.Store().Latest("reqs_total"); !ok || p.V != 5 {
		t.Fatalf("rate = %+v %v, want 5", p, ok)
	}
}

func TestSamplerCounterResetYieldsZero(t *testing.T) {
	// A scraped component restarting shows as the value going backwards.
	// A Counter only adds, so wrap it around: 100 + (2^64 - 97) = 3.
	reg := telemetry.NewRegistry()
	c := reg.Counter("reqs_total", "test")
	c.Add(100)
	store := NewStore(Config{})
	sm := NewSampler(reg, store)
	sm.SampleOnce(at(0))

	c.Add(^uint64(0) - 96)
	if c.Value() != 3 {
		t.Fatalf("wrapped counter = %d, want 3", c.Value())
	}
	sm.SampleOnce(at(1))
	if p, ok := store.Latest("reqs_total"); !ok || p.V != 0 {
		t.Fatalf("post-reset rate = %+v %v, want 0", p, ok)
	}
}

func TestSamplerHistogramDerivedSeries(t *testing.T) {
	reg := telemetry.NewRegistry()
	h := reg.Histogram("lat", "test", []float64{0.1, 0.2, 0.4})
	sm := NewSampler(reg, NewStore(Config{}))
	sm.SampleOnce(at(0))

	// 100 observations in (0.1, 0.2]: p99 interpolates inside that bucket.
	for i := 0; i < 100; i++ {
		h.Observe(0.15)
	}
	sm.SampleOnce(at(2))

	if p, ok := sm.Store().Latest("lat:count"); !ok || p.V != 50 {
		t.Fatalf("count rate = %+v %v, want 50/s", p, ok)
	}
	if p, ok := sm.Store().Latest("lat:sum"); !ok || math.Abs(p.V-7.5) > 1e-9 {
		t.Fatalf("sum rate = %+v %v, want 7.5/s", p, ok)
	}
	p, ok := sm.Store().Latest("lat:p99")
	if !ok {
		t.Fatal("no p99 series")
	}
	// rank 99 of 100 all in [0.1,0.2] → 0.1 + 0.99*0.1 = 0.199.
	if math.Abs(p.V-0.199) > 1e-9 {
		t.Fatalf("p99 = %g, want 0.199", p.V)
	}

	// Observations beyond the last finite bound clamp p99 to it.
	for i := 0; i < 100; i++ {
		h.Observe(9)
	}
	sm.SampleOnce(at(4))
	if p, _ = sm.Store().Latest("lat:p99"); p.V != 0.4 {
		t.Fatalf("overflow p99 = %g, want clamp to 0.4", p.V)
	}
}

func TestQuantileInterpolation(t *testing.T) {
	bounds := []float64{1, 2, 4}
	// counts: 10 in (0,1], 10 in (1,2], 0 in (2,4], 0 overflow.
	counts := []uint64{10, 10, 0, 0}
	if got := quantile(0.5, bounds, counts, 20); got != 1 {
		t.Errorf("p50 = %g, want 1 (rank exactly at the first bucket's end)", got)
	}
	if got := quantile(0.75, bounds, counts, 20); math.Abs(got-1.5) > 1e-9 {
		t.Errorf("p75 = %g, want 1.5", got)
	}
	if got := quantile(0.99, nil, nil, 0); got != 0 {
		t.Errorf("empty quantile = %g, want 0", got)
	}
}

func TestHandlerEndpoints(t *testing.T) {
	st := NewStore(Config{RawSamples: 16})
	for i := 0; i < 5; i++ {
		st.Push("m", KindGauge, at(i), float64(i))
	}
	h := st.Handler(func() time.Time { return at(5) })

	// Index.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/series", nil))
	if rec.Code != 200 {
		t.Fatalf("index = %d", rec.Code)
	}
	var idx struct {
		Series  []string `json:"series"`
		Dropped uint64   `json:"dropped"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &idx); err != nil {
		t.Fatal(err)
	}
	if len(idx.Series) != 1 || idx.Series[0] != "m" {
		t.Fatalf("index = %+v", idx)
	}

	// One series with a window.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/series?name=m&last=2s", nil))
	var out Series
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Points) != 2 || out.Points[0].V != 3 {
		t.Fatalf("windowed query = %+v", out.Points)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/series?name=nope", nil))
	if rec.Code != 404 {
		t.Fatalf("unknown series = %d, want 404", rec.Code)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/series?name=m&last=banana", nil))
	if rec.Code != 400 {
		t.Fatalf("bad duration = %d, want 400", rec.Code)
	}
}

// TestSamplerScrapeRace drives SampleOnce against concurrent metric
// registration and observation — the live daemon's situation, where agent
// connections register unit gauges and observe histograms while the
// sampler goroutine scrapes. Run under -race this is the data-race gate
// for the Registry.Each snapshot path.
func TestSamplerScrapeRace(t *testing.T) {
	reg := telemetry.NewRegistry()
	sm := NewSampler(reg, NewStore(Config{}))

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			lbl := telemetry.Label{Key: "unit", Value: string(rune('a' + i%8))}
			reg.Counter("race_total", "test", lbl).Inc()
			reg.Gauge("race_level", "test", lbl).Set(float64(i))
			reg.Histogram("race_lat", "test", nil, lbl).Observe(float64(i%10) / 1000)
			i++
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			sm.SampleOnce(at(i))
		}
		close(stop)
	}()
	wg.Wait()
}

// TestSamplerHistogramReadIsNotTorn is the sampler's twin of the
// exposition's TestHistogramConsistentWhileObserving: scraping beside
// hammering Observes, the bucket deltas a :p99 is computed from must sum
// to the count delta pushed as :count on every sample — the count is the
// sum of the buckets the scrape loaded, not a second read of a total that
// has moved on.
func TestSamplerHistogramReadIsNotTorn(t *testing.T) {
	reg := telemetry.NewRegistry()
	h := reg.Histogram("busy_seconds", "busy", nil)
	sm := NewSampler(reg, NewStore(Config{}))
	sm.SampleOnce(at(0)) // plans the histogram and takes its baseline

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				h.Observe(float64(i%7) * 1e-6)
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	for h.Count() == 0 { // the hammer is running
		runtime.Gosched()
	}
	samples := 300
	if testing.Short() {
		samples = 100
	}
	p := &sm.hists[0]
	for i := 1; i <= samples; i++ {
		before := p.prevCount
		sm.SampleOnce(at(i))
		var deltas, buckets uint64
		for j := range p.deltas {
			deltas += p.deltas[j]
			buckets += p.buckets[j]
		}
		if dCount := p.prevCount - before; dCount > 0 && deltas != dCount {
			t.Fatalf("sample %d: bucket deltas sum to %d, count moved by %d", i, deltas, dCount)
		}
		if buckets != p.prevCount {
			t.Fatalf("sample %d: carried buckets sum to %d, carried count is %d", i, buckets, p.prevCount)
		}
	}
	close(stop)
	wg.Wait()
}
