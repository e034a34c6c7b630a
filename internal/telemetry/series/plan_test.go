package series

import (
	"fmt"
	"reflect"
	"strconv"
	"testing"
	"time"

	"dps/internal/telemetry"
)

// naiveSampler is the sampler as it was before the plan: every scrape
// walks the whole registry, rebuilds every key and goes through the
// store's map for each one. It is the reference the planned sampler is
// held to, point for point.
type naiveSampler struct {
	reg          *telemetry.Registry
	store        *Store
	prevT        time.Time
	prevCounters map[string]float64
	prevHists    map[string]*naiveHist
}

type naiveHist struct {
	count           uint64
	sum             float64
	buckets, deltas []uint64
}

func (sm *naiveSampler) admit(key, kind string) {
	sm.store.mu.Lock()
	sm.store.admit(key, kind)
	sm.store.mu.Unlock()
}

func (sm *naiveSampler) SampleOnce(now time.Time) {
	dt := now.Sub(sm.prevT).Seconds()
	first := sm.prevT.IsZero()
	sm.reg.Each(func(s telemetry.Sample) {
		key := s.Name + s.Labels
		switch s.Kind {
		case telemetry.KindGauge:
			sm.store.Push(key, KindGauge, now, s.Value)
		case telemetry.KindCounter:
			prev, seen := sm.prevCounters[key]
			if !seen {
				sm.admit(key, KindRate)
			} else if !first && dt > 0 {
				rate := (s.Value - prev) / dt
				if rate < 0 {
					rate = 0
				}
				sm.store.Push(key, KindRate, now, rate)
			}
			sm.prevCounters[key] = s.Value
		case telemetry.KindHistogram:
			st, seen := sm.prevHists[key]
			if !seen {
				st = &naiveHist{
					buckets: make([]uint64, len(s.BucketCounts)),
					deltas:  make([]uint64, len(s.BucketCounts)),
				}
				sm.prevHists[key] = st
				sm.admit(key+":count", KindRate)
				sm.admit(key+":sum", KindRate)
				sm.admit(key+":p99", KindP99)
			} else if !first && dt > 0 && s.Count >= st.count {
				dCount := s.Count - st.count
				sm.store.Push(key+":count", KindRate, now, float64(dCount)/dt)
				dSum := s.Value - st.sum
				if dSum < 0 {
					dSum = 0
				}
				sm.store.Push(key+":sum", KindRate, now, dSum/dt)
				if dCount > 0 {
					for i, c := range s.BucketCounts {
						st.deltas[i] = c - st.buckets[i]
					}
					sm.store.Push(key+":p99", KindP99, now, quantile(0.99, s.Bounds, st.deltas, dCount))
				}
			}
			st.count = s.Count
			st.sum = s.Value
			copy(st.buckets, s.BucketCounts)
		}
	})
	sm.prevT = now
}

// storeImage is everything observable of a store: names, kinds, both
// rings of every series, and the refusal count.
func storeImage(st *Store) map[string]any {
	img := map[string]any{"names": st.Names(), "dropped": st.Dropped()}
	st.mu.Lock()
	defer st.mu.Unlock()
	for name, sr := range st.series {
		img[name] = []any{sr.kind, sr.raw.appendSince(nil, 0), sr.roll.appendSince(nil, 0), sr.accSum, sr.accN}
	}
	return img
}

// TestSamplerPlanMatchesNaive is the plan's differential test: one
// registry, two stores, the planned sampler and the naive reference
// scraping side by side while the registry grows between scrapes, runs
// the store out of room, wraps a counter, registers a histogram after
// the store is full and repeats a timestamp. After every scrape the two
// stores must be indistinguishable.
func TestSamplerPlanMatchesNaive(t *testing.T) {
	cfg := Config{MaxSeries: 12, RawSamples: 8, RollupEvery: 3, RollupSamples: 4}
	reg := telemetry.NewRegistry()
	plan := NewSampler(reg, NewStore(cfg))
	naive := &naiveSampler{reg: reg, store: NewStore(cfg),
		prevCounters: map[string]float64{}, prevHists: map[string]*naiveHist{}}

	unit := func(i int) telemetry.Label { return telemetry.Label{Key: "unit", Value: strconv.Itoa(i)} }
	var (
		gauges   []*telemetry.Gauge
		counters []*telemetry.Counter
		hists    []*telemetry.Histogram
	)
	grow := map[int]func(){
		0: func() {
			for i := 0; i < 3; i++ {
				gauges = append(gauges, reg.Gauge("m_level", "test", unit(i)))
			}
			counters = append(counters, reg.Counter("a_total", "test"))
			hists = append(hists, reg.Histogram("k_seconds", "test", []float64{0.1, 0.2, 0.4}))
		},
		// A family that sorts before the existing ones, and more series of
		// an existing family: new series land in the middle of the order.
		3: func() {
			counters = append(counters, reg.Counter("a_total", "test", unit(1)))
			gauges = append(gauges, reg.Gauge("b_level", "test"), reg.Gauge("m_level", "test", unit(3)))
		},
		// Overflow: 12 slots, 10 taken; a histogram's :count and :sum get
		// the last two, its :p99 and everything after are refused.
		5: func() {
			hists = append(hists, reg.Histogram("c_seconds", "test", []float64{1, 2}))
			gauges = append(gauges, reg.Gauge("z_level", "test"))
			counters = append(counters, reg.Counter("z_total", "test"))
		},
		// Registered after the store is full: refused whole.
		8: func() {
			hists = append(hists, reg.Histogram("y_seconds", "test", nil, unit(0)))
			gauges = append(gauges, reg.Gauge("m_level", "test", unit(4)))
		},
	}
	clock := 0
	for scrape := 0; scrape < 16; scrape++ {
		if g := grow[scrape]; g != nil {
			g()
		}
		for i, g := range gauges {
			g.Set(float64(scrape*7+i) / 3)
		}
		for i, c := range counters {
			c.Add(uint64(scrape + i))
		}
		if scrape == 6 {
			counters[0].Add(-counters[0].Value() + 1) // reset: wraps to 1
		}
		for i, h := range hists {
			if scrape%4 != 3 { // every fourth interval observes nothing
				for k := 0; k <= scrape%3+i; k++ {
					h.Observe(float64(k+scrape%5) / 10)
				}
			}
		}
		if scrape != 10 { // scrape 10 repeats scrape 9's time: dt = 0
			clock += 1 + scrape%2
		}
		plan.SampleOnce(at(clock))
		naive.SampleOnce(at(clock))
		if got, want := storeImage(plan.store), storeImage(naive.store); !reflect.DeepEqual(got, want) {
			t.Fatalf("scrape %d: planned sampler diverged from the reference:\n got %v\nwant %v", scrape, got, want)
		}
	}
	if plan.store.Dropped() == 0 || plan.store.Len() != cfg.MaxSeries {
		t.Fatalf("script never overflowed the store: %d series, %d dropped", plan.store.Len(), plan.store.Dropped())
	}
	if _, ok := plan.store.Latest("c_seconds:count"); !ok {
		t.Fatal("the partially admitted histogram has no :count points")
	}
}

// TestColumnPlansLikeGauges: a gauge column is sampled as the gauges it
// stands for would be — same store keys, admitted in the same order when
// MaxSeries cuts through the family, same points and refusal count —
// whether it is there from the first scrape or registered after the plan
// was made. The naive reference, which walks Each, agrees too.
func TestColumnPlansLikeGauges(t *testing.T) {
	cfg := Config{MaxSeries: 8, RawSamples: 8, RollupEvery: 3, RollupSamples: 4}
	type side struct {
		reg   *telemetry.Registry
		plan  *Sampler
		naive *naiveSampler
	}
	newSide := func() *side {
		reg := telemetry.NewRegistry()
		return &side{reg: reg, plan: NewSampler(reg, NewStore(cfg)),
			naive: &naiveSampler{reg: reg, store: NewStore(cfg), prevCounters: map[string]float64{}, prevHists: map[string]*naiveHist{}}}
	}
	gauges, columns := newSide(), newSide()
	vals := map[string][]float64{"m_level": make([]float64, 6), "c_level": make([]float64, 3)}
	var handles []*telemetry.Gauge // gauges' per-unit series, m_level then c_level
	perUnit := func(name string) {
		for u := range vals[name] {
			handles = append(handles, gauges.reg.Gauge(name, "test", telemetry.Label{Key: "unit", Value: strconv.Itoa(u)}))
		}
		columns.reg.GaugeColumn(name, "test", len(vals[name]), func(dst []float64) { copy(dst, vals[name]) })
	}
	var counters []*telemetry.Counter
	for _, sd := range []*side{gauges, columns} {
		counters = append(counters, sd.reg.Counter("a_total", "test"))
	}
	perUnit("m_level")
	for scrape := 0; scrape < 8; scrape++ {
		if scrape == 2 { // 7 of 8 slots taken: c_level{unit="0"} gets the last
			perUnit("c_level")
			for _, sd := range []*side{gauges, columns} {
				sd.reg.Gauge("z_level", "test").Set(1)
			}
		}
		i := 0
		for _, name := range []string{"m_level", "c_level"} {
			for u := range vals[name] {
				vals[name][u] = float64(scrape*10+u) / 4
				if i < len(handles) {
					handles[i].Set(vals[name][u])
				}
				i++
			}
		}
		for _, c := range counters {
			c.Add(uint64(scrape))
		}
		for _, sd := range []*side{gauges, columns} {
			sd.plan.SampleOnce(at(scrape))
			sd.naive.SampleOnce(at(scrape))
		}
		want := storeImage(gauges.plan.store)
		for name, got := range map[string]map[string]any{
			"column plan": storeImage(columns.plan.store), "column reference": storeImage(columns.naive.store),
			"gauge reference": storeImage(gauges.naive.store),
		} {
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("scrape %d: %s store differs from the gauges' planned store:\n got %v\nwant %v", scrape, name, got, want)
			}
		}
	}
	if _, ok := columns.plan.store.Latest(`c_level{unit="0"}`); !ok || columns.plan.store.Len() != cfg.MaxSeries {
		t.Fatalf("script never cut through the late column: %d series", columns.plan.store.Len())
	}
}

// wideRegistry registers a fleet-shaped registry: per-unit gauges far past
// the store's MaxSeries — registered one by one, or one gauge column —
// plus a few counters and a histogram that sort ahead of them and so are
// admitted.
func wideRegistry(series int, column bool) (*telemetry.Registry, *telemetry.Counter, *telemetry.Histogram) {
	reg := telemetry.NewRegistry()
	c := reg.Counter("a_rounds_total", "test")
	h := reg.Histogram("a_seconds", "test", nil)
	n := series - int(reg.Generation())
	if column {
		reg.GaugeColumn("dps_unit_level", "test", n, func(dst []float64) {
			for i := range dst {
				dst[i] = float64(i)
			}
		})
		return reg, c, h
	}
	for i := 0; i < n; i++ {
		reg.Gauge("dps_unit_level", "test", telemetry.Label{Key: "unit", Value: strconv.Itoa(i)}).Set(float64(i))
	}
	return reg, c, h
}

// TestSampleOnceSteadyStateZeroAlloc: once the plan covers the registry,
// a scrape of 65 k series into a 1 024-series store allocates nothing,
// per-unit gauges registered one by one or as a gauge column.
func TestSampleOnceSteadyStateZeroAlloc(t *testing.T) {
	for _, column := range []bool{false, true} {
		reg, c, h := wideRegistry(65536, column)
		store := NewStore(Config{RawSamples: 16, RollupSamples: 4})
		sm := NewSampler(reg, store)
		sm.SampleOnce(at(0))
		sm.SampleOnce(at(1))
		if store.Len() != 1024 {
			t.Fatalf("column=%v: store holds %d series, want 1024", column, store.Len())
		}
		tick := 1
		allocs := testing.AllocsPerRun(50, func() {
			tick++
			c.Inc()
			h.Observe(1e-3)
			sm.SampleOnce(at(tick))
		})
		if allocs != 0 {
			t.Errorf("column=%v: steady-state scrape allocated %.1f times, want 0", column, allocs)
		}
		// The counter and the histogram's three derived series sort ahead
		// of the gauges and take 4 slots; 1020 gauges take the rest, and
		// every other gauge is refused once per scrape.
		if want := uint64(65536-2-1020) * uint64(tick+1); store.Dropped() != want {
			t.Errorf("column=%v: dropped = %d, want %d", column, store.Dropped(), want)
		}
	}
}

// BenchmarkSampleOnce is the steady-state scrape at the ops16k fleet's
// registry size (bench: telemetry.series_count), the per-unit series one
// gauge column as dpsd registers them.
func BenchmarkSampleOnce(b *testing.B) {
	const series = 65743
	b.Run(fmt.Sprintf("series=%d", series), func(b *testing.B) {
		reg, c, h := wideRegistry(series, true)
		sm := NewSampler(reg, NewStore(Config{}))
		sm.SampleOnce(at(0))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Inc()
			h.Observe(1e-3)
			sm.SampleOnce(at(i + 1))
		}
	})
}
