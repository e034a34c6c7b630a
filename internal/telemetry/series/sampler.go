package series

import (
	"time"

	"dps/internal/telemetry"
)

// Sampler scrapes a telemetry.Registry into a Store. Gauges are stored as
// levels under their exposition key (name plus label signature). Counters
// are stored as per-second rates between consecutive scrapes, so a counter
// reset (process restart of a scraped component) yields a zero point, not
// a negative spike. Histograms become three derived series:
//
//	<key>:count  observation rate (1/s)
//	<key>:sum    sum rate (unit/s)
//	<key>:p99    p99 estimated from the bucket deltas of the last interval
//
// The p99 is a linear interpolation inside the bucket holding the 99th
// percentile of the interval's observations; observations landing in the
// +Inf bucket clamp the estimate to the highest finite bound (a reason for
// registrants to bracket their path's full range — see the bucket-choice
// rule in the telemetry package comment).
//
// A Sampler is not safe for concurrent SampleOnce calls with itself; it
// is safe against concurrent registry writers.
//
// The registry is append-only, so the sampler does not walk it every
// scrape: it keeps a plan — the metric handle and store slot of every
// series the store admitted, plus how many it refused — and extends the
// plan only when the registry's generation moved. A steady-state scrape
// touches the admitted series alone, under one store lock, builds no
// keys and allocates nothing.
type Sampler struct {
	reg   *telemetry.Registry
	store *Store
	prevT time.Time

	gen      uint64         // registry generation the plan covers
	planned  map[string]int // per family: how many of its series are planned
	gauges   []planGauge
	counters []planCounter
	hists    []planHist
	// Gauges and counters the store had no room for hold no plan entry:
	// all they do each scrape is count one refused push.
	refusedGauges, refusedCounters uint64
	cur                            []uint64 // bucket-count scratch
}

type planGauge struct {
	g  *telemetry.Gauge
	sr *oneSeries
}

type planCounter struct {
	c    *telemetry.Counter
	sr   *oneSeries
	prev float64 // value at the previous scrape
}

// planHist is one histogram: its three derived series (nil where the
// store refused one) and the carry between scrapes. Refused or not, the
// histogram is read every scrape, because how many pushes a scrape would
// have made — and so how many it drops — depends on the counts.
type planHist struct {
	h               *telemetry.Histogram
	count, sum, p99 *oneSeries
	prevCount       uint64
	prevSum         float64
	buckets         []uint64 // non-cumulative, +Inf last, previous scrape
	deltas          []uint64 // scratch for the interval's bucket deltas
}

// NewSampler returns a sampler feeding store from reg. The first
// SampleOnce seeds counter/histogram baselines and stores only gauges;
// rates appear from the second scrape on. Every series is admitted to
// the store when it is first seen, not when it first has a point, so
// admission under MaxSeries follows registry order: a rate or quantile
// needs two scrapes before its first point, and were admission to wait
// for that point, a fleet with more per-unit gauges than MaxSeries would
// fill the store on the first scrape and lock every derived series out
// for good.
func NewSampler(reg *telemetry.Registry, store *Store) *Sampler {
	return &Sampler{reg: reg, store: store, planned: make(map[string]int)}
}

// Store returns the store the sampler feeds.
func (sm *Sampler) Store() *Store { return sm.store }

// SampleOnce performs one scrape at time now.
func (sm *Sampler) SampleOnce(now time.Time) {
	dt := now.Sub(sm.prevT).Seconds()
	rates := !sm.prevT.IsZero() && dt > 0 // counters and histograms need a baseline
	t := now.UnixNano()
	st := sm.store
	st.mu.Lock()
	defer st.mu.Unlock()

	for i := range sm.gauges {
		p := &sm.gauges[i]
		st.push(p.sr, t, p.g.Value())
	}
	st.dropped += sm.refusedGauges
	for i := range sm.counters {
		p := &sm.counters[i]
		v := float64(p.c.Value())
		if rates {
			rate := (v - p.prev) / dt
			if rate < 0 { // counter reset
				rate = 0
			}
			st.push(p.sr, t, rate)
		}
		p.prev = v
	}
	if rates {
		st.dropped += sm.refusedCounters
	}
	for i := range sm.hists {
		p := &sm.hists[i]
		sm.cur = p.h.Buckets(sm.cur)
		count, sum := total(sm.cur), p.h.Sum()
		if rates && count >= p.prevCount {
			dCount := count - p.prevCount
			st.push(p.count, t, float64(dCount)/dt)
			dSum := sum - p.prevSum
			if dSum < 0 {
				dSum = 0
			}
			st.push(p.sum, t, dSum/dt)
			if dCount > 0 {
				for j, c := range sm.cur {
					p.deltas[j] = c - p.buckets[j]
				}
				st.push(p.p99, t, quantile(0.99, p.h.Bounds(), p.deltas, dCount))
			}
		}
		p.prevCount, p.prevSum = count, sum
		copy(p.buckets, sm.cur)
	}

	// Read the generation before the families: a series registered in
	// between is planned now and found already planned next time.
	if gen := sm.reg.Generation(); gen != sm.gen {
		sm.extendPlan(t)
		sm.gen = gen
	}
	sm.prevT = now
}

// extendPlan adds the series registered since the last look, in registry
// order (families by name, series by registration), which is therefore
// the order they compete for the store's remaining room. A new gauge is
// pushed at once; a new counter or histogram only takes its baseline.
// Caller holds the store lock.
func (sm *Sampler) extendPlan(t int64) {
	st := sm.store
	for _, f := range sm.reg.Families() {
		from := sm.planned[f.Name]
		if from == len(f.Series) {
			continue
		}
		sm.planned[f.Name] = len(f.Series)
		for i := from; i < len(f.Series); i++ {
			key := f.Name + f.Labels[i]
			switch m := f.Series[i].(type) {
			case *telemetry.Gauge:
				sr := st.admit(key, KindGauge)
				st.push(sr, t, m.Value())
				if sr == nil {
					sm.refusedGauges++
				} else {
					sm.gauges = append(sm.gauges, planGauge{g: m, sr: sr})
				}
			case *telemetry.Counter:
				if sr := st.admit(key, KindRate); sr == nil {
					sm.refusedCounters++
				} else {
					sm.counters = append(sm.counters, planCounter{c: m, sr: sr, prev: float64(m.Value())})
				}
			case *telemetry.Histogram:
				p := planHist{
					h:     m,
					count: st.admit(key+":count", KindRate),
					sum:   st.admit(key+":sum", KindRate),
					p99:   st.admit(key+":p99", KindP99),
				}
				p.buckets = m.Buckets(nil)
				p.deltas = make([]uint64, len(p.buckets))
				p.prevCount, p.prevSum = total(p.buckets), m.Sum()
				sm.hists = append(sm.hists, p)
			}
		}
	}
}

// total is a histogram's observation count taken as the sum of one load
// of its buckets, as the /metrics renderer takes _count: a separate read
// of the histogram's own total races Observe, and the scrape's bucket
// deltas would not sum to its count delta.
func total(buckets []uint64) uint64 {
	var n uint64
	for _, c := range buckets {
		n += c
	}
	return n
}

// quantile estimates quantile q from non-cumulative bucket counts (the
// +Inf bucket last) holding total observations. Linear interpolation
// inside the chosen bucket; the +Inf bucket clamps to the highest finite
// bound, and an empty bounds slice yields 0.
func quantile(q float64, bounds []float64, counts []uint64, total uint64) float64 {
	if len(bounds) == 0 || total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum float64
	for i, c := range counts {
		cum += float64(c)
		if cum < rank {
			continue
		}
		if i >= len(bounds) { // +Inf bucket
			return bounds[len(bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = bounds[i-1]
		}
		hi := bounds[i]
		if c == 0 {
			return hi
		}
		// Position of the rank inside this bucket's observations.
		frac := (rank - (cum - float64(c))) / float64(c)
		return lo + frac*(hi-lo)
	}
	return bounds[len(bounds)-1]
}
