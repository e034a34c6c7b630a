package series

import (
	"context"
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
// A Sampler is not safe for concurrent SampleOnce calls with itself (Run
// serializes them); it is safe against concurrent registry writers.
type Sampler struct {
	reg   *telemetry.Registry
	store *Store

	// prev holds the previous scrape's counter values and histogram
	// states, keyed by exposition key.
	prevT        time.Time
	prevCounters map[string]float64
	prevHists    map[string]*histState
}

// histState is the per-histogram carry between scrapes.
type histState struct {
	count   uint64
	sum     float64
	buckets []uint64 // non-cumulative, +Inf last
	deltas  []uint64 // scratch for the interval's bucket deltas
}

// NewSampler returns a sampler feeding store from reg. The first
// SampleOnce seeds counter/histogram baselines and stores only gauges;
// rates appear from the second scrape on. Every series is admitted to
// the store when it is first seen, not when it first has a point, so
// admission under MaxSeries follows registry order.
func NewSampler(reg *telemetry.Registry, store *Store) *Sampler {
	return &Sampler{
		reg:          reg,
		store:        store,
		prevCounters: make(map[string]float64),
		prevHists:    make(map[string]*histState),
	}
}

// Store returns the store the sampler feeds.
func (sm *Sampler) Store() *Store { return sm.store }

// SampleOnce performs one scrape at time now.
func (sm *Sampler) SampleOnce(now time.Time) {
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
				sm.store.Admit(key, KindRate)
			} else if !first && dt > 0 {
				rate := (s.Value - prev) / dt
				if rate < 0 { // counter reset
					rate = 0
				}
				sm.store.Push(key, KindRate, now, rate)
			}
			sm.prevCounters[key] = s.Value
		case telemetry.KindHistogram:
			st, seen := sm.prevHists[key]
			if !seen {
				st = &histState{
					buckets: make([]uint64, len(s.BucketCounts)),
					deltas:  make([]uint64, len(s.BucketCounts)),
				}
				sm.prevHists[key] = st
				sm.store.Admit(key+":count", KindRate)
				sm.store.Admit(key+":sum", KindRate)
				sm.store.Admit(key+":p99", KindP99)
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

// Run scrapes every interval until ctx is done. now supplies the clock
// (nil selects time.Now).
func (sm *Sampler) Run(ctx context.Context, interval time.Duration, now func() time.Time) {
	if now == nil {
		now = time.Now
	}
	if interval <= 0 {
		interval = sm.store.Config().RawInterval
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			sm.SampleOnce(now())
		}
	}
}
