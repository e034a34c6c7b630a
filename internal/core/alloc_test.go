package core

import (
	"math/rand"
	"testing"

	"dps/internal/power"
)

// TestDecideStatsSteadyStateZeroAlloc is the allocation-regression gate
// for the decision hot path: once the history rings are warm, a
// DecideStats round must not allocate at all, with or without an ingest
// dirty mask — every statistic the priority stage reads is incremental
// ring state, the walkers, the settle bookkeeping and the lazy provenance
// baseline run out of preallocated state, and every module reuses its own
// buffers. A failure here means a copy or scratch buffer crept back into
// the per-round path.
func TestDecideStatsSteadyStateZeroAlloc(t *testing.T) {
	const units = 512
	budget := power.Budget{Total: power.Watts(units) * 110, UnitMax: 165, UnitMin: 10}
	d, err := NewDPS(DefaultConfig(units, budget))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	readings := make(power.Vector, units)
	for i := range readings {
		readings[i] = power.Watts(40 + rng.Float64()*120)
	}
	// Warm up past every cold-start growth path (history fill, priority
	// MinSamples) with perturbed readings so all decision branches run.
	for i := 0; i < 30; i++ {
		readings[i%units] += power.Watts(rng.NormFloat64() * 2)
		d.Decide(Snapshot{Power: readings, Interval: 1})
	}
	mask := NewDirtyMask(units)
	snap := Snapshot{Power: readings, Interval: 1, Dirty: mask}
	allocs := testing.AllocsPerRun(100, func() {
		mask.Reset()
		readings[0] += 0.01
		mask.Mark(0)
		d.DecideStats(snap)
	})
	if allocs != 0 {
		t.Errorf("steady-state DecideStats allocated %.1f times per round, want 0", allocs)
	}
	snap.Dirty = nil // compare-fallback path
	allocs = testing.AllocsPerRun(100, func() {
		readings[0] += 0.01
		d.DecideStats(snap)
	})
	if allocs != 0 {
		t.Errorf("maskless steady-state DecideStats allocated %.1f times per round, want 0", allocs)
	}
}
