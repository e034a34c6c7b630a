package core

import (
	"math"
	"math/rand"
	"testing"

	"dps/internal/power"
	"dps/internal/trace"
)

// TestProvenanceConservation is the provenance soundness gate: over a
// 500-round simulated workload exercising every pipeline branch (MIMD
// cuts and raises, restore, grant, equalize, health pinning), every cap
// that changed across a round — measured against the test's own copy of
// the caps the controller held going in — carries exactly one non-none
// reason.
func TestProvenanceConservation(t *testing.T) {
	const units = 16
	const rounds = 500
	budget := power.Budget{Total: power.Watts(units) * 55, UnitMax: 165, UnitMin: 10}
	d := mustDPS(t, DefaultConfig(units, budget))

	rng := rand.New(rand.NewSource(7))
	demand := make(power.Vector, units)
	health := make([]UnitHealth, units)
	readings := make(power.Vector, units)
	prev := d.Caps().Clone()

	seen := make(map[trace.Reason]int)
	for step := 0; step < rounds; step++ {
		// Phased demand: quiet spells (restore), staggered ramps
		// (cuts/raises/flips), saturation (equalize), plus a stale unit
		// during the middle third (health pinning).
		phase := step % 100
		for u := range demand {
			switch {
			case phase < 10:
				demand[u] = 15 // everyone quiet: Algorithm 3 territory
			case phase < 40:
				if u%3 == step%3 {
					demand[u] = 150
				} else {
					demand[u] = 30
				}
			default:
				demand[u] = power.Watts(120 + rng.Float64()*45) // saturation
			}
		}
		for u := range health {
			health[u] = HealthFresh
		}
		snapHealth := []UnitHealth(nil)
		if step >= 150 && step < 300 {
			health[3] = HealthStale
			if step >= 200 {
				health[5] = HealthDead
			}
			snapHealth = health
		}
		for u := range readings {
			readings[u] = demand[u]
			if c := prev[u]; readings[u] > c {
				readings[u] = c
			}
		}
		caps, _ := d.DecideStats(Snapshot{Power: readings, Interval: 1, Health: snapHealth})
		reasons := d.Reasons()
		if len(reasons) != units {
			t.Fatalf("round %d: Reasons len %d, want %d", step, len(reasons), units)
		}
		for u, reason := range reasons {
			if caps[u] != prev[u] && reason == trace.ReasonNone {
				t.Fatalf("round %d unit %d: cap moved %v→%v with no reason", step, u, prev[u], caps[u])
			}
			if math.IsNaN(float64(caps[u])) {
				t.Fatalf("round %d unit %d: NaN cap", step, u)
			}
			seen[reason]++
		}
		prev = caps.Clone()
	}
	// The workload must actually have exercised the interesting reasons;
	// a conservation test over an idle system proves nothing. mimd_raise
	// is exercised separately below: in the full pipeline a unit pressing
	// at its cap is high-priority, so readjust's grant or equalize is
	// almost always the *last* mover and overwrites the raise.
	for _, r := range []trace.Reason{
		trace.ReasonMIMDCut, trace.ReasonRestore,
		trace.ReasonEqualize, trace.ReasonHealthPin,
	} {
		if seen[r] == 0 {
			t.Errorf("workload never produced reason %q; test coverage hole", r)
		}
	}
}

// TestProvenanceMIMDRaise pins the raise attribution on a stateless-only
// controller (priority/readjust ablated), where Algorithm 1 is the final
// mover: one unit pressing at its cap while the rest idle must be tagged
// mimd_raise with the cap above the one it entered the round with.
func TestProvenanceMIMDRaise(t *testing.T) {
	const units = 4
	budget := power.Budget{Total: power.Watts(units) * 55, UnitMax: 165, UnitMin: 10}
	cfg := DefaultConfig(units, budget)
	cfg.DisablePriority = true
	d := mustDPS(t, cfg)
	prev := d.Caps().Clone()
	sawRaise := false
	for step := 0; step < 30; step++ {
		readings := power.Vector{prev[0], 30, 30, 30} // unit 0 pressed at cap
		if readings[1] > prev[1] {
			readings[1] = prev[1]
		}
		caps, _ := d.DecideStats(Snapshot{Power: readings, Interval: 1})
		for u, reason := range d.Reasons() {
			if reason == trace.ReasonMIMDRaise {
				sawRaise = true
				if caps[u] <= prev[u] {
					t.Errorf("step %d unit %d: mimd_raise lowered the cap %v→%v", step, u, prev[u], caps[u])
				}
			}
		}
		prev = caps.Clone()
	}
	if !sawRaise {
		t.Error("stateless-only controller never produced mimd_raise provenance")
	}
}

// TestProvenanceGrantReason drives the one scenario the conservation
// workload reaches rarely: leftover budget granted to a high-priority
// unit, which must be attributed to readjust_grant.
func TestProvenanceGrantReason(t *testing.T) {
	const units = 4
	// A roomy budget so cuts leave leftover watts to grant.
	budget := power.Budget{Total: power.Watts(units) * 120, UnitMax: 165, UnitMin: 10}
	d := mustDPS(t, DefaultConfig(units, budget))
	demand := power.Vector{160, 20, 20, 20}
	prev := d.Caps().Clone()
	sawGrant := false
	for step := 0; step < 40 && !sawGrant; step++ {
		readings := make(power.Vector, units)
		for u := range readings {
			readings[u] = demand[u]
			if c := prev[u]; readings[u] > c {
				readings[u] = c
			}
		}
		caps, _ := d.DecideStats(Snapshot{Power: readings, Interval: 1})
		for u, reason := range d.Reasons() {
			if reason == trace.ReasonReadjustGrant {
				sawGrant = true
				if caps[u] <= prev[u] {
					t.Errorf("step %d unit %d: grant lowered the cap %v→%v", step, u, prev[u], caps[u])
				}
			}
		}
		prev = caps.Clone()
	}
	if !sawGrant {
		t.Error("no readjust_grant provenance in 40 rounds of one hot unit under a roomy budget")
	}
}

// TestDecideTracerSpans checks an attached, enabled recorder receives one
// span per stage per round, all trace-scoped to the round number.
func TestDecideTracerSpans(t *testing.T) {
	d := mustDPS(t, DefaultConfig(2, testBudget))
	rec := trace.NewRecorder(64)
	rec.SetEnabled(true)
	d.SetTracer(rec)

	d.Decide(Snapshot{Power: power.Vector{100, 100}, Interval: 1})
	d.Decide(Snapshot{Power: power.Vector{90, 110}, Interval: 1})

	spans := rec.Last(0)
	perRound := map[uint64]map[string]int{}
	for _, sp := range spans {
		if sp.Lane != trace.LaneDecide {
			t.Errorf("span %q on lane %d, want decide lane", sp.Name, sp.Lane)
		}
		if perRound[sp.Trace] == nil {
			perRound[sp.Trace] = map[string]int{}
		}
		perRound[sp.Trace][sp.Name]++
	}
	if len(perRound) != 2 {
		t.Fatalf("spans cover %d rounds, want 2", len(perRound))
	}
	for round, names := range perRound {
		for _, want := range []string{
			trace.SpanKalman, trace.SpanStateless, trace.SpanPriority,
			trace.SpanReadjust, trace.SpanDecide,
		} {
			if names[want] != 1 {
				t.Errorf("round %d: %d %q spans, want 1", round, names[want], want)
			}
		}
		if names[trace.SpanHealthPin] != 0 {
			t.Errorf("round %d: health_pin span on an all-fresh round", round)
		}
	}

	// A degraded round adds the health_pin span.
	d.Decide(Snapshot{
		Power:    power.Vector{100, 100},
		Interval: 1,
		Health:   []UnitHealth{HealthFresh, HealthStale},
	})
	found := false
	for _, sp := range rec.Last(0) {
		if sp.Name == trace.SpanHealthPin && sp.Trace == 3 {
			found = true
		}
	}
	if !found {
		t.Error("degraded round recorded no health_pin span")
	}

	// Detaching restores the silent path.
	d.SetTracer(nil)
	before := rec.Total()
	d.Decide(Snapshot{Power: power.Vector{100, 100}, Interval: 1})
	if rec.Total() != before {
		t.Error("detached tracer still received spans")
	}
}

// TestDecideTracerOffZeroAlloc is the tentpole's zero-cost guard: with a
// recorder attached but disabled, the warm decision round must
// stay allocation-free — tracing and provenance may not reintroduce
// per-round garbage. Wired into make ci alongside the original gate.
func TestDecideTracerOffZeroAlloc(t *testing.T) {
	const units = 512
	budget := power.Budget{Total: power.Watts(units) * 110, UnitMax: 165, UnitMin: 10}
	d, err := NewDPS(DefaultConfig(units, budget))
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder(0) // attached, never enabled
	d.SetTracer(rec)
	rng := rand.New(rand.NewSource(1))
	readings := make(power.Vector, units)
	for i := range readings {
		readings[i] = power.Watts(40 + rng.Float64()*120)
	}
	snap := Snapshot{Power: readings, Interval: 1}
	for i := 0; i < 30; i++ {
		readings[i%units] += power.Watts(rng.NormFloat64() * 2)
		d.Decide(snap)
	}
	allocs := testing.AllocsPerRun(100, func() {
		readings[0] += 0.01
		d.DecideStats(snap)
	})
	if allocs != 0 {
		t.Errorf("DecideStats with tracer off allocated %.1f times per round, want 0", allocs)
	}
	if rec.Len() != 0 {
		t.Errorf("disabled recorder captured %d spans", rec.Len())
	}

	// Sanity: the same controller with the recorder enabled records spans
	// (so the off measurement above wasn't measuring a dead path).
	rec.SetEnabled(true)
	d.DecideStats(snap)
	if rec.Len() == 0 {
		t.Error("enabled recorder captured no spans")
	}
}
