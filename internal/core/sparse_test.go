package core

import (
	"fmt"
	"testing"

	"dps/internal/power"
)

// runDeltaTrace drives one controller closed-loop over the demand trace
// through a simulated report-on-change delta agent: each unit draws
// min(demand, cap), but the controller sees a new value only when the
// drawn power moved more than eps from the last reported value —
// exactly the daemon's delta-suppression plane. With useMask the
// snapshot carries a DirtyMask marking the units whose reported value
// was rewritten this round (the daemon's ingest-side bookkeeping);
// without it the controller must derive the changed set itself.
func runDeltaTrace(t *testing.T, d *DPS, demand [][]power.Watts, eps power.Watts, useMask bool) ([]power.Vector, []RoundStats) {
	t.Helper()
	units := len(demand[0])
	capsOut := make([]power.Vector, len(demand))
	statsOut := make([]RoundStats, len(demand))
	caps := d.Caps().Clone()
	reported := make(power.Vector, units)
	var mask *DirtyMask
	if useMask {
		mask = NewDirtyMask(units)
	}
	for step, row := range demand {
		if mask != nil {
			mask.Reset()
		}
		for u := range reported {
			drawn := row[u]
			if drawn > caps[u] {
				drawn = caps[u]
			}
			diff := drawn - reported[u]
			if diff < 0 {
				diff = -diff
			}
			if step == 0 || diff > eps {
				reported[u] = drawn
				if mask != nil {
					mask.Mark(u)
				}
			}
		}
		snap := Snapshot{Power: reported, Interval: 1, Dirty: mask}
		next, st := d.DecideStats(snap)
		// The incrementally maintained high count is shared by both sides of
		// every comparison, so hold it to a recount here.
		high := 0
		for _, p := range d.priorityM.Priorities() {
			if p {
				high++
			}
		}
		if st.HighPriority != high {
			t.Fatalf("step %d: HighPriority %d, recount %d", step, st.HighPriority, high)
		}
		capsOut[step] = next.Clone()
		statsOut[step] = st
		copy(caps, next)
	}
	return capsOut, statsOut
}

// assertSameDecisions compares two closed-loop runs round by round:
// bitwise-identical caps and identical decision outcomes, want being the
// reference run. Stage timings and the work counters (DirtyUnits,
// SkippedUnits) are exempt — they are what is allowed to differ.
func assertSameDecisions(t *testing.T, name string, wantCaps, gotCaps []power.Vector, wantStats, gotStats []RoundStats) {
	t.Helper()
	for step := range wantCaps {
		for u := range wantCaps[step] {
			if wantCaps[step][u] != gotCaps[step][u] {
				t.Fatalf("%s: step %d unit %d: cap %v, reference %v", name, step, u, gotCaps[step][u], wantCaps[step][u])
			}
		}
		w, g := wantStats[step], gotStats[step]
		if g.Restored != w.Restored || g.HighPriority != w.HighPriority ||
			g.PriorityFlips != w.PriorityFlips || g.BudgetExhausted != w.BudgetExhausted ||
			g.BudgetClamped != w.BudgetClamped || g.StaleUnits != w.StaleUnits || g.DeadUnits != w.DeadUnits {
			t.Fatalf("%s: step %d stats diverged:\ngot       %+v\nreference %+v", name, step, g, w)
		}
	}
}

// settleTrace is the settle-round regression trace: four units oscillate
// with period 2 (setting the sticky high-frequency flag), take one last
// outlier, then go flat while the rest hold constant. With DisableKalman
// raw readings feed the ring, so the sample evicted on the round a unit
// settles differs macroscopically from the fixed value — the ring's
// statistics change on exactly the round the unit leaves the work mask.
func settleTrace(steps, units int) [][]power.Watts {
	demand := make([][]power.Watts, steps)
	for s := range demand {
		demand[s] = make([]power.Watts, units)
		for u := range demand[s] {
			switch {
			case u >= 4:
				demand[s][u] = 50
			case s < 60 && s%2 == 1:
				demand[s][u] = 20
			case s <= 60:
				demand[s][u] = 150
			default:
				demand[s][u] = 80
			}
		}
	}
	return demand
}

// neverRefresh is a refresh period longer than any test run: no unit is
// ever forced through a refresh, so every skip rests on its certificate
// alone.
const neverRefresh = 100000

// TestSparseDenseEquivalence is the exactness gate for skipping: over a
// 600-step closed-loop run behind simulated delta agents, a controller
// that skips settled units must produce bitwise-identical cap vectors and
// identical decision outcomes to the reference controller that processes
// every unit every round (SparseRefreshEvery: 1) — at epsilon 0 (report
// any change), the daemon default band, and a large band; with and
// without the ingest dirty mask; at a short refresh period, the default,
// and one that never fires.
func TestSparseDenseEquivalence(t *testing.T) {
	const (
		units = 96
		steps = 600
	)
	mixed := mixedTrace(steps, units, 42)

	type row struct {
		name          string
		demand        [][]power.Watts
		eps           power.Watts
		refresh       int
		mask          bool
		disableKalman bool
	}
	var cases []row
	for _, eps := range []power.Watts{0, 2.5, 25} {
		for _, refresh := range []int{7, DefaultSparseRefreshEvery, neverRefresh} {
			for _, mask := range []bool{true, false} {
				cases = append(cases, row{
					name:   fmt.Sprintf("eps=%v/refresh=%d/mask=%t", eps, refresh, mask),
					demand: mixed, eps: eps, refresh: refresh, mask: mask,
				})
			}
		}
		cases = append(cases, row{
			name:   fmt.Sprintf("settle-round/eps=%v", eps),
			demand: settleTrace(300, 8), eps: eps, refresh: neverRefresh, mask: true, disableKalman: true,
		})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := len(tc.demand[0])
			build := func(refresh int) *DPS {
				// A tight envelope (55 W per unit against demands up to
				// 160 W) forces Algorithm 4's budget-exhausted equalize
				// branch alongside grants.
				cfg := DefaultConfig(n, power.Budget{Total: power.Watts(n) * 55, UnitMax: 165, UnitMin: 10})
				cfg.Seed = 7
				cfg.SparseRefreshEvery = refresh
				cfg.DisableKalman = tc.disableKalman
				d, err := NewDPS(cfg)
				if err != nil {
					t.Fatalf("NewDPS: %v", err)
				}
				return d
			}
			wantCaps, wantStats := runDeltaTrace(t, build(1), tc.demand, tc.eps, false)
			gotCaps, gotStats := runDeltaTrace(t, build(tc.refresh), tc.demand, tc.eps, tc.mask)
			assertSameDecisions(t, tc.name, wantCaps, gotCaps, wantStats, gotStats)

			for step, st := range wantStats {
				if st.SkippedUnits != 0 {
					t.Fatalf("reference run skipped %d units at step %d", st.SkippedUnits, step)
				}
			}
			if tc.disableKalman {
				return
			}
			// Non-vacuity: the run must exercise both the skip path and
			// the interesting decision paths, or the proof is empty.
			skipped, restores, flips := 0, 0, 0
			for _, st := range gotStats {
				skipped += st.SkippedUnits
				if st.Restored {
					restores++
				}
				flips += st.PriorityFlips
			}
			// At eps=0 the trace's per-step noise makes every unit dirty
			// every round — the designed degenerate case where nothing can
			// be skipped — so only banded runs must demonstrate skipping.
			if tc.eps > 0 && skipped == 0 {
				t.Fatalf("run skipped no unit-rounds; equivalence is vacuous")
			}
			if flips == 0 {
				t.Fatalf("trace too tame: no priority flips")
			}
			// A large band suppresses the quiet window, so only runs at or
			// below the default band must exercise the restore path.
			if tc.eps <= 2.5 && restores == 0 {
				t.Fatalf("trace too tame: no restores")
			}
			if st := gotStats[steps-1]; st.DirtyFrac < 0 || st.DirtyFrac > 1 {
				t.Fatalf("DirtyFrac %v outside [0,1]", st.DirtyFrac)
			}
		})
	}
}

// TestSparseDegradedEquivalence drives the reference (refresh every
// round) and skipping controllers, at each refresh period and with and
// without the dirty mask, through health degradation: a unit dies while
// clean and settled (its pinned cap must come from materialized state),
// another flaps stale, and the dead unit revives with a jumped reading —
// the re-handshake case: a fresh value lands mid-pending-window and must
// void the unit's settle certificate.
func TestSparseDegradedEquivalence(t *testing.T) {
	const (
		units = 64
		steps = 400
	)
	budget := power.Budget{Total: power.Watts(units) * 55, UnitMax: 165, UnitMin: 10}
	demand := mixedTrace(steps, units, 11)
	// Unit 9 holds a constant in-band draw so it settles before dying.
	for tstep := range demand {
		demand[tstep][9] = 47
	}

	healthAt := func(step int) []UnitHealth {
		h := make([]UnitHealth, units)
		switch {
		case step >= 120 && step < 200:
			h[9] = HealthDead // dies while clean
		case step >= 150 && step < 170:
			h[21] = HealthStale
		}
		return h
	}

	run := func(d *DPS, useMask bool) ([]power.Vector, []RoundStats) {
		capsOut := make([]power.Vector, steps)
		statsOut := make([]RoundStats, steps)
		caps := d.Caps().Clone()
		reported := make(power.Vector, units)
		var mask *DirtyMask
		if useMask {
			mask = NewDirtyMask(units)
		}
		for step := range demand {
			if mask != nil {
				mask.Reset()
			}
			health := healthAt(step)
			for u := range reported {
				if health[u] != HealthFresh {
					continue // non-fresh: last reported value replays
				}
				drawn := demand[step][u]
				if drawn > caps[u] {
					drawn = caps[u]
				}
				if u == 9 && step == 200 {
					drawn = 150 // revival with a jumped reading
				}
				if step == 0 || drawn != reported[u] {
					reported[u] = drawn
					if mask != nil {
						mask.Mark(u)
					}
				}
			}
			next, st := d.DecideStats(Snapshot{Power: reported, Interval: 1, Health: health, Dirty: mask})
			capsOut[step] = next.Clone()
			statsOut[step] = st
			copy(caps, next)
		}
		return capsOut, statsOut
	}

	build := func(refresh int) *DPS {
		cfg := DefaultConfig(units, budget)
		cfg.Seed = 3
		cfg.SparseRefreshEvery = refresh
		d, err := NewDPS(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}

	wantCaps, wantStats := run(build(1), false)
	for _, refresh := range []int{7, DefaultSparseRefreshEvery, neverRefresh} {
		for _, useMask := range []bool{true, false} {
			name := fmt.Sprintf("degraded/refresh=%d/mask=%t", refresh, useMask)
			gotCaps, gotStats := run(build(refresh), useMask)
			assertSameDecisions(t, name, wantCaps, gotCaps, wantStats, gotStats)

			// The dead unit's cap must hold bitwise steady across the
			// outage at its last delivered (materialized) value.
			pinned := wantCaps[120][9]
			for step := 121; step < 200; step++ {
				if gotCaps[step][9] != pinned {
					t.Fatalf("%s: step %d: dead unit cap %v, want pinned %v", name, step, gotCaps[step][9], pinned)
				}
			}
		}
	}
	degraded := 0
	for _, st := range wantStats {
		if st.DeadUnits > 0 || st.StaleUnits > 0 {
			degraded++
		}
	}
	if degraded == 0 {
		t.Fatal("health schedule never degraded a round")
	}
}

// TestSparseRefreshBoundary pins the refresh schedule: with every unit
// settled under constant readings, round r refreshes exactly block
// (r−1) mod E, the blocks tile [0, units) over E consecutive rounds,
// and SkippedUnits accounts for precisely the off-block units. E=1 must
// leave no unit skipped (every unit processed every round).
func TestSparseRefreshBoundary(t *testing.T) {
	const units = 70 // deliberately not a multiple of 64 or E
	budget := power.Budget{Total: power.Watts(units) * 110, UnitMax: 165, UnitMin: 10}
	for _, E := range []int{1, 3, 64, units + 5} {
		cfg := DefaultConfig(units, budget)
		cfg.SparseRefreshEvery = E
		d, err := NewDPS(cfg)
		if err != nil {
			t.Fatal(err)
		}
		readings := make(power.Vector, units)
		for u := range readings {
			readings[u] = 95
		}
		snap := Snapshot{Power: readings, Interval: 1}
		// Warm until everything settles (filter fixed point + full ring).
		warm := 0
		for ; warm < 400; warm++ {
			_, st := d.DecideStats(snap)
			if st.SkippedUnits > 0 && st.DirtyUnits == 0 {
				break
			}
		}
		if warm == 400 && E != 1 {
			t.Fatalf("E=%d: no round ever skipped a unit", E)
		}
		// From a settled state, verify E consecutive rounds tile the
		// unit range with refresh blocks.
		refreshed := 0
		for i := 0; i < E; i++ {
			_, st := d.DecideStats(snap)
			if st.DirtyUnits != 0 {
				t.Fatalf("E=%d: constant readings reported %d dirty units", E, st.DirtyUnits)
			}
			block := units - st.SkippedUnits
			refreshed += block
			if E == 1 && st.SkippedUnits != 0 {
				t.Fatalf("E=1 must refresh every unit every round; skipped %d", st.SkippedUnits)
			}
		}
		if refreshed != units {
			t.Fatalf("E=%d: %d unit-refreshes over E rounds, want exactly %d", E, refreshed, units)
		}
	}
}

// TestBlockRangeCoversAllUnits checks the refresh schedule's balanced
// partition is a true partition for awkward unit/block combinations.
func TestBlockRangeCoversAllUnits(t *testing.T) {
	for _, n := range []int{1, 7, 96, 1000} {
		for _, p := range []int{1, 2, 3, 7, 16, 64, 1500} {
			next := 0
			for k := 0; k < p; k++ {
				lo, hi := blockRange(k, p, n)
				if lo != next {
					t.Fatalf("n=%d p=%d block %d starts at %d, want %d", n, p, k, lo, next)
				}
				if hi < lo {
					t.Fatalf("n=%d p=%d block %d inverted range [%d,%d)", n, p, k, lo, hi)
				}
				next = hi
			}
			if next != n {
				t.Fatalf("n=%d p=%d covers %d units", n, p, next)
			}
		}
	}
}

// TestSparseStatsPopulation pins that every round reports the sparsity
// stats: DirtyUnits counts the changed readings, DirtyFrac is that count
// over all units, and SkippedUnits accounts for everything not processed
// — zero when the refresh block covers every unit.
func TestSparseStatsPopulation(t *testing.T) {
	const units = 32
	budget := power.Budget{Total: units * 110, UnitMax: 165, UnitMin: 10}
	for _, refresh := range []int{0, 1} {
		cfg := DefaultConfig(units, budget)
		cfg.SparseRefreshEvery = refresh
		d, err := NewDPS(cfg)
		if err != nil {
			t.Fatal(err)
		}
		readings := make(power.Vector, units)
		for u := range readings {
			readings[u] = 60
		}
		for i := 0; i < 5; i++ {
			readings[0] = power.Watts(60 + i)
			_, st := d.DecideStats(Snapshot{Power: readings, Interval: 1})
			wantDirty := 1
			if i == 0 {
				wantDirty = units // every reading is new on round 1
			}
			if st.DirtyUnits != wantDirty {
				t.Fatalf("refresh=%d round %d: DirtyUnits %d, want %d", refresh, i, st.DirtyUnits, wantDirty)
			}
			if want := float64(wantDirty) / units; st.DirtyFrac != want {
				t.Fatalf("refresh=%d round %d: DirtyFrac %v, want %v", refresh, i, st.DirtyFrac, want)
			}
			if refresh == 1 && st.SkippedUnits != 0 {
				t.Fatalf("refresh=1 round %d skipped %d units", i, st.SkippedUnits)
			}
		}
	}
}

// TestSparseBudgetChange covers SetTotalBudget against the cached masks:
// after a budget change every unit must be revisited (the idle-revert
// floor moved), and the caps must keep matching the reference
// controller's bitwise.
func TestSparseBudgetChange(t *testing.T) {
	const (
		units = 48
		steps = 300
	)
	budget := power.Budget{Total: power.Watts(units) * 80, UnitMax: 165, UnitMin: 10}
	demand := mixedTrace(steps, units, 5)

	run := func(refresh int) ([]power.Vector, []RoundStats) {
		cfg := DefaultConfig(units, budget)
		cfg.Seed = 9
		cfg.SparseRefreshEvery = refresh
		d, err := NewDPS(cfg)
		if err != nil {
			t.Fatal(err)
		}
		capsOut := make([]power.Vector, steps)
		statsOut := make([]RoundStats, steps)
		caps := d.Caps().Clone()
		reported := make(power.Vector, units)
		for step := range demand {
			if step == 150 {
				if err := d.SetTotalBudget(power.Watts(units) * 60); err != nil {
					t.Fatal(err)
				}
			}
			for u := range reported {
				drawn := demand[step][u]
				if drawn > caps[u] {
					drawn = caps[u]
				}
				diff := drawn - reported[u]
				if diff < 0 {
					diff = -diff
				}
				if step == 0 || diff > 2.5 {
					reported[u] = drawn
				}
			}
			next, st := d.DecideStats(Snapshot{Power: reported, Interval: 1})
			capsOut[step] = next.Clone()
			statsOut[step] = st
			copy(caps, next)
		}
		return capsOut, statsOut
	}

	wantCaps, wantStats := run(1)
	gotCaps, gotStats := run(0)
	assertSameDecisions(t, "budget-change", wantCaps, gotCaps, wantStats, gotStats)
}

// TestDirtyMask covers the mask's bookkeeping: idempotent marking, the
// incremental count against a direct popcount, and copy/reset.
func TestDirtyMask(t *testing.T) {
	m := NewDirtyMask(70)
	if m.Len() != 70 || m.Count() != 0 {
		t.Fatalf("fresh mask: len=%d count=%d", m.Len(), m.Count())
	}
	for _, u := range []int{0, 63, 64, 69, 69, -1, 70, 1000} {
		m.Mark(u)
	}
	if m.Count() != 4 || m.Count() != m.popcount() {
		t.Fatalf("count %d (popcount %d), want 4", m.Count(), m.popcount())
	}
	for _, u := range []int{0, 63, 64, 69} {
		if !m.Get(u) {
			t.Fatalf("unit %d not marked", u)
		}
	}
	if m.Get(1) || m.Get(70) || m.Get(-1) {
		t.Fatal("unexpected marks")
	}
	cp := NewDirtyMask(70)
	cp.CopyFrom(m)
	m.Reset()
	if m.Count() != 0 || m.popcount() != 0 {
		t.Fatal("reset left bits")
	}
	if cp.Count() != 4 || !cp.Get(69) {
		t.Fatal("copy lost bits")
	}
}
