package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"dps/internal/power"
	"dps/internal/snapshot"
	"dps/internal/stateless"
)

// loopState is the world-side state of a closed-loop delta-agent trace:
// the caps currently applied, the last values each agent reported and,
// when health is set, the per-round health vector. It survives a
// controller swap, exactly as real agents survive a failover — they keep
// reporting to whoever holds the caps.
type loopState struct {
	caps     power.Vector
	reported power.Vector
	mask     *DirtyMask
	eps      power.Watts
	health   func(step int) []UnitHealth
}

func newLoopState(d *DPS, eps power.Watts, useMask bool) *loopState {
	ls := &loopState{
		caps:     d.Caps().Clone(),
		reported: make(power.Vector, len(d.Caps())),
		eps:      eps,
	}
	if useMask {
		ls.mask = NewDirtyMask(len(d.Caps()))
	}
	return ls
}

// drive runs d closed-loop over demand rows [lo, hi), continuing the
// loop state from wherever it stands, and appends each round's caps and
// stats to the returned slices. HighPriority is maintained incrementally
// and shared by both sides of every comparison, so each round holds it
// to a recount.
func drive(t *testing.T, d *DPS, demand [][]power.Watts, lo, hi int, ls *loopState) ([]power.Vector, []RoundStats) {
	t.Helper()
	capsOut := make([]power.Vector, 0, hi-lo)
	statsOut := make([]RoundStats, 0, hi-lo)
	for step := lo; step < hi; step++ {
		row := demand[step]
		var hv []UnitHealth
		if ls.health != nil {
			hv = ls.health(step)
		}
		if ls.mask != nil {
			ls.mask.Reset()
		}
		for u := range ls.reported {
			if hv != nil && hv[u] != HealthFresh {
				continue // a non-reporting agent's last value stays on the books
			}
			drawn := row[u]
			if drawn > ls.caps[u] {
				drawn = ls.caps[u]
			}
			diff := drawn - ls.reported[u]
			if diff < 0 {
				diff = -diff
			}
			if step == 0 || diff > ls.eps {
				ls.reported[u] = drawn
				if ls.mask != nil {
					ls.mask.Mark(u)
				}
			}
		}
		next, st := d.DecideStats(Snapshot{Power: ls.reported, Interval: 1, Dirty: ls.mask, Health: hv})
		high := 0
		for _, p := range d.Priorities() {
			if p {
				high++
			}
		}
		if st.HighPriority != high {
			t.Fatalf("step %d: HighPriority %d, recount %d", step, st.HighPriority, high)
		}
		capsOut = append(capsOut, next.Clone())
		statsOut = append(statsOut, st)
		copy(ls.caps, next)
	}
	return capsOut, statsOut
}

// clone copies the loop state, so two restored controllers can each
// finish the trace from the same point.
func (ls *loopState) clone() *loopState {
	c := &loopState{caps: ls.caps.Clone(), reported: ls.reported.Clone(), eps: ls.eps, health: ls.health}
	if ls.mask != nil {
		c.mask = NewDirtyMask(len(ls.caps))
	}
	return c
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

// snapshotThrough round-trips d's state through the wire format and
// restores it into into, failing the test on any step that errors. The
// byte round trip is deliberate: the equivalence proof must cover the
// serialized form, not just the in-memory State.
func snapshotThrough(t *testing.T, d, into *DPS) {
	t.Helper()
	var st snapshot.State
	d.ExportState(&st)
	img := snapshot.Encode(nil, &st)
	got, err := snapshot.Decode(img)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if err := into.RestoreState(got); err != nil {
		t.Fatalf("restore: %v", err)
	}
}

// TestRestoreEquivalence is the keystone high-availability gate: a
// controller restored from the snapshot taken after round R produces
// bitwise-identical caps and decision outcomes to the uninterrupted twin
// from round R+1 onward, over a 600-step closed-loop trace, across
// refresh periods and masked/derived-dirty configurations — including a
// budget change before the snapshot point and a second one after the
// restore. The uninterrupted twin is the reference controller
// (SparseRefreshEvery: 1, no mask), so each row also proves the restored
// skip bookkeeping skips nothing it should not. FuzzRoundEngine's
// restored lane makes the same claim over generated scripts, in dpsd's
// restore order.
func TestRestoreEquivalence(t *testing.T) {
	const (
		units   = 96
		steps   = 600
		cutAt   = 250 // snapshot after this many rounds
		budget1 = power.Watts(units) * 55
		budget2 = power.Watts(units) * 48
		budget3 = power.Watts(units) * 60
	)
	bud := power.Budget{Total: budget1, UnitMax: 165, UnitMin: 10}
	demand := mixedTrace(steps, units, 42)
	build := func(refresh int) *DPS {
		cfg := DefaultConfig(units, bud)
		cfg.Seed = 7
		cfg.SparseRefreshEvery = refresh
		d, err := NewDPS(cfg)
		if err != nil {
			t.Fatalf("NewDPS: %v", err)
		}
		return d
	}
	// run drives d over rounds [lo, hi), moving the budget before rounds
	// 150 and 400.
	moves := map[int]power.Watts{150: budget2, 400: budget3}
	run := func(d *DPS, ls *loopState, lo, hi int) (caps []power.Vector, stats []RoundStats) {
		for step := lo; step < hi; step++ {
			if moveTo, ok := moves[step]; ok {
				if err := d.SetTotalBudget(moveTo); err != nil {
					t.Fatal(err)
				}
			}
			c, s := drive(t, d, demand, step, step+1, ls)
			caps, stats = append(caps, c...), append(stats, s...)
		}
		return caps, stats
	}

	cases := []struct {
		name    string
		refresh int
		eps     power.Watts
		useMask bool
	}{
		{name: "refresh=7", refresh: 7, eps: 0.5},
		{name: "refresh=7 masked", refresh: 7, eps: 0.5, useMask: true},
		{name: "refresh=64", refresh: 64, eps: 0.5},
		{name: "refresh=64 masked", refresh: 64, eps: 0.5, useMask: true},
		{name: "refresh=never", refresh: neverRefresh, eps: 0.5},
		{name: "refresh=never masked", refresh: neverRefresh, eps: 0.5, useMask: true},
		{name: "refresh=1 eps=0", refresh: 1, eps: 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Twin A: uninterrupted reference.
			a := build(1)
			capsA, statsA := run(a, newLoopState(a, tc.eps, false), 0, steps)

			// Twin B: identical through round cutAt, then its state moves
			// through the wire format into a freshly built controller
			// that finishes the trace.
			b := build(tc.refresh)
			lsB := newLoopState(b, tc.eps, tc.useMask)
			capsB1, statsB1 := run(b, lsB, 0, cutAt)
			c := build(tc.refresh)
			snapshotThrough(t, b, c)
			if got, want := c.Steps(), uint64(cutAt); got != want {
				t.Fatalf("restored steps %d, want %d", got, want)
			}
			if got := c.Budget().Total; got != budget2 {
				t.Fatalf("restored budget %v, want %v", got, budget2)
			}
			capsB2, statsB2 := run(c, lsB, cutAt, steps)
			assertSameDecisions(t, tc.name, capsA, append(capsB1, capsB2...), statsA, append(statsB1, statsB2...))

			// Non-vacuity: the post-restore segment must exercise real
			// decision work.
			moved := false
			for s := cutAt + 1; s < steps && !moved; s++ {
				for u := range capsA[s] {
					if capsA[s][u] != capsA[s-1][u] {
						moved = true
						break
					}
				}
			}
			if !moved {
				t.Fatalf("%s: no cap moved after the restore point; test is vacuous", tc.name)
			}
		})
	}
}

// TestRestoreEquivalenceDegraded runs the trace with a health schedule
// straddling the snapshot point: units go stale/dead before the cut and
// recover after it, so the restored controller inherits health-pinned
// caps and must keep them pinned bitwise. The uninterrupted twin is the
// reference controller (SparseRefreshEvery: 1).
func TestRestoreEquivalenceDegraded(t *testing.T) {
	const (
		units = 64
		steps = 300
		cutAt = 140
	)
	bud := power.Budget{Total: power.Watts(units) * 55, UnitMax: 165, UnitMin: 10}
	demand := mixedTrace(steps, units, 17)
	health := func(step int) []UnitHealth {
		if step < 100 || step >= 220 {
			return nil
		}
		hv := make([]UnitHealth, units)
		hv[3] = HealthStale
		hv[11] = HealthDead
		if step >= 160 {
			hv[20] = HealthStale
		}
		return hv
	}
	build := func(refresh int) (*DPS, *loopState) {
		cfg := DefaultConfig(units, bud)
		cfg.Seed = 7
		cfg.SparseRefreshEvery = refresh
		d, err := NewDPS(cfg)
		if err != nil {
			t.Fatalf("NewDPS: %v", err)
		}
		ls := newLoopState(d, 0.5, true)
		ls.health = health
		return d, ls
	}

	a, lsA := build(1)
	capsA, statsA := drive(t, a, demand, 0, steps, lsA)

	for _, refresh := range []int{7, DefaultSparseRefreshEvery, neverRefresh} {
		b, lsB := build(refresh)
		capsB1, statsB1 := drive(t, b, demand, 0, cutAt, lsB)
		c, _ := build(refresh)
		snapshotThrough(t, b, c)
		capsB2, statsB2 := drive(t, c, demand, cutAt, steps, lsB)
		assertSameDecisions(t, fmt.Sprintf("degraded/refresh=%d", refresh), capsA, append(capsB1, capsB2...), statsA, append(statsB1, statsB2...))
	}

	// Non-vacuity: the schedule must actually have pinned units at the
	// cut (their caps held constant through it).
	if statsA[cutAt].StaleUnits == 0 || statsA[cutAt].DeadUnits == 0 {
		t.Fatalf("health schedule not active at the snapshot point")
	}
}

// TestRestoreIndependentOfDonorAge restores an image whose draw count is
// that of a controller decades old (replaying 2^50 draws would not
// return). The register carries the generator, so the restore is
// immediate and the restored controller's shuffles are the donor's.
func TestRestoreIndependentOfDonorAge(t *testing.T) {
	const (
		units = 64
		steps = 200
		cutAt = 80
		aged  = stateless.RegisterLen << 41 // whole turns of the register, > 2^50 draws
	)
	bud := power.Budget{Total: power.Watts(units) * 55, UnitMax: 165, UnitMin: 10}
	demand := mixedTrace(steps, units, 9)
	build := func() *DPS {
		d, err := NewDPS(DefaultConfig(units, bud))
		if err != nil {
			t.Fatalf("NewDPS: %v", err)
		}
		return d
	}
	b := build()
	lsB := newLoopState(b, 0.5, true)
	drive(t, b, demand, 0, cutAt, lsB)

	var st snapshot.State
	b.ExportState(&st)
	young := st.RNGDraws
	if young == 0 {
		t.Fatal("the trace drew nothing before the cut; test is vacuous")
	}
	st.RNGDraws += aged
	old, err := snapshot.Decode(snapshot.Encode(nil, &st))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	c := build()
	if err := c.RestoreState(old); err != nil {
		t.Fatalf("restore: %v", err)
	}
	lsC := lsB.clone()
	capsB, statsB := drive(t, b, demand, cutAt, steps, lsB)
	capsC, statsC := drive(t, c, demand, cutAt, steps, lsC)
	assertSameDecisions(t, "aged donor", capsB, capsC, statsB, statsC)
	drewB, drewC := b.statelessM.RNGDraws()-young, c.statelessM.RNGDraws()-young-aged
	if drewB == 0 || drewB != drewC {
		t.Fatalf("after the restore the donor drew %d times, the restored controller %d", drewB, drewC)
	}
}

// TestSetTotalBudgetToItselfChangesNothing: telling a settled controller
// the budget it already holds leaves its state image byte for byte as it
// was, so a primary told its own budget and a standby never told it stay
// in step, state and caps alike.
func TestSetTotalBudgetToItselfChangesNothing(t *testing.T) {
	const units = 64
	d, err := NewDPS(DefaultConfig(units, power.Budget{Total: power.Watts(units) * 55, UnitMax: 165, UnitMin: 10}))
	if err != nil {
		t.Fatal(err)
	}
	drive(t, d, mixedTrace(40, units, 3), 0, 40, newLoopState(d, 0.5, true))
	export := func() []byte {
		var st snapshot.State
		d.ExportState(&st)
		return snapshot.Encode(nil, &st)
	}
	before := export()
	if err := d.SetTotalBudget(d.Budget().Total); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(export(), before) {
		t.Error("SetTotalBudget with the current total changed the controller's state")
	}
}

// TestExportStateWarmNoAlloc is the hot-path gate for the snapshot loop:
// exporting into a retained State and re-encoding into a retained buffer
// allocates nothing once warm, so a primary can assemble its replication
// image every round without disturbing the decide loop's 0-alloc
// contract.
func TestExportStateWarmNoAlloc(t *testing.T) {
	const units = 512
	bud := power.Budget{Total: power.Watts(units) * 55, UnitMax: 165, UnitMin: 10}
	d, err := NewDPS(DefaultConfig(units, bud))
	if err != nil {
		t.Fatal(err)
	}
	demand := mixedTrace(40, units, 3)
	ls := newLoopState(d, 0.5, true)
	drive(t, d, demand, 0, 40, ls)

	var st snapshot.State
	d.ExportState(&st)
	buf := snapshot.Encode(nil, &st)
	allocs := testing.AllocsPerRun(20, func() {
		d.ExportState(&st)
		buf = snapshot.Encode(buf, &st)
	})
	if allocs != 0 {
		t.Fatalf("warm export+encode allocates %v times", allocs)
	}
}

// TestRestoreStateRejects exercises every identity check: a snapshot
// from a different controller shape must be refused without mutating the
// restorer.
func TestRestoreStateRejects(t *testing.T) {
	const units = 32
	bud := power.Budget{Total: power.Watts(units) * 55, UnitMax: 165, UnitMin: 10}
	newC := func(mut func(*Config)) *DPS {
		cfg := DefaultConfig(units, bud)
		cfg.Seed = 7
		if mut != nil {
			mut(&cfg)
		}
		d, err := NewDPS(cfg)
		if err != nil {
			t.Fatalf("NewDPS: %v", err)
		}
		return d
	}

	src := newC(nil)
	demand := mixedTrace(30, units, 5)
	ls := newLoopState(src, 0.5, false)
	drive(t, src, demand, 0, 30, ls)
	var good snapshot.State
	src.ExportState(&good)

	cases := []struct {
		name string
		dst  *DPS
		mut  func(*snapshot.State)
		want string
	}{
		{"unit mismatch", newC(nil), func(s *snapshot.State) { s.Units = units + 1 }, "units"},
		{"seed mismatch", newC(func(c *Config) { c.Seed = 8 }), nil, "seed"},
		{"history mismatch", newC(func(c *Config) { c.HistoryLen = 10 }), nil, "history length"},
		{"bounds mismatch", newC(func(c *Config) { c.Budget.UnitMax = 170 }), nil, "bounds"},
		{"bad budget", newC(nil), func(s *snapshot.State) { s.BudgetTotal = -1 }, "budget"},
		{"bad ring geometry", newC(nil), func(s *snapshot.State) { s.Rings[5].Head = 99 }, "unit 5"},
		{"short section", newC(nil), func(s *snapshot.State) { s.Caps = s.Caps[:units-1] }, "incomplete"},
		{"short sparse column", newC(nil), func(s *snapshot.State) { s.LastStep = s.LastStep[:units-1] }, "incomplete"},
		{"register off its position", newC(nil), func(s *snapshot.State) { s.RNGTap = (s.RNGTap + 1) % stateless.RegisterLen }, "tap"},
		{"register position out of range", newC(nil), func(s *snapshot.State) { s.RNGTap += stateless.RegisterLen }, "tap"},
		{"draw count off the register", newC(nil), func(s *snapshot.State) { s.RNGDraws++ }, "tap"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := good // shallow copy; muts that touch slices clone first
			if tc.mut != nil {
				if tc.name == "bad ring geometry" {
					rings := append([]snapshot.RingState(nil), good.Rings...)
					st.Rings = rings
				}
				tc.mut(&st)
			}
			before := tc.dst.Caps().Clone()
			err := tc.dst.RestoreState(&st)
			if err == nil {
				t.Fatalf("restore accepted a %s snapshot", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
			for u, c := range tc.dst.Caps() {
				if c != before[u] {
					t.Fatalf("rejected restore mutated caps[%d]", u)
				}
			}
			if tc.dst.Steps() != 0 {
				t.Fatalf("rejected restore advanced steps to %d", tc.dst.Steps())
			}
		})
	}

	// And the happy path on a fresh twin still works after all that.
	ok := newC(nil)
	if err := ok.RestoreState(&good); err != nil {
		t.Fatalf("valid restore failed: %v", err)
	}
	if ok.Steps() != 30 {
		t.Fatalf("restored steps %d, want 30", ok.Steps())
	}
}
