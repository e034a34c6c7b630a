package core

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"dps/internal/power"
	"dps/internal/snapshot"
	"dps/internal/stateless"
)

// loopState is the world-side state of a closed-loop delta-agent trace:
// the caps currently applied, the last values each agent reported and the
// round interval. It survives a controller swap, exactly as real agents
// survive a failover — they keep reporting to whoever holds the caps.
type loopState struct {
	caps     power.Vector
	reported power.Vector
	mask     *DirtyMask
	eps      power.Watts
	interval power.Seconds
}

func newLoopState(d *DPS, eps power.Watts, useMask bool) *loopState {
	ls := &loopState{
		caps:     d.Caps().Clone(),
		reported: make(power.Vector, len(d.Caps())),
		eps:      eps,
		interval: 1,
	}
	if useMask {
		ls.mask = NewDirtyMask(len(d.Caps()))
	}
	return ls
}

// drive runs d closed-loop over demand rows [lo, hi), continuing the
// loop state from wherever it stands, and appends each round's caps and
// stats to the returned slices. health, when non-nil, supplies the
// per-round health vector.
func drive(t *testing.T, d *DPS, demand [][]power.Watts, lo, hi int, ls *loopState, health func(step int) []UnitHealth) ([]power.Vector, []RoundStats) {
	t.Helper()
	capsOut := make([]power.Vector, 0, hi-lo)
	statsOut := make([]RoundStats, 0, hi-lo)
	for step := lo; step < hi; step++ {
		row := demand[step]
		var hv []UnitHealth
		if health != nil {
			hv = health(step)
		}
		if ls.mask != nil {
			ls.mask.Reset()
		}
		for u := range ls.reported {
			drawn := row[u]
			if drawn > ls.caps[u] {
				drawn = ls.caps[u]
			}
			if hv != nil && hv[u] != HealthFresh {
				// A non-reporting agent's last value stays on the books.
				continue
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
		next, st := d.DecideStats(Snapshot{Power: ls.reported, Interval: ls.interval, Dirty: ls.mask, Health: hv})
		capsOut = append(capsOut, next.Clone())
		statsOut = append(statsOut, st)
		copy(ls.caps, next)
	}
	return capsOut, statsOut
}

// clone copies the loop state, so two restored controllers can each
// finish the trace from the same point.
func (ls *loopState) clone() *loopState {
	c := &loopState{caps: ls.caps.Clone(), reported: ls.reported.Clone(), eps: ls.eps, interval: ls.interval}
	if ls.mask != nil {
		c.mask = NewDirtyMask(len(ls.caps))
	}
	return c
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
// skip bookkeeping skips nothing it should not.
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
			// Twin A: uninterrupted, with budget changes at 150 and 400.
			a := build(1)
			lsA := newLoopState(a, tc.eps, false)
			capsA1, statsA1 := drive(t, a, demand, 0, 150, lsA, nil)
			if err := a.SetTotalBudget(budget2); err != nil {
				t.Fatal(err)
			}
			capsA2, statsA2 := drive(t, a, demand, 150, 400, lsA, nil)
			if err := a.SetTotalBudget(budget3); err != nil {
				t.Fatal(err)
			}
			capsA3, statsA3 := drive(t, a, demand, 400, steps, lsA, nil)
			capsA := append(append(capsA1, capsA2...), capsA3...)
			statsA := append(append(statsA1, statsA2...), statsA3...)

			// Twin B: identical through round cutAt, then its state moves
			// through the wire format into a freshly built controller
			// that finishes the trace.
			b := build(tc.refresh)
			lsB := newLoopState(b, tc.eps, tc.useMask)
			capsB1, statsB1 := drive(t, b, demand, 0, 150, lsB, nil)
			if err := b.SetTotalBudget(budget2); err != nil {
				t.Fatal(err)
			}
			capsB2, statsB2 := drive(t, b, demand, 150, cutAt, lsB, nil)

			c := build(tc.refresh)
			snapshotThrough(t, b, c)
			if got, want := c.Steps(), uint64(cutAt); got != want {
				t.Fatalf("restored steps %d, want %d", got, want)
			}
			if got := c.Budget().Total; got != budget2 {
				t.Fatalf("restored budget %v, want %v", got, budget2)
			}
			capsB3, statsB3 := drive(t, c, demand, cutAt, 400, lsB, nil)
			if err := c.SetTotalBudget(budget3); err != nil {
				t.Fatal(err)
			}
			capsB4, statsB4 := drive(t, c, demand, 400, steps, lsB, nil)

			capsB := append(append(append(capsB1, capsB2...), capsB3...), capsB4...)
			statsB := append(append(append(statsB1, statsB2...), statsB3...), statsB4...)
			assertSameDecisions(t, tc.name, capsA, capsB, statsA, statsB)

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

	a := build(1)
	lsA := newLoopState(a, 0.5, true)
	capsA, statsA := drive(t, a, demand, 0, steps, lsA, health)

	for _, refresh := range []int{7, DefaultSparseRefreshEvery, neverRefresh} {
		b := build(refresh)
		lsB := newLoopState(b, 0.5, true)
		capsB1, statsB1 := drive(t, b, demand, 0, cutAt, lsB, health)
		c := build(refresh)
		snapshotThrough(t, b, c)
		capsB2, statsB2 := drive(t, c, demand, cutAt, steps, lsB, health)
		assertSameDecisions(t, fmt.Sprintf("degraded/refresh=%d", refresh), capsA, append(capsB1, capsB2...), statsA, append(statsB1, statsB2...))
	}

	// Non-vacuity: the schedule must actually have pinned units at the
	// cut (their caps held constant through it).
	if statsA[cutAt].StaleUnits == 0 || statsA[cutAt].DeadUnits == 0 {
		t.Fatalf("health schedule not active at the snapshot point")
	}
}

// TestRestoreEquivalenceNonUniformRings halves the round interval for a
// few rounds shortly before the snapshot point, so at export every ring
// holds a run of short slots mid-ring between slots of the usual length,
// and the image stores its durations one by one rather than once per
// ring. The restored controller must still match the uninterrupted twin
// bitwise for the next 50 rounds.
func TestRestoreEquivalenceNonUniformRings(t *testing.T) {
	const (
		units      = 64
		shortFrom  = 105 // rounds [shortFrom, shortUntil) run at half the interval
		shortUntil = 109
		cutAt      = 112
		steps      = cutAt + 50
	)
	bud := power.Budget{Total: power.Watts(units) * 55, UnitMax: 165, UnitMin: 10}
	demand := mixedTrace(steps, units, 23)
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
	run := func(d *DPS, ls *loopState, lo, hi int) (caps []power.Vector, stats []RoundStats) {
		for step := lo; step < hi; step++ {
			switch step {
			case shortFrom:
				ls.interval = 0.5
			case shortUntil:
				ls.interval = 1
			}
			c, s := drive(t, d, demand, step, step+1, ls, nil)
			caps, stats = append(caps, c...), append(stats, s...)
		}
		return caps, stats
	}

	a := build(1)
	capsA, statsA := run(a, newLoopState(a, 0.5, false), 0, steps)

	b := build(DefaultSparseRefreshEvery)
	lsB := newLoopState(b, 0.5, true)
	capsB1, statsB1 := run(b, lsB, 0, cutAt)

	var st snapshot.State
	b.ExportState(&st)
	for u := range st.Rings {
		if d := st.Rings[u].Durations; slices.Min(d) == slices.Max(d) {
			t.Fatalf("unit %d's ring holds one duration at the cut; test is vacuous", u)
		}
	}
	c := build(DefaultSparseRefreshEvery)
	snapshotThrough(t, b, c)
	capsB2, statsB2 := run(c, lsB, cutAt, steps)
	assertSameDecisions(t, "non-uniform rings", capsA, append(capsB1, capsB2...), statsA, append(statsB1, statsB2...))
	// A duration slot reaches the caps only through the ring aggregates,
	// so a restored slot read wrong can leave 50 rounds of caps intact;
	// once every restored slot has been evicted the aggregates show it.
	var gotSt, wantSt snapshot.State
	a.ExportState(&wantSt)
	c.ExportState(&gotSt)
	if !reflect.DeepEqual(gotSt.Rings, wantSt.Rings) {
		t.Fatalf("non-uniform rings: ring state after %d rounds differs from the uninterrupted twin's", steps-cutAt)
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
	drive(t, b, demand, 0, cutAt, lsB, nil)

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
	capsB, statsB := drive(t, b, demand, cutAt, steps, lsB, nil)
	capsC, statsC := drive(t, c, demand, cutAt, steps, lsC, nil)
	assertSameDecisions(t, "aged donor", capsB, capsC, statsB, statsC)
	drewB, drewC := b.statelessM.RNGDraws()-young, c.statelessM.RNGDraws()-young-aged
	if drewB == 0 || drewB != drewC {
		t.Fatalf("after the restore the donor drew %d times, the restored controller %d", drewB, drewC)
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
	drive(t, d, demand, 0, 40, ls, nil)

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
	drive(t, src, demand, 0, 30, ls, nil)
	var good snapshot.State
	src.ExportState(&good)

	cases := []struct {
		name string
		dst  *DPS
		mut  func(*snapshot.State)
		want string
	}{
		{"no core", newC(nil), func(s *snapshot.State) { s.HasCore = false }, "no controller state"},
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
