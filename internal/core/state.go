package core

import (
	"fmt"

	"dps/internal/power"
	"dps/internal/priority"
	"dps/internal/snapshot"
	"dps/internal/stateless"
	"dps/internal/trace"
)

// This file implements the controller side of the high-availability
// snapshot contract (DESIGN.md §14): ExportState captures everything a
// DPS controller accumulates across rounds, RestoreState rebuilds a
// controller from that capture, and the keystone guarantee is bitwise —
// a controller restored from the state exported after round R produces
// caps and decision outcomes identical to the uninterrupted controller
// from round R+1 onward, for any input sequence.
//
// The export is taken *between* rounds, which is the controller's
// quiescent point: stageCaps == caps (every cap-moving stage re-syncs
// the diff baseline), the per-round scratch masks (dirtyW, visitW,
// roundMovedW) are dead values the next round overwrites, and capMovedW
// already holds the next round's revisit set (DecideStats swaps it with
// roundMovedW on the way out). So the snapshot stores caps, the swapped
// capMovedW, and the provenance residue (reasons, provDirty) — and
// nothing that is recomputed from scratch each round.

// ExportState fills st with the controller's complete post-round state,
// reusing st's slices when their capacity suffices — a warm export into
// a retained State allocates nothing. It must be called between Decide
// rounds (the controller's only externally observable points), never
// concurrently with one.
func (d *DPS) ExportState(st *snapshot.State) {
	n := d.cfg.Units
	st.Units = n
	st.Seed = d.cfg.Seed
	st.BudgetTotal = d.cfg.Budget.Total
	st.UnitMax = d.cfg.Budget.UnitMax
	st.UnitMin = d.cfg.Budget.UnitMin
	st.Sparse = true
	st.SparseRefreshEvery = d.refreshEvery

	st.HasCore = true
	st.Steps = d.steps
	st.LastRestored = d.lastRestored
	st.ProvDirty = d.provDirty
	st.HeldAllocated = d.held != nil

	st.Caps = appendVec(st.Caps, d.caps)

	if cap(st.Kalman) < n {
		st.Kalman = make([]snapshot.KalmanState, n)
	}
	st.Kalman = st.Kalman[:n]
	for u := 0; u < n; u++ {
		st.Kalman[u] = d.filters.Unit(power.UnitID(u)).ExportState()
	}

	if len(st.Rings) != n || st.RingCap != d.cfg.HistoryLen {
		st.SizeRings(n, d.cfg.HistoryLen)
	}
	for u := 0; u < n; u++ {
		d.hist.Unit(power.UnitID(u)).ExportState(&st.Rings[u])
	}

	st.HighFreq = resizeBools(st.HighFreq, n)
	st.Prio = resizeBools(st.Prio, n)
	d.priorityM.ExportState(st.HighFreq, st.Prio)
	if cap(st.Frozen) < n {
		st.Frozen = make([]priority.FrozenStats, n)
	}
	st.Frozen = st.Frozen[:n]
	copy(st.Frozen, d.frozen)

	// The generator travels whole (register + position), so a restore
	// costs the same whatever this controller's age; the draw count is
	// the position's cross-check.
	st.RNGSeed = d.cfg.Seed
	st.RNGDraws = d.statelessM.RNGDraws()
	st.RNGTap = d.statelessM.ExportRegister(&st.RNGReg)

	if cap(st.Reasons) < n {
		st.Reasons = make([]uint8, n)
	}
	st.Reasons = st.Reasons[:n]
	for u := 0; u < n; u++ {
		st.Reasons[u] = uint8(d.reasons[u])
	}

	st.LastDT = d.lastDT
	st.HighCount = d.highCount
	st.CachedSum = d.cachedSum
	st.SumValid = d.sumValid
	st.SettledW = appendU64s(st.SettledW, d.settledW)
	st.CapMovedW = appendU64s(st.CapMovedW, d.capMovedW)
	st.LastVal = appendVec(st.LastVal, d.lastVal)
	st.LastStep = appendU64s(st.LastStep, d.lastStep)
}

func appendVec(dst power.Vector, src power.Vector) power.Vector {
	if cap(dst) < len(src) {
		dst = make(power.Vector, len(src))
	}
	dst = dst[:len(src)]
	copy(dst, src)
	return dst
}

func appendU64s(dst, src []uint64) []uint64 {
	if cap(dst) < len(src) {
		dst = make([]uint64, len(src))
	}
	dst = dst[:len(src)]
	copy(dst, src)
	return dst
}

func resizeBools(dst []bool, n int) []bool {
	if cap(dst) < n {
		return make([]bool, n)
	}
	return dst[:n]
}

// RestoreState overwrites the controller's state from st. The snapshot
// must come from a controller with the same identity — unit count, seed,
// per-unit cap bounds, and history length — or an error is returned and
// the controller is left unchanged (identity checks run before any
// mutation). The budget total is live state and is adopted from the
// snapshot, not checked.
//
// After a successful restore the controller's future decisions are
// bitwise identical to the exporting controller's.
func (d *DPS) RestoreState(st *snapshot.State) error {
	if !st.HasCore {
		return fmt.Errorf("core: snapshot carries no controller state")
	}
	if st.Units != d.cfg.Units {
		return fmt.Errorf("core: snapshot for %d units, controller has %d", st.Units, d.cfg.Units)
	}
	if st.Seed != d.cfg.Seed {
		return fmt.Errorf("core: snapshot seed %d, controller seeded %d", st.Seed, d.cfg.Seed)
	}
	if st.RingCap != d.cfg.HistoryLen {
		return fmt.Errorf("core: snapshot history length %d, controller has %d", st.RingCap, d.cfg.HistoryLen)
	}
	if st.UnitMax != d.cfg.Budget.UnitMax || st.UnitMin != d.cfg.Budget.UnitMin {
		return fmt.Errorf("core: snapshot unit bounds [%v,%v], controller has [%v,%v]",
			st.UnitMin, st.UnitMax, d.cfg.Budget.UnitMin, d.cfg.Budget.UnitMax)
	}
	b := d.cfg.Budget
	b.Total = st.BudgetTotal
	if err := b.Validate(d.cfg.Units); err != nil {
		return fmt.Errorf("core: snapshot budget: %w", err)
	}
	words := (d.cfg.Units + 63) / 64
	if len(st.Caps) != d.cfg.Units || len(st.Kalman) != d.cfg.Units ||
		len(st.Rings) != d.cfg.Units || len(st.Prio) != d.cfg.Units ||
		len(st.HighFreq) != d.cfg.Units || len(st.Reasons) != d.cfg.Units ||
		len(st.Frozen) != d.cfg.Units || len(st.SettledW) != words || len(st.CapMovedW) != words ||
		len(st.LastVal) != d.cfg.Units || len(st.LastStep) != d.cfg.Units {
		return fmt.Errorf("core: snapshot core sections incomplete for %d units", d.cfg.Units)
	}
	if want := stateless.TapAt(st.RNGDraws); st.RNGTap != want {
		return fmt.Errorf("core: snapshot PRNG register at tap %d, %d draws put it at %d", st.RNGTap, st.RNGDraws, want)
	}
	// Ring geometry is validated for every unit before any ring is
	// touched, so a malformed snapshot cannot leave the bank
	// half-restored.
	for u := 0; u < d.cfg.Units; u++ {
		if err := d.hist.Unit(power.UnitID(u)).CheckState(&st.Rings[u]); err != nil {
			return fmt.Errorf("core: unit %d: %w", u, err)
		}
	}
	for u := 0; u < d.cfg.Units; u++ {
		if err := d.hist.Unit(power.UnitID(u)).ImportState(&st.Rings[u]); err != nil {
			panic(fmt.Sprintf("core: ring %d import failed after CheckState: %v", u, err))
		}
	}

	d.cfg.Budget = b
	d.constantCap = b.ConstantCap(d.cfg.Units)
	d.steps = st.Steps
	d.lastRestored = st.LastRestored
	d.provDirty = st.ProvDirty

	copy(d.caps, st.Caps)
	// Between rounds every cap-moving stage has re-synced the diff
	// baseline, so stageCaps == caps is an invariant of the quiescent
	// point the export was taken at.
	copy(d.stageCaps, d.caps)
	for u := range d.reasons {
		d.reasons[u] = trace.Reason(st.Reasons[u])
	}

	for u := 0; u < d.cfg.Units; u++ {
		d.filters.Unit(power.UnitID(u)).ImportState(st.Kalman[u])
	}
	if err := d.priorityM.ImportState(st.HighFreq, st.Prio); err != nil {
		panic(fmt.Sprintf("core: priority import failed after length checks: %v", err))
	}
	d.statelessM.RestoreRegister(&st.RNGReg, st.RNGDraws)

	if st.HeldAllocated && d.held == nil {
		// Preserve the exporting controller's allocation profile: it had
		// already paid for its degraded-round scratch, so the restored
		// one must not re-pay it inside a decision round.
		d.held = power.NewVector(d.cfg.Units, 0)
	}

	// Adopt the skip bookkeeping bitwise, settle certificates included.
	d.lastDT = st.LastDT
	d.highCount = st.HighCount
	d.cachedSum = st.CachedSum
	d.sumValid = st.SumValid
	copy(d.settledW, st.SettledW)
	copy(d.capMovedW, st.CapMovedW)
	copy(d.lastVal, st.LastVal)
	copy(d.lastStep, st.LastStep)
	copy(d.frozen, st.Frozen)
	clear(d.dirtyW)
	clear(d.roundMovedW)
	d.anyMove = false
	return nil
}

// ExportedHighCount returns the number of high-priority units in st —
// the daemon's status plane wants it without re-deriving controller
// internals.
func ExportedHighCount(st *snapshot.State) int {
	n := 0
	for _, p := range st.Prio {
		if p {
			n++
		}
	}
	return n
}
