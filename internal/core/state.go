package core

import (
	"fmt"
	"slices"

	"dps/internal/history"
	"dps/internal/power"
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
// roundMovedW, settledNowW) are dead values the next round overwrites,
// and capMovedW already holds the next round's revisit set (DecideStats
// swaps it with roundMovedW on the way out). So the snapshot stores caps, the swapped
// capMovedW, and the provenance residue (reasons, provDirty) — and
// nothing that is recomputed from scratch each round.

// BindState makes st a view of the controller: the columns an image lays
// out as the controller does — caps, the frozen classification stats,
// the sparse bookkeeping's lastVal, lastStep, settledW and capMovedW, and
// every ring's power and duration slots — become the controller's own
// storage. Encode then reads them in place, snapshot.DecodeVerified
// writes them in place, and ExportState and RestoreState move only the
// columns laid out differently. Bind again before each use, between
// rounds: capMovedW changes identity every round.
func (d *DPS) BindState(st *snapshot.State) {
	st.Caps, st.Frozen = d.caps, d.frozen
	st.LastVal, st.LastStep = d.lastVal, d.lastStep
	st.SettledW, st.CapMovedW = d.settledW, d.capMovedW
	powers, durations := d.hist.Slots()
	st.BindRings(powers, durations, d.cfg.HistoryLen)
}

// ExportState fills st with the controller's complete post-round state,
// reusing st's slices when their capacity suffices — a warm export into
// a retained State allocates nothing, and one bound to this controller
// (BindState) copies no column it shares. It must be called between
// Decide rounds (the controller's only externally observable points),
// never concurrently with one.
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

	st.Caps = snapshot.Assign(st.Caps, d.caps)

	st.Kalman = snapshot.Resize(st.Kalman, n)
	for u := 0; u < n; u++ {
		st.Kalman[u] = d.filters.Unit(power.UnitID(u)).ExportState()
	}

	if len(st.Rings) != n || st.RingCap != d.cfg.HistoryLen {
		st.SizeRings(n, d.cfg.HistoryLen)
	}
	for u := 0; u < n; u++ {
		d.hist.Unit(power.UnitID(u)).ExportState(&st.Rings[u])
	}

	st.HighFreq = snapshot.Resize(st.HighFreq, n)
	st.Prio = snapshot.Resize(st.Prio, n)
	d.priorityM.ExportState(st.HighFreq, st.Prio)
	st.Frozen = snapshot.Assign(st.Frozen, d.frozen)

	// The generator travels whole (register + position), so a restore
	// costs the same whatever this controller's age; the draw count is
	// the position's cross-check.
	st.RNGSeed = d.cfg.Seed
	st.RNGDraws = d.statelessM.RNGDraws()
	st.RNGTap = d.statelessM.ExportRegister(&st.RNGReg)

	st.Reasons = snapshot.Resize(st.Reasons, n)
	for u := 0; u < n; u++ {
		st.Reasons[u] = uint8(d.reasons[u])
	}

	st.LastDT = d.lastDT
	st.HighCount = d.highCount
	st.CachedSum = d.cachedSum
	st.SumValid = d.sumValid
	st.SettledW = snapshot.Assign(st.SettledW, d.settledW)
	st.CapMovedW = snapshot.Assign(st.CapMovedW, d.capMovedW)
	st.LastVal = snapshot.Assign(st.LastVal, d.lastVal)
	st.LastStep = snapshot.Assign(st.LastStep, d.lastStep)
}

// CheckFingerprint reports whether an image with fingerprint fp can be
// restored into this controller: it must carry controller state from a
// controller of the same identity — unit count, seed, per-unit cap
// bounds and history length — and a budget valid for it. It reads fp
// alone, so a restore runs it before a byte of the image is written.
func (d *DPS) CheckFingerprint(fp snapshot.Fingerprint) error {
	if !fp.HasCore {
		return fmt.Errorf("core: snapshot carries no controller state")
	}
	if fp.Units != d.cfg.Units {
		return fmt.Errorf("core: snapshot for %d units, controller has %d", fp.Units, d.cfg.Units)
	}
	if fp.Seed != d.cfg.Seed {
		return fmt.Errorf("core: snapshot seed %d, controller seeded %d", fp.Seed, d.cfg.Seed)
	}
	if fp.RingCap != d.cfg.HistoryLen {
		return fmt.Errorf("core: snapshot history length %d, controller has %d", fp.RingCap, d.cfg.HistoryLen)
	}
	if fp.UnitMax != d.cfg.Budget.UnitMax || fp.UnitMin != d.cfg.Budget.UnitMin {
		return fmt.Errorf("core: snapshot unit bounds [%v,%v], controller has [%v,%v]",
			fp.UnitMin, fp.UnitMax, d.cfg.Budget.UnitMin, d.cfg.Budget.UnitMax)
	}
	b := d.cfg.Budget
	b.Total = fp.BudgetTotal
	if err := b.Validate(d.cfg.Units); err != nil {
		return fmt.Errorf("core: snapshot budget: %w", err)
	}
	return nil
}

// RestoreState overwrites the controller's state from st. The snapshot
// must pass CheckFingerprint, and its columns must be complete and its
// rings and register sound, or an error is returned and the controller
// is left unchanged (every check runs before any mutation). The budget
// total is live state and is adopted from the snapshot, not checked.
// A State bound to this controller has had its shared columns written
// by the decode already; its caller checks the fingerprint before that.
//
// After a successful restore the controller's future decisions are
// bitwise identical to the exporting controller's.
func (d *DPS) RestoreState(st *snapshot.State) error {
	if err := d.CheckFingerprint(st.Fingerprint); err != nil {
		return err
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
	for u := range st.Rings {
		if err := history.CheckState(&st.Rings[u], d.cfg.HistoryLen); err != nil {
			return fmt.Errorf("core: unit %d: %w", u, err)
		}
	}
	for u := 0; u < d.cfg.Units; u++ {
		if err := d.hist.Unit(power.UnitID(u)).ImportState(&st.Rings[u]); err != nil {
			panic(fmt.Sprintf("core: ring %d import failed after CheckState: %v", u, err))
		}
	}

	d.cfg.Budget.Total = st.BudgetTotal
	d.constantCap = gridConstantCap(d.cfg.Budget, d.cfg.Units)
	d.steps = st.Steps
	d.lastRestored = st.LastRestored
	d.provDirty = st.ProvDirty

	d.caps = snapshot.Assign(d.caps, st.Caps)
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
	// An image written before caps lived on the grid holds caps off it,
	// which the first round must fit even if no stage moves a cap.
	if slices.ContainsFunc(d.caps, func(c power.Watts) bool { return power.FromDeciwatts(power.Deciwatts(c)) != c }) {
		d.sumValid = false
	}
	d.settledW = snapshot.Assign(d.settledW, st.SettledW)
	d.capMovedW = snapshot.Assign(d.capMovedW, st.CapMovedW)
	d.lastVal = snapshot.Assign(d.lastVal, st.LastVal)
	d.lastStep = snapshot.Assign(d.lastStep, st.LastStep)
	d.frozen = snapshot.Assign(d.frozen, st.Frozen)
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
