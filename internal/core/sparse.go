package core

import (
	"fmt"
	"math/bits"

	"dps/internal/power"
)

// This file holds the per-unit stages of a decision round: the dirty-set
// intake, the word-mask Kalman/history walker, and the word-mask
// classification walker. They are the only per-unit loops in the
// controller. The exactness contract — caps bitwise identical to
// processing every unit every round (SparseRefreshEvery: 1), for any
// input sequence — is documented in DESIGN.md §13; the short version is
// that a unit is skipped only when skipping is provably a bitwise no-op:
//
//   - its reading is unchanged (dirty bit clear, backed by the daemon's
//     ingest marking or by direct comparison against lastVal),
//   - its Kalman filter is at a bitwise fixed point (kalman.StepSettled),
//   - its history ring is settled: full, uniform at exactly (est, dt),
//     and closed under Push's and recompute's float arithmetic
//     (history.Ring.SettledFor), and
//   - its classification inputs are unchanged (settled ring, unchanged
//     reading, cap untouched since its last classification) — cached as
//     priority.FrozenStats for the rounds where only the cap moved.
//
// Elided ring pushes are accounted via Ring.AdvancePushes so the
// periodic recompute fires on the same round as it would unskipped.

// beginSparseRound loads the round's dirty set, maintains the settle
// bookkeeping that depends on round inputs (dt changes, non-fresh
// units), clears the round-mover scratch mask, and returns the forced
// refresh block as a half-open unit range.
func (d *DPS) beginSparseRound(snap Snapshot, dt power.Seconds, health []UnitHealth, stats *RoundStats) (rlo, rhi int) {
	units := d.cfg.Units
	// A settle certificate is specific to the interval it was issued
	// under (the ring must be uniform at exactly dt); a different
	// interval voids all of them.
	if dt != d.lastDT {
		clear(d.settledW)
		d.lastDT = dt
	}
	if snap.Dirty != nil {
		if snap.Dirty.Len() != units {
			panic(fmt.Sprintf("core: dirty mask for %d units, controller has %d", snap.Dirty.Len(), units))
		}
		copy(d.dirtyW, snap.Dirty.Words())
		stats.DirtyUnits = snap.Dirty.Count()
	} else {
		// No provenance for the snapshot: derive the changed set by
		// comparing against the last materialized values. O(N) compares,
		// but still cheaper than processing every unit — and it keeps the
		// skip contract exact for callers (sim, tests) that never build a
		// mask.
		dirty := 0
		for wi := range d.dirtyW {
			d.dirtyW[wi] = changedWord(snap.Power, d.lastVal, wi<<6)
			dirty += bits.OnesCount64(d.dirtyW[wi])
		}
		stats.DirtyUnits = dirty
	}
	clear(d.roundMovedW)
	clear(d.settledNowW)
	// The refresh block: round r forces block (r−1) mod E through full
	// processing, so every unit is re-verified against its live ring at
	// least once per E rounds.
	k := int((d.steps - 1) % uint64(d.refreshEvery))
	rlo, rhi = blockRange(k, d.refreshEvery, units)
	if health != nil {
		// Non-fresh units receive no push skipped or not, so their
		// elided-push accounting must not cover these rounds: pin
		// lastStep to now. A dirty non-fresh unit cannot happen through
		// the daemon (an accepted report makes a unit fresh in the same
		// snapshot), but if a caller hands us one, void its certificate
		// — clearing is always safe.
		for u, h := range health {
			if h != HealthFresh {
				d.lastStep[u] = d.steps
				wi, bit := u>>6, uint64(1)<<uint(u&63)
				if d.dirtyW[wi]&bit != 0 {
					d.settledW[wi] &^= bit
				}
			}
		}
	}
	return rlo, rhi
}

// blockRange returns the half-open unit range [lo, hi) of block k under a
// balanced partition of n units into p blocks.
func blockRange(k, p, n int) (lo, hi int) {
	return k * n / p, (k + 1) * n / p
}

// WordMaskForRange returns the bits of the mask word covering units
// [base, base+64) that fall inside the half-open unit range [lo, hi).
func WordMaskForRange(lo, hi, base int) uint64 {
	if hi <= base || lo >= base+64 {
		return 0
	}
	s := lo - base
	if s < 0 {
		s = 0
	}
	e := hi - base
	if e > 64 {
		e = 64
	}
	m := ^uint64(0) >> uint(64-(e-s))
	return m << uint(s)
}

// validWord returns the in-range unit bits of mask word wi.
func (d *DPS) validWord(wi int) uint64 {
	if wi == d.nWords-1 {
		return d.tailMask
	}
	return ^uint64(0)
}

// sparseKalmanWords runs the Kalman/history stage over the unit masks:
// every dirty, unsettled, or refresh-due fresh unit gets the full
// treatment (filter step, ring push) plus settle detection; everything
// else is skipped under the bitwise no-op contract. It returns the number
// of units processed.
func (d *DPS) sparseKalmanWords(snapP power.Vector, health []UnitHealth, dt power.Seconds, rlo, rhi int) (processed int) {
	for wi := 0; wi < d.nWords; wi++ {
		valid := d.validWord(wi)
		base := wi << 6
		work := (d.dirtyW[wi] | ^d.settledW[wi] | WordMaskForRange(rlo, rhi, base)) & valid
		for w := work; w != 0; w &= w - 1 {
			u := base + bits.TrailingZeros64(w)
			if health != nil && health[u] != HealthFresh {
				continue
			}
			bit := uint64(1) << uint(u&63)
			p := snapP[u]
			ring := d.hist.Unit(power.UnitID(u))
			wasSettled := d.settledW[wi]&bit != 0
			if wasSettled {
				// Catch up the recompute schedule for the pushes elided
				// while the unit was settled (each one a proven no-op).
				if elided := d.steps - 1 - d.lastStep[u]; elided > 0 {
					ring.AdvancePushes(int(elided))
				}
			}
			est := p
			fixed := true
			if !d.cfg.DisableKalman {
				est, fixed = d.filters.StepSettled(power.UnitID(u), p)
			}
			ring.Push(est, dt)
			d.lastStep[u] = d.steps
			processed++
			if p == d.lastVal[u] && fixed && ring.SettledFor(est, dt) {
				if !wasSettled {
					d.settledW[wi] |= bit
					d.settledNowW[wi] |= bit
					d.frozen[u] = d.priorityM.Freeze(ring)
				}
				// Already settled: the ring is unchanged, so the frozen
				// stats are still exact.
			} else {
				d.settledW[wi] &^= bit
			}
			d.lastVal[u] = p
		}
	}
	return processed
}

// sparseClassifyWords runs the classification stage over the unit masks.
// A unit is reclassified when any input can have changed: dirty reading,
// ring unsettled or settled by this round's push, cap moved last round
// (by any stage) or this round (by the MIMD pass), or refresh-due.
// Settled off-refresh units classify from their FrozenStats without
// touching the ring; refresh-due units classify off the live ring as a
// self-audit. It returns the number of priority
// flips and the net change in the high-priority count.
func (d *DPS) sparseClassifyWords(snapP power.Vector, health []UnitHealth, rlo, rhi int) (flips, highDelta int) {
	prio := d.priorityM.Priorities()
	for wi := 0; wi < d.nWords; wi++ {
		base := wi << 6
		refresh := WordMaskForRange(rlo, rhi, base)
		work := (d.dirtyW[wi] | ^d.settledW[wi] | d.settledNowW[wi] | d.capMovedW[wi] | d.roundMovedW[wi] | refresh) & d.validWord(wi)
		for w := work; w != 0; w &= w - 1 {
			u := base + bits.TrailingZeros64(w)
			if health != nil && health[u] != HealthFresh {
				continue
			}
			bit := uint64(1) << uint(u&63)
			before := prio[u]
			if d.settledW[wi]&bit != 0 && refresh&bit == 0 {
				d.priorityM.UpdateUnitFrozen(power.UnitID(u), d.frozen[u], snapP[u], d.caps[u], d.constantCap)
			} else {
				d.priorityM.UpdateUnit(power.UnitID(u), d.hist.Unit(power.UnitID(u)), snapP[u], d.caps[u], d.constantCap)
			}
			if after := prio[u]; after != before {
				flips++
				if after {
					highDelta++
				} else {
					highDelta--
				}
			}
		}
	}
	return flips, highDelta
}
