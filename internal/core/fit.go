package core

import (
	"math/bits"

	"dps/internal/power"
)

// Fit is the one place a cap vector is fitted to its budget, in whole
// deciwatts, the grid devices enforce caps on. In place, in order, it
//
//  1. pins every non-fresh unit at pinned[u] (health nil: none is);
//  2. clamps every fresh unit to [⌈UnitMin⌉, ⌊UnitMax⌋] on the grid and
//     floors it onto the grid;
//  3. if the caps then sum, in deciwatts (a pin counted as the nearest
//     deciwatt, as the wire carries it), to more than ⌊10·Total⌋, takes the
//     excess from the fresh units' headroom above UnitMin: each gives
//     ⌊excess·headroom_u / headroom⌋ deciwatts, and the remainder comes
//     off one deciwatt at a time in ascending unit order;
//  4. returns the excess the headroom could not cover, 0 when the caps fit.
//
// Fit is idempotent, and leaves a vector that already fits, on the grid
// and in bounds, unchanged.
func Fit(caps, pinned power.Vector, health []UnitHealth, b power.Budget) (shortfallDW int64) {
	lo, hi := gridBounds(b)
	loW, hiW := power.FromDeciwatts(lo), power.FromDeciwatts(hi)
	fresh := func(u int) bool { return health == nil || health[u] == HealthFresh }
	var sum, headroom int64
	for u, c := range caps {
		if !fresh(u) {
			caps[u] = pinned[u]
			sum += power.Deciwatts(pinned[u])
			continue
		}
		k := lo
		switch {
		case c >= hiW:
			k = hi
		case c > loW:
			k = power.FloorDeciwatts(c)
		}
		caps[u] = power.FromDeciwatts(k)
		sum += k
		headroom += k - lo
	}
	excess := sum - power.FloorDeciwatts(b.Total)
	if excess <= 0 {
		return 0
	}
	if excess >= headroom {
		for u := range caps {
			if fresh(u) {
				caps[u] = loW
			}
		}
		return excess - headroom
	}
	left := excess
	for u, c := range caps {
		if fresh(u) && c > loW {
			k := power.Deciwatts(c)
			// excess < headroom, so the quotient is below k−lo and fits.
			h, l := bits.Mul64(uint64(excess), uint64(k-lo))
			give, _ := bits.Div64(h, l, uint64(headroom))
			caps[u] = power.FromDeciwatts(k - int64(give))
			left -= int64(give)
		}
	}
	// Every unit with headroom kept at least one deciwatt of it, and fewer
	// deciwatts are left than there are such units.
	for u := 0; left > 0; u++ {
		if fresh(u) && caps[u] > loW {
			caps[u] = power.FromDeciwatts(power.Deciwatts(caps[u]) - 1)
			left--
		}
	}
	return 0
}

// gridBounds returns the unit bounds on the grid: ⌈UnitMin⌉ and
// ⌊UnitMax⌋ in deciwatts.
func gridBounds(b power.Budget) (lo, hi int64) {
	lo, hi = power.FloorDeciwatts(b.UnitMin), power.FloorDeciwatts(b.UnitMax)
	if power.FromDeciwatts(lo) < b.UnitMin {
		lo++
	}
	return lo, hi
}

// gridConstantCap is the constant cap on the grid: ⌊10·Total/n⌋
// deciwatts, within the grid bounds. At it the n caps sum to no more than
// ⌊10·Total⌋, so the constant allocation fits as devices hold it.
func gridConstantCap(b power.Budget, n int) power.Watts {
	lo, hi := gridBounds(b)
	return power.FromDeciwatts(min(max(power.FloorDeciwatts(b.Total)/int64(n), lo), hi))
}
