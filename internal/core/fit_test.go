package core

import (
	"math"
	"slices"
	"testing"
	"time"

	"dps/internal/power"
)

// gridFloor is the largest k with k/10 ≤ w, found by search from below:
// the test's own account of the grid, apart from power.FloorDeciwatts.
func gridFloor(w power.Watts) int64 {
	k := int64(math.Floor(float64(w)*10)) - 2
	for power.Watts(float64(k+1)/10) <= w {
		k++
	}
	return k
}

// TestFitExhaustive checks Fit on every case of a small scope: up to 4
// units (3 under -short), every health of every unit (3^N masks), caps and
// pins from a value set holding UnitMin, UnitMax, the constant cap, values
// off the grid and values out of bounds, under a coarse grid of budgets
// from infeasible to slack, for bounds on the grid and off it. In every
// case:
//
//   - the shortfall is Σ pins + Σ fresh ⌈UnitMin⌉ − ⌊10·budget⌋ when that
//     is positive and 0 otherwise, and with no shortfall the caps sum to
//     at most the budget, in deciwatts;
//   - every fresh cap is on the grid, in bounds and no higher than its
//     input's clamped grid floor, exactly that floor when the floors fit,
//     and with a shortfall at ⌈UnitMin⌉;
//   - a fit that had to cut left the caps summing to exactly the budget;
//   - every non-fresh cap is its pin, bit for bit;
//   - a second Fit changes nothing;
//   - a feasible input on the grid and in bounds comes back unchanged.
func TestFitExhaustive(t *testing.T) {
	maxUnits := 4
	if testing.Short() {
		maxUnits = 3
	}
	start := time.Now()
	cases := 0
	for _, bounds := range []power.Budget{
		{UnitMin: 10, UnitMax: 165},
		{UnitMin: 10.05, UnitMax: 164.97},
	} {
		lo, hi := gridFloor(bounds.UnitMin), gridFloor(bounds.UnitMax)
		if float64(lo)/10 < float64(bounds.UnitMin) {
			lo++
		}
		values := []power.Watts{bounds.UnitMin, bounds.UnitMax, 110, 57.25, 110.06, 164.99, 5, 170}
		for n := 1; n <= maxUnits; n++ {
			for _, per := range []power.Watts{9, 10, 10.05, 47.77, 110, 110.06, 165, 190} {
				b := bounds
				b.Total = per * power.Watts(n)
				cases += fitScope(t, n, b, values, lo, hi)
			}
		}
	}
	t.Logf("%d cases in %v", cases, time.Since(start))
}

// fitScope runs every case of n units under b: each unit is fresh with a
// cap from values, or stale or dead with a pin from values (its input cap
// then another value, so a fit that forgets the pin shows).
func fitScope(t *testing.T, n int, b power.Budget, values []power.Watts, lo, hi int64) int {
	t.Helper()
	limit := gridFloor(b.Total)
	options := 3 * len(values)
	caps, pins, health := make(power.Vector, n), make(power.Vector, n), make([]UnitHealth, n)
	in, again := make(power.Vector, n), make(power.Vector, n)
	want := make([]int64, n)
	idx := make([]int, n)
	cases := 0
	for {
		var floorSum, wantSum int64
		onGrid := true
		for u, i := range idx {
			health[u] = UnitHealth(i / len(values))
			v := values[i%len(values)]
			if health[u] == HealthFresh {
				caps[u], pins[u] = v, values[(i+1)%len(values)]
				want[u] = min(max(gridFloor(v), lo), hi)
				floorSum += lo
				wantSum += want[u]
				onGrid = onGrid && float64(want[u])/10 == float64(v)
			} else {
				caps[u], pins[u] = values[(i+3)%len(values)], v
				floorSum += power.Deciwatts(v)
				wantSum += power.Deciwatts(v)
			}
		}
		copy(in, caps)
		short := Fit(caps, pins, health, b)
		cases++
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("budget %v, bounds [%v, %v], health %v, caps %v, pins %v → %v (shortfall %d): "+format,
				append([]any{b.Total, b.UnitMin, b.UnitMax, health, in, pins, caps, short}, args...)...)
		}
		if want := max(floorSum-limit, 0); short != want {
			fail("shortfall %d dW, want %d", short, want)
		}
		var sum int64
		for u, c := range caps {
			if health[u] != HealthFresh {
				if math.Float64bits(float64(c)) != math.Float64bits(float64(pins[u])) {
					fail("non-fresh unit %d not at its pin", u)
				}
				sum += power.Deciwatts(c)
				continue
			}
			k := gridFloor(c)
			switch {
			case float64(k)/10 != float64(c):
				fail("unit %d off the grid", u)
			case k < lo || k > hi:
				fail("unit %d outside [%d, %d] dW", u, lo, hi)
			case k > want[u]:
				fail("unit %d above its input's grid floor %d dW", u, want[u])
			case wantSum <= limit && k != want[u]:
				fail("unit %d moved off its grid floor %d dW, which fits", u, want[u])
			case short > 0 && k != lo:
				fail("unit %d above UnitMin in a round short of budget", u)
			}
			sum += k
		}
		switch {
		case short == 0 && sum > limit:
			fail("caps sum to %d dW over the %d dW budget", sum, limit)
		case short == 0 && wantSum > limit && sum != limit:
			fail("a cut left %d dW, not the %d dW budget", sum, limit)
		case onGrid && wantSum <= limit && !slices.Equal(caps, in) && !slices.ContainsFunc(health, func(h UnitHealth) bool { return h != HealthFresh }):
			fail("a feasible input on the grid moved")
		}
		copy(again, caps)
		if s := Fit(again, pins, health, b); s != short || !slices.Equal(again, caps) {
			fail("a second fit gave %v (shortfall %d)", again, s)
		}

		u := 0
		for ; u < n; u++ {
			if idx[u]++; idx[u] < options {
				break
			}
			idx[u] = 0
		}
		if u == n {
			return cases
		}
	}
}
