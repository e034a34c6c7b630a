// Package power defines the basic quantities shared by every part of the
// DPS reproduction: power in watts, energy in joules, the identity of a
// power-capping unit, and vectors of readings and caps exchanged between a
// cluster and a power manager.
//
// The paper manages power at the granularity of a "unit": the smallest part
// of a machine that supports independent power capping (a socket on the
// evaluation platform). All cluster-level arithmetic in this module works on
// per-unit vectors indexed by UnitID.
package power

import (
	"fmt"
	"math"
)

// Watts is instantaneous power. The paper's hardware reports socket power as
// a fixed-point value derived from RAPL energy counters; we keep float64 and
// quantize only at the RAPL and protocol layers.
type Watts float64

// Joules is accumulated energy.
type Joules float64

// Seconds is a duration in seconds. The control loop granularity dT is
// expressed in Seconds (default 1.0, matching the paper's one-second loop).
type Seconds float64

// UnitID identifies one power-capping unit (a socket in the paper's setup).
// IDs are dense indices assigned by the cluster: 0..NumUnits-1.
type UnitID int

// Reading is one power measurement for one unit, as delivered to the
// controller each timestep.
type Reading struct {
	Unit UnitID
	// Power is the (possibly noisy) measured average power over the last
	// interval.
	Power Watts
	// Interval is the measurement interval that produced Power.
	Interval Seconds
}

// Vector is a per-unit slice of watt values (caps, readings or demands),
// indexed by UnitID.
type Vector []Watts

// NewVector returns a Vector of n units, every entry set to v.
func NewVector(n int, v Watts) Vector {
	vec := make(Vector, n)
	for i := range vec {
		vec[i] = v
	}
	return vec
}

// Clone returns a copy of the vector.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// Sum returns the total watts across all units.
func (v Vector) Sum() Watts {
	var s Watts
	for _, w := range v {
		s += w
	}
	return s
}

// Max returns the largest entry (0 for an empty vector).
func (v Vector) Max() Watts {
	var m Watts
	for _, w := range v {
		if w > m {
			m = w
		}
	}
	return m
}

// Min returns the smallest entry (0 for an empty vector).
func (v Vector) Min() Watts {
	if len(v) == 0 {
		return 0
	}
	m := v[0]
	for _, w := range v[1:] {
		if w < m {
			m = w
		}
	}
	return m
}

// Clamp limits every entry to [lo, hi].
func (v Vector) Clamp(lo, hi Watts) {
	for i, w := range v {
		if w < lo {
			v[i] = lo
		} else if w > hi {
			v[i] = hi
		}
	}
}

// Caps reach devices in whole deciwatts (0.1 W): the wire carries a cap
// as the nearest deciwatt, and a controller delivers caps on that grid, so
// every budget check sums deciwatts. Grid point k is FromDeciwatts(k).

// FromDeciwatts returns k deciwatts in watts: the grid point k.
func FromDeciwatts(k int64) Watts { return Watts(float64(k) / 10) }

// Deciwatts returns w rounded to the nearest deciwatt, the value a device
// is programmed with; 0 for w ≤ 0.
func Deciwatts(w Watts) int64 {
	if w <= 0 {
		return 0
	}
	return int64(float64(float64(w)*10) + 0.5)
}

// FloorDeciwatts returns the largest k with FromDeciwatts(k) ≤ w, for a
// finite w: w floored onto the grid.
func FloorDeciwatts(w Watts) int64 {
	k := int64(float64(w) * 10)
	for FromDeciwatts(k) > w {
		k--
	}
	for FromDeciwatts(k+1) <= w {
		k++
	}
	return k
}

// SumDeciwatts returns the sum of v's entries as devices hold them, in
// deciwatts.
func (v Vector) SumDeciwatts() int64 {
	var s int64
	for _, w := range v {
		s += Deciwatts(w)
	}
	return s
}

// Budget describes the cluster-wide power envelope the manager must respect.
type Budget struct {
	// Total is the cluster-wide power limit (sum of caps must not exceed it).
	Total Watts
	// UnitMax is the hardware maximum cap per unit (TDP; spec_max_cap in
	// Algorithm 4).
	UnitMax Watts
	// UnitMin is the lowest cap the hardware accepts. RAPL refuses caps
	// below a platform floor; we default to a small positive value so no
	// unit is ever fully power-starved.
	UnitMin Watts
}

// ConstantCap returns the per-unit cap of the constant-allocation scheme:
// the total budget divided evenly among n units, clamped to hardware limits.
func (b Budget) ConstantCap(n int) Watts {
	if n <= 0 {
		return 0
	}
	c := b.Total / Watts(n)
	if c > b.UnitMax {
		c = b.UnitMax
	}
	if c < b.UnitMin {
		c = b.UnitMin
	}
	return c
}

// Validate reports whether the budget is self-consistent for n units.
func (b Budget) Validate(n int) error {
	switch {
	case n <= 0:
		return fmt.Errorf("power: budget for %d units", n)
	case b.Total <= 0:
		return fmt.Errorf("power: non-positive total budget %v", b.Total)
	case b.UnitMax <= 0:
		return fmt.Errorf("power: non-positive unit max %v", b.UnitMax)
	case b.UnitMin < 0:
		return fmt.Errorf("power: negative unit min %v", b.UnitMin)
	case b.UnitMin > b.UnitMax:
		return fmt.Errorf("power: unit min %v above unit max %v", b.UnitMin, b.UnitMax)
	case FromDeciwatts(FloorDeciwatts(b.UnitMax)) < b.UnitMin:
		return fmt.Errorf("power: no 0.1 W step between unit min %v and unit max %v", b.UnitMin, b.UnitMax)
	case Watts(n)*b.UnitMin > b.Total:
		return fmt.Errorf("power: %d units at min %v exceed total budget %v", n, b.UnitMin, b.Total)
	}
	return nil
}

// Respected reports whether the cap vector fits the budget: the sum of caps
// is at most Total (within eps to absorb float rounding) and every cap is
// within [UnitMin, UnitMax].
func (b Budget) Respected(caps Vector, eps Watts) bool {
	if caps.Sum() > b.Total+eps {
		return false
	}
	for _, c := range caps {
		if c < b.UnitMin-eps || c > b.UnitMax+eps {
			return false
		}
	}
	return true
}

// HMean returns the harmonic mean of xs. It is the paper's aggregate for
// performance across paired workloads. Zero or negative entries yield 0.
func HMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var inv float64
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		inv += 1 / x
	}
	return float64(len(xs)) / inv
}

// AbsDiff returns |a-b| in watts.
func AbsDiff(a, b Watts) Watts {
	return Watts(math.Abs(float64(a - b)))
}
