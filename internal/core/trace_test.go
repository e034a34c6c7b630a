package core

import (
	"math/rand"
	"testing"

	"dps/internal/power"
)

// mixedTrace builds a steps×units demand matrix exercising every decision
// path: high-frequency flippers (sticky flag set and cleared), slow
// ramps (derivative classification up and down), bursty mostly-idle
// units (idle reversion), steady draws pinned at their cap (at-cap
// priority), noisy units, and a global quiet window that fires Algorithm
// 3's restoration. Deterministic for a seed.
func mixedTrace(steps, units int, seed int64) [][]power.Watts {
	rng := rand.New(rand.NewSource(seed))
	demand := make([][]power.Watts, steps)
	for t := range demand {
		row := make([]power.Watts, units)
		for u := range row {
			var d float64
			switch u % 5 {
			case 0: // high-frequency flipper
				if (t/3+u)%2 == 0 {
					d = 150
				} else {
					d = 20
				}
			case 1: // triangular ramp, phase-shifted per unit
				phase := (t + 7*u) % 80
				if phase < 40 {
					d = 30 + float64(phase)*3.25
				} else {
					d = 160 - float64(phase-40)*3.25
				}
			case 2: // mostly idle with bursts
				if (t+u)%50 < 10 {
					d = 140
				} else {
					d = 8
				}
			case 3: // steady heavy draw (pins at cap)
				d = 160
			default: // noisy moderate draw
				d = 70
			}
			d += rng.NormFloat64() * 2
			// Global quiet window: everything close to idle, so restore
			// (Algorithm 3) fires and caps reset to the constant cap.
			if t >= 300 && t < 312 {
				d = 4 + rng.Float64()
			}
			if d < 0 {
				d = 0
			}
			row[u] = power.Watts(d)
		}
		demand[t] = row
	}
	return demand
}

// runTrace drives one controller closed-loop over the demand trace: each
// unit draws min(demand, cap), like a RAPL socket. It returns the cap
// vector after every step plus the per-step stats.
func runTrace(t *testing.T, d *DPS, demand [][]power.Watts) ([]power.Vector, []RoundStats) {
	t.Helper()
	units := len(demand[0])
	capsOut := make([]power.Vector, len(demand))
	statsOut := make([]RoundStats, len(demand))
	caps := d.Caps().Clone()
	drawn := make(power.Vector, units)
	for step, row := range demand {
		for u := range drawn {
			drawn[u] = row[u]
			if drawn[u] > caps[u] {
				drawn[u] = caps[u]
			}
		}
		next, st := d.DecideStats(Snapshot{Power: drawn, Interval: 1})
		capsOut[step] = next.Clone()
		statsOut[step] = st
		copy(caps, next)
	}
	return capsOut, statsOut
}
