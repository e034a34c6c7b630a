package engine_test

import (
	"math"
	"testing"

	"dps/internal/baseline"
	"dps/internal/core"
	"dps/internal/engine"
	"dps/internal/power"
	"dps/internal/stateless"
	"dps/internal/telemetry"
)

// Script layout: byte 0 sizes the fleet (8–128 units, in agents of 8),
// then every 4 bytes are one round: op, group, value, arg.
//
//	op&0x01      every unit reports value (a dense round); otherwise only
//	             agent `group` does
//	(op>>1)&3    agent arg&15 turns fresh (1), stale (2) or dead (3)
//	op&0x08      the budget moves to value's share of [10, 210] W a unit,
//	             in a round where every unit is fresh
//	op&0x10      agent arg>>4's push fails, if that agent is not fresh
//
// A unit reports value·0.75 W plus a fixed offset of u%7 W. Two rules keep
// the script inside the contract every round is checked against. Budget
// cuts land only in all-fresh rounds: a pinned cap was delivered under the
// budget of its round, and a later cut can leave nothing to rescale. A
// fresh agent always takes its push: two agents enforcing caps delivered
// in different rounds can sum past any budget, and no delivery undoes
// what a node enforces.
const (
	agentUnits = 8
	maxRounds  = 64
)

var fuzzBudget = power.Budget{UnitMax: 165, UnitMin: 10}

// script builds fuzz input: the fleet byte, then rounds of 4 bytes.
func script(units byte, rounds ...[4]byte) []byte {
	b := []byte{units}
	for _, r := range rounds {
		b = append(b, r[:]...)
	}
	return b
}

// FuzzRoundEngine drives the round engine the way dpsd, its standby and
// the simulator do — Decide, Round.Fill, Commit with a pushed mask —
// through scripted readings, health flaps, push failures and budget
// moves, for a DPS engine at SparseRefreshEvery 1 and 64 and a health-blind
// SLURM engine (whose non-fresh units only delivery pins). Every round:
// the two DPS engines deliver the same caps bitwise; every engine's
// delivered sum is within its budget up to core.SumDrift and every cap
// within [UnitMin, UnitMax]; the filled record counts no pin and no
// provenance violation; and what agents enforce is what was delivered.
func FuzzRoundEngine(f *testing.F) {
	var healthy, flap, step [][4]byte
	for r := byte(0); r < 24; r++ {
		healthy = append(healthy, [4]byte{r & 1, r, 40 + 7*r, 0})
	}
	// Agents 0 and 1 run hot; agent 2 idles, goes stale — the health-blind
	// policy hands its watts to the others, so delivery must pin and
	// rescale — then dead with its pushes failing, then rejoins.
	for r := byte(0); r < 24; r++ {
		op, group, value, arg := byte(0), r%2, byte(200), byte(2)
		switch {
		case r == 0:
			op = 0x01
		case r == 3:
			group, value = 2, 40
		case r == 4:
			op = 2 << 1
		case r == 8:
			op = 3<<1 | 0x10
			arg |= 2 << 4
		case r > 8 && r < 14:
			op = 0x10
			arg = 2 << 4
		case r == 14:
			op = 1 << 1
		}
		flap = append(flap, [4]byte{op, group, value, arg})
	}
	// Dense rounds, a budget cut to a fifth of the range, then back up.
	for r := byte(0); r < 24; r++ {
		v := 150 - 3*r
		switch r {
		case 8:
			step = append(step, [4]byte{0x01 | 0x08, 0, 50, 0})
			continue
		case 16:
			step = append(step, [4]byte{0x01 | 0x08, 0, 200, 0})
			continue
		}
		step = append(step, [4]byte{0x01, r, v, 0})
	}
	f.Add(script(32, healthy...))
	f.Add(script(13, flap...))
	f.Add(script(120, step...))
	f.Fuzz(runScript)
}

type run struct {
	name string
	eng  *engine.Engine
	dps  *core.DPS // nil for the SLURM engine
	rec  telemetry.Round
}

func runScript(t *testing.T, data []byte) {
	if len(data) == 0 {
		return
	}
	units := agentUnits + int(data[0])%121
	agents := (units + agentUnits - 1) / agentUnits
	budget := fuzzBudget
	budget.Total = power.Watts(units) * 110

	var runs []*run
	for _, refresh := range []int{1, 64} {
		cfg := core.DefaultConfig(units, budget)
		cfg.SparseRefreshEvery = refresh
		d, err := core.NewDPS(cfg)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, &run{name: "DPS", eng: engine.New(d), dps: d})
	}
	slurm, err := baseline.NewSLURM(units, budget, stateless.DefaultConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	runs = append(runs, &run{name: "SLURM", eng: engine.New(slurm)})

	readings := make(power.Vector, units)
	dirty := core.NewDirtyMask(units)
	for u := range readings {
		dirty.Mark(u)
	}
	health := make([]core.UnitHealth, units)
	pushed := make([]uint64, (units+63)/64)
	report := func(u int, value byte) {
		readings[u] = power.Watts(float64(value)*0.75 + float64(u%7))
		dirty.Mark(u)
	}
	agentRange := func(a int) (int, int) { return a * agentUnits, min((a+1)*agentUnits, units) }

	for round, b := 1, data[1:]; len(b) >= 4 && round <= maxRounds; round, b = round+1, b[4:] {
		op, group, value, arg := b[0], int(b[1])%agents, b[2], b[3]
		if op&0x01 != 0 {
			for u := range readings {
				report(u, value)
			}
		} else {
			lo, hi := agentRange(group)
			for u := lo; u < hi; u++ {
				report(u, value)
			}
		}
		if h := (op >> 1) & 3; h != 0 {
			lo, hi := agentRange(int(arg&15) % agents)
			for u := lo; u < hi; u++ {
				health[u] = core.UnitHealth(h - 1)
			}
		}
		allFresh := true
		for _, h := range health {
			allFresh = allFresh && h == core.HealthFresh
		}
		if op&0x08 != 0 && allFresh {
			budget.Total = power.Watts(units) * (10 + 200*power.Watts(value)/255)
			for _, r := range runs {
				if r.dps != nil {
					if err := r.dps.SetTotalBudget(budget.Total); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		for i := range pushed {
			pushed[i] = math.MaxUint64
		}
		if tail := units & 63; tail != 0 {
			pushed[len(pushed)-1] = 1<<tail - 1
		}
		if op&0x10 != 0 {
			if lo, hi := agentRange(int(arg>>4) % agents); health[lo] != core.HealthFresh {
				for u := lo; u < hi; u++ {
					pushed[u>>6] &^= 1 << (u & 63)
				}
			}
		}

		snap := core.Snapshot{Power: readings, Interval: 1, Health: health, Dirty: dirty}
		var want power.Vector
		for _, r := range runs {
			d, _ := r.eng.Decide(snap)
			r.rec.Reset()
			r.rec.Fill(d)
			if r.dps != nil {
				if want == nil {
					want = d.Delivered.Clone()
				}
				for u, c := range d.Delivered {
					if math.Float64bits(float64(c)) != math.Float64bits(float64(want[u])) {
						t.Fatalf("round %d unit %d: refresh 64 delivered %v, refresh 1 %v", round, u, c, want[u])
					}
				}
			}
			b := fuzzBudget
			b.Total = d.Budget
			if sum, drift := d.Delivered.Sum(), core.SumDrift(units, b.Total); sum > b.Total+drift {
				t.Fatalf("round %d %s: delivered %v W over a %v W budget", round, r.name, sum, b.Total)
			}
			for u, c := range d.Delivered {
				if c < b.UnitMin || c > b.UnitMax {
					t.Fatalf("round %d %s unit %d: cap %v outside [%v, %v]", round, r.name, u, c, b.UnitMin, b.UnitMax)
				}
			}
			if r.rec.PinViolations != 0 || r.rec.ProvViolations != 0 {
				t.Fatalf("round %d %s: %d pin and %d provenance violations", round, r.name, r.rec.PinViolations, r.rec.ProvViolations)
			}
			r.eng.Commit(d.Delivered, pushed)
			for u := range r.eng.Enforced {
				if r.eng.Enforced[u] != r.eng.Prev[u] {
					t.Fatalf("round %d %s unit %d: agent enforces %v, delivered %v", round, r.name, u, r.eng.Enforced[u], r.eng.Prev[u])
				}
			}
		}
		dirty.Reset()
	}
}
