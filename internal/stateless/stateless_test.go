package stateless

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dps/internal/power"
)

var testBudget = power.Budget{Total: 440, UnitMax: 165, UnitMin: 10}

func mustNew(t *testing.T, seed int64) *Module {
	t.Helper()
	m, err := New(DefaultConfig(), seed)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	bad := []Config{
		{IncThreshold: 0, DecThreshold: 0.8, IncFactor: 1.1, DecFactor: 0.9},
		{IncThreshold: 1.2, DecThreshold: 0.8, IncFactor: 1.1, DecFactor: 0.9},
		{IncThreshold: 0.95, DecThreshold: -0.1, IncFactor: 1.1, DecFactor: 0.9},
		{IncThreshold: 0.95, DecThreshold: 0.96, IncFactor: 1.1, DecFactor: 0.9},
		{IncThreshold: 0.95, DecThreshold: 0.8, IncFactor: 1.0, DecFactor: 0.9},
		{IncThreshold: 0.95, DecThreshold: 0.8, IncFactor: 1.1, DecFactor: 1.0},
		{IncThreshold: 0.95, DecThreshold: 0.8, IncFactor: 1.1, DecFactor: 0},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("Validate accepted %+v", cfg)
		}
	}
	if _, err := New(Config{}, 1); err == nil {
		t.Error("New accepted the zero config")
	}
}

func TestDecreaseIdleUnit(t *testing.T) {
	m := mustNew(t, 1)
	caps := power.Vector{110, 110}
	// Unit 0 draws 40 W, well under 80 % of 110; unit 1 is at cap.
	m.Apply(power.Vector{40, 110}, caps, testBudget)
	if caps[0] >= 110 {
		t.Errorf("idle unit's cap %v not decreased", caps[0])
	}
	if caps[0] < 40 {
		t.Errorf("cap %v cut below the unit's current power 40", caps[0])
	}
	// Multiplicative: one step of DecFactor, not further.
	want := power.Watts(110 * DefaultConfig().DecFactor)
	if caps[0] != want {
		t.Errorf("cap after one decrease = %v, want %v", caps[0], want)
	}
}

func TestDecreaseStopsAtPower(t *testing.T) {
	m := mustNew(t, 1)
	caps := power.Vector{50}
	budget := power.Budget{Total: 165, UnitMax: 165, UnitMin: 10}
	// Power 45 sits between the bands: above 0.8·50 = 40 (no decrease) and
	// below 0.95·50 = 47.5 (no increase).
	m.Apply(power.Vector{45}, caps, budget)
	if caps[0] != 50 {
		t.Errorf("cap moved to %v despite power within the dead band", caps[0])
	}
	// Power 30 → cut to max(30, 0.85·50 = 42.5).
	m.Apply(power.Vector{30}, caps, budget)
	if caps[0] != 42.5 {
		t.Errorf("cap = %v, want 42.5", caps[0])
	}
	// Deep idle converges into the stable band [power, power/DecThreshold]:
	// once the cap is within 25 % of the power, the dec condition stops
	// firing. This band is load-bearing — it is the visible headroom that
	// lets DPS's priority module see a capped unit's demand rise.
	for i := 0; i < 20; i++ {
		m.Apply(power.Vector{30}, caps, budget)
	}
	if caps[0] < 30 || caps[0] > 30/power.Watts(DefaultConfig().DecThreshold)+1e-9 {
		t.Errorf("cap converged to %v, want within [30, %v]", caps[0], 30/DefaultConfig().DecThreshold)
	}
}

func TestDecreaseRespectsUnitMin(t *testing.T) {
	m := mustNew(t, 1)
	caps := power.Vector{12}
	for i := 0; i < 5; i++ {
		m.Apply(power.Vector{0}, caps, testBudget)
		if caps[0] < testBudget.UnitMin {
			t.Fatalf("cap %v fell below UnitMin %v", caps[0], testBudget.UnitMin)
		}
	}
	if caps[0] != testBudget.UnitMin {
		t.Errorf("cap = %v after repeated zero-power steps, want UnitMin %v", caps[0], testBudget.UnitMin)
	}
}

func TestIncreaseAtCapUnit(t *testing.T) {
	m := mustNew(t, 1)
	caps := power.Vector{110, 110}
	// Unit 0 pinned at its cap; budget has headroom (440−220).
	m.Apply(power.Vector{110, 90}, caps, testBudget)
	want := power.Watts(110 * DefaultConfig().IncFactor)
	if caps[0] != want {
		t.Errorf("capped unit raised to %v, want %v", caps[0], want)
	}
	if caps[1] != 110 {
		t.Errorf("uncapped unit's cap moved to %v", caps[1])
	}
}

func TestIncreaseLimitedByBudget(t *testing.T) {
	m := mustNew(t, 1)
	budget := power.Budget{Total: 222, UnitMax: 165, UnitMin: 10}
	caps := power.Vector{110, 110}
	// Both at cap; only 2 W of headroom exist in total.
	m.Apply(power.Vector{110, 110}, caps, budget)
	if got := caps.Sum(); got > budget.Total+1e-9 {
		t.Errorf("caps sum %v exceeds budget %v", got, budget.Total)
	}
}

func TestIncreaseRespectsUnitMax(t *testing.T) {
	m := mustNew(t, 1)
	budget := power.Budget{Total: 400, UnitMax: 165, UnitMin: 10}
	caps := power.Vector{160}
	m.Apply(power.Vector{160}, caps, budget)
	if caps[0] != 165 {
		t.Errorf("cap = %v, want clamped to UnitMax 165", caps[0])
	}
}

func TestDeterministicForSeed(t *testing.T) {
	run := func(seed int64) power.Vector {
		m, err := New(DefaultConfig(), seed)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(99))
		caps := power.NewVector(8, 55)
		budget := power.Budget{Total: 8 * 55, UnitMax: 165, UnitMin: 10}
		for i := 0; i < 50; i++ {
			pw := make(power.Vector, 8)
			for u := range pw {
				pw[u] = power.Watts(rng.Float64() * 165)
			}
			m.Apply(pw, caps, budget)
		}
		return caps
	}
	a, b := run(7), run(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged: %v vs %v", a, b)
		}
	}
}

// The MIMD step never violates the budget and never leaves the hardware
// range, from any starting state the controller could reach.
func TestBudgetInvariantProperty(t *testing.T) {
	m, err := New(DefaultConfig(), 3)
	if err != nil {
		t.Fatal(err)
	}
	budget := power.Budget{Total: 440, UnitMax: 165, UnitMin: 10}
	f := func(seed int64, steps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		caps := power.Vector{110, 110, 110, 110}
		for s := 0; s < int(steps%40)+1; s++ {
			pw := make(power.Vector, 4)
			for u := range pw {
				pw[u] = power.Watts(rng.Float64() * 165)
			}
			m.Apply(pw, caps, budget)
			if !budget.Respected(caps, 1e-6) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestApplyPanicsOnSizeMismatch(t *testing.T) {
	m := mustNew(t, 1)
	defer func() {
		if recover() == nil {
			t.Error("Apply with mismatched sizes did not panic")
		}
	}()
	m.Apply(power.Vector{1}, power.Vector{1, 2}, testBudget)
}

func TestRandomOrderCoversAllUnits(t *testing.T) {
	// With scarce leftover budget, the random visiting order must not
	// systematically favour low indices: over many steps every unit should
	// receive raises.
	m := mustNew(t, 5)
	budget := power.Budget{Total: 403, UnitMax: 165, UnitMin: 10}
	raised := make([]int, 4)
	for trial := 0; trial < 200; trial++ {
		caps := power.Vector{100, 100, 100, 100}
		before := caps.Clone()
		m.Apply(power.Vector{100, 100, 100, 100}, caps, budget)
		for u := range caps {
			if caps[u] > before[u] {
				raised[u]++
			}
		}
	}
	for u, n := range raised {
		if n == 0 {
			t.Errorf("unit %d never received a raise in 200 scarce-budget steps", u)
		}
	}
}

// TestApplyMaskedMatchesApply is the masked decrease pass's exactness
// gate: with a visit mask built exactly as the contract allows — a unit
// is revisited when its reading changed or its cap moved in the previous
// step — ApplyMasked must leave bitwise the same caps as Apply, round
// after round, with the PRNG streams aligned. The cached sum is supplied
// on alternate rounds so both avail computations run.
func TestApplyMaskedMatchesApply(t *testing.T) {
	const units = 70 // not a multiple of 64: exercises the tail word
	budget := power.Budget{Total: units * 55, UnitMax: 165, UnitMin: 10}
	full, masked := mustNew(t, 7), mustNew(t, 7)
	capsF, capsM := power.NewVector(units, 55), power.NewVector(units, 55)
	before := make(power.Vector, units)
	visit := make([]uint64, (units+63)/64)
	for i := range visit {
		visit[i] = ^uint64(0) // first step: every unit is new
	}
	rng := rand.New(rand.NewSource(99))
	pw := make(power.Vector, units)
	for step := 0; step < 400; step++ {
		for u := range pw {
			if step == 0 || rng.Intn(4) == 0 {
				pw[u] = power.Watts(rng.Float64() * 165)
				visit[u>>6] |= 1 << uint(u&63)
			}
		}
		copy(before, capsM)
		full.Apply(pw, capsF, budget)
		masked.ApplyMasked(pw, capsM, budget, visit, capsM.Sum(), step%2 == 0)
		clear(visit)
		for u := range capsF {
			if capsF[u] != capsM[u] {
				t.Fatalf("step %d unit %d: masked cap %v, full cap %v", step, u, capsM[u], capsF[u])
			}
			if capsM[u] != before[u] {
				visit[u>>6] |= 1 << uint(u&63)
			}
		}
	}
}

// drawMixed takes one draw from r through a path picked by i, cycling
// through every way rand.Rand reaches its source: Int63 and Uint64
// directly, Intn across the 31-bit/63-bit split, Float64, and Shuffle
// (the only path production code takes — shuffleOrder). It returns a
// digest of what was drawn.
func drawMixed(r *rand.Rand, i int, perm []int) uint64 {
	switch i % 6 {
	case 0:
		return uint64(r.Int63())
	case 1:
		return r.Uint64()
	case 2:
		return uint64(r.Intn(1000 + i%977))
	case 3:
		return uint64(r.Intn(1<<40 + i))
	case 4:
		return math.Float64bits(r.Float64())
	}
	r.Shuffle(len(perm), func(a, b int) { perm[a], perm[b] = perm[b], perm[a] })
	var h uint64
	for _, v := range perm {
		h = h*31 + uint64(v)
	}
	return h
}

var sourceSeeds = []int64{0, 1, -1, -987654321, 1<<32 + 12345, math.MaxInt64, 20230607}

// TestSourceMatchesMathRand pins the fact snapshots rest on: the owned
// register is math/rand's generator, draw for draw, whatever path
// rand.Rand takes to it — so caps decided before this source existed
// keep their meaning.
func TestSourceMatchesMathRand(t *testing.T) {
	const draws = 1_200_000
	for _, seed := range sourceSeeds {
		src := &source{}
		src.Seed(seed)
		got, want := rand.New(src), rand.New(rand.NewSource(seed))
		gotPerm, wantPerm := make([]int, 37), make([]int, 37)
		for i := range gotPerm {
			gotPerm[i], wantPerm[i] = i, i
		}
		for i := 0; src.draws < draws; i++ {
			if g, w := drawMixed(got, i, gotPerm), drawMixed(want, i, wantPerm); g != w {
				t.Fatalf("seed %d: call %d (path %d, %d advances): got %#x, math/rand %#x", seed, i, i%6, src.draws, g, w)
			}
		}
		if src.tap != TapAt(src.draws) {
			t.Fatalf("seed %d: tap %d after %d draws, TapAt says %d", seed, src.tap, src.draws, TapAt(src.draws))
		}
	}
}

// TestRegisterRestoreContinuesStream exports the register at the draw
// counts where an off-by-one in the position would show — 0, 1, one
// short of a full turn, a full turn, one past it — and mid-stream, and
// restores it two ways: into a module seeded otherwise (the register
// alone must carry the stream), and at a draw count a whole number of
// turns later (restore cost and outcome do not depend on the donor's
// age). Each must continue the donor's stream bit for bit.
func TestRegisterRestoreContinuesStream(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, seed := range sourceSeeds {
		for _, at := range []uint64{0, 1, RegisterLen - 1, RegisterLen, RegisterLen + 1, uint64(2000 + rng.Intn(100_000))} {
			donor := mustNew(t, seed)
			for donor.RNGDraws() < at {
				donor.src.Uint64()
			}
			var reg [RegisterLen]uint64
			if tap := donor.ExportRegister(&reg); tap != TapAt(at) {
				t.Fatalf("seed %d: exported tap %d at %d draws, TapAt says %d", seed, tap, at, TapAt(at))
			}
			aged := at + RegisterLen<<50
			fromReg, old := mustNew(t, seed+1), mustNew(t, seed+2)
			fromReg.RestoreRegister(&reg, at)
			old.RestoreRegister(&reg, aged)
			for i := 0; i < 3*RegisterLen; i++ {
				want := donor.rng.Int63n(1 << 50)
				if a, b := fromReg.rng.Int63n(1<<50), old.rng.Int63n(1<<50); a != want || b != want {
					t.Fatalf("seed %d, restored at %d: draw %d is %d (register) / %d (aged), donor drew %d", seed, at, i, a, b, want)
				}
			}
			if fromReg.RNGDraws() != donor.RNGDraws() || old.RNGDraws()-aged != donor.RNGDraws()-at {
				t.Fatalf("seed %d: draw counts after restore at %d: %d and %d, donor %d", seed, at, fromReg.RNGDraws(), old.RNGDraws(), donor.RNGDraws())
			}
		}
	}
}
