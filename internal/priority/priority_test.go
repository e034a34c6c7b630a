package priority

import (
	"testing"

	"dps/internal/history"
	"dps/internal/power"
)

const constantCap = power.Watts(110)

// harness drives one unit through a power sequence and returns the module
// state afterwards. caps default to a value that never triggers the
// at-cap check unless the test opts in.
type harness struct {
	t    *testing.T
	m    *Module
	hist *history.Set
	caps power.Vector
	pow  power.Vector
}

func newHarness(t *testing.T, cfg Config, units int) *harness {
	t.Helper()
	m, err := New(cfg, units)
	if err != nil {
		t.Fatal(err)
	}
	return &harness{
		t:    t,
		m:    m,
		hist: history.NewSet(units, 20),
		caps: power.NewVector(units, 165),
		pow:  power.NewVector(units, 0),
	}
}

// step feeds one estimated power sample for unit 0 and updates.
func (h *harness) step(p power.Watts) []bool {
	h.t.Helper()
	h.hist.Push(0, p, 1)
	h.pow[0] = p
	return h.update()
}

// update reclassifies every unit off its live ring, as a refresh round
// does, and returns the module's priority flags.
func (h *harness) update() []bool {
	for u := range h.pow {
		id := power.UnitID(u)
		h.m.UpdateUnit(id, h.hist.Unit(id), h.pow[u], h.caps[u], constantCap)
	}
	return h.m.Priorities()
}

func TestValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.DerivIncThreshold = 0 },
		func(c *Config) { c.DerivDecThreshold = 1 },
		func(c *Config) { c.StdThreshold = -1 },
		func(c *Config) { c.PeakProminence = 0 },
		func(c *Config) { c.PeakCountThreshold = 0 },
		func(c *Config) { c.DerivWindow = 1 },
		func(c *Config) { c.MinSamples = 1 },
		func(c *Config) { c.AtCapFraction = 1.5 },
		func(c *Config) { c.IdleRevertFraction = -0.1 },
	}
	for i, mut := range mutations {
		cfg := DefaultConfig()
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d accepted: %+v", i, cfg)
		}
	}
	if _, err := New(DefaultConfig(), 0); err == nil {
		t.Error("New accepted zero units")
	}
}

func TestRisingDerivativeSetsHighPriority(t *testing.T) {
	h := newHarness(t, DefaultConfig(), 1)
	h.step(60)
	h.step(60)
	prio := h.step(120) // +60 W in one second, far above the threshold
	if !prio[0] {
		t.Error("fast power rise did not set high priority")
	}
}

func TestFallingDerivativeClearsPriority(t *testing.T) {
	h := newHarness(t, DefaultConfig(), 1)
	h.step(60)
	h.step(60)
	h.step(150)
	for i := 0; i < 3; i++ {
		h.step(150)
	}
	prio := h.step(60) // crash down
	if prio[0] {
		t.Error("fast power fall did not clear priority")
	}
}

func TestDeadZoneKeepsPriority(t *testing.T) {
	// After a rise, flat power must keep the unit high priority until the
	// power actually falls (Algorithm 2's design rationale).
	h := newHarness(t, DefaultConfig(), 1)
	h.step(60)
	h.step(60)
	h.step(150)
	for i := 0; i < 10; i++ {
		prio := h.step(150)
		if !prio[0] {
			t.Fatalf("priority dropped at flat step %d despite no power fall", i)
		}
	}
}

func TestMinSamplesGate(t *testing.T) {
	h := newHarness(t, DefaultConfig(), 1)
	if prio := h.step(160); prio[0] {
		t.Error("unit classified with one history sample")
	}
}

func TestHighFrequencyDetectionAndStickiness(t *testing.T) {
	cfg := DefaultConfig()
	h := newHarness(t, cfg, 1)
	// Oscillate fast: one 90 W peak every 4 samples.
	for cycle := 0; cycle < 5; cycle++ {
		h.step(60)
		h.step(150)
		h.step(150)
		h.step(60)
	}
	if !h.m.HighFrequency()[0] {
		t.Fatal("oscillating unit not flagged high-frequency")
	}
	if !h.m.Priorities()[0] {
		t.Fatal("high-frequency unit not high priority")
	}
	// One quiet sample must not clear the flag: the history still holds
	// peaks and a big stddev.
	h.step(60)
	if !h.m.HighFrequency()[0] {
		t.Error("high-frequency flag cleared after a single quiet sample")
	}
	// A long quiet stretch empties the history of peaks and shrinks the
	// stddev; the flag must clear.
	for i := 0; i < 25; i++ {
		h.step(60)
	}
	if h.m.HighFrequency()[0] {
		t.Error("high-frequency flag stuck after the history went quiet")
	}
}

func TestStdDevGuardsFlagClearing(t *testing.T) {
	// A history that swings violently without countable peaks (e.g. a slow
	// giant square wave) keeps the flag through the stddev check.
	cfg := DefaultConfig()
	h := newHarness(t, cfg, 1)
	for cycle := 0; cycle < 5; cycle++ {
		h.step(60)
		h.step(150)
		h.step(150)
		h.step(60)
	}
	if !h.m.HighFrequency()[0] {
		t.Fatal("setup failed: unit not high-frequency")
	}
	// Half a slow square wave: few peaks, but stddev stays huge.
	for i := 0; i < 10; i++ {
		h.step(150)
	}
	for i := 0; i < 8; i++ {
		h.step(60)
	}
	if !h.m.HighFrequency()[0] {
		t.Error("flag cleared while history stddev is still large")
	}
}

func TestDisableFrequency(t *testing.T) {
	cfg := DefaultConfig()
	h := newHarness(t, cfg, 1)
	h.m.DisableFrequency = true
	for cycle := 0; cycle < 6; cycle++ {
		h.step(60)
		h.step(150)
		h.step(150)
		h.step(60)
	}
	if h.m.HighFrequency()[0] {
		t.Error("frequency detection ran despite DisableFrequency")
	}
}

func TestAtCapSetsHighPriority(t *testing.T) {
	h := newHarness(t, DefaultConfig(), 1)
	h.caps[0] = 80
	// Flat at the cap: no derivative signal at all, only throttling.
	for i := 0; i < 5; i++ {
		h.step(79)
	}
	if !h.m.Priorities()[0] {
		t.Error("unit pinned at its cap not high priority")
	}
}

func TestAtCapDisabled(t *testing.T) {
	cfg := DefaultConfig()
	cfg.AtCapFraction = 0
	h := newHarness(t, cfg, 1)
	h.caps[0] = 80
	for i := 0; i < 5; i++ {
		h.step(79)
	}
	if h.m.Priorities()[0] {
		t.Error("at-cap check ran despite AtCapFraction = 0")
	}
}

func TestIdleReversion(t *testing.T) {
	h := newHarness(t, DefaultConfig(), 1)
	// Ramp up to become high priority...
	h.step(60)
	h.step(60)
	h.step(150)
	if !h.m.Priorities()[0] {
		t.Fatal("setup failed: rise not detected")
	}
	// ...then drift down slowly (each step's windowed derivative stays
	// above the −5 W/s dead-zone edge) into true idle. Without idle
	// reversion the dead zone would preserve the flag forever.
	for _, p := range []power.Watts{145, 140, 135, 130, 125, 120} {
		h.step(p)
	}
	for i := 0; i < 6; i++ {
		h.step(40) // idle: below half the constant cap, far below cap 165
	}
	if h.m.Priorities()[0] {
		t.Error("idle unit kept high priority despite idle reversion")
	}
}

func TestIdleReversionDisabled(t *testing.T) {
	cfg := DefaultConfig()
	cfg.IdleRevertFraction = 0
	h := newHarness(t, cfg, 1)
	h.step(60)
	h.step(60)
	h.step(150)
	// Freeze the history flat at a low level long enough that only the
	// dead zone applies.
	for i := 0; i < 25; i++ {
		h.step(40)
	}
	// The −110 W fall was a clear dec signal on the way down, so priority
	// correctly drops regardless; reconstruct the ambiguous case instead:
	h.m.Reset()
	h.hist.Unit(0).Reset()
	h.step(60)
	h.step(60)
	h.step(150)
	for _, p := range []power.Watts{145, 140, 135, 130, 125, 120, 115, 110, 105, 100, 95, 90, 85, 80, 75, 70, 65, 60, 55, 50, 45, 40} {
		h.step(p)
	}
	for i := 0; i < 5; i++ {
		if !h.step(40)[0] {
			t.Fatal("dead zone cleared priority with IdleRevertFraction = 0")
		}
	}
}

func TestUnitsAreIndependent(t *testing.T) {
	h := newHarness(t, DefaultConfig(), 3)
	// Drive unit 2 up; units 0 and 1 stay quiet.
	for _, p := range []power.Watts{60, 60, 150} {
		h.hist.Push(2, p, 1)
		h.pow[2] = p
		h.hist.Push(0, 60, 1)
		h.hist.Push(1, 60, 1)
		h.update()
	}
	prio := h.m.Priorities()
	if prio[0] || prio[1] || !prio[2] {
		t.Errorf("priorities = %v, want only unit 2 high", prio)
	}
}

func TestReset(t *testing.T) {
	h := newHarness(t, DefaultConfig(), 1)
	h.step(60)
	h.step(60)
	h.step(150)
	h.m.Reset()
	if h.m.Priorities()[0] || h.m.HighFrequency()[0] {
		t.Error("flags survived Reset")
	}
}
