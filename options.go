package dps

import (
	"dps/internal/core"
)

// Option adjusts one field of a DPS configuration. Options compose left
// to right over the paper's defaults:
//
//	mgr, err := dps.New(20, budget,
//	    dps.WithSeed(7),
//	    dps.WithHistoryLen(30),
//	)
//
// NewDPS(Config) remains the low-level path for callers that build the
// whole Config themselves.
type Option func(*Config)

// New builds a DPS controller for n units under the given budget,
// starting from DefaultConfig and applying the options in order.
func New(n int, budget Budget, opts ...Option) (*DPS, error) {
	cfg := core.DefaultConfig(n, budget)
	for _, opt := range opts {
		opt(&cfg)
	}
	return core.NewDPS(cfg)
}

// WithSeed fixes the stateless module's random visiting order, making
// runs reproducible.
func WithSeed(seed int64) Option {
	return func(c *Config) { c.Seed = seed }
}

// WithHistoryLen sets the number of estimated power samples kept per unit
// (the paper's default is 20, i.e. 20 s of state at dT = 1 s).
func WithHistoryLen(n int) Option {
	return func(c *Config) { c.HistoryLen = n }
}

// WithStateless replaces the Algorithm 1 MIMD stage's tuning.
func WithStateless(cfg StatelessConfig) Option {
	return func(c *Config) { c.Stateless = cfg }
}

// WithKalman replaces the per-unit measurement filters' noise model.
func WithKalman(cfg KalmanConfig) Option {
	return func(c *Config) { c.Kalman = cfg }
}

// WithPriority replaces the Algorithm 2 classification thresholds.
func WithPriority(cfg PriorityConfig) Option {
	return func(c *Config) { c.Priority = cfg }
}

// WithReadjust replaces the Algorithm 3/4 stage's tuning.
func WithReadjust(cfg ReadjustConfig) Option {
	return func(c *Config) { c.Readjust = cfg }
}

// Ablation switches off individual DPS mechanisms (all false in the
// paper's system); see the Config Disable* fields for what each removes.
type Ablation struct {
	// Kalman feeds raw readings straight into the power history.
	Kalman bool
	// Frequency turns off high-frequency detection; priorities come from
	// the derivative alone.
	Frequency bool
	// Restore turns off Algorithm 3.
	Restore bool
	// Priority turns off Algorithms 2–4 entirely, reducing DPS to its
	// stateless module.
	Priority bool
}

// WithAblation disables the selected mechanisms.
func WithAblation(a Ablation) Option {
	return func(c *Config) {
		c.DisableKalman = c.DisableKalman || a.Kalman
		c.DisableFrequency = c.DisableFrequency || a.Frequency
		c.DisableRestore = c.DisableRestore || a.Restore
		c.DisablePriority = c.DisablePriority || a.Priority
	}
}
