package daemon

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"dps/internal/baseline"
	"dps/internal/core"
	"dps/internal/power"
	"dps/internal/stateless"
	"dps/internal/watch"
)

// FileConfig is the one description of a dpsd: the JSON configuration file
// (-config, checked into a cluster's configuration management the way
// production services are deployed) and the target every command-line
// flag writes into (RegisterFlags). Whichever surface fills it, the road
// to a running server is the same: defaults and validation, BuildManager,
// ApplyKnobs, NewServer. Every key but "units" is optional:
//
//	{
//	  "listen": ":7891",
//	  "http": ":7892",
//	  "units": 20,
//	  "budget_w": 2200,
//	  "unit_max_w": 165,
//	  "unit_min_w": 10,
//	  "interval_ms": 1000,
//	  "policy": "dps",
//	  "seed": 1,
//	  "history_len": 20,
//	  "disable_restore": false,
//	  "stale_after_ms": 3000,
//	  "dead_after_ms": 10000,
//	  "read_idle_timeout_ms": 5000,
//	  "max_reading_w": 330,
//	  "delta_epsilon_w": 0.5,
//	  "sparse_refresh_every": 64,
//	  "trace": false,
//	  "trace_spans": 4096,
//	  "series": true,
//	  "watch": true,
//	  "watch_rules": [
//	    {"name": "cap_sum_high", "kind": "threshold",
//	     "series": "dps_cap_sum_watts", "op": ">", "value": 2100,
//	     "for_ms": 5000}
//	  ],
//	  "snapshot_path": "/var/lib/dps/state.dps",
//	  "snapshot_every": 10,
//	  "restore_from": "/var/lib/dps/state.dps",
//	  "blackbox_path": "/var/lib/dps/blackbox",
//	  "blackbox_rounds": 4096
//	}
//
// ("standby_of": "primary:7891" replaces "restore_from" on a warm
// standby; "sparse_rounds" and "shards" are retired keys that still load.)
type FileConfig struct {
	Listen     string  `json:"listen"`
	HTTP       string  `json:"http,omitempty"`
	Units      int     `json:"units"`
	BudgetW    float64 `json:"budget_w,omitempty"`
	UnitMaxW   float64 `json:"unit_max_w,omitempty"`
	UnitMinW   float64 `json:"unit_min_w,omitempty"`
	IntervalMS int     `json:"interval_ms,omitempty"`
	Policy     string  `json:"policy,omitempty"`
	Seed       int64   `json:"seed,omitempty"`

	// DPS-specific tuning (ignored by other policies).
	HistoryLen     int  `json:"history_len,omitempty"`
	DisableRestore bool `json:"disable_restore,omitempty"`
	// Shards is accepted and ignored: the decision round is
	// single-threaded (DESIGN.md §7). The key still parses, and is still
	// validated non-negative, so config files written for older builds
	// keep loading.
	Shards int `json:"shards,omitempty"`

	// Degraded-mode control plane. StaleAfterMS freezes a silent unit's
	// cap, DeadAfterMS reserves its budget at the last delivered cap; both
	// zero disables health tracking. ReadIdleTimeoutMS reaps connections
	// that stay silent past the deadline. MaxReadingW rejects inbound
	// readings above the ceiling (0 = twice unit_max_w).
	StaleAfterMS      int     `json:"stale_after_ms,omitempty"`
	DeadAfterMS       int     `json:"dead_after_ms,omitempty"`
	ReadIdleTimeoutMS int     `json:"read_idle_timeout_ms,omitempty"`
	MaxReadingW       float64 `json:"max_reading_w,omitempty"`

	// Batched ingest. DeltaEpsilonW is the delta-suppression band
	// advertised to agents in the handshake ack.
	DeltaEpsilonW float64 `json:"delta_epsilon_w,omitempty"`

	// Sparse decision rounds (DPS policy only). SparseRefreshEvery forces
	// every unit through a full decision pass at least once per this many
	// rounds (0 = the core default, 1 = never skip a unit). SparseRounds
	// is a pointer so "absent" is distinguishable from an explicit false,
	// which is an alias for "sparse_refresh_every": 1 and wins over it.
	SparseRounds       *bool `json:"sparse_rounds,omitempty"`
	SparseRefreshEvery int   `json:"sparse_refresh_every,omitempty"`

	// Trace starts the round-scoped span recorder enabled (it can also be
	// toggled at runtime). TraceSpans sets the span ring capacity
	// (0 = trace.DefaultSpanCapacity).
	Trace      bool `json:"trace,omitempty"`
	TraceSpans int  `json:"trace_spans,omitempty"`

	// Self-monitoring. Series enables the embedded metric-history store
	// and sampler (GET /debug/series); Watch enables the watchdog's
	// built-in invariant audits plus WatchRules (GET /alerts). Any
	// configured rule implies the series store.
	Series     bool         `json:"series,omitempty"`
	Watch      bool         `json:"watch,omitempty"`
	WatchRules []watch.Rule `json:"watch_rules,omitempty"`

	// High availability (DESIGN.md §14). SnapshotPath enables the periodic
	// state snapshot file (written every SnapshotEvery rounds, 0 = the
	// daemon default, plus once at graceful shutdown); RestoreFrom loads a
	// snapshot at boot; StandbyOf runs this dpsd as a warm standby of the
	// primary at that address, serving agents only after taking over.
	SnapshotPath  string `json:"snapshot_path,omitempty"`
	SnapshotEvery int    `json:"snapshot_every,omitempty"`
	RestoreFrom   string `json:"restore_from,omitempty"`
	StandbyOf     string `json:"standby_of,omitempty"`

	// Fleet observability (DESIGN.md §15). BlackboxPath enables the
	// persistent black-box flight recorder: a segmented on-disk ring of
	// the last BlackboxRounds decision rounds (0 = the daemon default),
	// decodable offline with `dpsctl blackbox dump`.
	BlackboxPath   string `json:"blackbox_path,omitempty"`
	BlackboxRounds int    `json:"blackbox_rounds,omitempty"`
}

// LoadFileConfig parses and normalizes a config file.
func LoadFileConfig(path string) (FileConfig, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return FileConfig{}, fmt.Errorf("daemon: reading config: %w", err)
	}
	var fc FileConfig
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&fc); err != nil {
		return FileConfig{}, fmt.Errorf("daemon: parsing config %s: %w", path, err)
	}
	if err := fc.resolve(); err != nil {
		return FileConfig{}, fmt.Errorf("daemon: config %s: %w", path, err)
	}
	return fc, nil
}

// resolve fills the defaults in and validates the result: the one gate
// every FileConfig passes, whether a file or the flags filled it.
func (fc *FileConfig) resolve() error {
	fc.applyDefaults()
	return fc.validate()
}

func (fc *FileConfig) applyDefaults() {
	if fc.Listen == "" {
		fc.Listen = ":7891"
	}
	if fc.BudgetW == 0 {
		fc.BudgetW = 110 * float64(fc.Units)
	}
	if fc.UnitMaxW == 0 {
		fc.UnitMaxW = 165
	}
	if fc.UnitMinW == 0 {
		fc.UnitMinW = 10
	}
	if fc.IntervalMS == 0 {
		fc.IntervalMS = 1000
	}
	if fc.Policy == "" {
		fc.Policy = "dps"
	}
	if fc.Seed == 0 {
		fc.Seed = 1
	}
	if fc.HistoryLen == 0 {
		fc.HistoryLen = 20
	}
}

func (fc FileConfig) validate() error {
	switch {
	case fc.Units <= 0:
		return fmt.Errorf("non-positive units %d", fc.Units)
	case fc.IntervalMS <= 0:
		return fmt.Errorf("non-positive interval %d ms", fc.IntervalMS)
	case fc.Shards < 0:
		return fmt.Errorf("negative shards %d", fc.Shards)
	case fc.StaleAfterMS < 0:
		return fmt.Errorf("negative stale_after_ms %d", fc.StaleAfterMS)
	case fc.DeadAfterMS < 0:
		return fmt.Errorf("negative dead_after_ms %d", fc.DeadAfterMS)
	case fc.ReadIdleTimeoutMS < 0:
		return fmt.Errorf("negative read_idle_timeout_ms %d", fc.ReadIdleTimeoutMS)
	case fc.MaxReadingW < 0:
		return fmt.Errorf("negative max_reading_w %v", fc.MaxReadingW)
	case fc.DeltaEpsilonW < 0:
		return fmt.Errorf("negative delta_epsilon_w %v", fc.DeltaEpsilonW)
	case fc.SparseRefreshEvery < 0:
		return fmt.Errorf("negative sparse_refresh_every %d", fc.SparseRefreshEvery)
	case fc.TraceSpans < 0:
		return fmt.Errorf("negative trace_spans %d", fc.TraceSpans)
	case fc.SnapshotEvery < 0:
		return fmt.Errorf("negative snapshot_every %d", fc.SnapshotEvery)
	case fc.BlackboxRounds < 0:
		return fmt.Errorf("negative blackbox_rounds %d", fc.BlackboxRounds)
	case fc.StaleAfterMS > 0 && fc.DeadAfterMS > 0 && fc.DeadAfterMS < fc.StaleAfterMS:
		return fmt.Errorf("dead_after_ms %d below stale_after_ms %d", fc.DeadAfterMS, fc.StaleAfterMS)
	case fc.StandbyOf != "" && fc.RestoreFrom != "":
		return fmt.Errorf("standby_of and restore_from are mutually exclusive (a standby inherits state from its primary)")
	case fc.Policy != "dps" && fc.Policy != "slurm" && fc.Policy != "constant":
		return fmt.Errorf("unknown policy %q (want dps, slurm or constant)", fc.Policy)
	case len(fc.WatchRules) > 0 && !fc.Watch:
		return fmt.Errorf("watch_rules set but watch is false")
	}
	seen := make(map[string]bool, len(fc.WatchRules))
	for _, r := range fc.WatchRules {
		if err := r.Validate(); err != nil {
			return err
		}
		if seen[r.Name] {
			return fmt.Errorf("duplicate watch rule %q", r.Name)
		}
		seen[r.Name] = true
	}
	return fc.Budget().Validate(fc.Units)
}

// SparseRefresh resolves the controller's refresh period from the two
// keys that set it: an explicit "sparse_rounds": false means period 1
// (every unit processed every round), otherwise sparse_refresh_every.
func (fc FileConfig) SparseRefresh() int {
	if fc.SparseRounds != nil && !*fc.SparseRounds {
		return 1
	}
	return fc.SparseRefreshEvery
}

// Budget derives the power envelope.
func (fc FileConfig) Budget() power.Budget {
	return power.Budget{
		Total:   power.Watts(fc.BudgetW),
		UnitMax: power.Watts(fc.UnitMaxW),
		UnitMin: power.Watts(fc.UnitMinW),
	}
}

// Interval derives the decision period.
func (fc FileConfig) Interval() time.Duration {
	return time.Duration(fc.IntervalMS) * time.Millisecond
}

// ApplyKnobs copies every setting the server itself reads into sc. What
// it leaves to the caller is what a FileConfig cannot hold: the Manager
// (BuildManager) and the log sink.
func (fc FileConfig) ApplyKnobs(sc *ServerConfig) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	sc.Units = fc.Units
	sc.Interval = fc.Interval()
	sc.StaleAfter = ms(fc.StaleAfterMS)
	sc.DeadAfter = ms(fc.DeadAfterMS)
	sc.ReadIdleTimeout = ms(fc.ReadIdleTimeoutMS)
	sc.MaxReading = power.Watts(fc.MaxReadingW)
	sc.DeltaEpsilon = power.Watts(fc.DeltaEpsilonW)
	sc.TraceEnabled = fc.Trace
	sc.TraceSpans = fc.TraceSpans
	sc.SeriesEnabled = fc.Series
	sc.WatchEnabled = fc.Watch
	sc.WatchRules = fc.WatchRules
	sc.SnapshotPath = fc.SnapshotPath
	sc.SnapshotEvery = fc.SnapshotEvery
	sc.StandbyOf = fc.StandbyOf
	sc.BlackboxPath = fc.BlackboxPath
	sc.BlackboxRounds = fc.BlackboxRounds
}

// BuildManager constructs the configured policy.
func (fc FileConfig) BuildManager() (core.Manager, error) {
	budget := fc.Budget()
	switch fc.Policy {
	case "dps":
		cfg := core.DefaultConfig(fc.Units, budget)
		cfg.Seed = fc.Seed
		cfg.HistoryLen = fc.HistoryLen
		cfg.DisableRestore = fc.DisableRestore
		cfg.SparseRefreshEvery = fc.SparseRefresh()
		return core.NewDPS(cfg)
	case "slurm":
		return baseline.NewSLURM(fc.Units, budget, stateless.DefaultConfig(), fc.Seed)
	case "constant":
		return baseline.NewConstant(fc.Units, budget)
	}
	return nil, fmt.Errorf("daemon: unknown policy %q", fc.Policy)
}
