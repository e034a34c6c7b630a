package daemon

import (
	"flag"
	"fmt"

	"dps/internal/power"
)

// knob describes one operator setting across every surface it is exposed
// on: the dpsd command-line flag, the FileConfig JSON key, and the
// ServerConfig field both land in. New settings register here once —
// the flag, the file path, and the validation can then never drift apart
// (a table-driven parity test holds each row to that).
type knob struct {
	// Flag is the dpsd flag name; JSON is the FileConfig key.
	Flag, JSON string
	// register installs the flag on fs and returns a closure copying the
	// parsed value into a ServerConfig.
	register func(fs *flag.FlagSet) func(*ServerConfig)
	// fromFile copies the knob from a parsed (defaulted) FileConfig.
	fromFile func(fc FileConfig, sc *ServerConfig)
	// check validates the knob's file value, nil when any value the type
	// admits is legal. Cross-knob constraints stay in FileConfig.validate.
	check func(fc FileConfig) error
}

// serverKnobs is the registry of per-setting daemon knobs. Settings with
// structure beyond one value (policy selection, watch rules) or that
// name the process environment (listen addresses) stay hand-wired in
// dpsd; everything tuning the server itself belongs here.
var serverKnobs = []knob{
	{
		Flag: "stale-after", JSON: "stale_after_ms",
		register: func(fs *flag.FlagSet) func(*ServerConfig) {
			v := fs.Duration("stale-after", 0, "freeze a unit's cap after this long without an accepted report (0 disables health tracking)")
			return func(sc *ServerConfig) { sc.StaleAfter = *v }
		},
		fromFile: func(fc FileConfig, sc *ServerConfig) { sc.StaleAfter = fc.StaleAfter() },
		check: func(fc FileConfig) error {
			if fc.StaleAfterMS < 0 {
				return fmt.Errorf("negative stale_after_ms %d", fc.StaleAfterMS)
			}
			return nil
		},
	},
	{
		Flag: "dead-after", JSON: "dead_after_ms",
		register: func(fs *flag.FlagSet) func(*ServerConfig) {
			v := fs.Duration("dead-after", 0, "reserve a unit's budget at its last delivered cap after this long without a report (0 disables)")
			return func(sc *ServerConfig) { sc.DeadAfter = *v }
		},
		fromFile: func(fc FileConfig, sc *ServerConfig) { sc.DeadAfter = fc.DeadAfter() },
		check: func(fc FileConfig) error {
			if fc.DeadAfterMS < 0 {
				return fmt.Errorf("negative dead_after_ms %d", fc.DeadAfterMS)
			}
			return nil
		},
	},
	{
		Flag: "read-idle-timeout", JSON: "read_idle_timeout_ms",
		register: func(fs *flag.FlagSet) func(*ServerConfig) {
			v := fs.Duration("read-idle-timeout", 0, "reap agent connections silent for this long (0 disables)")
			return func(sc *ServerConfig) { sc.ReadIdleTimeout = *v }
		},
		fromFile: func(fc FileConfig, sc *ServerConfig) { sc.ReadIdleTimeout = fc.ReadIdleTimeout() },
		check: func(fc FileConfig) error {
			if fc.ReadIdleTimeoutMS < 0 {
				return fmt.Errorf("negative read_idle_timeout_ms %d", fc.ReadIdleTimeoutMS)
			}
			return nil
		},
	},
	{
		Flag: "max-reading", JSON: "max_reading_w",
		register: func(fs *flag.FlagSet) func(*ServerConfig) {
			v := fs.Float64("max-reading", 0, "reject inbound power reports above this many watts (0 = twice unit-max)")
			return func(sc *ServerConfig) { sc.MaxReading = power.Watts(*v) }
		},
		fromFile: func(fc FileConfig, sc *ServerConfig) { sc.MaxReading = power.Watts(fc.MaxReadingW) },
		check: func(fc FileConfig) error {
			if fc.MaxReadingW < 0 {
				return fmt.Errorf("negative max_reading_w %v", fc.MaxReadingW)
			}
			return nil
		},
	},
	{
		Flag: "delta-epsilon", JSON: "delta_epsilon_w",
		register: func(fs *flag.FlagSet) func(*ServerConfig) {
			v := fs.Float64("delta-epsilon", 0, "advertise this delta-suppression band in watts to batch-capable agents (0 = suppress only unchanged readings)")
			return func(sc *ServerConfig) { sc.DeltaEpsilon = power.Watts(*v) }
		},
		fromFile: func(fc FileConfig, sc *ServerConfig) { sc.DeltaEpsilon = power.Watts(fc.DeltaEpsilonW) },
		check: func(fc FileConfig) error {
			if fc.DeltaEpsilonW < 0 {
				return fmt.Errorf("negative delta_epsilon_w %v", fc.DeltaEpsilonW)
			}
			return nil
		},
	},
	{
		Flag: "disable-batch-ingest", JSON: "disable_batch_ingest",
		register: func(fs *flag.FlagSet) func(*ServerConfig) {
			v := fs.Bool("disable-batch-ingest", false, "reject handshakes advertising the batch capability (force full per-interval reports)")
			return func(sc *ServerConfig) { sc.DisableBatchIngest = *v }
		},
		fromFile: func(fc FileConfig, sc *ServerConfig) { sc.DisableBatchIngest = fc.DisableBatchIngest },
	},
	{
		Flag: "sparse-refresh-every", JSON: "sparse_refresh_every",
		register: func(fs *flag.FlagSet) func(*ServerConfig) {
			v := fs.Int("sparse-refresh-every", 0, "force every unit through a full decision pass at least once per this many rounds (0 = default, 1 = never skip a unit)")
			return func(sc *ServerConfig) { sc.SparseRefreshEvery = *v }
		},
		// The file path resolves the sparse_rounds alias here, in one place.
		fromFile: func(fc FileConfig, sc *ServerConfig) { sc.SparseRefreshEvery = fc.SparseRefresh() },
		check: func(fc FileConfig) error {
			if fc.SparseRefreshEvery < 0 {
				return fmt.Errorf("negative sparse_refresh_every %d", fc.SparseRefreshEvery)
			}
			return nil
		},
	},
	{
		// Alias: false means "sparse-refresh-every 1". On the flag surface
		// it is registered after that knob so an explicit false wins over
		// any period given; on the file surface that knob's fromFile has
		// already resolved it (FileConfig.SparseRefresh).
		Flag: "sparse-rounds", JSON: "sparse_rounds",
		register: func(fs *flag.FlagSet) func(*ServerConfig) {
			v := fs.Bool("sparse-rounds", true, "skip settled units in DPS decision rounds (-sparse-rounds=false is an alias for -sparse-refresh-every=1)")
			return func(sc *ServerConfig) {
				if !*v {
					sc.SparseRefreshEvery = 1
				}
			}
		},
		fromFile: func(FileConfig, *ServerConfig) {},
	},
	{
		Flag: "trace", JSON: "trace",
		register: func(fs *flag.FlagSet) func(*ServerConfig) {
			v := fs.Bool("trace", false, "record round-scoped spans for /debug/trace (toggleable at runtime)")
			return func(sc *ServerConfig) { sc.TraceEnabled = *v }
		},
		fromFile: func(fc FileConfig, sc *ServerConfig) { sc.TraceEnabled = fc.Trace },
	},
	{
		Flag: "trace-spans", JSON: "trace_spans",
		register: func(fs *flag.FlagSet) func(*ServerConfig) {
			v := fs.Int("trace-spans", 0, "span ring capacity (0 = default)")
			return func(sc *ServerConfig) { sc.TraceSpans = *v }
		},
		fromFile: func(fc FileConfig, sc *ServerConfig) { sc.TraceSpans = fc.TraceSpans },
		check: func(fc FileConfig) error {
			if fc.TraceSpans < 0 {
				return fmt.Errorf("negative trace_spans %d", fc.TraceSpans)
			}
			return nil
		},
	},
	{
		Flag: "series", JSON: "series",
		register: func(fs *flag.FlagSet) func(*ServerConfig) {
			v := fs.Bool("series", false, "sample the registry into the embedded metric history (/debug/series)")
			return func(sc *ServerConfig) { sc.SeriesEnabled = *v }
		},
		fromFile: func(fc FileConfig, sc *ServerConfig) { sc.SeriesEnabled = fc.Series },
	},
	{
		Flag: "watch", JSON: "watch",
		register: func(fs *flag.FlagSet) func(*ServerConfig) {
			v := fs.Bool("watch", false, "run the watchdog: invariant audits plus -watch-rule rules (/alerts)")
			return func(sc *ServerConfig) { sc.WatchEnabled = *v }
		},
		fromFile: func(fc FileConfig, sc *ServerConfig) { sc.WatchEnabled = fc.Watch },
	},
	{
		Flag: "snapshot-path", JSON: "snapshot_path",
		register: func(fs *flag.FlagSet) func(*ServerConfig) {
			v := fs.String("snapshot-path", "", "write the controller state snapshot to this file on a round cadence and at shutdown (empty disables)")
			return func(sc *ServerConfig) { sc.SnapshotPath = *v }
		},
		fromFile: func(fc FileConfig, sc *ServerConfig) { sc.SnapshotPath = fc.SnapshotPath },
	},
	{
		Flag: "snapshot-every", JSON: "snapshot_every",
		register: func(fs *flag.FlagSet) func(*ServerConfig) {
			v := fs.Int("snapshot-every", 0, "rounds between snapshot file writes (0 = default)")
			return func(sc *ServerConfig) { sc.SnapshotEvery = *v }
		},
		fromFile: func(fc FileConfig, sc *ServerConfig) { sc.SnapshotEvery = fc.SnapshotEvery },
		check: func(fc FileConfig) error {
			if fc.SnapshotEvery < 0 {
				return fmt.Errorf("negative snapshot_every %d", fc.SnapshotEvery)
			}
			return nil
		},
	},
	{
		Flag: "blackbox-path", JSON: "blackbox_path",
		register: func(fs *flag.FlagSet) func(*ServerConfig) {
			v := fs.String("blackbox-path", "", "append every decision round to the black-box flight recorder ring under this directory (empty disables)")
			return func(sc *ServerConfig) { sc.BlackboxPath = *v }
		},
		fromFile: func(fc FileConfig, sc *ServerConfig) { sc.BlackboxPath = fc.BlackboxPath },
	},
	{
		Flag: "blackbox-rounds", JSON: "blackbox_rounds",
		register: func(fs *flag.FlagSet) func(*ServerConfig) {
			v := fs.Int("blackbox-rounds", 0, "decision rounds the black-box ring retains (0 = default)")
			return func(sc *ServerConfig) { sc.BlackboxRounds = *v }
		},
		fromFile: func(fc FileConfig, sc *ServerConfig) { sc.BlackboxRounds = fc.BlackboxRounds },
		check: func(fc FileConfig) error {
			if fc.BlackboxRounds < 0 {
				return fmt.Errorf("negative blackbox_rounds %d", fc.BlackboxRounds)
			}
			return nil
		},
	},
	{
		Flag: "restore-from", JSON: "restore_from",
		register: func(fs *flag.FlagSet) func(*ServerConfig) {
			v := fs.String("restore-from", "", "restore controller state from this snapshot file at boot (empty = cold start)")
			return func(sc *ServerConfig) { sc.RestoreFrom = *v }
		},
		fromFile: func(fc FileConfig, sc *ServerConfig) { sc.RestoreFrom = fc.RestoreFrom },
	},
	{
		Flag: "standby-of", JSON: "standby_of",
		register: func(fs *flag.FlagSet) func(*ServerConfig) {
			v := fs.String("standby-of", "", "run as a warm standby replicating from the primary dpsd at this address; serve agents only after taking over")
			return func(sc *ServerConfig) { sc.StandbyOf = *v }
		},
		fromFile: func(fc FileConfig, sc *ServerConfig) { sc.StandbyOf = fc.StandbyOf },
	},
	{
		Flag: "budget-tolerance", JSON: "budget_tolerance_w",
		register: func(fs *flag.FlagSet) func(*ServerConfig) {
			v := fs.Float64("budget-tolerance", 0, "slack in watts on the budget_conservation audit (0 = default)")
			return func(sc *ServerConfig) { sc.BudgetToleranceW = *v }
		},
		fromFile: func(fc FileConfig, sc *ServerConfig) { sc.BudgetToleranceW = fc.BudgetToleranceW },
		check: func(fc FileConfig) error {
			if fc.BudgetToleranceW < 0 {
				return fmt.Errorf("negative budget_tolerance_w %v", fc.BudgetToleranceW)
			}
			return nil
		},
	},
}

// RegisterServerFlags installs every table knob as a command-line flag
// on fs and returns a function copying the parsed values into a
// ServerConfig (call it after fs.Parse).
func RegisterServerFlags(fs *flag.FlagSet) func(*ServerConfig) {
	applies := make([]func(*ServerConfig), 0, len(serverKnobs))
	for _, k := range serverKnobs {
		applies = append(applies, k.register(fs))
	}
	return func(sc *ServerConfig) {
		for _, apply := range applies {
			apply(sc)
		}
	}
}

// ApplyKnobs copies every table knob from the file config into sc.
func (fc FileConfig) ApplyKnobs(sc *ServerConfig) {
	for _, k := range serverKnobs {
		k.fromFile(fc, sc)
	}
}

// validateKnobs runs every per-knob check.
func (fc FileConfig) validateKnobs() error {
	for _, k := range serverKnobs {
		if k.check == nil {
			continue
		}
		if err := k.check(fc); err != nil {
			return err
		}
	}
	return nil
}
