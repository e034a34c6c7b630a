package daemon

import (
	"encoding/json"
	"flag"
	"fmt"
	"time"

	"dps/internal/watch"
)

// RegisterFlags installs every dpsd setting on fs as a flag that fills fc,
// one line per flag, named and documented for the operator and landing in
// the same field the JSON key does. Call the returned function after
// fs.Parse: it settles the flags that cannot write their field directly
// (durations land in the _ms fields, -sparse-rounds=false in the
// sparse_rounds alias), then applies the defaults and validation every
// config file goes through.
func RegisterFlags(fs *flag.FlagSet, fc *FileConfig) (resolve func() error) {
	fs.StringVar(&fc.Listen, "listen", ":7891", "TCP address to accept agents on")
	fs.StringVar(&fc.HTTP, "http", "", "serve /status, /metrics and /healthz on this address (e.g. :7892)")
	fs.IntVar(&fc.Units, "units", 20, "total power-capping units across all nodes")
	fs.Float64Var(&fc.BudgetW, "budget", 0, "cluster-wide power budget in watts (0 = 110 W per unit)")
	fs.Float64Var(&fc.UnitMaxW, "unit-max", 165, "hardware maximum cap per unit (TDP)")
	fs.Float64Var(&fc.UnitMinW, "unit-min", 10, "hardware minimum cap per unit")
	fs.StringVar(&fc.Policy, "policy", "dps", "power policy: dps|slurm|constant")
	fs.Int64Var(&fc.Seed, "seed", 1, "controller seed (random cap-raise order)")
	fs.Float64Var(&fc.MaxReadingW, "max-reading", 0, "reject inbound power reports above this many watts (0 = twice unit-max)")
	fs.Float64Var(&fc.DeltaEpsilonW, "delta-epsilon", 0, "advertise this delta-suppression band in watts to batch-capable agents (0 = suppress only unchanged readings)")
	fs.IntVar(&fc.SparseRefreshEvery, "sparse-refresh-every", 0, "force every unit through a full decision pass at least once per this many rounds (0 = default, 1 = never skip a unit)")
	fs.BoolVar(&fc.Trace, "trace", false, "record round-scoped spans for /debug/trace (toggleable at runtime)")
	fs.IntVar(&fc.TraceSpans, "trace-spans", 0, "span ring capacity (0 = default)")
	fs.BoolVar(&fc.Series, "series", false, "sample the registry into the embedded metric history (/debug/series)")
	fs.BoolVar(&fc.Watch, "watch", false, "run the watchdog: invariant audits plus -watch-rule rules (/alerts)")
	fs.StringVar(&fc.SnapshotPath, "snapshot-path", "", "write the controller state snapshot to this file on a round cadence and at shutdown (empty disables)")
	fs.IntVar(&fc.SnapshotEvery, "snapshot-every", 0, "rounds between snapshot file writes (0 = default)")
	fs.StringVar(&fc.RestoreFrom, "restore-from", "", "restore controller state from this snapshot file at boot (empty = cold start)")
	fs.StringVar(&fc.StandbyOf, "standby-of", "", "run as a warm standby replicating from the primary dpsd at this address; serve agents only after taking over")
	fs.StringVar(&fc.BlackboxPath, "blackbox-path", "", "append every decision round to the black-box flight recorder ring under this directory (empty disables)")
	fs.IntVar(&fc.BlackboxRounds, "blackbox-rounds", 0, "decision rounds the black-box ring retains (0 = default)")
	fs.Func("watch-rule", `alert rule as JSON (repeatable), e.g. '{"name":"cap_sum_high","kind":"threshold","series":"dps_cap_sum_watts","value":2100,"for_ms":5000}'`, func(v string) error {
		var r watch.Rule
		if err := json.Unmarshal([]byte(v), &r); err != nil {
			return err
		}
		fc.WatchRules = append(fc.WatchRules, r)
		return nil
	})

	// Durations keep the standard flag syntax and help ("-interval 250ms")
	// and land in the millisecond fields once parsed.
	type msFlag struct {
		name string
		v    *time.Duration
		ms   *int
	}
	var durations []msFlag
	duration := func(ms *int, name string, def time.Duration, usage string) {
		durations = append(durations, msFlag{name, fs.Duration(name, def, usage), ms})
	}
	duration(&fc.IntervalMS, "interval", time.Second, "decision loop period")
	duration(&fc.StaleAfterMS, "stale-after", 0, "freeze a unit's cap after this long without an accepted report (0 disables health tracking)")
	duration(&fc.DeadAfterMS, "dead-after", 0, "reserve a unit's budget at its last delivered cap after this long without a report (0 disables)")
	duration(&fc.ReadIdleTimeoutMS, "read-idle-timeout", 0, "reap agent connections silent for this long (0 disables)")
	sparse := fs.Bool("sparse-rounds", true, "skip settled units in DPS decision rounds (-sparse-rounds=false is an alias for -sparse-refresh-every=1)")

	return func() error {
		for _, d := range durations {
			if *d.v%time.Millisecond != 0 {
				// The file surface cannot say this, so neither can a flag.
				return fmt.Errorf("daemon: -%s %v is not a whole number of milliseconds", d.name, *d.v)
			}
			*d.ms = int(*d.v / time.Millisecond)
		}
		if !*sparse {
			fc.SparseRounds = sparse
		}
		if err := fc.resolve(); err != nil {
			return fmt.Errorf("daemon: flags: %w", err)
		}
		return nil
	}
}
