package daemon

import (
	"encoding/json"
	"flag"
	"io"
	"reflect"
	"testing"
	"time"

	"dps/internal/power"
)

// knobParityCases drives one row per table knob: the flag argument and
// the JSON fragment that must land the same value in a ServerConfig. A
// knob missing here fails the completeness check below.
var knobParityCases = []struct {
	flag     string // knob.Flag
	flagArg  string // -flag=value as passed on a command line
	jsonFrag string // "key": value as written in a config file
	want     func(sc ServerConfig) bool
}{
	{
		flag: "stale-after", flagArg: "-stale-after=3s", jsonFrag: `"stale_after_ms": 3000`,
		want: func(sc ServerConfig) bool { return sc.StaleAfter == 3*time.Second },
	},
	{
		flag: "dead-after", flagArg: "-dead-after=10s", jsonFrag: `"dead_after_ms": 10000`,
		want: func(sc ServerConfig) bool { return sc.DeadAfter == 10*time.Second },
	},
	{
		flag: "read-idle-timeout", flagArg: "-read-idle-timeout=5s", jsonFrag: `"read_idle_timeout_ms": 5000`,
		want: func(sc ServerConfig) bool { return sc.ReadIdleTimeout == 5*time.Second },
	},
	{
		flag: "max-reading", flagArg: "-max-reading=330", jsonFrag: `"max_reading_w": 330`,
		want: func(sc ServerConfig) bool { return sc.MaxReading == 330 },
	},
	{
		flag: "delta-epsilon", flagArg: "-delta-epsilon=0.5", jsonFrag: `"delta_epsilon_w": 0.5`,
		want: func(sc ServerConfig) bool { return sc.DeltaEpsilon == 0.5 },
	},
	{
		flag: "disable-batch-ingest", flagArg: "-disable-batch-ingest", jsonFrag: `"disable_batch_ingest": true`,
		want: func(sc ServerConfig) bool { return sc.DisableBatchIngest },
	},
	{
		flag: "sparse-rounds", flagArg: "-sparse-rounds=false", jsonFrag: `"sparse_rounds": false`,
		want: func(sc ServerConfig) bool { return sc.SparseRefreshEvery == 1 },
	},
	{
		flag: "sparse-refresh-every", flagArg: "-sparse-refresh-every=16", jsonFrag: `"sparse_refresh_every": 16`,
		want: func(sc ServerConfig) bool { return sc.SparseRefreshEvery == 16 },
	},
	{
		flag: "trace", flagArg: "-trace", jsonFrag: `"trace": true`,
		want: func(sc ServerConfig) bool { return sc.TraceEnabled },
	},
	{
		flag: "trace-spans", flagArg: "-trace-spans=512", jsonFrag: `"trace_spans": 512`,
		want: func(sc ServerConfig) bool { return sc.TraceSpans == 512 },
	},
	{
		flag: "series", flagArg: "-series", jsonFrag: `"series": true`,
		want: func(sc ServerConfig) bool { return sc.SeriesEnabled },
	},
	{
		flag: "watch", flagArg: "-watch", jsonFrag: `"watch": true`,
		want: func(sc ServerConfig) bool { return sc.WatchEnabled },
	},
	{
		flag: "budget-tolerance", flagArg: "-budget-tolerance=0.01", jsonFrag: `"budget_tolerance_w": 0.01`,
		want: func(sc ServerConfig) bool { return sc.BudgetToleranceW == 0.01 },
	},
	{
		flag: "snapshot-path", flagArg: "-snapshot-path=/var/lib/dps/state.dps", jsonFrag: `"snapshot_path": "/var/lib/dps/state.dps"`,
		want: func(sc ServerConfig) bool { return sc.SnapshotPath == "/var/lib/dps/state.dps" },
	},
	{
		flag: "snapshot-every", flagArg: "-snapshot-every=25", jsonFrag: `"snapshot_every": 25`,
		want: func(sc ServerConfig) bool { return sc.SnapshotEvery == 25 },
	},
	{
		flag: "blackbox-path", flagArg: "-blackbox-path=/var/lib/dps/blackbox", jsonFrag: `"blackbox_path": "/var/lib/dps/blackbox"`,
		want: func(sc ServerConfig) bool { return sc.BlackboxPath == "/var/lib/dps/blackbox" },
	},
	{
		flag: "blackbox-rounds", flagArg: "-blackbox-rounds=1024", jsonFrag: `"blackbox_rounds": 1024`,
		want: func(sc ServerConfig) bool { return sc.BlackboxRounds == 1024 },
	},
	{
		flag: "restore-from", flagArg: "-restore-from=/var/lib/dps/state.dps", jsonFrag: `"restore_from": "/var/lib/dps/state.dps"`,
		want: func(sc ServerConfig) bool { return sc.RestoreFrom == "/var/lib/dps/state.dps" },
	},
	{
		flag: "standby-of", flagArg: "-standby-of=primary:7891", jsonFrag: `"standby_of": "primary:7891"`,
		want: func(sc ServerConfig) bool { return sc.StandbyOf == "primary:7891" },
	},
}

// TestKnobFlagJSONParity proves, knob by knob, that the command-line
// flag and the config-file key produce identical ServerConfigs — the
// property the knob table exists to hold.
func TestKnobFlagJSONParity(t *testing.T) {
	// The baseline a single-knob parse is compared against for the no-op
	// check: flag defaults only.
	defFS := flag.NewFlagSet("dpsd", flag.ContinueOnError)
	applyDefaults := RegisterServerFlags(defFS)
	if err := defFS.Parse(nil); err != nil {
		t.Fatal(err)
	}
	var defaults ServerConfig
	applyDefaults(&defaults)

	covered := map[string]bool{}
	for _, tc := range knobParityCases {
		covered[tc.flag] = true

		// Flag surface.
		fs := flag.NewFlagSet("dpsd", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		apply := RegisterServerFlags(fs)
		if err := fs.Parse([]string{tc.flagArg}); err != nil {
			t.Errorf("%s: parsing %q: %v", tc.flag, tc.flagArg, err)
			continue
		}
		var fromFlags ServerConfig
		apply(&fromFlags)

		// File surface.
		var fc FileConfig
		if err := json.Unmarshal([]byte(`{`+tc.jsonFrag+`}`), &fc); err != nil {
			t.Errorf("%s: parsing {%s}: %v", tc.flag, tc.jsonFrag, err)
			continue
		}
		var fromFile ServerConfig
		fc.ApplyKnobs(&fromFile)

		if !tc.want(fromFlags) {
			t.Errorf("%s: flag %q did not land in ServerConfig: %+v", tc.flag, tc.flagArg, fromFlags)
		}
		if !tc.want(fromFile) {
			t.Errorf("%s: JSON {%s} did not land in ServerConfig: %+v", tc.flag, tc.jsonFrag, fromFile)
		}
		if !reflect.DeepEqual(fromFlags, fromFile) {
			t.Errorf("%s: flag and JSON configs diverge:\nflags: %+v\nfile:  %+v", tc.flag, fromFlags, fromFile)
		}
		if reflect.DeepEqual(fromFlags, defaults) {
			t.Errorf("%s: flag %q was a no-op", tc.flag, tc.flagArg)
		}
	}
	for _, k := range serverKnobs {
		if !covered[k.Flag] {
			t.Errorf("knob %q (json %q) has no parity case", k.Flag, k.JSON)
		}
	}
	if len(knobParityCases) != len(serverKnobs) {
		t.Errorf("%d parity cases for %d knobs", len(knobParityCases), len(serverKnobs))
	}
}

// TestKnobTableNames pins each knob's declared names to the names its
// registration actually uses, so a renamed flag or retagged JSON field
// cannot silently detach from the table.
func TestKnobTableNames(t *testing.T) {
	fs := flag.NewFlagSet("dpsd", flag.ContinueOnError)
	RegisterServerFlags(fs)
	for _, k := range serverKnobs {
		if fs.Lookup(k.Flag) == nil {
			t.Errorf("knob %q registers no flag by that name", k.Flag)
		}
	}

	// Every JSON key in the table must be a real FileConfig tag.
	tags := map[string]bool{}
	rt := reflect.TypeOf(FileConfig{})
	for i := 0; i < rt.NumField(); i++ {
		tag := rt.Field(i).Tag.Get("json")
		for j, c := range tag {
			if c == ',' {
				tag = tag[:j]
				break
			}
		}
		tags[tag] = true
	}
	for _, k := range serverKnobs {
		if !tags[k.JSON] {
			t.Errorf("knob %q names JSON key %q, which is not a FileConfig field tag", k.Flag, k.JSON)
		}
	}
}

// TestKnobValidation exercises the table-driven range checks through
// FileConfig.validate.
func TestKnobValidation(t *testing.T) {
	base := FileConfig{Units: 2, IntervalMS: 1000, Policy: "dps"}
	bad := []func(*FileConfig){
		func(fc *FileConfig) { fc.StaleAfterMS = -1 },
		func(fc *FileConfig) { fc.DeadAfterMS = -1 },
		func(fc *FileConfig) { fc.ReadIdleTimeoutMS = -1 },
		func(fc *FileConfig) { fc.MaxReadingW = -1 },
		func(fc *FileConfig) { fc.DeltaEpsilonW = -0.5 },
		func(fc *FileConfig) { fc.SparseRefreshEvery = -1 },
		func(fc *FileConfig) { fc.TraceSpans = -1 },
		func(fc *FileConfig) { fc.BudgetToleranceW = -1 },
		func(fc *FileConfig) { fc.SnapshotEvery = -1 },
	}
	for i, mutate := range bad {
		fc := base
		mutate(&fc)
		if err := fc.validate(); err == nil {
			t.Errorf("case %d: validate accepted %+v", i, fc)
		}
	}
	good := base
	good.DeltaEpsilonW = 0.5
	good.DisableBatchIngest = true
	good.applyDefaults()
	if err := good.validate(); err != nil {
		t.Errorf("validate rejected %+v: %v", good, err)
	}
}

// TestServerOptions exercises daemon.New: units derived from the
// manager, defaults applied, options landing in the config.
func TestServerOptions(t *testing.T) {
	mgr := newTestServer(t, 4).cfg.Manager
	srv, err := New(mgr,
		WithStaleAfter(3*time.Second),
		WithDeadAfter(10*time.Second),
		WithReadIdleTimeout(5*time.Second),
		WithMaxReading(330),
		WithDeltaEpsilon(0.5),
		WithoutBatchIngest(),
		WithTrace(128),
		WithBudgetTolerance(0.01),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cfg := srv.cfg
	checks := []struct {
		name string
		ok   bool
	}{
		{"units from manager", cfg.Units == 4},
		{"default interval", cfg.Interval == time.Second},
		{"stale-after", cfg.StaleAfter == 3*time.Second},
		{"dead-after", cfg.DeadAfter == 10*time.Second},
		{"read-idle-timeout", cfg.ReadIdleTimeout == 5*time.Second},
		{"max-reading", cfg.MaxReading == power.Watts(330)},
		{"delta-epsilon", cfg.DeltaEpsilon == 0.5},
		{"disable-batch-ingest", cfg.DisableBatchIngest},
		{"trace enabled", cfg.TraceEnabled && cfg.TraceSpans == 128},
		{"budget tolerance", cfg.BudgetToleranceW == 0.01},
	}
	for _, c := range checks {
		if !c.ok {
			t.Errorf("%s: not applied (config %+v)", c.name, cfg)
		}
	}

	if _, err := New(nil); err == nil {
		t.Error("New accepted a nil manager")
	}
}
