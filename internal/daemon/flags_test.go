package daemon

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"
)

// fromFlags runs one dpsd command line through the flag surface: register,
// parse, resolve.
func fromFlags(t *testing.T, args ...string) (FileConfig, error) {
	t.Helper()
	var fc FileConfig
	fs := flag.NewFlagSet("dpsd", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	resolve := RegisterFlags(fs, &fc)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parsing %q: %v", args, err)
	}
	return fc, resolve()
}

const ruleJSON = `{"name":"cap_sum_high","kind":"threshold","series":"dps_cap_sum_watts","op":">","value":2100,"for_ms":5000}`

// parityCases pairs, per flag, a command line with the JSON fragment that
// says the same thing. A flag missing here fails the completeness walk.
var parityCases = []struct {
	flag string
	args []string
	frag string
}{
	{"listen", []string{"-listen=:9000"}, `"listen": ":9000"`},
	{"http", []string{"-http=:9001"}, `"http": ":9001"`},
	{"units", []string{"-units=8"}, `"units": 8`},
	{"budget", []string{"-budget=2000"}, `"budget_w": 2000`},
	{"unit-max", []string{"-unit-max=150"}, `"unit_max_w": 150`},
	{"unit-min", []string{"-unit-min=12"}, `"unit_min_w": 12`},
	{"interval", []string{"-interval=250ms"}, `"interval_ms": 250`},
	{"policy", []string{"-policy=slurm"}, `"policy": "slurm"`},
	{"seed", []string{"-seed=99"}, `"seed": 99`},
	{"stale-after", []string{"-stale-after=3s"}, `"stale_after_ms": 3000`},
	{"dead-after", []string{"-dead-after=10s"}, `"dead_after_ms": 10000`},
	{"read-idle-timeout", []string{"-read-idle-timeout=5s"}, `"read_idle_timeout_ms": 5000`},
	{"max-reading", []string{"-max-reading=330"}, `"max_reading_w": 330`},
	{"delta-epsilon", []string{"-delta-epsilon=0.5"}, `"delta_epsilon_w": 0.5`},
	{"sparse-rounds", []string{"-sparse-rounds=false"}, `"sparse_rounds": false`},
	{"sparse-refresh-every", []string{"-sparse-refresh-every=16"}, `"sparse_refresh_every": 16`},
	{"trace", []string{"-trace"}, `"trace": true`},
	{"trace-spans", []string{"-trace-spans=512"}, `"trace_spans": 512`},
	{"series", []string{"-series"}, `"series": true`},
	{"watch", []string{"-watch"}, `"watch": true`},
	{"watch-rule", []string{"-watch", "-watch-rule=" + ruleJSON}, `"watch": true, "watch_rules": [` + ruleJSON + `]`},
	{"budget-tolerance", []string{"-budget-tolerance=0.01"}, `"budget_tolerance_w": 0.01`},
	{"snapshot-path", []string{"-snapshot-path=/var/lib/dps/state.dps"}, `"snapshot_path": "/var/lib/dps/state.dps"`},
	{"snapshot-every", []string{"-snapshot-every=25"}, `"snapshot_every": 25`},
	{"restore-from", []string{"-restore-from=/var/lib/dps/state.dps"}, `"restore_from": "/var/lib/dps/state.dps"`},
	{"standby-of", []string{"-standby-of=primary:7891"}, `"standby_of": "primary:7891"`},
	{"blackbox-path", []string{"-blackbox-path=/var/lib/dps/blackbox"}, `"blackbox_path": "/var/lib/dps/blackbox"`},
	{"blackbox-rounds", []string{"-blackbox-rounds=1024"}, `"blackbox_rounds": 1024`},
}

// flagForKey names the flag of every FileConfig key whose flag is not the
// key itself with its unit suffix dropped and dashes for underscores; ""
// marks the keys only a file can set.
var flagForKey = map[string]string{
	"history_len":     "",
	"disable_restore": "",
	"shards":          "",
	"watch_rules":     "watch-rule", // repeatable, one rule per use
}

// TestKnobFlagJSONParity proves that a command line and the config file
// saying the same thing resolve to the same FileConfig — after which there
// is only one path to a server, so nothing downstream can tell them apart
// — and that every FileConfig key and every flag is covered by a case.
func TestKnobFlagJSONParity(t *testing.T) {
	defaults, err := fromFlags(t)
	if err != nil {
		t.Fatal(err)
	}
	covered := map[string]bool{}
	for _, tc := range parityCases {
		covered[tc.flag] = true
		flags, err := fromFlags(t, tc.args...)
		if err != nil {
			t.Errorf("%s: flags %q: %v", tc.flag, tc.args, err)
			continue
		}
		var file FileConfig
		if err := json.Unmarshal([]byte(`{`+tc.frag+`}`), &file); err != nil {
			t.Errorf("%s: parsing {%s}: %v", tc.flag, tc.frag, err)
			continue
		}
		if file.Units == 0 {
			// The one flag default a file has no counterpart for: -units
			// defaults to 20, "units" is required.
			file.Units = 20
		}
		if err := file.resolve(); err != nil {
			t.Errorf("%s: file {%s}: %v", tc.flag, tc.frag, err)
			continue
		}
		if !reflect.DeepEqual(flags, file) {
			t.Errorf("%s: flags and file diverge:\nflags: %+v\nfile:  %+v", tc.flag, flags, file)
		}
		if reflect.DeepEqual(flags, defaults) {
			t.Errorf("%s: flags %q were a no-op", tc.flag, tc.args)
		}
	}

	fs := flag.NewFlagSet("dpsd", flag.ContinueOnError)
	RegisterFlags(fs, new(FileConfig))
	reached := map[string]bool{}
	rt := reflect.TypeOf(FileConfig{})
	for i := 0; i < rt.NumField(); i++ {
		key, _, _ := strings.Cut(rt.Field(i).Tag.Get("json"), ",")
		name, listed := flagForKey[key]
		if !listed {
			name = strings.ReplaceAll(strings.TrimSuffix(strings.TrimSuffix(key, "_ms"), "_w"), "_", "-")
		}
		switch {
		case name == "":
			continue
		case fs.Lookup(name) == nil:
			t.Errorf("key %q has no flag -%s (list it in flagForKey if it is file-only)", key, name)
		case !covered[name]:
			t.Errorf("flag -%s (key %q) has no parity case", name, key)
		}
		reached[name] = true
	}
	fs.VisitAll(func(f *flag.Flag) {
		if !reached[f.Name] {
			t.Errorf("flag -%s fills no FileConfig key", f.Name)
		}
	})
}

// TestBadSettingsRefusedOnBothSurfaces drives settings no dpsd should
// start with through the flags and through the equivalent file: both must
// refuse, with the same message, because both pass the same validate.
func TestBadSettingsRefusedOnBothSurfaces(t *testing.T) {
	cases := []struct {
		name string
		args []string
		frag string
	}{
		{"dead before stale", []string{"-stale-after=3s", "-dead-after=1s"}, `"stale_after_ms": 3000, "dead_after_ms": 1000`},
		{"duplicate watch rule", []string{"-watch", "-watch-rule=" + ruleJSON, "-watch-rule=" + ruleJSON},
			`"watch": true, "watch_rules": [` + ruleJSON + `,` + ruleJSON + `]`},
		{"invalid watch rule", []string{"-watch", `-watch-rule={"name":"x","kind":"nope"}`}, `"watch": true, "watch_rules": [{"name":"x","kind":"nope"}]`},
		{"negative trace-spans", []string{"-trace-spans=-1"}, `"trace_spans": -1`},
		{"negative budget-tolerance", []string{"-budget-tolerance=-1"}, `"budget_tolerance_w": -1`},
		{"negative snapshot-every", []string{"-snapshot-every=-1"}, `"snapshot_every": -1`},
		{"standby-of with restore-from", []string{"-standby-of=p:7891", "-restore-from=/s"}, `"standby_of": "p:7891", "restore_from": "/s"`},
		{"unknown policy", []string{"-policy=ml"}, `"policy": "ml"`},
		{"watch rules without watch", []string{"-watch-rule=" + ruleJSON}, `"watch_rules": [` + ruleJSON + `]`},
		{"budget below the unit minimums", []string{"-budget=1"}, `"budget_w": 1`},
	}
	for _, tc := range cases {
		_, flagErr := fromFlags(t, tc.args...)
		_, fileErr := LoadFileConfig(writeConfig(t, `{"units": 20, `+tc.frag+`}`))
		if flagErr == nil || fileErr == nil {
			t.Errorf("%s: accepted (flags: %v, file: %v)", tc.name, flagErr, fileErr)
			continue
		}
		// Each surface prefixes where the setting came from; the refusal
		// underneath is the shared one.
		if f, j := errors.Unwrap(flagErr), errors.Unwrap(fileErr); f == nil || j == nil || f.Error() != j.Error() {
			t.Errorf("%s: refusals differ:\nflags: %v\nfile:  %v", tc.name, flagErr, fileErr)
		}
	}

	// A duration the _ms fields cannot hold is refused by flag name, not
	// rounded into something the operator did not ask for.
	if _, err := fromFlags(t, "-stale-after=1500us"); err == nil || !strings.Contains(err.Error(), "-stale-after") {
		t.Errorf("-stale-after=1500us: %v, want a refusal naming the flag", err)
	}
}

// TestKnobValidation exercises the per-setting range checks of
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
		func(fc *FileConfig) { fc.BlackboxRounds = -1 },
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
	if err := good.resolve(); err != nil {
		t.Errorf("validate rejected %+v: %v", good, err)
	}
}

// TestFlagHelpGolden pins what `dpsd -h` prints for every setting flag —
// name, value type, default, help string — to the bytes the table-driven
// registration it replaced printed (-config, -quiet and -version are
// cmd/dpsd's own).
func TestFlagHelpGolden(t *testing.T) {
	var got bytes.Buffer
	fs := flag.NewFlagSet("dpsd", flag.ContinueOnError)
	fs.SetOutput(&got)
	RegisterFlags(fs, new(FileConfig))
	fs.PrintDefaults()
	const golden = "testdata/flags_help.golden"
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with UPDATE_GOLDEN=1 to regenerate)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("flag help drifted from %s (UPDATE_GOLDEN=1 regenerates):\ngot:\n%s\nwant:\n%s", golden, got.Bytes(), want)
	}
}
