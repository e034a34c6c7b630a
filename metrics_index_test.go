package dps

import (
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"dps/internal/core"
	"dps/internal/daemon"
	"dps/internal/power"
	"dps/internal/rapl"
	"dps/internal/telemetry"
)

// registeredMetricNames constructs one of every metric-registering
// component — a fully-featured controller (health, series, watch,
// snapshotting, black box) and an agent — and collects every metric
// family name they register.
func registeredMetricNames(t *testing.T) map[string]bool {
	t.Helper()
	units := 2
	budget := power.Budget{Total: power.Watts(units) * 110, UnitMax: 165, UnitMin: 10}
	mgr, err := core.NewDPS(core.DefaultConfig(units, budget))
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	srv, err := daemon.NewServer(daemon.ServerConfig{
		Manager:       mgr,
		Units:         units,
		Interval:      time.Second,
		StaleAfter:    time.Second,
		DeadAfter:     2 * time.Second,
		SeriesEnabled: true,
		WatchEnabled:  true,
		TraceEnabled:  true,
		SnapshotPath:  filepath.Join(tmp, "state.dps"),
		BlackboxPath:  filepath.Join(tmp, "blackbox"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	dev, err := rapl.NewSimDevice(rapl.DefaultSimConfig())
	if err != nil {
		t.Fatal(err)
	}
	agent, err := daemon.NewAgent(daemon.AgentConfig{
		Devices:  []rapl.Device{dev},
		Interval: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}

	names := map[string]bool{}
	collect := func(s telemetry.Sample) { names[s.Name] = true }
	srv.Telemetry().Each(collect)
	agent.Telemetry().Each(collect)
	return names
}

// readmeMetricNames extracts every dps_* metric token the README
// mentions, normalizing Prometheus exposition suffixes (_count/_sum/
// _bucket) back to the family name they belong to.
func readmeMetricNames(t *testing.T, registered map[string]bool) map[string]bool {
	t.Helper()
	b, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	tokens := regexp.MustCompile(`dps_[a-z0-9_]+`).FindAllString(string(b), -1)
	names := map[string]bool{}
	for _, tok := range tokens {
		if registered[tok] {
			names[tok] = true
			continue
		}
		for _, suffix := range []string{"_count", "_sum", "_bucket"} {
			if base, ok := strings.CutSuffix(tok, suffix); ok && registered[base] {
				tok = base
				break
			}
		}
		names[tok] = true
	}
	return names
}

// TestMetricIndexMatchesREADME is the metric/docs drift guard: every
// metric any component registers must appear in the README's metric
// documentation, and every dps_* name the README mentions must be a real
// registered metric. A failure on either side means a metric was added,
// renamed, or removed without the docs following.
func TestMetricIndexMatchesREADME(t *testing.T) {
	registered := registeredMetricNames(t)
	documented := readmeMetricNames(t, registered)

	var missing []string
	for name := range registered {
		if !documented[name] {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	for _, name := range missing {
		t.Errorf("metric %s is registered but not documented in README.md", name)
	}

	var phantom []string
	for name := range documented {
		if !registered[name] {
			phantom = append(phantom, name)
		}
	}
	sort.Strings(phantom)
	for _, name := range phantom {
		t.Errorf("README.md documents %s but no component registers it", name)
	}
}
