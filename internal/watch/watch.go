// Package watch is the daemon's alerting engine and runtime invariant
// auditor. It turns the paper's safety argument — the enforced cap sum
// never exceeds the cluster budget — from a property asserted in tests
// into one audited on every live decision round, and gives operators a
// Prometheus-style alert lifecycle (pending → firing → resolved, with
// `for`-duration hysteresis against flapping) without deploying an
// external alertmanager next to a dependency-free daemon.
//
// Two inputs feed the engine. Rules declared in configuration evaluate
// against the embedded metric history (internal/telemetry/series) in one
// of three forms: a threshold over a series' latest sample, absence
// (ingest staleness) of a series, and a windowed mean ("burn") over the
// raw ring. Built-in audits read the telemetry.Round record of each
// decision round, checking the budget-conservation invariant, that
// health-pinned units were actually held at their last delivered cap,
// and that every cap change carried exactly one provenance reason.
// Built-ins have no `for` grace: a violated invariant fires within the
// round that violated it.
//
// Alert state surfaces four ways: GET /alerts JSON (Handler), the
// dps_alerts_firing{rule} gauge and dps_alert_transitions_total{rule,to}
// counters, structured key=value log lines on every transition, and the
// alerts_firing count in /status. Everything is nil-safe: a nil *Watcher
// accepts ObserveRound/Evaluate calls and does nothing, so the daemon's
// hot path carries no conditionals when the watchdog is off.
//
// Like the rest of the repository, nothing here imports outside the
// standard library.
package watch

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"dps/internal/telemetry"
	"dps/internal/telemetry/series"
)

// Rule kinds.
const (
	// KindThreshold compares the series' latest sample against Value with
	// Op. The condition is false while the series has no samples.
	KindThreshold = "threshold"
	// KindAbsence holds when the series has received no sample for longer
	// than MaxAgeMS (or has never received one).
	KindAbsence = "absence"
	// KindBurn compares the mean of the series' raw samples over the
	// trailing WindowMS against Value with Op.
	KindBurn = "burn"
)

// Alert states.
const (
	StatePending  = "pending"
	StateFiring   = "firing"
	StateResolved = "resolved"
)

// Built-in invariant audit rule names.
const (
	// RuleBudgetConservation fires when a round's delivered cap sum
	// exceeds the budget beyond tolerance.
	RuleBudgetConservation = "budget_conservation"
	// RuleHealthPinIntegrity fires when a non-fresh unit's delivered cap
	// moved off the cap its agent is known to be enforcing.
	RuleHealthPinIntegrity = "health_pin_integrity"
	// RuleProvenanceCoverage fires when a round changed a unit's cap
	// without recording a provenance reason.
	RuleProvenanceCoverage = "provenance_coverage"
)

// Rule is one configured alert rule, JSON-shaped for dpsd's config file
// (`watch_rules`) and -watch-rule flags.
type Rule struct {
	// Name identifies the alert; it must be unique and not collide with a
	// built-in audit name.
	Name string `json:"name"`
	// Kind is KindThreshold, KindAbsence or KindBurn.
	Kind string `json:"kind"`
	// Series is the series-store key the rule reads, e.g.
	// "dps_cap_sum_watts" or "dps_e2e_latency_seconds:p99".
	Series string `json:"series"`
	// Op is ">" (default) or "<" for threshold and burn rules.
	Op string `json:"op,omitempty"`
	// Value is the threshold for threshold and burn rules.
	Value float64 `json:"value,omitempty"`
	// ForMS is the hysteresis: the condition must hold this long before
	// pending becomes firing. 0 fires immediately.
	ForMS int64 `json:"for_ms,omitempty"`
	// WindowMS is the trailing mean window for burn rules.
	WindowMS int64 `json:"window_ms,omitempty"`
	// MaxAgeMS is the staleness bound for absence rules.
	MaxAgeMS int64 `json:"max_age_ms,omitempty"`
}

// Validate reports whether the rule is well-formed.
func (r Rule) Validate() error {
	if r.Name == "" {
		return fmt.Errorf("watch rule: name must be set")
	}
	switch r.Name {
	case RuleBudgetConservation, RuleHealthPinIntegrity, RuleProvenanceCoverage:
		return fmt.Errorf("watch rule %q: name collides with a built-in audit", r.Name)
	}
	if r.Series == "" {
		return fmt.Errorf("watch rule %q: series must be set", r.Name)
	}
	if r.Op != "" && r.Op != ">" && r.Op != "<" {
		return fmt.Errorf("watch rule %q: op must be \">\" or \"<\", got %q", r.Name, r.Op)
	}
	if r.ForMS < 0 {
		return fmt.Errorf("watch rule %q: for_ms must be >= 0", r.Name)
	}
	switch r.Kind {
	case KindThreshold:
	case KindAbsence:
		if r.MaxAgeMS <= 0 {
			return fmt.Errorf("watch rule %q: absence rules need max_age_ms > 0", r.Name)
		}
	case KindBurn:
		if r.WindowMS <= 0 {
			return fmt.Errorf("watch rule %q: burn rules need window_ms > 0", r.Name)
		}
	default:
		return fmt.Errorf("watch rule %q: kind must be %q, %q or %q, got %q",
			r.Name, KindThreshold, KindAbsence, KindBurn, r.Kind)
	}
	return nil
}

// Alert is one rule's externally visible state.
type Alert struct {
	Rule  string `json:"rule"`
	Kind  string `json:"kind"`
	State string `json:"state"` // "inactive", "pending", "firing", "resolved"
	// Since is when the current state was entered.
	Since time.Time `json:"since,omitzero"`
	// Value is the observation that drove the last evaluation.
	Value float64 `json:"value"`
	// Message describes the last condition evaluation.
	Message string `json:"message,omitempty"`
	// FiredCount is the lifetime number of pending/inactive→firing
	// transitions.
	FiredCount uint64 `json:"fired_count,omitempty"`
}

// StateInactive is the initial state: the rule's condition has never held
// (or flapped away before its `for` elapsed).
const StateInactive = "inactive"

// Config assembles a Watcher.
type Config struct {
	// Rules are the configured series rules. Built-in audits are always
	// present unless DisableBuiltin.
	Rules []Rule
	// Store is the series store series rules read. Required when Rules is
	// non-empty.
	Store *series.Store
	// Registry receives dps_alerts_firing / dps_alert_transitions_total.
	// Optional.
	Registry *telemetry.Registry
	// Logf receives one structured line per state transition. Optional.
	Logf func(format string, args ...any)
	// DisableBuiltin drops the built-in invariant audits, leaving only
	// the configured series rules.
	DisableBuiltin bool
}

// ruleState is one rule's live state machine.
type ruleState struct {
	rule    Rule
	builtin bool

	state      string
	since      time.Time
	pendingAt  time.Time // when the condition started holding (pending entry)
	value      float64
	message    string
	firedCount uint64

	firing      *telemetry.Gauge
	toPending   *telemetry.Counter
	toFiring    *telemetry.Counter
	toResolved  *telemetry.Counter
	toInactive_ *telemetry.Counter
}

// Watcher evaluates rules and audits and holds alert state. All methods
// are safe for concurrent use and nil-safe.
type Watcher struct {
	cfg   Config
	logf  func(string, ...any)
	store *series.Store

	mu    sync.Mutex
	rules []*ruleState
	index map[string]*ruleState
}

// New builds a watcher. Rules must already be validated; New panics on a
// duplicate rule name (a configuration bug, caught by config validation
// in normal operation).
func New(cfg Config) *Watcher {
	w := &Watcher{
		cfg:   cfg,
		logf:  cfg.Logf,
		store: cfg.Store,
		index: make(map[string]*ruleState),
	}
	if w.logf == nil {
		w.logf = func(string, ...any) {}
	}
	if !cfg.DisableBuiltin {
		for _, name := range []string{RuleBudgetConservation, RuleHealthPinIntegrity, RuleProvenanceCoverage} {
			w.addRule(Rule{Name: name, Kind: "builtin"}, true)
		}
	}
	for _, r := range cfg.Rules {
		w.addRule(r, false)
	}
	return w
}

func (w *Watcher) addRule(r Rule, builtin bool) {
	if _, dup := w.index[r.Name]; dup {
		panic(fmt.Sprintf("watch: duplicate rule %q", r.Name))
	}
	rs := &ruleState{rule: r, builtin: builtin, state: StateInactive}
	if reg := w.cfg.Registry; reg != nil {
		lbl := telemetry.Label{Key: "rule", Value: r.Name}
		rs.firing = reg.Gauge("dps_alerts_firing", "1 while the alert rule is firing, else 0.", lbl)
		mk := func(to string) *telemetry.Counter {
			return reg.Counter("dps_alert_transitions_total", "Alert state transitions.",
				lbl, telemetry.Label{Key: "to", Value: to})
		}
		rs.toPending = mk(StatePending)
		rs.toFiring = mk(StateFiring)
		rs.toResolved = mk(StateResolved)
		rs.toInactive_ = mk(StateInactive)
	}
	w.rules = append(w.rules, rs)
	w.index[r.Name] = rs
}

// transition moves rs to state at now, updating metrics and logging.
// Callers hold w.mu.
func (w *Watcher) transition(rs *ruleState, state string, now time.Time) {
	from := rs.state
	rs.state = state
	rs.since = now
	switch state {
	case StateFiring:
		rs.firedCount++
		if rs.firing != nil {
			rs.firing.Set(1)
		}
		if rs.toFiring != nil {
			rs.toFiring.Inc()
		}
	case StatePending:
		if rs.toPending != nil {
			rs.toPending.Inc()
		}
	case StateResolved:
		if rs.firing != nil {
			rs.firing.Set(0)
		}
		if rs.toResolved != nil {
			rs.toResolved.Inc()
		}
	case StateInactive:
		if rs.toInactive_ != nil {
			rs.toInactive_.Inc()
		}
	}
	w.logf("watch: alert rule=%s state=%s from=%s value=%g msg=%q", rs.rule.Name, state, from, rs.value, rs.message)
}

// step advances one rule's state machine given the condition's truth at
// now. Callers hold w.mu.
func (w *Watcher) step(rs *ruleState, cond bool, now time.Time) {
	forDur := time.Duration(rs.rule.ForMS) * time.Millisecond
	switch rs.state {
	case StateInactive, StateResolved:
		if cond {
			rs.pendingAt = now
			if forDur <= 0 {
				w.transition(rs, StateFiring, now)
			} else {
				w.transition(rs, StatePending, now)
			}
		}
	case StatePending:
		if !cond {
			// Flap suppressed: the condition let go before `for` elapsed,
			// so the alert never fires.
			w.transition(rs, StateInactive, now)
		} else if now.Sub(rs.pendingAt) >= forDur {
			w.transition(rs, StateFiring, now)
		}
	case StateFiring:
		if !cond {
			w.transition(rs, StateResolved, now)
		}
	}
}

// ObserveRound audits one filled round record (it is only read, and not
// retained). Built-in audits evaluate immediately; a violated invariant
// fires within this call. A record without evidence for an invariant —
// no non-fresh units, or a manager without provenance (HasStats false) —
// never fires its alert. Nil-safe.
func (w *Watcher) ObserveRound(rec *telemetry.Round) {
	if w == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if rs, ok := w.index[RuleBudgetConservation]; ok {
		// What the manager decided, what went out and what the nodes
		// enforce once the push lands must each fit, in whole deciwatts
		// with no slack: a unit whose push failed keeps its old cap.
		over := rec.OverBudgetDW()
		rs.value = float64(over) / 10
		rs.message = fmt.Sprintf("round %d: cap sum %.1f W (decided %.1f W, enforced %.1f W) vs budget %.3f W",
			rec.Round, float64(rec.CapSumDW)/10, float64(rec.DecidedDW)/10, float64(rec.EnforcedDW)/10, rec.BudgetW)
		w.step(rs, over > 0, rec.Time)
	}
	if rs, ok := w.index[RuleHealthPinIntegrity]; ok {
		rs.value = float64(rec.PinViolations)
		rs.message = fmt.Sprintf("round %d: %d of %d non-fresh units moved off their delivered cap",
			rec.Round, rec.PinViolations, rec.PinAudited)
		w.step(rs, rec.PinViolations > 0, rec.Time)
	}
	if rs, ok := w.index[RuleProvenanceCoverage]; ok {
		rs.value = float64(rec.ProvViolations)
		rs.message = fmt.Sprintf("round %d: %d cap changes without a recorded reason",
			rec.Round, rec.ProvViolations)
		w.step(rs, rec.HasStats && rec.ProvViolations > 0, rec.Time)
	}
}

// Evaluate runs every configured series rule against the store at now.
// The daemon calls it after each sampler scrape. Nil-safe.
func (w *Watcher) Evaluate(now time.Time) {
	if w == nil || w.store == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, rs := range w.rules {
		if rs.builtin {
			continue
		}
		cond := false
		switch rs.rule.Kind {
		case KindThreshold:
			p, ok := w.store.Latest(rs.rule.Series)
			if ok {
				rs.value = p.V
				cond = compare(rs.rule.Op, p.V, rs.rule.Value)
				rs.message = fmt.Sprintf("latest %s = %g (want not %s %g)",
					rs.rule.Series, p.V, opOrDefault(rs.rule.Op), rs.rule.Value)
			} else {
				rs.message = fmt.Sprintf("series %s has no samples", rs.rule.Series)
			}
		case KindAbsence:
			maxAge := time.Duration(rs.rule.MaxAgeMS) * time.Millisecond
			p, ok := w.store.Latest(rs.rule.Series)
			if !ok {
				cond = true
				rs.value = 0
				rs.message = fmt.Sprintf("series %s has never been ingested", rs.rule.Series)
			} else {
				age := now.Sub(time.Unix(0, p.T))
				rs.value = age.Seconds()
				cond = age > maxAge
				rs.message = fmt.Sprintf("series %s last ingested %.3fs ago (max %.3fs)",
					rs.rule.Series, age.Seconds(), maxAge.Seconds())
			}
		case KindBurn:
			window := time.Duration(rs.rule.WindowMS) * time.Millisecond
			mean, n := w.store.WindowMean(rs.rule.Series, window, now)
			if n > 0 {
				rs.value = mean
				cond = compare(rs.rule.Op, mean, rs.rule.Value)
				rs.message = fmt.Sprintf("mean(%s, %s) = %g over %d samples (want not %s %g)",
					rs.rule.Series, window, mean, n, opOrDefault(rs.rule.Op), rs.rule.Value)
			} else {
				rs.message = fmt.Sprintf("series %s has no samples in window %s", rs.rule.Series, window)
			}
		}
		w.step(rs, cond, now)
	}
}

func opOrDefault(op string) string {
	if op == "" {
		return ">"
	}
	return op
}

func compare(op string, v, threshold float64) bool {
	if op == "<" {
		return v < threshold
	}
	return v > threshold
}

// Alerts returns every rule's state, sorted by rule name. Nil-safe (nil
// watcher → nil slice).
func (w *Watcher) Alerts() []Alert {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]Alert, 0, len(w.rules))
	for _, rs := range w.rules {
		kind := rs.rule.Kind
		out = append(out, Alert{
			Rule:       rs.rule.Name,
			Kind:       kind,
			State:      rs.state,
			Since:      rs.since,
			Value:      rs.value,
			Message:    rs.message,
			FiredCount: rs.firedCount,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Rule < out[j].Rule })
	return out
}

// FiringCount returns how many rules are currently firing. Nil-safe.
func (w *Watcher) FiringCount() int {
	if w == nil {
		return 0
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	n := 0
	for _, rs := range w.rules {
		if rs.state == StateFiring {
			n++
		}
	}
	return n
}

// Handler serves the watcher's alerts for mounting at GET /alerts. A nil
// watcher serves an empty list, so the endpoint exists whether or not the
// watchdog is enabled.
func (w *Watcher) Handler() http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		alerts := w.Alerts()
		if alerts == nil {
			alerts = []Alert{}
		}
		rw.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(rw).Encode(alerts); err != nil {
			http.Error(rw, err.Error(), http.StatusInternalServerError)
		}
	})
}
