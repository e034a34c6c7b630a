// Package faultinject provides deterministic, seedable fault wrappers for
// exercising the degraded-mode control plane: a net.Conn that drops,
// truncates, and partitions; a rapl.Device that returns transient errors,
// spiked readings, and crash-restarts; and a core.Manager whose caps
// overshoot the budget for a scheduled round window.
//
// Every wrapper owns a rand.Rand seeded from its config, so a fixed seed
// replays the same fault schedule — chaos tests are reproducible, not
// flaky. Deterministic count-based triggers (drop after N operations,
// crash every Nth read) are provided alongside the probabilistic knobs
// for tests that need a fault at an exact point.
//
// Injected faults are counted through an optional Counters, which
// registers one dps_fault_injected_total{kind=...} series per fault kind
// in a telemetry.Registry — the same registry the daemon and agent
// export, so a chaos run's injected faults and the control plane's
// observed health transitions land in one scrape.
package faultinject

import (
	"errors"

	"dps/internal/telemetry"
)

// Injected fault sentinels. Callers distinguish injected failures from
// real ones with errors.Is.
var (
	// ErrDropped is returned by a Conn operation that closed the
	// connection mid-flight.
	ErrDropped = errors.New("faultinject: connection dropped")
	// ErrTruncated is returned by a Conn write that sent only a prefix.
	ErrTruncated = errors.New("faultinject: write truncated")
	// ErrTransient is returned by an injected device read error.
	ErrTransient = errors.New("faultinject: transient device error")
)

// Counters exports per-kind injection counts to a telemetry registry.
// A nil *Counters is valid everywhere and counts nothing.
type Counters struct {
	connDrop      *telemetry.Counter
	connTruncate  *telemetry.Counter
	connPartition *telemetry.Counter
	devErr        *telemetry.Counter
	devSpike      *telemetry.Counter
	devCrash      *telemetry.Counter
	budget        *telemetry.Counter
}

// NewCounters registers the dps_fault_injected_total family in reg.
func NewCounters(reg *telemetry.Registry) *Counters {
	const name = "dps_fault_injected_total"
	const help = "Faults injected by the faultinject harness."
	kind := func(k string) *telemetry.Counter {
		return reg.Counter(name, help, telemetry.Label{Key: "kind", Value: k})
	}
	return &Counters{
		connDrop:      kind("conn_drop"),
		connTruncate:  kind("conn_truncate"),
		connPartition: kind("conn_partition"),
		devErr:        kind("device_error"),
		devSpike:      kind("device_spike"),
		devCrash:      kind("device_crash"),
		budget:        kind("budget"),
	}
}

// The inc* methods are nil-safe so wrappers can count unconditionally.

func (c *Counters) incConnDrop() {
	if c != nil {
		c.connDrop.Inc()
	}
}

func (c *Counters) incConnTruncate() {
	if c != nil {
		c.connTruncate.Inc()
	}
}

func (c *Counters) incConnPartition() {
	if c != nil {
		c.connPartition.Inc()
	}
}

func (c *Counters) incDevErr() {
	if c != nil {
		c.devErr.Inc()
	}
}

func (c *Counters) incDevSpike() {
	if c != nil {
		c.devSpike.Inc()
	}
}

func (c *Counters) incDevCrash() {
	if c != nil {
		c.devCrash.Inc()
	}
}

func (c *Counters) incBudget() {
	if c != nil {
		c.budget.Inc()
	}
}
