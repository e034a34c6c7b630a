package faultinject

import (
	"math/rand"
	"sync"

	"dps/internal/power"
	"dps/internal/rapl"
)

// DeviceConfig schedules faults on a wrapped rapl.Device. The zero value
// injects nothing.
type DeviceConfig struct {
	// Seed drives the fault schedule.
	Seed int64

	// ErrProb fails an EnergyMicroJoules read with ErrTransient — the
	// EAGAIN-class sysfs hiccup a tolerant meter must ride through.
	ErrProb float64
	// ErrEvery fails every Nth energy read deterministically (0 = never).
	ErrEvery int

	// SpikeProb advances the reported counter by SpikeUJ on a read,
	// which the meter above turns into an impossible power spike.
	SpikeProb float64
	// SpikeUJ is the injected counter jump (default 2 GJ-worth of µJ is
	// far beyond any real interval at socket power levels).
	SpikeUJ uint64

	// CrashEvery crash-restarts the device on every Nth energy read
	// (0 = never): the energy counter rebases to zero — exactly what a
	// node reboot does to RAPL — and the programmed cap resets to the
	// hardware maximum, like firmware coming back up uncapped.
	CrashEvery int
}

// Device wraps a rapl.Device with the configured fault schedule. It is
// safe for concurrent use to the same degree as the wrapped device.
type Device struct {
	inner    rapl.Device
	cfg      DeviceConfig
	counters *Counters

	mu      sync.Mutex
	rng     *rand.Rand
	reads   int
	rebase  uint64 // counter value at the last crash-restart
	rebased bool
	spike   uint64 // accumulated injected counter jumps
	crashes int
}

var _ rapl.Device = (*Device)(nil)

// WrapDevice wraps inner with the fault schedule in cfg. counters may be
// nil.
func WrapDevice(inner rapl.Device, cfg DeviceConfig, counters *Counters) *Device {
	if cfg.SpikeUJ == 0 {
		cfg.SpikeUJ = 2_000_000_000 // ≈2 kJ: a >2 kW reading over one second
	}
	return &Device{
		inner:    inner,
		cfg:      cfg,
		counters: counters,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
	}
}

// EnergyMicroJoules implements rapl.Device with injected transient
// errors, counter spikes, and crash-restarts.
func (d *Device) EnergyMicroJoules() (uint64, error) {
	d.mu.Lock()
	d.reads++
	if d.cfg.ErrEvery > 0 && d.reads%d.cfg.ErrEvery == 0 {
		d.mu.Unlock()
		d.counters.incDevErr()
		return 0, ErrTransient
	}
	if d.cfg.ErrProb > 0 && d.rng.Float64() < d.cfg.ErrProb {
		d.mu.Unlock()
		d.counters.incDevErr()
		return 0, ErrTransient
	}
	crash := d.cfg.CrashEvery > 0 && d.reads%d.cfg.CrashEvery == 0
	spike := d.cfg.SpikeProb > 0 && d.rng.Float64() < d.cfg.SpikeProb
	d.mu.Unlock()

	raw, err := d.inner.EnergyMicroJoules()
	if err != nil {
		return raw, err
	}

	d.mu.Lock()
	defer d.mu.Unlock()
	if crash {
		// The counter rebases to zero and the cap comes back uncapped.
		d.rebase = raw
		d.rebased = true
		d.spike = 0
		d.crashes++
		d.counters.incDevCrash()
		// Reset outside the lock would race a concurrent crash; SetCap on
		// the wrapped device is cheap and lock-free here because we call
		// the inner device directly.
		d.inner.SetCap(d.inner.MaxPower())
	}
	if spike {
		d.spike += d.cfg.SpikeUJ
		d.counters.incDevSpike()
	}
	v := raw
	if d.rebased {
		v = (raw - d.rebase + rapl.CounterWrap) % rapl.CounterWrap
	}
	return (v + d.spike) % rapl.CounterWrap, nil
}

// SetCap implements rapl.Device.
func (d *Device) SetCap(w power.Watts) error { return d.inner.SetCap(w) }

// Cap implements rapl.Device.
func (d *Device) Cap() (power.Watts, error) { return d.inner.Cap() }

// MaxPower implements rapl.Device.
func (d *Device) MaxPower() power.Watts { return d.inner.MaxPower() }

// MinPower implements rapl.Device.
func (d *Device) MinPower() power.Watts { return d.inner.MinPower() }

// Crashes returns the number of crash-restarts injected so far.
func (d *Device) Crashes() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.crashes
}
