package faultinject

import (
	"errors"
	"net"
	"testing"
	"time"

	"dps/internal/rapl"
	"dps/internal/telemetry"
)

// TestConnDeterministicReplay pins the reproducibility contract: two conns
// with the same seed and config inject the same fault at the same op.
func TestConnDeterministicReplay(t *testing.T) {
	run := func() int {
		a, b := net.Pipe()
		defer a.Close()
		defer b.Close()
		fc := WrapConn(a, ConnConfig{Seed: 42, DropProb: 0.2}, nil)
		go func() {
			buf := make([]byte, 4)
			for {
				if _, err := b.Read(buf); err != nil {
					return
				}
			}
		}()
		for i := 0; i < 100; i++ {
			if _, err := fc.Write([]byte("ping")); err != nil {
				if !errors.Is(err, ErrDropped) {
					t.Fatalf("op %d: unexpected error %v", i, err)
				}
				return i
			}
		}
		t.Fatal("seeded schedule with DropProb=0.2 never dropped in 100 ops")
		return -1
	}
	first := run()
	second := run()
	if first != second {
		t.Fatalf("same seed dropped at op %d then op %d", first, second)
	}
}

// TestConnDropAfterOps verifies the deterministic drop trigger and that
// the underlying connection really closes.
func TestConnDropAfterOps(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	fc := WrapConn(a, ConnConfig{DropAfterOps: 3}, nil)
	go func() {
		buf := make([]byte, 1)
		for {
			if _, err := b.Read(buf); err != nil {
				return
			}
		}
	}()
	for i := 0; i < 3; i++ {
		if _, err := fc.Write([]byte("x")); err != nil {
			t.Fatalf("op %d failed before the trigger: %v", i, err)
		}
	}
	if _, err := fc.Write([]byte("x")); !errors.Is(err, ErrDropped) {
		t.Fatalf("op 4 error = %v, want ErrDropped", err)
	}
	// Underlying conn is closed: the peer sees EOF promptly.
	b.SetReadDeadline(time.Now().Add(time.Second))
	if _, err := b.Read(make([]byte, 1)); err == nil {
		t.Error("peer read succeeded after drop")
	}
}

// TestConnPartitionBlackholes verifies partition semantics: writes pretend
// success, reads hang until Close, and the partition is counted.
func TestConnPartitionBlackholes(t *testing.T) {
	reg := telemetry.NewRegistry()
	counters := NewCounters(reg)
	a, b := net.Pipe()
	defer b.Close()
	fc := WrapConn(a, ConnConfig{PartitionAfterOps: 1}, counters)

	go func() {
		buf := make([]byte, 1)
		b.Read(buf)
	}()
	if _, err := fc.Write([]byte("x")); err != nil {
		t.Fatalf("pre-partition write: %v", err)
	}
	// Partitioned now: the write "succeeds" but nothing arrives.
	if n, err := fc.Write([]byte("y")); n != 1 || err != nil {
		t.Fatalf("partitioned write = (%d, %v), want silent success", n, err)
	}
	if !fc.Partitioned() {
		t.Fatal("conn not partitioned after trigger")
	}

	readDone := make(chan error, 1)
	go func() {
		_, err := fc.Read(make([]byte, 1))
		readDone <- err
	}()
	select {
	case err := <-readDone:
		t.Fatalf("partitioned read returned early: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	fc.Close()
	select {
	case err := <-readDone:
		if !errors.Is(err, ErrDropped) {
			t.Fatalf("partitioned read after close = %v, want ErrDropped", err)
		}
	case <-time.After(time.Second):
		t.Fatal("partitioned read did not unblock on Close")
	}
	if got := counters.connPartition.Value(); got != 1 {
		t.Errorf("partition counter = %d, want 1", got)
	}
}

// TestConnTruncateWrites verifies a truncated write sends a strict prefix
// and surfaces ErrTruncated.
func TestConnTruncateWrites(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	fc := WrapConn(a, ConnConfig{Seed: 7, TruncateProb: 1}, nil)

	got := make(chan int, 1)
	go func() {
		buf := make([]byte, 16)
		n, _ := b.Read(buf)
		got <- n
	}()
	n, err := fc.Write([]byte("abcdefgh"))
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("write error = %v, want ErrTruncated", err)
	}
	if n != 4 {
		t.Fatalf("truncated write sent %d bytes, want 4", n)
	}
	if peer := <-got; peer != 4 {
		t.Fatalf("peer received %d bytes, want 4", peer)
	}
}

// TestDeviceTransientErrors verifies the deterministic every-Nth error
// trigger against a healthy inner device.
func TestDeviceTransientErrors(t *testing.T) {
	inner, err := rapl.NewSimDevice(rapl.DefaultSimConfig())
	if err != nil {
		t.Fatal(err)
	}
	dev := WrapDevice(inner, DeviceConfig{ErrEvery: 3}, nil)
	for i := 1; i <= 9; i++ {
		_, err := dev.EnergyMicroJoules()
		if i%3 == 0 {
			if !errors.Is(err, ErrTransient) {
				t.Fatalf("read %d error = %v, want ErrTransient", i, err)
			}
		} else if err != nil {
			t.Fatalf("read %d failed: %v", i, err)
		}
	}
}

// TestDeviceCrashRestart verifies a crash rebases the energy counter to
// zero and resets the cap to the hardware maximum.
func TestDeviceCrashRestart(t *testing.T) {
	cfg := rapl.DefaultSimConfig()
	cfg.NoiseStdDev = 0
	inner, err := rapl.NewSimDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	inner.SetLoad(100)
	inner.Advance(10) // accrue ~1000 J
	if err := inner.SetCap(50); err != nil {
		t.Fatal(err)
	}

	// CrashEvery=2: read 1 is healthy, read 2 crash-restarts the device.
	dev := WrapDevice(inner, DeviceConfig{CrashEvery: 2}, nil)
	healthy, err := dev.EnergyMicroJoules()
	if err != nil {
		t.Fatal(err)
	}
	if healthy < 900_000_000 {
		t.Fatalf("pre-crash counter = %d µJ, want ≈1000 J", healthy)
	}
	uj, err := dev.EnergyMicroJoules()
	if err != nil {
		t.Fatal(err)
	}
	if uj != 0 {
		t.Fatalf("post-crash counter = %d µJ, want 0 (rebased)", uj)
	}
	if dev.Crashes() != 1 {
		t.Fatalf("crashes = %d, want 1", dev.Crashes())
	}
	c, _ := dev.Cap()
	if c != inner.MaxPower() {
		t.Fatalf("post-crash cap = %v, want uncapped %v", c, inner.MaxPower())
	}
	// The counter keeps counting from its new base.
	inner.SetLoad(100)
	inner.Advance(1)
	uj2, err := dev.EnergyMicroJoules()
	if err != nil {
		t.Fatal(err)
	}
	if uj2 < 90_000_000 || uj2 > 110_000_000 {
		t.Fatalf("post-crash interval energy = %d µJ, want ≈100 J", uj2)
	}
}

// TestDeviceSpike verifies an injected counter jump shows up as a huge
// apparent energy delta.
func TestDeviceSpike(t *testing.T) {
	cfg := rapl.DefaultSimConfig()
	cfg.NoiseStdDev = 0
	inner, err := rapl.NewSimDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dev := WrapDevice(inner, DeviceConfig{Seed: 1, SpikeProb: 1, SpikeUJ: 500_000_000}, nil)
	before, err := dev.EnergyMicroJoules() // one spike folded in
	if err != nil {
		t.Fatal(err)
	}
	if before < 500_000_000 {
		t.Fatalf("spiked counter = %d, want ≥ 500 MµJ", before)
	}
}
