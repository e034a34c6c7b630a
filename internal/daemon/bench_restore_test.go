package daemon

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"dps/internal/core"
	"dps/internal/power"
	"dps/internal/proto"
	"dps/internal/snapshot"
	"dps/internal/stateless"
)

// benchRestoreServer builds a DPS server at cluster scale with health
// tracking off (the codec cost under measurement is the same either
// way) and a few warm rounds behind it, so the exported state is the
// settled mid-run shape, not a fresh-boot zero image.
func benchRestoreServer(b *testing.B, units int, snapPath string) *Server {
	b.Helper()
	mgr, err := core.NewDPS(core.DefaultConfig(units, testBudget(units)))
	if err != nil {
		b.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{Manager: mgr, Units: units, Interval: time.Second, SnapshotPath: snapPath, SnapshotEvery: 1})
	if err != nil {
		b.Fatal(err)
	}
	readings := make(power.Vector, units)
	for u := range readings {
		readings[u] = power.Watts(40 + (u*7)%100)
	}
	setReadings(srv, readings)
	for i := 0; i < 3; i++ {
		if _, err := srv.DecideOnce(1); err != nil {
			b.Fatal(err)
		}
	}
	return srv
}

// benchSnapState builds a full snapshot State — controller plus daemon
// sections — straight from a core.DPS export, bypassing the daemon so
// the codec can be measured past the protocol's 64 Ki-unit ceiling.
func benchSnapState(b *testing.B, units int) *snapshot.State {
	b.Helper()
	d, err := core.NewDPS(core.DefaultConfig(units, testBudget(units)))
	if err != nil {
		b.Fatal(err)
	}
	st := &snapshot.State{}
	d.ExportState(st)
	st.HasDaemon = true
	st.SavedUnixMS = 1_700_000_000_000
	st.Rounds = 3
	st.LastCaps = make(power.Vector, units)
	st.LastPushed = make(power.Vector, units)
	st.Health = make([]uint8, units)
	st.ReportAgeMS = make([]uint64, units)
	st.Readings = make(power.Vector, units)
	for u := 0; u < units; u++ {
		st.LastCaps[u] = power.Watts(100 + u%60)
		st.LastPushed[u] = st.LastCaps[u]
		st.ReportAgeMS[u] = uint64(u % 900)
		st.Readings[u] = power.Watts(40 + (u*7)%100)
	}
	return st
}

// BenchmarkSnapshotCodec times the state image's encode and decode at
// cluster scale: the per-round cost a primary pays to assemble the
// image, and the boot-time cost a restore or takeover pays to parse it.
// Feeds scripts/bench_restore.sh.
func BenchmarkSnapshotCodec(b *testing.B) {
	for _, units := range []int{16384, 262144} {
		st := benchSnapState(b, units)
		img := snapshot.Encode(nil, st)
		b.Run(fmt.Sprintf("encode/N=%d", units), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(img)))
			var buf []byte
			for i := 0; i < b.N; i++ {
				buf = snapshot.Encode(buf, st)
			}
		})
		b.Run(fmt.Sprintf("decode/N=%d", units), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(img)))
			var out snapshot.State
			for i := 0; i < b.N; i++ {
				if err := snapshot.DecodeInto(&out, img); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// agedImage writes, next to the snapshot at path, the same image with the
// draw count of a donor turns whole turns of the PRNG register older, and
// returns the new file's path. A whole turn leaves the register's tap
// position where it stands, so the register is kept and the image stays
// sound, as in core's TestRestoreIndependentOfDonorAge.
func agedImage(b *testing.B, path string, turns uint64) string {
	b.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		b.Fatal(err)
	}
	st, err := snapshot.Decode(data)
	if err != nil {
		b.Fatal(err)
	}
	st.RNGDraws += turns * stateless.RegisterLen
	aged := path + ".aged"
	if err := os.WriteFile(aged, snapshot.Encode(nil, st), 0o644); err != nil {
		b.Fatal(err)
	}
	return aged
}

// BenchmarkTakeoverFirstRound times time-to-first-caps for the two boot
// paths the HA design trades between: cold (a fresh controller's first
// round — the constant-allocation round every unit pays for) and warm
// (restore the snapshot, then decide — the takeover path, where the
// first round continues the donor's trajectory). The warm path runs on
// two donor ages, three rounds and the same state 16 475 register turns
// (≈ 10^7 PRNG draws, about half an hour of bench's dense16k) on, which
// must cost the same: the image carries the generator. Feeds
// scripts/bench_restore.sh; `make bench-smoke` runs the 16k rows once.
func BenchmarkTakeoverFirstRound(b *testing.B) {
	// 65536 is the protocol's addressable ceiling; the codec benchmark
	// above covers scaling beyond it.
	for _, units := range []int{16384, 65536} {
		// Donor: a settled primary whose graceful shutdown leaves the
		// snapshot file a takeover would inherit.
		path := filepath.Join(b.TempDir(), fmt.Sprintf("state-%d.dps", units))
		donor := benchRestoreServer(b, units, path)
		if err := donor.Close(); err != nil {
			b.Fatal(err)
		}

		newBoot := func(b *testing.B) *Server {
			b.Helper()
			mgr, err := core.NewDPS(core.DefaultConfig(units, testBudget(units)))
			if err != nil {
				b.Fatal(err)
			}
			srv, err := NewServer(ServerConfig{Manager: mgr, Units: units, Interval: time.Second})
			if err != nil {
				b.Fatal(err)
			}
			return srv
		}

		b.Run(fmt.Sprintf("cold/N=%d", units), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				srv := newBoot(b)
				b.StartTimer()
				if _, err := srv.DecideOnce(1); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				srv.Close()
				b.StartTimer()
			}
		})
		for _, donor := range []struct {
			name, image string
		}{{"3rounds", path}, {"1e7draws", agedImage(b, path, 16475)}} {
			b.Run(fmt.Sprintf("warm/N=%d/donor=%s", units, donor.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					srv := newBoot(b)
					b.StartTimer()
					if err := srv.RestoreFromSnapshot(donor.image); err != nil {
						b.Fatal(err)
					}
					if _, err := srv.DecideOnce(1); err != nil {
						b.Fatal(err)
					}
					b.StopTimer()
					srv.Close()
					b.StartTimer()
				}
			})
		}
	}
}

// BenchmarkReplicateRound times what a primary pays per round to keep one
// synced warm standby: building the round's input frame under fully dense
// traffic with health tracking on (the ops16k shape) and writing it to
// the replica. `make bench-smoke` runs it once so it cannot rot.
func BenchmarkReplicateRound(b *testing.B) {
	const units = 16384
	b.Run(fmt.Sprintf("N=%d", units), func(b *testing.B) {
		mgr, err := core.NewDPS(core.DefaultConfig(units, testBudget(units)))
		if err != nil {
			b.Fatal(err)
		}
		srv, err := NewServer(ServerConfig{Manager: mgr, Units: units, Interval: time.Second,
			StaleAfter: 3 * time.Second, DeadAfter: 10 * time.Second})
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		client, server := net.Pipe()
		defer client.Close()
		go srv.Handle(server)
		if err := proto.WriteHello(client, proto.Hello{FirstUnit: 0, Units: 1, Replicate: true}); err != nil {
			b.Fatal(err)
		}
		if err := rawReadAck(client); err != nil {
			b.Fatal(err)
		}
		var frameBytes atomic.Int64
		go func() {
			var buf []byte
			for {
				_, payload, grown, err := proto.ReadStateFrame(client, buf)
				if err != nil {
					return
				}
				buf = grown
				frameBytes.Store(int64(len(payload)))
			}
		}()
		for registered := false; !registered; time.Sleep(time.Millisecond) {
			srv.snapMu.Lock()
			registered = len(srv.replicas) == 1
			srv.snapMu.Unlock()
		}
		readings := make(power.Vector, units)
		for u := range readings {
			readings[u] = power.Watts(40 + (u*7)%100)
		}
		var caps power.Vector
		for i := 0; i < 3; i++ { // image to the new replica, then input frames
			setReadings(srv, readings)
			if caps, err = srv.DecideOnce(1); err != nil {
				b.Fatal(err)
			}
		}
		round := srv.Rounds()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			round++
			srv.replicateRound(round, 1, caps, nil)
		}
		b.ReportMetric(float64(frameBytes.Load())/1024, "frame_kB")
	})
}
