package snapshot

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"dps/internal/power"
	"dps/internal/priority"
	"dps/internal/section"
	"dps/internal/stateless"
)

// nanPayload is a NaN with a non-canonical payload: the codec must carry
// its bits, not just its NaN-ness.
var nanPayload = math.Float64frombits(0x7ff8_0000_dead_beef)

// ringDurations fills a ring's duration slots in one of the patterns the
// ring section must round-trip: one value throughout (dT, a NaN payload,
// −0, or an unfilled zero ring), or explicit slots (random, a partly
// filled ring: dT up to n, zero after, or dT but for one slot mid-ring).
func ringDurations(rng *rand.Rand, kind, ringCap, n int) []power.Seconds {
	d := make([]power.Seconds, ringCap)
	for j := range d {
		switch kind {
		case 0:
			d[j] = 1
		case 1:
			d[j] = power.Seconds(nanPayload)
		case 2:
			d[j] = power.Seconds(math.Copysign(0, -1))
		case 3: // never filled: zero
		case 4:
			d[j] = power.Seconds(rng.Float64())
		case 5:
			if j < n {
				d[j] = 1
			}
		case 6:
			d[j] = 1
			if j == ringCap/2 {
				d[j] = 0.5
			}
		}
	}
	return d
}

const ringKinds = 7

// fillState builds a fully-populated State with value patterns that
// exercise the bitwise contract: NaNs, signed zeros, denormals, extreme
// integers, and rings of every duration pattern in turn.
func fillState(units, ringCap int, seed int64) *State {
	return fillStateRings(units, ringCap, seed, func(u int) int { return u % ringKinds })
}

// fillStateRings is fillState with unit u's ring durations in pattern
// kind(u) (see ringDurations).
func fillStateRings(units, ringCap int, seed int64, kind func(u int) int) *State {
	rng := rand.New(rand.NewSource(seed))
	st := &State{
		Fingerprint: Fingerprint{
			Units:              units,
			Seed:               seed,
			BudgetTotal:        power.Watts(55 * units),
			UnitMax:            120,
			UnitMin:            power.Watts(math.Copysign(0, -1)), // -0.0 must round-trip
			Sparse:             true,
			SparseRefreshEvery: 64,
			RingCap:            ringCap,
			HasDaemon:          true,
			SavedUnixMS:        1_700_000_000_123,
		},
		Steps:         ^uint64(0) - 7,
		LastRestored:  true,
		ProvDirty:     true,
		HeldAllocated: true,
		RNGSeed:       seed,
		RNGDraws:      1 << 40,
		RNGTap:        stateless.TapAt(1 << 40),
		LastDT:        1.0,
		HighCount:     units / 3,
		CachedSum:     power.Watts(math.NaN()),
		SumValid:      true,
		Rounds:        987654321,
	}
	for i := range st.RNGReg {
		st.RNGReg[i] = rng.Uint64()
	}
	words := (units + 63) / 64
	for i := 0; i < units; i++ {
		st.Caps = append(st.Caps, power.Watts(rng.NormFloat64()*40))
		st.Kalman = append(st.Kalman, KalmanState{
			Estimate: power.Watts(rng.Float64() * 100),
			Variance: rng.Float64(),
			Primed:   rng.Intn(2) == 0,
		})
		rs := RingState{
			Head:    rng.Intn(ringCap),
			N:       rng.Intn(ringCap + 1),
			Pushes:  rng.Intn(256),
			Sum:     rng.NormFloat64(),
			SumSq:   rng.Float64(),
			DurSum:  rng.Float64(),
			TailDur: rng.Float64(),
		}
		for j := 0; j < ringCap; j++ {
			rs.Powers = append(rs.Powers, power.Watts(rng.NormFloat64()))
		}
		rs.Durations = ringDurations(rng, kind(i), ringCap, rs.N)
		st.Rings = append(st.Rings, rs)
		st.Prio = append(st.Prio, rng.Intn(3) == 0)
		st.HighFreq = append(st.HighFreq, rng.Intn(4) == 0)
		st.Frozen = append(st.Frozen, priority.FrozenStats{
			N:           rng.Intn(ringCap + 1),
			Std:         power.Watts(rng.Float64()),
			Deriv:       power.Watts(rng.NormFloat64()),
			HighFreqNow: rng.Intn(2) == 0,
		})
		st.Reasons = append(st.Reasons, uint8(rng.Intn(6)))
		st.LastVal = append(st.LastVal, power.Watts(rng.Float64()*60))
		st.LastStep = append(st.LastStep, rng.Uint64())
		st.Health = append(st.Health, uint8(rng.Intn(3)))
		st.ReportAgeMS = append(st.ReportAgeMS, uint64(rng.Intn(10_000)))
		st.LastCaps = append(st.LastCaps, power.Watts(rng.Float64()*55))
		st.LastPushed = append(st.LastPushed, power.Watts(rng.Float64()*55))
		st.Readings = append(st.Readings, power.Watts(rng.Float64()*150))
	}
	for i := 0; i < words; i++ {
		st.SettledW = append(st.SettledW, rng.Uint64())
		st.CapMovedW = append(st.CapMovedW, rng.Uint64())
	}
	// Mask the tail word down to valid bits, matching producer behavior.
	if tail := uint(units & 63); tail != 0 {
		m := (uint64(1) << tail) - 1
		st.SettledW[words-1] &= m
		st.CapMovedW[words-1] &= m
	}
	return st
}

// eqF64 compares float64s bitwise (NaN == NaN, -0 != +0).
func eqF64(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func assertStateEqual(t *testing.T, want, got *State) {
	t.Helper()
	if got.Units != want.Units || got.Seed != want.Seed ||
		!eqF64(float64(got.BudgetTotal), float64(want.BudgetTotal)) ||
		!eqF64(float64(got.UnitMax), float64(want.UnitMax)) ||
		!eqF64(float64(got.UnitMin), float64(want.UnitMin)) ||
		got.Sparse != want.Sparse || got.SparseRefreshEvery != want.SparseRefreshEvery {
		t.Fatalf("config mismatch: got %+v", got)
	}
	if got.HasDaemon != want.HasDaemon {
		t.Fatalf("daemon section present: got %v want %v", got.HasDaemon, want.HasDaemon)
	}
	if got.Steps != want.Steps || got.LastRestored != want.LastRestored ||
		got.ProvDirty != want.ProvDirty || got.HeldAllocated != want.HeldAllocated {
		t.Fatalf("core scalars mismatch")
	}
	for u := range want.Caps {
		if !eqF64(float64(got.Caps[u]), float64(want.Caps[u])) {
			t.Fatalf("caps[%d]: got %v want %v", u, got.Caps[u], want.Caps[u])
		}
		if got.Kalman[u].Primed != want.Kalman[u].Primed ||
			!eqF64(float64(got.Kalman[u].Estimate), float64(want.Kalman[u].Estimate)) ||
			!eqF64(got.Kalman[u].Variance, want.Kalman[u].Variance) {
			t.Fatalf("kalman[%d] mismatch", u)
		}
		gw, ww := &got.Rings[u], &want.Rings[u]
		if gw.Head != ww.Head || gw.N != ww.N || gw.Pushes != ww.Pushes ||
			!eqF64(gw.Sum, ww.Sum) || !eqF64(gw.SumSq, ww.SumSq) ||
			!eqF64(gw.DurSum, ww.DurSum) || !eqF64(gw.TailDur, ww.TailDur) {
			t.Fatalf("ring[%d] scalars mismatch", u)
		}
		for j := range ww.Powers {
			if !eqF64(float64(gw.Powers[j]), float64(ww.Powers[j])) ||
				!eqF64(float64(gw.Durations[j]), float64(ww.Durations[j])) {
				t.Fatalf("ring[%d] slot %d mismatch", u, j)
			}
		}
		if got.Prio[u] != want.Prio[u] || got.HighFreq[u] != want.HighFreq[u] {
			t.Fatalf("priority flags[%d] mismatch", u)
		}
		if got.Frozen[u] != want.Frozen[u] {
			t.Fatalf("frozen[%d]: got %+v want %+v", u, got.Frozen[u], want.Frozen[u])
		}
		if got.Reasons[u] != want.Reasons[u] {
			t.Fatalf("provenance[%d] mismatch", u)
		}
	}
	if got.RNGSeed != want.RNGSeed || got.RNGDraws != want.RNGDraws {
		t.Fatalf("rng: got %d/%d want %d/%d", got.RNGSeed, got.RNGDraws, want.RNGSeed, want.RNGDraws)
	}
	if got.RNGTap != want.RNGTap || got.RNGReg != want.RNGReg {
		t.Fatalf("rng register: got tap %d, want tap %d", got.RNGTap, want.RNGTap)
	}
	if !eqF64(float64(got.LastDT), float64(want.LastDT)) || got.HighCount != want.HighCount ||
		!eqF64(float64(got.CachedSum), float64(want.CachedSum)) || got.SumValid != want.SumValid {
		t.Fatalf("sparse scalars mismatch")
	}
	for i := range want.SettledW {
		if got.SettledW[i] != want.SettledW[i] || got.CapMovedW[i] != want.CapMovedW[i] {
			t.Fatalf("sparse mask word %d mismatch", i)
		}
	}
	for u := range want.LastVal {
		if !eqF64(float64(got.LastVal[u]), float64(want.LastVal[u])) || got.LastStep[u] != want.LastStep[u] {
			t.Fatalf("sparse lastVal/lastStep[%d] mismatch", u)
		}
	}
	if want.HasDaemon {
		if got.SavedUnixMS != want.SavedUnixMS || got.Rounds != want.Rounds {
			t.Fatalf("daemon scalars mismatch")
		}
		for u := range want.Health {
			if got.Health[u] != want.Health[u] || got.ReportAgeMS[u] != want.ReportAgeMS[u] ||
				!eqF64(float64(got.LastCaps[u]), float64(want.LastCaps[u])) ||
				!eqF64(float64(got.LastPushed[u]), float64(want.LastPushed[u])) ||
				!eqF64(float64(got.Readings[u]), float64(want.Readings[u])) {
				t.Fatalf("daemon unit %d mismatch", u)
			}
		}
	}
}

func TestRoundTrip(t *testing.T) {
	for _, units := range []int{1, 64, 96, 200} {
		st := fillState(units, 20, int64(units)+3)
		img := Encode(nil, st)
		got, err := Decode(img)
		if err != nil {
			t.Fatalf("units=%d: decode: %v", units, err)
		}
		assertStateEqual(t, st, got)
	}
}

// TestEncodeByteIdentity is the property test the replication differ
// depends on: encode→decode→encode produces the identical byte stream,
// so section-level comparison of consecutive encodes is meaningful.
func TestEncodeByteIdentity(t *testing.T) {
	st := fillState(96, 20, 11)
	img1 := Encode(nil, st)
	got, err := Decode(img1)
	if err != nil {
		t.Fatal(err)
	}
	img2 := Encode(nil, got)
	if !bytes.Equal(img1, img2) {
		t.Fatalf("encode→decode→encode changed bytes: %d vs %d", len(img1), len(img2))
	}
}

// sameBits reports whether a and b are deeply equal with floats compared
// by bit pattern (NaN payloads and signed zeros count): reflect.DeepEqual
// under the codec's bitwise contract. Unexported fields are the rings'
// backing storage, which the exported slot slices alias, and are skipped.
func sameBits(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float32, reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Slice:
		if a.Len() != b.Len() {
			return false
		}
		fallthrough
	case reflect.Array:
		for i := 0; i < a.Len(); i++ {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if a.Type().Field(i).IsExported() && !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	}
	return a.Equal(b)
}

// TestRoundTripMixedRings is the ring section's property test: over
// random mixes of uniform rings (dT, NaN payload, −0, never filled) and
// explicit ones (random, partly filled), encode→decode→encode is
// byte-identical and the decoded state equals the original bit for bit.
func TestRoundTripMixedRings(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for trial := 0; trial < 60; trial++ {
		units := 1 + rng.Intn(150)
		ringCap := 1 + rng.Intn(24)
		mix := rng.Intn(ringKinds + 1) // ringKinds: every ring its own pattern
		st := fillStateRings(units, ringCap, int64(trial), func(int) int {
			if mix == ringKinds {
				return rng.Intn(ringKinds)
			}
			return mix
		})
		img := Encode(nil, st)
		got, err := Decode(img)
		if err != nil {
			t.Fatalf("trial %d (%d units, ring %d, mix %d): decode: %v", trial, units, ringCap, mix, err)
		}
		if !sameBits(reflect.ValueOf(*st), reflect.ValueOf(*got)) {
			t.Fatalf("trial %d (%d units, ring %d, mix %d): decoded state differs", trial, units, ringCap, mix)
		}
		if again := Encode(nil, got); !bytes.Equal(again, img) {
			t.Fatalf("trial %d (%d units, ring %d, mix %d): encode→decode→encode changed bytes", trial, units, ringCap, mix)
		}
	}
}

// TestRingDurationsStoredOnce pins the v2 ring layout's size: a ring
// whose slots share one duration costs one tag and one value, any other
// ring a tag and every slot.
func TestRingDurationsStoredOnce(t *testing.T) {
	const units, ringCap = 64, 20
	ringsLen := func(kind int) int {
		img := Encode(nil, fillStateRings(units, ringCap, 1, func(int) int { return kind }))
		w := section.Walk(img[HeaderSize:])
		for w.Next() {
			if w.ID == SecRings {
				return len(w.Payload)
			}
		}
		t.Fatal("image without a ring section")
		return 0
	}
	uniform := 4 + units*(ringHeader+8*ringCap+1+8)
	explicit := 4 + units*(ringHeader+16*ringCap+1)
	for kind, want := range []int{uniform, uniform, uniform, uniform, explicit} {
		if got := ringsLen(kind); got != want {
			t.Errorf("ring pattern %d: ring section %d bytes, want %d", kind, got, want)
		}
	}
}

// TestEncodeColdAllocs: Encode sizes its image before writing it, so a
// cold encode makes exactly one allocation, the image itself, at any
// fleet size.
func TestEncodeColdAllocs(t *testing.T) {
	for _, units := range []int{1024, 16384} {
		st := fillState(units, 20, 3)
		var img []byte
		allocs := testing.AllocsPerRun(3, func() {
			img = Encode(nil, st)
		})
		if allocs != 1 {
			t.Errorf("cold Encode at %d units allocates %v times, want 1", units, allocs)
		}
		if len(img) != cap(img) {
			t.Errorf("cold Encode at %d units: image %d bytes in a %d-byte buffer", units, len(img), cap(img))
		}
	}
}

// TestEncodeReuseNoAlloc checks the warm-path contract: re-encoding into
// a retained buffer allocates nothing.
func TestEncodeReuseNoAlloc(t *testing.T) {
	st := fillState(128, 20, 5)
	buf := Encode(nil, st)
	allocs := testing.AllocsPerRun(10, func() {
		buf = Encode(buf, st)
	})
	if allocs != 0 {
		t.Fatalf("warm Encode allocates %v times", allocs)
	}
}

func TestPartialStates(t *testing.T) {
	full := fillState(40, 8, 9)
	img := Encode(nil, full)

	// The core family is mandatory: an image of the config alone is
	// corrupt.
	configOnly := editSections(t, img, func(id uint16, p []byte) ([]byte, bool) { return p, id == SecConfig })
	if _, err := Decode(configOnly); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("config-only image: %v, want ErrCorrupt", err)
	}

	noDaemon := &State{}
	*noDaemon = *full
	noDaemon.HasDaemon = false
	got, err := Decode(Encode(nil, noDaemon))
	if err != nil {
		t.Fatalf("core only: %v", err)
	}
	if got.HasDaemon {
		t.Fatalf("core-only image decoded with a daemon section: %+v", got)
	}
}

func TestUnknownSectionSkipped(t *testing.T) {
	st := fillState(32, 8, 4)
	img := Encode(nil, st)

	// Append a future section (id 0x7777) with a valid CRC; the decoder
	// must skip it and still return the known state.
	var extra []byte
	extra, start := section.Begin(img, 0x7777)
	extra = append(extra, []byte("future payload")...)
	extra = section.End(extra, start)

	got, err := Decode(extra)
	if err != nil {
		t.Fatalf("unknown section not skipped: %v", err)
	}
	assertStateEqual(t, st, got)

	// Same section with a corrupted payload byte must fail: unknown ids
	// are skipped, corrupt bytes are not.
	extra[len(extra)-6] ^= 0x01
	if _, err := Decode(extra); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt unknown section decoded: %v", err)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	st := fillState(48, 8, 6)
	img := Encode(nil, st)

	t.Run("bit flips", func(t *testing.T) {
		rng := rand.New(rand.NewSource(1))
		for trial := 0; trial < 200; trial++ {
			mut := append([]byte(nil), img...)
			pos := rng.Intn(len(mut))
			mut[pos] ^= 1 << uint(rng.Intn(8))
			got, err := Decode(mut)
			if err == nil {
				// A flip inside the header version (downgrade) or a flag
				// byte can legitimately decode; state must then still
				// differ only where permitted. A flip below HeaderSize is
				// the only acceptable silent spot.
				if pos >= HeaderSize {
					t.Fatalf("trial %d: flip at %d decoded silently: %+v", trial, pos, got.Steps)
				}
			}
		}
	})

	t.Run("truncation", func(t *testing.T) {
		for cut := 0; cut < len(img); cut += 7 {
			if _, err := Decode(img[:cut]); err == nil {
				t.Fatalf("truncation to %d bytes decoded", cut)
			}
		}
	})

	t.Run("bad magic", func(t *testing.T) {
		mut := append([]byte(nil), img...)
		mut[0] = 'X'
		if _, err := Decode(mut); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("bad magic: %v", err)
		}
	})

	t.Run("future version", func(t *testing.T) {
		mut := append([]byte(nil), img...)
		mut[4] = byte(Version + 1)
		if _, err := Decode(mut); !errors.Is(err, ErrVersion) {
			t.Fatalf("future version: %v", err)
		}
		mut[4] = 0
		if _, err := Decode(mut); !errors.Is(err, ErrVersion) {
			t.Fatalf("version 0: %v", err)
		}
	})

	t.Run("hostile rings", func(t *testing.T) {
		for name, mut := range hostileRings(t) {
			if _, err := Decode(mut); !errors.Is(err, ErrCorrupt) {
				t.Errorf("%s: decoded with %v", name, err)
			}
		}
	})

	t.Run("v2 image read as v1", func(t *testing.T) {
		mut := append([]byte(nil), img...)
		mut[4] = 1
		if _, err := Decode(mut); !errors.Is(err, ErrVersion) {
			t.Fatalf("v2 image under a v1 header: %v", err)
		}
	})

	t.Run("hostile register", func(t *testing.T) {
		for name, mut := range hostileRegisters(t, img) {
			if _, err := Decode(mut); !errors.Is(err, ErrCorrupt) {
				t.Errorf("%s: decoded with %v", name, err)
			}
		}
	})

	t.Run("duplicate section", func(t *testing.T) {
		w := section.Walk(img[HeaderSize:])
		if !w.Next() {
			t.Fatalf("valid image has no first section (%v)", w.Stop)
		}
		dup := append(append([]byte(nil), img...), w.Raw...)
		if _, err := Decode(dup); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("duplicate config section: %v", err)
		}
	})
}

// editSections rebuilds img section by section through edit, which
// returns the payload to frame under the same id (fresh CRC) or
// keep=false to drop the section: hostile images the CRC cannot catch.
func editSections(t testing.TB, img []byte, edit func(id uint16, payload []byte) (out []byte, keep bool)) []byte {
	t.Helper()
	out := append([]byte(nil), img[:HeaderSize]...)
	w := section.Walk(img[HeaderSize:])
	for w.Next() {
		payload, keep := edit(w.ID, append([]byte(nil), w.Payload...))
		if !keep {
			continue
		}
		var start int
		out, start = section.Begin(out, w.ID)
		out = section.End(append(out, payload...), start)
	}
	if w.Stop != section.Clean {
		t.Fatalf("walking a valid image stopped at %v", w.Stop)
	}
	return out
}

// hostileRegisters are well-framed images whose PRNG register section
// cannot be trusted: each must be refused, by name, before a restore
// could act on it.
func hostileRegisters(t testing.TB, img []byte) map[string][]byte {
	onReg := func(edit func(p []byte) []byte) []byte {
		return editSections(t, img, func(id uint16, p []byte) ([]byte, bool) {
			if id == SecRNGReg {
				p = edit(p)
			}
			return p, true
		})
	}
	return map[string][]byte{
		"register one word short": onReg(func(p []byte) []byte { return p[:len(p)-8] }),
		"register one byte long":  onReg(func(p []byte) []byte { return append(p, 0) }),
		"position out of range":   onReg(func(p []byte) []byte { p[0], p[1] = 0x5f, 0x02; return p }), // 607
		"position off the draw count": onReg(func(p []byte) []byte {
			tap := (stateless.TapAt(1<<40) + 1) % stateless.RegisterLen
			p[0], p[1] = byte(tap), byte(tap>>8)
			return p
		}),
		"register without draw count": editSections(t, img, func(id uint16, p []byte) ([]byte, bool) { return p, id != SecRNG }),
		"register without draw count or core": editSections(t, img, func(id uint16, p []byte) ([]byte, bool) {
			return p, id != SecRNG && id != SecCore
		}),
	}
}

// hostileRings are well-framed v2 images whose ring section cannot be
// trusted, built on a two-unit state whose first ring stores its
// durations slot by slot and whose second stores one value: each must be
// refused as corrupt.
func hostileRings(t testing.TB) map[string][]byte {
	const ringCap = 4
	img := Encode(nil, fillStateRings(2, ringCap, 5, func(u int) int { return []int{4, 0}[u] }))
	onRings := func(edit func(p []byte) []byte) []byte {
		return editSections(t, img, func(id uint16, p []byte) ([]byte, bool) {
			if id == SecRings {
				p = edit(p)
			}
			return p, true
		})
	}
	firstTag := 4 + ringHeader + 8*ringCap
	return map[string][]byte{
		"ring tag 2":                    onRings(func(p []byte) []byte { p[firstTag] = 2; return p }),
		"uniform duration truncated":    onRings(func(p []byte) []byte { return p[:len(p)-3] }),
		"explicit tag on uniform bytes": onRings(func(p []byte) []byte { p[len(p)-9] = ringExplicit; return p }),
		"uniform tag on explicit bytes": onRings(func(p []byte) []byte { p[firstTag] = ringUniform; return p }),
	}
}

// withoutSection is img with section drop removed and every other
// section intact: a well-framed image the CRC cannot catch.
func withoutSection(t testing.TB, img []byte, drop uint16) []byte {
	return editSections(t, img, func(id uint16, p []byte) ([]byte, bool) { return p, id != drop })
}

// TestImageWithoutRegister: an image whose PRNG register section is
// dropped holds part of the core family and is refused as corrupt; no
// restore replays the draw count instead.
func TestImageWithoutRegister(t *testing.T) {
	img := Encode(nil, fillState(48, 8, 6))
	bare := withoutSection(t, img, SecRNGReg)
	if len(img)-len(bare) != section.Overhead+2+8*stateless.RegisterLen {
		t.Fatalf("register section takes %d bytes of the image", len(img)-len(bare))
	}
	if _, err := Decode(bare); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("image without a register section: %v, want ErrCorrupt", err)
	}
}

// TestImageWithoutSparseSection: an image whose sparse section is
// dropped is refused as corrupt; no restore resets the settle
// certificates instead.
func TestImageWithoutSparseSection(t *testing.T) {
	if _, err := Decode(withoutSection(t, Encode(nil, fillState(48, 8, 6)), SecSparse)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("image without a sparse section: %v, want ErrCorrupt", err)
	}
}

// TestDecodeIntoWarmStateForgetsSections decodes into a State that has
// held a full image before, as the daemon's retained state does: columns
// left over from the earlier image must not stand in for sections the
// new image lacks.
func TestDecodeIntoWarmStateForgetsSections(t *testing.T) {
	full := Encode(nil, fillState(40, 8, 9))
	var st State
	if err := DecodeInto(&st, full); err != nil {
		t.Fatal(err)
	}
	for _, drop := range coreFamily {
		if err := DecodeInto(&st, withoutSection(t, full, drop)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("core image without section 0x%04x decoded into a warm state: %v", drop, err)
		}
	}
	noCore := editSections(t, full, func(id uint16, p []byte) ([]byte, bool) { return p, id == SecConfig || id == SecDaemon })
	if err := DecodeInto(&st, noCore); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("image without the core family decoded into a warm state: %v", err)
	}
}

// TestDecodeAllocsIndependentOfUnits: a cold DecodeInto allocates per
// column, not per unit — the rings share one backing array per column —
// so what a takeover pays the allocator does not grow with the fleet.
func TestDecodeAllocsIndependentOfUnits(t *testing.T) {
	cold := func(units int) float64 {
		img := Encode(nil, fillState(units, 20, 3))
		return testing.AllocsPerRun(3, func() {
			var st State
			if err := DecodeInto(&st, img); err != nil {
				t.Fatal(err)
			}
		})
	}
	// A process's first collection starts the background mark workers,
	// allocations of its own that would otherwise land inside whichever
	// measurement the collection first falls in (the test alone in a
	// fresh process read 19 at 1024 units against 18 at 16384).
	runtime.GC()
	small, large := cold(1024), cold(16384)
	t.Logf("cold DecodeInto: %v allocations at 1024 units, %v at 16384", small, large)
	if small != large || large > 30 {
		t.Fatalf("cold DecodeInto allocates %v times at 1024 units, %v at 16384; want equal and O(sections)", small, large)
	}
}

// TestEncodeSectionOrder pins the image's section sequence: ids ascending,
// config first, every section CRC-clean.
func TestEncodeSectionOrder(t *testing.T) {
	img := Encode(nil, fillState(64, 12, 8))
	var ids []uint16
	w := section.Walk(img[HeaderSize:])
	for w.Next() {
		ids = append(ids, w.ID)
	}
	if w.Stop != section.Clean {
		t.Fatalf("walking a valid image stopped at %v", w.Stop)
	}
	wantIDs := []uint16{SecConfig, SecCore, SecCaps, SecKalman, SecRings, SecPriority, SecRNG, SecRNGReg, SecProv, SecSparse, SecDaemon}
	if !reflect.DeepEqual(ids, wantIDs) {
		t.Fatalf("section ids %#04x, want %#04x", ids, wantIDs)
	}
}

// FuzzSnapshotDecode asserts the decoder's only failure mode on
// arbitrary input is a returned error: no panics, no runaway
// allocations. Valid images must keep decoding.
func FuzzSnapshotDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("DPSS"))
	img := Encode(nil, fillState(8, 4, 2))
	f.Add(img)
	trunc := img[:len(img)/2]
	f.Add(append([]byte(nil), trunc...))
	flip := append([]byte(nil), img...)
	flip[len(flip)/3] ^= 0x40
	f.Add(flip)
	for _, hostile := range hostileRegisters(f, img) {
		f.Add(hostile)
	}
	for _, hostile := range hostileRings(f) {
		f.Add(hostile)
	}
	if v1, err := os.ReadFile(v1Image); err == nil {
		f.Add(v1)
	}
	f.Add(withoutSection(f, img, SecSparse))
	f.Add(withoutSection(f, img, SecRNGReg))
	f.Add(Encode(nil, fillStateRings(8, 4, 2, func(int) int { return 0 }))) // every ring uniform
	v3 := append([]byte(nil), img...)
	v3[4] = 3
	f.Add(v3)
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := Decode(data)
		if err != nil {
			return
		}
		// Successful decodes must re-encode without panicking, and the
		// result must decode again (self-consistency on the happy path).
		if _, err := Decode(Encode(nil, st)); err != nil {
			t.Fatalf("re-encode of decoded state does not decode: %v", err)
		}
	})
}

// v1Image is a version-1 image, written by the commit before the shared
// section codec (a88cf7a). Decoders refuse it (TestV1ImageRefused).
var v1Image = filepath.Join("..", "daemon", "testdata", "v1_state.snap")
