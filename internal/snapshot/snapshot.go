// Package snapshot defines the controller's versioned state-snapshot
// format: everything a DPS controller and its daemon accumulate across
// decision rounds — caps, ring histories, Kalman bank, priority and
// frozen stats, sparse bookkeeping, the PRNG (its register and tap
// position, beside the draw count the position is checked against),
// provenance, health clocks —
// serialized so a restarted or warm-standby controller resumes
// bit-for-bit where the original stopped (DESIGN.md §14).
//
// # Wire format
//
// A snapshot is a fixed header followed by CRC-framed sections, the
// framing internal/section defines (and the black box shares):
//
//	header:  magic "DPSS" | version u16 | flags u16 (reserved, zero)
//
// Floats are IEEE-754 bit patterns (the format round-trips NaNs and
// signed zeros — restore equivalence is bitwise, not numeric).
//
// Each ring of SecRings is its scalars, its RingCap power slots, then a
// tag byte: 1 and one f64 when every duration slot holds that value bit
// for bit (the rule once a ring has filled at a steady interval), 0 and
// RingCap explicit f64s otherwise; any other tag is corrupt. A ring
// section's size is therefore a range, checked before anything is sized
// from it.
//
// The controller's sections form one family (coreFamily), and every
// image holds all of them. Decoders skip sections whose id they do not
// recognize (forward compatibility: a newer writer can add sections
// without breaking older readers), but only after the CRC validates —
// corrupt bytes never parse as "unknown, ignore".
//
// Decoding is two passes over one walk. Verify checks the whole image —
// header, every CRC, framing, sizes, ring tags and bounds, the core
// family, the register's tap — writes nothing, and returns the image's
// Fingerprint; DecodeVerified then re-walks the accepted bytes without
// their CRCs and cannot fail. In between, a restore checks the
// fingerprint against the process it would overwrite, so the second pass
// may write straight into a controller's own memory: a State's per-unit
// columns can be bound to their owner's storage (BindRings, and the
// owners' BindState), and a column that already is its destination is
// never copied (Assign). Columns are read a column at a time
// (section.F64s/U64s), and the rings' slots share one backing array per
// column, so a cold decode makes O(sections) allocations whatever the
// unit count.
package snapshot

import (
	"errors"
	"fmt"
	"math"

	"dps/internal/history"
	"dps/internal/kalman"
	"dps/internal/power"
	"dps/internal/priority"
	"dps/internal/section"
	"dps/internal/stateless"
)

// Version is the snapshot format version Encode writes and the only one
// DecodeInto reads: any other, older ones included, is ErrVersion. A
// version bump signals an incompatible reinterpretation of existing
// sections (new sections alone do not need one — unknown ids are
// skipped).
const Version = 2

// magic identifies a DPS snapshot stream.
var magic = [4]byte{'D', 'P', 'S', 'S'}

// HeaderSize is the fixed prefix before the first section.
const HeaderSize = 8

// Section ids. Values are part of the wire format; never renumber.
const (
	SecConfig   uint16 = 0x0001 // config fingerprint + live budget
	SecCore     uint16 = 0x0002 // controller scalars (steps, flags)
	SecCaps     uint16 = 0x0003 // current cap vector
	SecKalman   uint16 = 0x0004 // filter bank state
	SecRings    uint16 = 0x0005 // power history rings, durations stored once when uniform
	SecPriority uint16 = 0x0006 // priority flags + frozen stats
	SecSparse   uint16 = 0x0007 // sparse-round masks and caches
	SecRNG      uint16 = 0x0008 // stateless module PRNG seed + draw count
	SecProv     uint16 = 0x0009 // provenance reasons
	SecDaemon   uint16 = 0x000A // daemon round caches + health clocks
	// 0x000B is SecRoundInput (input.go): replication stream only.
	SecRNGReg uint16 = 0x000C // stateless module PRNG register + tap position
)

// coreFamily is the controller's section family, in the order Encode
// writes it (the register directly after the draw count it belongs to).
// Every image carries the whole family; one missing any of it is
// corrupt.
var coreFamily = [...]uint16{SecCore, SecCaps, SecKalman, SecRings, SecPriority, SecRNG, SecRNGReg, SecProv, SecSparse}

// Sanity bounds for decoded counts, so a corrupted or adversarial length
// field cannot demand absurd allocations before the CRC check would
// reject it anyway.
const (
	maxUnits   = 1 << 22
	maxRingCap = 1 << 16
)

// KalmanState is one unit's filter state (kalman.State): estimate,
// variance, primed flag.
type KalmanState = kalman.State

// RingState is one unit's power-history state (history.State): raw slots
// in physical order plus the running aggregates, bit for bit.
type RingState = history.State

// Fingerprint is what an image says about where it belongs: everything a
// restore checks before it writes a byte of the image anywhere. Verify
// returns it; a State carries it embedded.
type Fingerprint struct {
	// The config section (SecConfig). Units/Seed/UnitMax/UnitMin identify
	// the controller a snapshot belongs to; BudgetTotal is live state (it
	// changes under SetTotalBudget) and is restored, not checked.
	Units              int
	Seed               int64
	BudgetTotal        power.Watts
	UnitMax, UnitMin   power.Watts
	Sparse             bool
	SparseRefreshEvery int

	// RingCap is the ring capacity of the controller's sections
	// (coreFamily); HasDaemon reports the daemon section, SavedUnixMS its
	// save stamp.
	RingCap     int
	HasDaemon   bool
	SavedUnixMS int64
}

// State is the in-memory form of a snapshot: the union of everything the
// format can carry. Every image holds the config and the controller's
// sections; the daemon's section is optional, written when HasDaemon is
// set and reported by it on decode. All slices are reused across
// Export/Encode cycles when their capacity suffices, so a warm snapshot
// round allocates nothing.
//
// A column may alias its owner's storage (a bound State: BindRings and
// the owners' BindState). Encode then reads the live column and a decode
// overwrites it, so a bound State is only used between rounds, and only
// decoded into once its Fingerprint has been checked.
type State struct {
	Fingerprint

	// Core controller state, the sections of coreFamily.
	Steps         uint64
	LastRestored  bool
	ProvDirty     bool
	HeldAllocated bool
	Caps          power.Vector
	Kalman        []KalmanState
	Rings         []RingState
	Prio          []bool
	HighFreq      []bool
	Frozen        []priority.FrozenStats
	RNGSeed       int64
	RNGDraws      uint64
	Reasons       []uint8

	// The stateless module's generator register (SecRNGReg), with which
	// a restore continues the PRNG stream at once. RNGTap is the
	// register's position; RNGDraws is its cross-check, for the position
	// must be stateless.TapAt(RNGDraws).
	RNGTap int
	RNGReg [stateless.RegisterLen]uint64

	// Sparse-round bookkeeping (SecSparse).
	LastDT    power.Seconds
	HighCount int
	CachedSum power.Watts
	SumValid  bool
	SettledW  []uint64
	CapMovedW []uint64
	LastVal   power.Vector
	LastStep  []uint64

	// Daemon round caches (SecDaemon). Report ages are relative to
	// SavedUnixMS — wall clocks differ across hosts, ages do not.
	// Readings is the ingest front buffer at export time: a restored
	// daemon that decides before any agent reports must feed the
	// controller the same readings the primary would have, not zeros.
	Rounds      uint64
	Health      []uint8
	ReportAgeMS []uint64
	LastCaps    power.Vector
	LastPushed  power.Vector
	Readings    power.Vector

	// One backing array per ring column, which SizeRings carves Rings'
	// slot slices from.
	ringPowers    []power.Watts
	ringDurations []power.Seconds
}

// SizeRings sets st.Rings to units ring states of ringCap slots each,
// their slot slices carved from one retained backing array per column:
// two allocations however many units, none once warm. The slot contents
// are whatever the arrays held; callers overwrite them.
func (st *State) SizeRings(units, ringCap int) {
	st.RingCap = ringCap
	st.ringPowers = Resize(st.ringPowers, units*ringCap)
	st.ringDurations = Resize(st.ringDurations, units*ringCap)
	st.Rings = Resize(st.Rings, units)
	for u := range st.Rings {
		lo, hi := u*ringCap, (u+1)*ringCap
		st.Rings[u].Powers = st.ringPowers[lo:hi:hi]
		st.Rings[u].Durations = st.ringDurations[lo:hi:hi]
	}
}

// BindRings makes powers and durations the arrays st's ring slots are
// carved from, ringCap slots per unit — a history.Set's own (Set.Slots),
// so that Encode reads the rings' slots and a decode writes them in place.
func (st *State) BindRings(powers []power.Watts, durations []power.Seconds, ringCap int) {
	st.ringPowers, st.ringDurations = powers, durations
	st.SizeRings(len(powers)/ringCap, ringCap)
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// appendBits packs a bool slice into 64-bit words, LSB of word 0 = index 0
// — the same layout the controller's own masks use.
func appendBits(b []byte, bits []bool) []byte {
	var w uint64
	for i, v := range bits {
		if v {
			w |= uint64(1) << uint(i&63)
		}
		if i&63 == 63 {
			b = section.AppendU64(b, w)
			w = 0
		}
	}
	if len(bits)&63 != 0 {
		b = section.AppendU64(b, w)
	}
	return b
}

// Ring duration tags (SecRings, v2): how a ring's RingCap duration slots
// follow its power slots.
const (
	ringExplicit byte = 0 // RingCap f64s
	ringUniform  byte = 1 // one f64 every slot equals bitwise
)

// uniformDuration reports whether every duration slot of r holds one bit
// pattern — NaN payloads, −0 and unfilled zero slots included — and
// returns it.
func uniformDuration(r *RingState) (bits uint64, ok bool) {
	if len(r.Durations) == 0 {
		return 0, false
	}
	bits = math.Float64bits(float64(r.Durations[0]))
	for _, d := range r.Durations[1:] {
		if math.Float64bits(float64(d)) != bits {
			return 0, false
		}
	}
	return bits, true
}

// encodedLen is the length of st's image, from the size table DecodeInto
// checks sections against.
func encodedLen(st *State) int {
	uniform := 0
	for i := range st.Rings {
		if _, ok := uniformDuration(&st.Rings[i]); ok {
			uniform++
		}
	}
	framed := func(id uint16) int {
		n, _ := payloadLen(id, st.Units, st.RingCap, uniform)
		return section.Overhead + n
	}
	n := HeaderSize + framed(SecConfig)
	for _, id := range coreFamily {
		n += framed(id)
	}
	if st.HasDaemon {
		n += framed(SecDaemon)
	}
	return n
}

// Encode serializes st into dst[:0] and returns the extended slice.
// Sections are emitted in one fixed order: config, coreFamily, daemon.
// The image's length is known before the first byte is written, so dst
// grows at most once: a cold encode makes one allocation, a warm one into
// a retained dst none. The output of encode→decode→encode is byte-identical
// (property-tested).
func Encode(dst []byte, st *State) []byte {
	if n := encodedLen(st); cap(dst) < n {
		dst = make([]byte, 0, n)
	}
	b := append(dst[:0], magic[:]...)
	b = section.AppendU16(b, Version)
	b = section.AppendU16(b, 0) // flags, reserved

	// SecConfig
	var start int
	b, start = section.Begin(b, SecConfig)
	b = section.AppendU32(b, uint32(st.Units))
	b = section.AppendU64(b, uint64(st.Seed))
	b = section.AppendF64(b, float64(st.BudgetTotal))
	b = section.AppendF64(b, float64(st.UnitMax))
	b = section.AppendF64(b, float64(st.UnitMin))
	b = appendBool(b, st.Sparse)
	b = section.AppendU32(b, uint32(st.SparseRefreshEvery))
	b = section.End(b, start)

	b, start = section.Begin(b, SecCore)
	b = section.AppendU64(b, st.Steps)
	b = appendBool(b, st.LastRestored)
	b = appendBool(b, st.ProvDirty)
	b = appendBool(b, st.HeldAllocated)
	b = section.End(b, start)

	b, start = section.Begin(b, SecCaps)
	for _, c := range st.Caps {
		b = section.AppendF64(b, float64(c))
	}
	b = section.End(b, start)

	b, start = section.Begin(b, SecKalman)
	for i := range st.Kalman {
		k := &st.Kalman[i]
		b = section.AppendF64(b, float64(k.Estimate))
		b = section.AppendF64(b, k.Variance)
		b = appendBool(b, k.Primed)
	}
	b = section.End(b, start)

	b, start = section.Begin(b, SecRings)
	b = section.AppendU32(b, uint32(st.RingCap))
	for i := range st.Rings {
		r := &st.Rings[i]
		b = section.AppendU32(b, uint32(r.Head))
		b = section.AppendU32(b, uint32(r.N))
		b = section.AppendU32(b, uint32(r.Pushes))
		b = section.AppendF64(b, r.Sum)
		b = section.AppendF64(b, r.SumSq)
		b = section.AppendF64(b, r.DurSum)
		b = section.AppendF64(b, r.TailDur)
		for _, p := range r.Powers {
			b = section.AppendF64(b, float64(p))
		}
		if d, ok := uniformDuration(r); ok {
			b = section.AppendU64(append(b, ringUniform), d)
			continue
		}
		b = append(b, ringExplicit)
		for _, d := range r.Durations {
			b = section.AppendF64(b, float64(d))
		}
	}
	b = section.End(b, start)

	b, start = section.Begin(b, SecPriority)
	b = appendBits(b, st.Prio)
	b = appendBits(b, st.HighFreq)
	for i := range st.Frozen {
		f := &st.Frozen[i]
		b = section.AppendU32(b, uint32(f.N))
		b = section.AppendF64(b, float64(f.Std))
		b = section.AppendF64(b, float64(f.Deriv))
		b = appendBool(b, f.HighFreqNow)
	}
	b = section.End(b, start)

	b, start = section.Begin(b, SecRNG)
	b = section.AppendU64(b, uint64(st.RNGSeed))
	b = section.AppendU64(b, st.RNGDraws)
	b = section.End(b, start)

	b, start = section.Begin(b, SecRNGReg)
	b = section.AppendU16(b, uint16(st.RNGTap))
	for _, w := range st.RNGReg {
		b = section.AppendU64(b, w)
	}
	b = section.End(b, start)

	b, start = section.Begin(b, SecProv)
	b = append(b, st.Reasons...)
	b = section.End(b, start)

	b, start = section.Begin(b, SecSparse)
	b = section.AppendF64(b, float64(st.LastDT))
	b = section.AppendU64(b, uint64(int64(st.HighCount)))
	b = section.AppendF64(b, float64(st.CachedSum))
	b = appendBool(b, st.SumValid)
	for _, w := range st.SettledW {
		b = section.AppendU64(b, w)
	}
	for _, w := range st.CapMovedW {
		b = section.AppendU64(b, w)
	}
	for _, v := range st.LastVal {
		b = section.AppendF64(b, float64(v))
	}
	for _, s := range st.LastStep {
		b = section.AppendU64(b, s)
	}
	b = section.End(b, start)

	if st.HasDaemon {
		b, start = section.Begin(b, SecDaemon)
		b = section.AppendU64(b, uint64(st.SavedUnixMS))
		b = section.AppendU64(b, st.Rounds)
		b = append(b, st.Health...)
		for _, a := range st.ReportAgeMS {
			b = section.AppendU64(b, a)
		}
		for _, c := range st.LastCaps {
			b = section.AppendF64(b, float64(c))
		}
		for _, c := range st.LastPushed {
			b = section.AppendF64(b, float64(c))
		}
		for _, c := range st.Readings {
			b = section.AppendF64(b, float64(c))
		}
		b = section.End(b, start)
	}

	return b
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

// Decode errors. ErrCorrupt wraps every structural failure (bad magic,
// truncation, CRC mismatch, inconsistent counts); ErrVersion marks a
// snapshot written by a newer format.
var (
	ErrCorrupt = errors.New("snapshot: corrupt")
	ErrVersion = errors.New("snapshot: unsupported version")
)

func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

func boolean(r *section.Cursor) bool { return r.U8() != 0 }

// bits unpacks words(n) 64-bit words into dst (length n).
func bits(r *section.Cursor, dst []bool) {
	var w uint64
	for i := range dst {
		if i&63 == 0 {
			w = r.U64()
		}
		dst[i] = w&(uint64(1)<<uint(i&63)) != 0
	}
}

// done errors unless the payload was consumed exactly: a read past the
// end is a truncated payload, and a known section with trailing bytes is
// a framing bug, not forward compatibility (format evolution adds
// sections, it does not extend old ones).
func done(r *section.Cursor, id uint16) error {
	if r.Short() {
		return corruptf("section 0x%04x: truncated payload", id)
	}
	if r.Len() != 0 {
		return corruptf("section 0x%04x: %d trailing bytes", id, r.Len())
	}
	return nil
}

// header validates the fixed prefix and returns the remainder.
func header(data []byte) ([]byte, error) {
	if len(data) < HeaderSize {
		return nil, corruptf("%d bytes, want at least the %d-byte header", len(data), HeaderSize)
	}
	if data[0] != magic[0] || data[1] != magic[1] || data[2] != magic[2] || data[3] != magic[3] {
		return nil, corruptf("bad magic %q", data[:4])
	}
	if v := uint16(data[4]) | uint16(data[5])<<8; v != Version {
		return nil, fmt.Errorf("%w: snapshot version %d, decoder reads %d", ErrVersion, v, Version)
	}
	return data[HeaderSize:], nil
}

// Resize returns v with length n, reusing its capacity — how every State
// slice is sized, by the decoder here and by the exporters that fill a
// State, so a warm snapshot round allocates nothing. The contents are
// whatever the old slice held; callers overwrite them.
func Resize[T any](v []T, n int) []T {
	if cap(v) < n {
		return make([]T, n)
	}
	return v[:n]
}

// Assign returns dst resized to src's length (Resize) and holding src's
// values — how a column moves between a State and its owner, in either
// direction. A dst that already is src, a column of a bound State, comes
// back untouched: there is nothing to copy.
func Assign[T any](dst, src []T) []T {
	if len(dst) == len(src) && (len(src) == 0 || &dst[0] == &src[0]) {
		return dst
	}
	dst = Resize(dst, len(src))
	copy(dst, src)
	return dst
}

// ringHeader is the bytes of one ring's scalars: head, n and pushes as
// u32, then sum, sumSq, durSum and tailDur as f64.
const ringHeader = 3*4 + 4*8

// payloadLen is the one table of section payload sizes: Encode sizes its
// image from it and DecodeInto checks every known section against it
// (known=false for unknown ids). A SecRings payload also depends on the
// ring capacity and on how many of the units' rings store their
// durations once.
func payloadLen(id uint16, units, ringCap, uniform int) (n int, known bool) {
	words := (units + 63) / 64
	switch id {
	case SecConfig:
		return 4 + 8 + 3*8 + 1 + 4, true
	case SecCore:
		return 8 + 3, true
	case SecCaps:
		return units * 8, true
	case SecKalman:
		return units * 17, true
	case SecRings:
		return 4 + units*(ringHeader+8*ringCap+1) + uniform*8 + (units-uniform)*8*ringCap, true
	case SecPriority:
		return 2*words*8 + units*21, true
	case SecRNG:
		return 16, true
	case SecProv:
		return units, true
	case SecSparse:
		return 8 + 8 + 8 + 1 + 2*words*8 + units*16, true
	case SecDaemon:
		return 16 + units*33, true
	case SecRNGReg:
		return 2 + stateless.RegisterLen*8, true
	}
	return 0, false
}

// payloadBounds returns the payload sizes a known section of an image
// for `units` units may have. All but SecRings have one size; a
// SecRings payload's range runs from every ring uniform to none, at the
// ring capacity its prefix declares. An undersized prefix reports the
// prefix size itself, which cannot match a real payload.
func payloadBounds(id uint16, units int, payload []byte) (lo, hi int, known bool) {
	if id != SecRings {
		n, known := payloadLen(id, units, 0, 0)
		return n, n, known
	}
	if len(payload) < 4 {
		return 4, 4, true
	}
	prefix := section.NewCursor(payload)
	rc := int(prefix.U32())
	lo, _ = payloadLen(id, units, rc, units)
	hi, _ = payloadLen(id, units, rc, 0)
	return lo, hi, true
}

// DecodeInto parses a snapshot image into st, reusing st's slices: Verify,
// then DecodeVerified. It never panics on malformed input: every
// structural defect returns an error wrapping ErrCorrupt (or ErrVersion),
// and unknown section ids are skipped after their CRC validates. On error
// st is untouched; on success HasDaemon reports whether the daemon's
// section was present.
func DecodeInto(st *State, data []byte) error {
	if _, err := Verify(data); err != nil {
		return err
	}
	DecodeVerified(st, data)
	return nil
}

// Verify is a decode's first pass: it checks data whole — header, every
// section's CRC, framing and duplicates, config first, payload sizes and
// ring capacity, every ring's duration tag and head/count/pushes bounds,
// the core family's presence, the PRNG seed and tap cross-checks — and
// returns the image's Fingerprint, having written nothing.
func Verify(data []byte) (Fingerprint, error) {
	var st State // scalars only: this pass reads no column
	err := decode(&st, data, false)
	return st.Fingerprint, err
}

// DecodeVerified is a decode's second pass: it writes data, an image
// Verify accepted, into st — into its owner's own memory where st is
// bound. It re-walks the bytes without their CRCs and cannot fail; bytes
// that did not pass Verify are a caller's bug, and panic.
func DecodeVerified(st *State, data []byte) {
	if err := decode(st, data, true); err != nil {
		panic(fmt.Sprintf("snapshot: second pass over an unverified image: %v", err))
	}
}

// f64col reads the next n floats into *col, resized to n — or, on the
// verify pass (write false), which reads no column, steps over them.
func f64col[S ~[]T, T ~float64](r *section.Cursor, col *S, n int, write bool) {
	if !write {
		r.Skip(8 * n)
		return
	}
	*col = Resize(*col, n)
	section.F64s(r, *col)
}

// u64col is f64col for a column of words.
func u64col(r *section.Cursor, col *[]uint64, n int, write bool) {
	if !write {
		r.Skip(8 * n)
		return
	}
	*col = Resize(*col, n)
	section.U64s(r, *col)
}

// decode is the one walk over an image's sections, run by both passes
// with the same checks. The verify pass (write false) checks the CRCs,
// reads the scalars into st and steps over the per-unit columns; the
// write pass trusts the CRCs and reads the columns too.
func decode(st *State, data []byte, write bool) error {
	rest, err := header(data)
	if err != nil {
		return err
	}
	st.HasDaemon = false
	var seen [SecRNGReg + 1]bool // which known sections the image holds

	w := section.Walk(rest)
	if write {
		w = section.WalkTrusted(rest)
	}
	for w.Next() {
		id, payload := w.ID, w.Payload
		// Known sections have a payload size fully determined by the unit
		// count (for rings, bounded by it and the embedded ring capacity).
		// Checking it up front means a tiny crafted payload can never
		// trigger a large per-unit allocation before failing.
		lo, hi, known := payloadBounds(id, st.Units, payload)
		if !known {
			continue // unknown section: CRC validated by the walker, skip it
		}
		if seen[id] {
			return corruptf("duplicate section 0x%04x", id)
		}
		seen[id] = true
		if !seen[SecConfig] {
			return corruptf("section 0x%04x before config section", id)
		}
		if len(payload) < lo || len(payload) > hi {
			if lo == hi {
				return corruptf("section 0x%04x: payload %d bytes, want %d", id, len(payload), lo)
			}
			return corruptf("section 0x%04x: payload %d bytes, want %d to %d", id, len(payload), lo, hi)
		}

		r := section.NewCursor(payload)
		switch id {
		case SecConfig:
			units := r.U32()
			if units == 0 || units > maxUnits {
				return corruptf("unit count %d outside [1,%d]", units, maxUnits)
			}
			st.Units = int(units)
			st.Seed = int64(r.U64())
			st.BudgetTotal = power.Watts(r.F64())
			st.UnitMax = power.Watts(r.F64())
			st.UnitMin = power.Watts(r.F64())
			st.Sparse = boolean(&r)
			st.SparseRefreshEvery = int(r.U32())

		case SecCore:
			st.Steps = r.U64()
			st.LastRestored = boolean(&r)
			st.ProvDirty = boolean(&r)
			st.HeldAllocated = boolean(&r)

		case SecCaps:
			f64col(&r, &st.Caps, st.Units, write)

		case SecKalman:
			if !write {
				r.Skip(r.Len())
				break
			}
			st.Kalman = Resize(st.Kalman, st.Units)
			for i := range st.Kalman {
				st.Kalman[i].Estimate = power.Watts(r.F64())
				st.Kalman[i].Variance = r.F64()
				st.Kalman[i].Primed = boolean(&r)
			}

		case SecRings:
			rc := r.U32()
			if !r.Short() && (rc == 0 || rc > maxRingCap) {
				return corruptf("ring capacity %d outside [1,%d]", rc, maxRingCap)
			}
			// Rings already sized for this image — a bound State's, or a
			// warm one's — keep their slots where they are.
			if write && (len(st.Rings) != st.Units || st.RingCap != int(rc)) {
				st.SizeRings(st.Units, int(rc))
			}
			st.RingCap = int(rc)
			var scratch RingState // the verify pass's ring: it writes none
			for i := 0; i < st.Units; i++ {
				g := &scratch
				if write {
					g = &st.Rings[i]
				}
				g.Head = int(r.U32())
				g.N = int(r.U32())
				g.Pushes = int(r.U32())
				if err := history.CheckBounds(st.RingCap, g.Head, g.N, g.Pushes); err != nil {
					return corruptf("ring %d: %v", i, err)
				}
				if write {
					g.Sum = r.F64()
					g.SumSq = r.F64()
					g.DurSum = r.F64()
					g.TailDur = r.F64()
				} else {
					r.Skip(4 * 8) // the aggregates: nothing to check
				}
				f64col(&r, &g.Powers, st.RingCap, write)
				switch tag := r.U8(); tag {
				case ringExplicit:
					f64col(&r, &g.Durations, st.RingCap, write)
				case ringUniform:
					d := power.Seconds(r.F64())
					if write {
						g.Durations = Resize(g.Durations, st.RingCap)
						for j := range g.Durations {
							g.Durations[j] = d
						}
					}
				default:
					return corruptf("ring %d: duration tag %d", i, tag)
				}
			}

		case SecPriority:
			if !write {
				r.Skip(r.Len())
				break
			}
			st.Prio = Resize(st.Prio, st.Units)
			st.HighFreq = Resize(st.HighFreq, st.Units)
			bits(&r, st.Prio)
			bits(&r, st.HighFreq)
			st.Frozen = Resize(st.Frozen, st.Units)
			for i := range st.Frozen {
				st.Frozen[i].N = int(r.U32())
				st.Frozen[i].Std = power.Watts(r.F64())
				st.Frozen[i].Deriv = power.Watts(r.F64())
				st.Frozen[i].HighFreqNow = boolean(&r)
			}

		case SecRNG:
			st.RNGSeed = int64(r.U64())
			st.RNGDraws = r.U64()
			if st.RNGSeed != st.Seed {
				return corruptf("section 0x%04x: PRNG seed %d, config seed %d", id, st.RNGSeed, st.Seed)
			}

		case SecRNGReg:
			st.RNGTap = int(r.U16())
			section.U64s(&r, st.RNGReg[:])

		case SecProv:
			if !write {
				r.Skip(r.Len())
				break
			}
			st.Reasons = Resize(st.Reasons, st.Units)
			for i := range st.Reasons {
				st.Reasons[i] = r.U8()
			}

		case SecSparse:
			st.LastDT = power.Seconds(r.F64())
			st.HighCount = int(int64(r.U64()))
			st.CachedSum = power.Watts(r.F64())
			st.SumValid = boolean(&r)
			words := (st.Units + 63) / 64
			u64col(&r, &st.SettledW, words, write)
			u64col(&r, &st.CapMovedW, words, write)
			f64col(&r, &st.LastVal, st.Units, write)
			u64col(&r, &st.LastStep, st.Units, write)

		case SecDaemon:
			st.SavedUnixMS = int64(r.U64())
			st.Rounds = r.U64()
			st.HasDaemon = true
			if !write {
				r.Skip(r.Len())
				break
			}
			st.Health = Resize(st.Health, st.Units)
			for i := range st.Health {
				st.Health[i] = r.U8()
			}
			u64col(&r, &st.ReportAgeMS, st.Units, write)
			f64col(&r, &st.LastCaps, st.Units, write)
			f64col(&r, &st.LastPushed, st.Units, write)
			f64col(&r, &st.Readings, st.Units, write)
		}
		if err := done(&r, id); err != nil {
			return err
		}
	}
	if w.Stop != section.Clean {
		return corruptf("%v with %d bytes left", w.Stop, len(w.Rest))
	}

	if !seen[SecConfig] {
		return corruptf("no config section")
	}
	for _, id := range coreFamily {
		if !seen[id] {
			return corruptf("no core section 0x%04x", id)
		}
	}
	// The draw count fixes where the register's taps stand.
	if want := stateless.TapAt(st.RNGDraws); st.RNGTap != want {
		return corruptf("section 0x%04x: tap position %d, want %d after %d draws", SecRNGReg, st.RNGTap, want, st.RNGDraws)
	}
	return nil
}

// Decode is DecodeInto into a fresh State.
func Decode(data []byte) (*State, error) {
	st := &State{}
	if err := DecodeInto(st, data); err != nil {
		return nil, err
	}
	return st, nil
}
