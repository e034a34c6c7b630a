package snapshot

import (
	mbits "math/bits"

	"dps/internal/power"
	"dps/internal/section"
)

// SecRoundInput frames one decision round's inputs. It travels only in
// the replication stream's delta frames (DESIGN.md §14), never in a
// snapshot image; its id comes from the same table as the image sections
// so the two can never collide.
const SecRoundInput uint16 = 0x000B

// RoundInput is what one decision round consumed, plus the few outcomes
// a follower cannot derive from it. A standby that holds the state as of
// the previous round feeds this to its own controller and must arrive at
// the same caps; Digest is how it knows that it did.
//
// The per-unit slices all have one entry per unit. Of Readings only the
// entries under a set Dirty bit travel: a clear bit promises the reading
// did not change (core.DirtyMask), so steady traffic ships almost
// nothing. DecodeRoundInput leaves the other entries as it found them.
type RoundInput struct {
	Interval    power.Seconds
	BudgetTotal power.Watts // live budget the round was decided under
	SavedUnixMS int64       // sender's clock when the record was built
	// Digest covers the delivered caps and the controller's step count
	// (the daemon defines it; this package only carries it).
	Digest uint64

	Dirty    []uint64 // dirty-mask words, bit u&63 of word u>>6 = unit u
	Readings power.Vector
	// Pushed marks the units whose agent acknowledged this round's cap
	// push — what the sender's enforced-cap cache absorbed.
	Pushed []uint64

	// Health tracking, when the sender runs it: the round's per-unit
	// classification and every unit's report age relative to SavedUnixMS
	// (ages, because wall clocks differ across hosts). Ages are run-length
	// coded on the wire — an agent's units share one report stamp.
	HasHealth   bool
	Health      []uint8
	ReportAgeMS []uint32
}

// maxHealth is the largest valid health byte (core.HealthDead).
const maxHealth = 2

// AppendRoundInput appends in as one SecRoundInput section. The unit
// count is len(in.Readings).
func AppendRoundInput(dst []byte, in *RoundInput) []byte {
	b, start := section.Begin(dst, SecRoundInput)
	b = section.AppendU32(b, uint32(len(in.Readings)))
	b = appendBool(b, in.HasHealth)
	b = section.AppendF64(b, float64(in.Interval))
	b = section.AppendF64(b, float64(in.BudgetTotal))
	b = section.AppendU64(b, uint64(in.SavedUnixMS))
	b = section.AppendU64(b, in.Digest)

	dirty := 0
	for _, w := range in.Dirty {
		b = section.AppendU64(b, w)
		dirty += mbits.OnesCount64(w)
	}
	b = section.AppendU32(b, uint32(dirty))
	for wi, w := range in.Dirty {
		for ; w != 0; w &= w - 1 {
			b = section.AppendF64(b, float64(in.Readings[wi<<6|mbits.TrailingZeros64(w)]))
		}
	}
	for _, w := range in.Pushed {
		b = section.AppendU64(b, w)
	}

	if in.HasHealth {
		b = append(b, in.Health...)
		// Runs of equal ages: count placeholder, then (length, age) pairs.
		at := len(b)
		b = section.AppendU32(b, 0)
		runs := uint32(0)
		for lo := 0; lo < len(in.ReportAgeMS); {
			hi := lo + 1
			for hi < len(in.ReportAgeMS) && in.ReportAgeMS[hi] == in.ReportAgeMS[lo] {
				hi++
			}
			b = section.AppendU32(b, uint32(hi-lo))
			b = section.AppendU32(b, in.ReportAgeMS[lo])
			runs++
			lo = hi
		}
		b[at], b[at+1], b[at+2], b[at+3] = byte(runs), byte(runs>>8), byte(runs>>16), byte(runs>>24)
	}
	return section.End(b, start)
}

// DecodeRoundInput parses one SecRoundInput payload for a server of
// `units` units into in, reusing in's slices. Like DecodeInto it never
// panics on malformed input, and it sizes nothing from the payload: a
// record for any other unit count is refused before the first slice is
// touched, every loop is bounded by `units`, and every count inside the
// payload is checked against it. A short payload reads as zeros and is
// refused at the end (section.Cursor).
func DecodeRoundInput(in *RoundInput, payload []byte, units int) error {
	r := section.NewCursor(payload)
	if got := r.U32(); r.Short() || int(got) != units {
		return corruptf("round input for %d units, want %d", got, units)
	}
	words := (units + 63) / 64
	in.HasHealth = boolean(&r)
	in.Interval = power.Seconds(r.F64())
	in.BudgetTotal = power.Watts(r.F64())
	in.SavedUnixMS = int64(r.U64())
	in.Digest = r.U64()

	in.Dirty = Resize(in.Dirty, words)
	dirty := 0
	for i := range in.Dirty {
		in.Dirty[i] = r.U64()
		dirty += mbits.OnesCount64(in.Dirty[i])
	}
	if strayBits(in.Dirty, units) {
		return corruptf("round input: dirty bits beyond unit %d", units)
	}
	if got := r.U32(); int(got) != dirty {
		return corruptf("round input: %d readings for %d dirty units", got, dirty)
	}
	in.Readings = Resize(in.Readings, units)
	for wi, w := range in.Dirty {
		for ; w != 0; w &= w - 1 {
			in.Readings[wi<<6|mbits.TrailingZeros64(w)] = power.Watts(r.F64())
		}
	}
	in.Pushed = Resize(in.Pushed, words)
	for i := range in.Pushed {
		in.Pushed[i] = r.U64()
	}
	if strayBits(in.Pushed, units) {
		return corruptf("round input: pushed bits beyond unit %d", units)
	}

	if in.HasHealth {
		in.Health = Resize(in.Health, units)
		for i := range in.Health {
			if in.Health[i] = r.U8(); in.Health[i] > maxHealth {
				return corruptf("round input: unit %d health %d", i, in.Health[i])
			}
		}
		in.ReportAgeMS = Resize(in.ReportAgeMS, units)
		u := 0
		for runs := r.U32(); runs > 0; runs-- {
			n, age := int(r.U32()), r.U32()
			if r.Short() || n == 0 || n > units-u {
				return corruptf("round input: report-age runs do not tile %d units", units)
			}
			for ; n > 0; n-- {
				in.ReportAgeMS[u] = age
				u++
			}
		}
		if u != units {
			return corruptf("round input: report ages cover %d of %d units", u, units)
		}
	}
	return done(&r, SecRoundInput)
}

// strayBits reports whether a mask sets a bit at or beyond unit `units`.
func strayBits(words []uint64, units int) bool {
	tail := uint(units & 63)
	return tail != 0 && words[len(words)-1]>>tail != 0
}
