package core

import (
	"fmt"
	"math"
	"math/bits"

	"dps/internal/power"
)

// DirtyMask marks which units' readings changed since the previous
// snapshot. The daemon's ingest path marks a unit whenever an accepted
// report writes its reading slot; delta-suppressed gaps, heartbeats, and
// liveness touches refresh clocks only and leave the bit clear. A clear
// bit is therefore a guarantee: the unit's Power value in this snapshot
// is bitwise identical to the previous one. The sparse decision path
// leans on exactly that guarantee, so Mark must be called for every
// reading write, even when the new value happens to equal the old.
type DirtyMask struct {
	words []uint64
	n     int // unit count (bit capacity)
	count int // set bits
}

// NewDirtyMask returns a mask covering units [0, n).
func NewDirtyMask(n int) *DirtyMask {
	if n < 0 {
		n = 0
	}
	return &DirtyMask{words: make([]uint64, (n+63)/64), n: n}
}

// Len returns the unit count the mask covers.
func (m *DirtyMask) Len() int { return m.n }

// Count returns the number of marked units.
func (m *DirtyMask) Count() int { return m.count }

// Mark flags unit u as changed. Out-of-range units are ignored;
// re-marking is idempotent.
func (m *DirtyMask) Mark(u int) {
	if u < 0 || u >= m.n {
		return
	}
	w, b := u>>6, uint64(1)<<(u&63)
	if m.words[w]&b == 0 {
		m.words[w] |= b
		m.count++
	}
}

// Get reports whether unit u is marked.
func (m *DirtyMask) Get(u int) bool {
	if u < 0 || u >= m.n {
		return false
	}
	return m.words[u>>6]&(uint64(1)<<(u&63)) != 0
}

// Reset clears every bit.
func (m *DirtyMask) Reset() {
	clear(m.words)
	m.count = 0
}

// CopyFrom makes m a copy of src. The masks must cover the same unit
// count; the daemon uses this to double-buffer the live mask into the
// snapshot the controller reads while ingest keeps marking the original.
func (m *DirtyMask) CopyFrom(src *DirtyMask) {
	copy(m.words, src.words)
	m.count = src.count
}

// SetWords makes m the mask src spells out (same word layout as Words,
// one word per 64 units, no bit at or beyond Len set) — how a standby
// adopts the dirty mask its primary decided a round under.
func (m *DirtyMask) SetWords(src []uint64) {
	copy(m.words, src)
	m.count = m.popcount()
}

// Words exposes the underlying bit words, least-significant bit of
// words[0] being unit 0. The controller reads these directly; callers
// must not mutate the slice.
func (m *DirtyMask) Words() []uint64 { return m.words }

// popcount is Count recomputed from the words.
func (m *DirtyMask) popcount() int {
	total := 0
	for _, w := range m.words {
		total += bits.OnesCount64(w)
	}
	return total
}

// changedWord returns the mask word of units [base, base+64): bit u−base
// set where readings[u] differs from last[u] bit for bit — a repeated
// NaN is unchanged, a zero that flips sign is not — which is the
// guarantee a clear ingest bit gives.
func changedWord(readings, last power.Vector, base int) uint64 {
	r := readings[base:min(base+64, len(readings))]
	l := last[base : base+len(r)]
	var w uint64
	for i, v := range r {
		if math.Float64bits(float64(v)) != math.Float64bits(float64(l[i])) {
			w |= uint64(1) << uint(i)
		}
	}
	return w
}

// MarkChanged marks in m every unit whose reading differs, bit for bit,
// from the one the controller last consumed: the exact dirty set for
// readings no ingest mask vouches for — the first round after a restore
// or a standby's takeover — by the compare a mask-less round makes.
func (d *DPS) MarkChanged(m *DirtyMask, readings power.Vector) {
	if m.Len() != d.cfg.Units || len(readings) != d.cfg.Units {
		panic(fmt.Sprintf("core: marking %d readings into a %d-unit mask, controller has %d", len(readings), m.Len(), d.cfg.Units))
	}
	for wi := range m.words {
		m.words[wi] |= changedWord(readings, d.lastVal, wi<<6)
	}
	m.count = m.popcount()
}
