// Package history provides fixed-capacity ring buffers for recent power
// samples. DPS is "stateful" precisely in that it keeps this small history:
// the paper's default is 20 estimated power samples per unit plus the
// duration of each measurement interval, which together are the only state
// the priority module consumes.
//
// Beyond storage, each ring maintains incremental sufficient statistics —
// the running sum, sum of squares, total duration and a configurable
// tail-duration window — so the statistics the priority module reads every
// decision round (mean, standard deviation, windowed derivative) are O(1)
// instead of O(history length), and require no copying of the ring into
// scratch buffers. The aggregates are updated on every Push/evict and
// re-derived exactly from the stored samples every recomputeEvery pushes,
// which bounds floating-point drift to what a few hundred add/subtract
// pairs can accumulate (well below any decision threshold; see DESIGN.md
// §8).
package history

import (
	"fmt"
	"math"

	"dps/internal/power"
)

// recomputeEvery is the number of pushes between exact recomputations of a
// ring's incremental aggregates. Each recompute is O(capacity) — 20 float
// reads for the paper's default history — so at 256 it amortizes to a
// fraction of one element's work per push while keeping the worst-case
// incremental drift far below every decision threshold (the property tests
// in history_test.go pin the bound).
const recomputeEvery = 256

// Ring is a fixed-capacity FIFO of power samples with their measurement
// intervals. The zero value is not usable; construct with NewRing.
type Ring struct {
	powers    []power.Watts
	durations []power.Seconds
	head      int // index of the oldest sample
	n         int // number of valid samples

	// Incremental sufficient statistics over the stored samples. float64
	// accumulators (not the Watts/Seconds wrappers) to make the arithmetic
	// explicit.
	sum    float64 // Σ powers
	sumSq  float64 // Σ powers²
	durSum float64 // Σ durations
	// tailDur is the running sum of the last min(tailK, n) durations — the
	// denominator of the priority module's windowed derivative. Maintained
	// only when tailK > 0 (SetTailWindow).
	tailK   int
	tailDur float64
	// pushes counts Push calls since the last exact recompute.
	pushes int
}

// NewRing returns a ring holding at most capacity samples.
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		panic(fmt.Sprintf("history: non-positive ring capacity %d", capacity))
	}
	return &Ring{
		powers:    make([]power.Watts, capacity),
		durations: make([]power.Seconds, capacity),
	}
}

// Cap returns the ring's capacity.
func (r *Ring) Cap() int { return len(r.powers) }

// Len returns the number of samples currently stored.
func (r *Ring) Len() int { return r.n }

// Full reports whether the ring holds Cap() samples.
func (r *Ring) Full() bool { return r.n == len(r.powers) }

// SetTailWindow makes the ring maintain an O(1) running sum of its last k
// measurement intervals (TailDuration(k) and WindowedDerivative(k+1) then
// cost O(1)). k is clamped to the capacity; k <= 0 disables the window.
// The aggregate is rebuilt from the stored samples, so the window may be
// (re)configured at any time.
func (r *Ring) SetTailWindow(k int) {
	if k < 0 {
		k = 0
	}
	if k > len(r.powers) {
		k = len(r.powers)
	}
	r.tailK = k
	r.tailDur = r.directTail(k)
}

// TailWindow returns the configured tail-duration window (0 = disabled).
func (r *Ring) TailWindow() int { return r.tailK }

// idx maps the logical sample index i (0 = oldest) to its slot in the
// backing arrays. The caller guarantees 0 <= i < Cap(), so one conditional
// subtraction replaces the modulo — measurably cheaper in the per-unit
// decision loop.
func (r *Ring) idx(i int) int {
	j := r.head + i
	if j >= len(r.powers) {
		j -= len(r.powers)
	}
	return j
}

// Push appends a sample, evicting the oldest if the ring is full, and
// folds the change into the running aggregates.
func (r *Ring) Push(p power.Watts, dt power.Seconds) {
	// The sample leaving the tail-duration window (if any) must be read
	// before any slot is overwritten.
	if r.tailK > 0 && r.n >= r.tailK {
		r.tailDur -= float64(r.durations[r.idx(r.n-r.tailK)])
	}
	slot := r.idx(r.n) // == head when full: the slot being evicted
	if r.n == len(r.powers) {
		old := float64(r.powers[r.head])
		r.sum -= old
		r.sumSq -= float64(old * old)
		r.durSum -= float64(r.durations[r.head])
		r.head++
		if r.head == len(r.powers) {
			r.head = 0
		}
	} else {
		r.n++
	}
	r.powers[slot] = p
	r.durations[slot] = dt
	r.sum += float64(p)
	r.sumSq += float64(float64(p) * float64(p))
	r.durSum += float64(dt)
	r.tailDur += float64(dt)
	r.pushes++
	if r.pushes >= recomputeEvery {
		r.recompute()
	}
}

// recompute re-derives every aggregate exactly from the stored samples,
// discarding accumulated floating-point drift.
func (r *Ring) recompute() {
	r.sum, r.sumSq, r.durSum = 0, 0, 0
	for i := 0; i < r.n; i++ {
		p := float64(r.powers[r.idx(i)])
		r.sum += p
		r.sumSq += float64(p * p)
		r.durSum += float64(r.durations[r.idx(i)])
	}
	r.tailDur = r.directTail(r.tailK)
	r.pushes = 0
}

// directTail sums the last min(k, n) durations directly.
func (r *Ring) directTail(k int) float64 {
	if k > r.n {
		k = r.n
	}
	var s float64
	for i := r.n - k; i < r.n; i++ {
		s += float64(r.durations[r.idx(i)])
	}
	return s
}

// SettledFor reports whether pushing (p, dt) would leave the ring — the
// stored samples, the running aggregates, and therefore every derived
// statistic — bitwise unchanged. That holds when the ring is full and
// uniform at exactly (p, dt), the aggregates survive the push's
// evict-then-insert float round-trips bit for bit, and a recompute would
// reproduce the stored aggregates exactly (so the periodic drift-wash is
// also a no-op and its phase becomes unobservable). The sparse decision
// path uses a true result to elide the per-round Push for unchanged
// units; see AdvancePushes for how the elided pushes are accounted.
//
// Rings with no configured tail window (SetTailWindow 0) never report
// settled: Push unconditionally accumulates into the tail-duration
// aggregate, so it is never a bitwise no-op on them.
func (r *Ring) SettledFor(p power.Watts, dt power.Seconds) bool {
	if r.tailK <= 0 || r.n != len(r.powers) || r.n == 0 {
		return false
	}
	// Uniformity: physical order equals logical content for a uniform
	// ring, so head phase is irrelevant here.
	for _, v := range r.powers {
		if v != p {
			return false
		}
	}
	for _, d := range r.durations {
		if d != dt {
			return false
		}
	}
	// Push round-trip identities, in Push's exact operation order:
	// evict-subtract then insert-add must land back on the same bits.
	fp, fdt := float64(p), float64(dt)
	if (r.sum-fp)+fp != r.sum || (r.sumSq-float64(fp*fp))+float64(fp*fp) != r.sumSq {
		return false
	}
	if (r.durSum-fdt)+fdt != r.durSum || (r.tailDur-fdt)+fdt != r.tailDur {
		return false
	}
	// Recompute identity: the drift-wash's sequential re-summation must
	// reproduce the incremental aggregates exactly (same per-iteration
	// order as recompute over a uniform ring).
	var sum, sumSq, durSum float64
	for i := 0; i < r.n; i++ {
		sum += fp
		sumSq += float64(fp * fp)
		durSum += fdt
	}
	if sum != r.sum || sumSq != r.sumSq || durSum != r.durSum {
		return false
	}
	if r.directTail(r.tailK) != r.tailDur {
		return false
	}
	return true
}

// AdvancePushes accounts k elided pushes in the recompute schedule, as if
// Push had been called k times. The caller must guarantee each elided
// push would have been a bitwise no-op including its recompute (exactly
// what SettledFor certifies): then the only dense-path state the elisions
// touch is the push counter, whose evolution is pure arithmetic mod the
// recompute period, and this catch-up keeps the next real recompute
// firing on the same round as an always-dense ring — bit-identical
// aggregates forever, not just until the next drift-wash.
func (r *Ring) AdvancePushes(k int) {
	if k <= 0 {
		return
	}
	r.pushes = (r.pushes + k) % recomputeEvery
}

// At returns the i-th sample, 0 being the oldest. It panics if i is out of
// range, mirroring slice semantics.
func (r *Ring) At(i int) (power.Watts, power.Seconds) {
	if i < 0 || i >= r.n {
		panic(fmt.Sprintf("history: index %d out of range [0,%d)", i, r.n))
	}
	j := r.idx(i)
	return r.powers[j], r.durations[j]
}

// Last returns the most recent sample. ok is false if the ring is empty.
func (r *Ring) Last() (p power.Watts, dt power.Seconds, ok bool) {
	if r.n == 0 {
		return 0, 0, false
	}
	p, dt = r.At(r.n - 1)
	return p, dt, true
}

// Segments returns the stored power samples as up to two contiguous spans
// of the backing array: first holds the oldest samples, second (possibly
// nil) the samples that wrapped past the array end. Concatenated they are
// exactly Powers(), with zero copying — the priority module's peak scan
// runs directly over them. The spans alias ring storage: they are
// invalidated by the next Push/Reset and must not be mutated.
func (r *Ring) Segments() (first, second []power.Watts) {
	if r.head+r.n <= len(r.powers) {
		return r.powers[r.head : r.head+r.n], nil
	}
	split := len(r.powers) - r.head
	return r.powers[r.head:], r.powers[:r.n-split]
}

// DurationSegments is Segments for the measurement intervals.
func (r *Ring) DurationSegments() (first, second []power.Seconds) {
	if r.head+r.n <= len(r.powers) {
		return r.durations[r.head : r.head+r.n], nil
	}
	split := len(r.durations) - r.head
	return r.durations[r.head:], r.durations[:r.n-split]
}

// Mean returns the mean of the stored power samples in O(1) from the
// running aggregates (0 for an empty ring).
func (r *Ring) Mean() power.Watts {
	if r.n == 0 {
		return 0
	}
	return power.Watts(r.sum / float64(r.n))
}

// StdDev returns the population standard deviation of the stored power
// samples in O(1) from the running aggregates (0 for an empty ring). The
// E[x²]−E[x]² formulation can differ from the two-pass direct computation
// by cancellation on the order of 1e-6 W for realistic power magnitudes —
// far below the priority module's thresholds (DESIGN.md §8); the variance
// is clamped at 0 so drift can never produce NaN.
func (r *Ring) StdDev() power.Watts {
	if r.n == 0 {
		return 0
	}
	m := r.sum / float64(r.n)
	v := r.sumSq/float64(r.n) - float64(m*m)
	if v < 0 {
		v = 0
	}
	return power.Watts(math.Sqrt(v))
}

// WindowedDerivative estimates the average first derivative of the stored
// power over the last window samples, in watts per second — the ring-native
// equivalent of signal.WindowedDerivative (Algorithm 2 line 16):
//
//	(x[last] − x[last−window+1]) / Σ durations of the last window−1 samples
//
// It is O(1) when the elapsed time comes from an aggregate: the whole-ring
// case uses durSum minus the oldest duration, and window == TailWindow()+1
// uses the maintained tail sum. Other windows fall back to summing
// window−1 stored durations directly. Returns 0 with fewer than two
// samples or no elapsed time.
func (r *Ring) WindowedDerivative(window int) power.Watts {
	n := r.n
	if n < 2 {
		return 0
	}
	if window > n {
		window = n
	}
	if window < 2 {
		window = 2
	}
	var elapsed float64
	switch {
	case window == n:
		elapsed = r.durSum - float64(r.durations[r.head])
	case r.tailK == window-1:
		elapsed = r.tailDur
	default:
		elapsed = r.directTail(window - 1)
	}
	if elapsed <= 0 {
		return 0
	}
	return (r.powers[r.idx(n-1)] - r.powers[r.idx(n-window)]) / power.Watts(elapsed)
}

// PowersInto fills dst with the stored power samples, oldest first, and
// returns the filled prefix. It avoids allocation when dst has capacity
// for Len() samples. New code should prefer Segments, which avoids the
// copy entirely.
func (r *Ring) PowersInto(dst []power.Watts) []power.Watts {
	if cap(dst) < r.n {
		dst = make([]power.Watts, r.n)
	}
	dst = dst[:r.n]
	a, b := r.Segments()
	copy(dst, a)
	copy(dst[len(a):], b)
	return dst
}

// TailDuration returns the summed duration of the most recent k samples
// (all samples if k exceeds Len). This is the denominator of the priority
// module's windowed derivative (Algorithm 2 line 16). It reads the running
// aggregates — O(1) — when k covers the whole ring or matches the
// configured tail window, and sums k stored durations otherwise.
func (r *Ring) TailDuration(k int) power.Seconds {
	switch {
	case k <= 0:
		return 0
	case k >= r.n:
		return power.Seconds(r.durSum)
	case k == r.tailK:
		return power.Seconds(r.tailDur)
	}
	return power.Seconds(r.directTail(k))
}

// State is one ring's complete serializable state: the raw sample slots
// in physical order plus every running aggregate, bit for bit. The
// aggregates are carried rather than re-derived because the incremental
// values legitimately drift from an exact recomputation between
// drift-washes; restoring recomputed values would fork the bitstream
// from the exporting ring's. The capacity and tail window are
// construction inputs and excluded (ImportState checks the capacity).
type State struct {
	Powers                      []power.Watts
	Durations                   []power.Seconds
	Head, N                     int
	Sum, SumSq, DurSum, TailDur float64
	Pushes                      int
}

// assign returns dst sized to src and holding its values, reusing dst's
// capacity. A dst that already is src — a State whose slots are the
// ring's own (Set.Slots) — comes back untouched: there is nothing to copy.
func assign[T any](dst, src []T) []T {
	if len(dst) == len(src) && (len(src) == 0 || &dst[0] == &src[0]) {
		return dst
	}
	if cap(dst) < len(src) {
		dst = make([]T, len(src))
	}
	dst = dst[:len(src)]
	copy(dst, src)
	return dst
}

// ExportState copies the ring's state into st, reusing st's slices when
// they have capacity (allocation-free once warm). Slots st shares with
// the ring are not copied.
func (r *Ring) ExportState(st *State) {
	st.Powers = assign(st.Powers, r.powers)
	st.Durations = assign(st.Durations, r.durations)
	st.Head, st.N = r.head, r.n
	st.Sum, st.SumSq, st.DurSum, st.TailDur = r.sum, r.sumSq, r.durSum, r.tailDur
	st.Pushes = r.pushes
}

// ImportState overwrites the ring's samples and aggregates bitwise from
// st. The configured tail window is kept — it is construction input —
// and the stored TailDur is adopted as-is, NOT rebuilt via SetTailWindow:
// a recomputed tail sum could differ in the last bit from the exporting
// ring's incremental one and break restore equivalence. Errors (without
// mutating) if CheckState rejects st. Slots st shares with the ring are
// already in place.
func (r *Ring) ImportState(st *State) error {
	if err := CheckState(st, len(r.powers)); err != nil {
		return err
	}
	r.powers = assign(r.powers, st.Powers)
	r.durations = assign(r.durations, st.Durations)
	r.head, r.n = st.Head, st.N
	r.sum, r.sumSq, r.durSum, r.tailDur = st.Sum, st.SumSq, st.DurSum, st.TailDur
	r.pushes = st.Pushes
	return nil
}

// CheckState reports whether st can be imported into a ring of the given
// capacity without checking anything bitwise: capacity match, head/count
// bounds, pushes inside the recompute period. Callers restoring many
// rings atomically validate them all with CheckState before the first
// ImportState.
func CheckState(st *State, capacity int) error {
	if len(st.Powers) != capacity || len(st.Durations) != capacity {
		return fmt.Errorf("history: state capacity %d/%d, ring capacity %d", len(st.Powers), len(st.Durations), capacity)
	}
	return CheckBounds(capacity, st.Head, st.N, st.Pushes)
}

// CheckBounds is CheckState's check on a ring's scalars alone: head and
// count inside the capacity, pushes inside the recompute period. A
// snapshot decoder runs it on every ring before it writes any.
func CheckBounds(capacity, head, n, pushes int) error {
	if n < 0 || n > capacity || head < 0 || head >= capacity {
		return fmt.Errorf("history: state head=%d n=%d invalid for capacity %d", head, n, capacity)
	}
	if pushes < 0 || pushes >= recomputeEvery {
		return fmt.Errorf("history: state pushes=%d outside [0,%d)", pushes, recomputeEvery)
	}
	return nil
}

// Reset discards all samples but keeps the capacity and the configured
// tail window. All running aggregates restart from exact zero.
func (r *Ring) Reset() {
	r.head = 0
	r.n = 0
	r.sum, r.sumSq, r.durSum, r.tailDur = 0, 0, 0, 0
	r.pushes = 0
}

// Set holds one ring per unit, the controller-side "estimated power
// history" global of Figure 3. Each ring holds one unit's samples and is
// reached per unit (Unit, Push) by the controller's word-mask walkers;
// neither the set nor its rings are safe for concurrent use. The rings'
// slots share one backing array per column (Slots).
type Set struct {
	rings     []*Ring
	powers    []power.Watts
	durations []power.Seconds
}

// NewSet creates n rings of the given capacity.
func NewSet(n, capacity int) *Set {
	if capacity <= 0 {
		panic(fmt.Sprintf("history: non-positive ring capacity %d", capacity))
	}
	s := &Set{
		rings:     make([]*Ring, n),
		powers:    make([]power.Watts, n*capacity),
		durations: make([]power.Seconds, n*capacity),
	}
	for i := range s.rings {
		lo, hi := i*capacity, (i+1)*capacity
		s.rings[i] = &Ring{powers: s.powers[lo:hi:hi], durations: s.durations[lo:hi:hi]}
	}
	return s
}

// Slots returns the arrays every ring's slots are carved from: ring u's
// Cap() power and duration slots, in physical order, at [u·Cap(),
// (u+1)·Cap()). A snapshot reads and writes them in place through these.
func (s *Set) Slots() ([]power.Watts, []power.Seconds) { return s.powers, s.durations }

// SetTailWindow configures every ring's maintained tail-duration window
// (see Ring.SetTailWindow).
func (s *Set) SetTailWindow(k int) {
	for _, r := range s.rings {
		r.SetTailWindow(k)
	}
}

// Unit returns the ring for unit u.
func (s *Set) Unit(u power.UnitID) *Ring { return s.rings[u] }

// Len returns the number of units.
func (s *Set) Len() int { return len(s.rings) }

// Push records one sample for unit u.
func (s *Set) Push(u power.UnitID, p power.Watts, dt power.Seconds) {
	s.rings[u].Push(p, dt)
}
