// Package signal provides the time-series analysis primitives behind the
// priority module's "power dynamics": prominent-peak counting (the paper
// cites Palshikar's simple peak-detection algorithms), standard deviation,
// and the windowed first derivative of power.
package signal

import (
	"math"

	"dps/internal/power"
)

// Mean returns the arithmetic mean of xs (0 for an empty slice).
func Mean(xs []power.Watts) power.Watts {
	if len(xs) == 0 {
		return 0
	}
	var s power.Watts
	for _, x := range xs {
		s += x
	}
	return s / power.Watts(len(xs))
}

// StdDev returns the population standard deviation of xs in watts. The
// priority module compares it against a threshold to catch high-frequency
// behaviour that slips past the peak counter (Algorithm 2 line 11).
func StdDev(xs []power.Watts) power.Watts {
	n := len(xs)
	if n == 0 {
		return 0
	}
	m := Mean(xs)
	var acc float64
	for _, x := range xs {
		d := float64(x - m)
		acc += d * d
	}
	return power.Watts(math.Sqrt(acc / float64(n)))
}

// CountProminentPeaks counts local maxima of xs whose prominence is at
// least minProminence watts.
//
// Following Palshikar's S1 peak function, a sample x[i] is a candidate peak
// if it is a strict local maximum of its immediate neighbourhood. Its
// prominence is measured against the lower of the two deepest valleys
// separating it from a higher sample (or the series edge). This simple,
// threshold-based formulation is what a controller can afford at every
// decision step: it is O(n) over the (short, default 20-sample) history.
//
// Plateau peaks (equal consecutive maxima) are counted once.
func CountProminentPeaks(xs []power.Watts, minProminence power.Watts) int {
	return countPeaks(series{a: xs}, minProminence, -1)
}

// CountProminentPeaksSegs counts prominent peaks over the virtual
// concatenation a ++ b, exactly as CountProminentPeaks would over the
// joined slice but without materializing it. It exists for ring buffers
// whose storage is exposed as two contiguous spans (history.Ring.Segments):
// the controller's hot loop scans ring storage in place instead of copying
// every history into a scratch buffer each round.
func CountProminentPeaksSegs(a, b []power.Watts, minProminence power.Watts) int {
	return countPeaks(series{a: a, b: b}, minProminence, -1)
}

// MoreProminentPeaksThan reports whether the virtual concatenation a ++ b
// contains strictly more than limit prominent peaks, returning as soon as
// peak limit+1 is found. Both of the priority module's uses of the peak
// count are threshold comparisons (Algorithm 2 lines 8 and 11), so the
// early exit changes no decision while skipping the scan's tail on
// high-frequency histories.
//
// The answer is almost always "no" (a controller's units rarely flip
// faster than it can follow), so the exact scan with its two valley walks
// per candidate runs only behind countSwings, an upper bound on the peak
// count that costs one pass: at most limit swings means at most limit
// peaks, whatever the scan would have found.
func MoreProminentPeaksThan(a, b []power.Watts, minProminence power.Watts, limit int) bool {
	if limit < 0 {
		limit = 0
	}
	if minProminence > 0 && countSwings(a, b, minProminence, limit) <= limit {
		return false
	}
	return countPeaks(series{a: a, b: b}, minProminence, limit) > limit
}

// countSwings counts the p-hysteresis swings of a ++ b in one pass with
// O(1) state: a swing is a rise of at least p from the running low
// followed by a fall of at least p from the running high. For p > 0 it
// is never below the prominent-peak count of the same series, so it
// screens the exact scan; it is not a replacement for it (0,100,90,100,0
// has one swing and, both maxima tying, no peak).
//
// Why every counted peak owns a distinct swing: let the peak be the
// plateau xs[i..j] = v, and L < i, R > j its key valleys, so
// v−xs[L] ≥ p, v−xs[R] ≥ p and every sample strictly between L and R
// outside the plateau is below v. After sample L the machine is either
// seeking with v−lo ≥ p (lo ≤ xs[L]) or peaking with hi < v (a high of v
// or more would have seen xs[L] as a fall of p). Samples below v keep
// that invariant, so sample i leaves it peaking with hi = v; nothing up
// to R exceeds v, so the first sample with v−x ≥ p — at R at the latest
// — counts a swing. A later peak cannot claim the same swing: if it lay
// before that sample it would be lower than v, and its own left valley
// would already have been a fall of p from v. Floating-point subtraction
// is monotone in both operands, so each "≥ p" above carries over to the
// rounded differences the code compares.
//
// A non-negative limit returns early with limit+1; limit < 0 counts
// exhaustively.
func countSwings(a, b []power.Watts, p power.Watts, limit int) int {
	// ext is the running low while seeking, the running high while peaking.
	ext, peaking, count := power.Watts(math.Inf(1)), false, 0
	for _, seg := range [2][]power.Watts{a, b} {
		for _, x := range seg {
			if peaking {
				if x > ext {
					ext = x
				} else if ext-x >= p {
					count++
					if limit >= 0 && count > limit {
						return count
					}
					peaking, ext = false, x
				}
			} else {
				if x < ext {
					ext = x
				} else if x-ext >= p {
					peaking, ext = true, x
				}
			}
		}
	}
	return count
}

// series is a read-only view over the virtual concatenation of two slices,
// the shape ring storage naturally comes in. at's branch (predictable:
// first span, then second) replaces the per-element modulo a ring index
// computation would need, and the compiler inlines it into the scan.
type series struct{ a, b []power.Watts }

func (s series) len() int { return len(s.a) + len(s.b) }

func (s series) at(i int) power.Watts {
	if i < len(s.a) {
		return s.a[i]
	}
	return s.b[i-len(s.a)]
}

// countPeaks is the shared Palshikar S1 scan. A non-negative limit makes
// it return early with limit+1 as soon as that many prominent peaks are
// found; limit < 0 counts exhaustively.
func countPeaks(xs series, minProminence power.Watts, limit int) int {
	n := xs.len()
	if n < 3 {
		return 0
	}
	count := 0
	i := 1
	for i < n-1 {
		if xs.at(i) <= xs.at(i-1) {
			i++
			continue
		}
		// Walk any plateau of equal values.
		j := i
		for j < n-1 && xs.at(j+1) == xs.at(i) {
			j++
		}
		if j == n-1 || xs.at(j+1) >= xs.at(i) {
			// Not a local maximum (rising edge at the end, or plateau
			// followed by a rise).
			i = j + 1
			continue
		}
		// xs[i..j] is a local maximum. Find the key valleys on each side:
		// the minimum between the peak and the previous/next sample that is
		// at least as high as the peak (or the series edge).
		left := valleyLeft(xs, i)
		right := valleyRight(xs, j)
		base := left
		if right > base {
			base = right
		}
		if xs.at(i)-base >= minProminence {
			count++
			if limit >= 0 && count > limit {
				return count
			}
		}
		i = j + 1
	}
	return count
}

// valleyLeft returns the minimum value between index i (exclusive) and the
// nearest sample to the left that is >= xs[i], or the left edge.
func valleyLeft(xs series, i int) power.Watts {
	peak := xs.at(i)
	min := peak
	for k := i - 1; k >= 0; k-- {
		v := xs.at(k)
		if v < min {
			min = v
		}
		if v >= peak {
			break
		}
	}
	return min
}

// valleyRight returns the minimum value between index j (exclusive) and the
// nearest sample to the right that is >= xs[j], or the right edge.
func valleyRight(xs series, j int) power.Watts {
	peak := xs.at(j)
	min := peak
	for k := j + 1; k < xs.len(); k++ {
		v := xs.at(k)
		if v < min {
			min = v
		}
		if v >= peak {
			break
		}
	}
	return min
}

// WindowedDerivative estimates the average first derivative of power over
// the last window samples, in watts per second (Algorithm 2 line 16):
//
//	(x[last] − x[last−window+1]) / Σ durations of those samples
//
// A window of w samples spans w−1 intervals; the paper sums the durations
// of the window's samples, and we follow its formulation, summing the last
// w−1 intervals so the slope is exact for uniform sampling.
// It returns 0 if fewer than two samples or no elapsed time are available.
func WindowedDerivative(xs []power.Watts, durations []power.Seconds, window int) power.Watts {
	n := len(xs)
	if n < 2 || len(durations) != n {
		return 0
	}
	if window > n {
		window = n
	}
	if window < 2 {
		window = 2
	}
	first := n - window
	var elapsed power.Seconds
	for i := first + 1; i < n; i++ {
		elapsed += durations[i]
	}
	if elapsed <= 0 {
		return 0
	}
	return (xs[n-1] - xs[first]) / power.Watts(elapsed)
}
