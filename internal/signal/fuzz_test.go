package signal

import (
	"testing"

	"dps/internal/power"
)

// FuzzCountProminentPeaks throws arbitrary float series at the peak
// counter: it must never panic, never report more peaks than can be
// separated by valleys, and remain antitone in the prominence threshold.
// The fuzzed split byte additionally cross-checks the two-segment scan
// (the form the priority stage runs over ring storage) and the
// early-exit threshold variant against the canonical single-slice count,
// and every split checks the bound that variant's screen rests on: never
// fewer swings than peaks.
func FuzzCountProminentPeaks(f *testing.F) {
	f.Add([]byte{10, 200, 10, 200, 10}, uint8(20), uint8(2))
	f.Add([]byte{}, uint8(1), uint8(0))
	f.Add([]byte{5, 5, 5, 5}, uint8(0), uint8(3))
	f.Add([]byte{0, 200, 200, 200, 0, 200, 0}, uint8(10), uint8(3))
	f.Add([]byte{0, 100, 90, 100, 0}, uint8(19), uint8(2))                           // tied maxima: a swing, no peak
	f.Add([]byte{70, 70, 70, 70, 70, 70}, uint8(0), uint8(4))                        // flat plateau
	f.Add([]byte{60, 110, 110, 110, 55, 110, 110, 62, 110, 58}, uint8(39), uint8(7)) // min(demand, cap)
	f.Fuzz(func(t *testing.T, raw []byte, promRaw, splitRaw uint8) {
		xs := make([]power.Watts, len(raw))
		for i, b := range raw {
			xs[i] = power.Watts(b)
		}
		prom := power.Watts(promRaw%100) + 1
		n := CountProminentPeaks(xs, prom)
		if n < 0 || n > len(xs)/2+1 {
			t.Fatalf("%d peaks in a %d-sample series", n, len(xs))
		}
		if higher := CountProminentPeaks(xs, prom+50); higher > n {
			t.Fatalf("raising prominence from %v to %v increased peaks %d→%d", prom, prom+50, n, higher)
		}
		split := 0
		if len(xs) > 0 {
			split = int(splitRaw) % (len(xs) + 1)
		}
		if segs := CountProminentPeaksSegs(xs[:split], xs[split:], prom); segs != n {
			t.Fatalf("segment scan split at %d counted %d peaks, single-slice counted %d", split, segs, n)
		}
		for s := 0; s <= len(xs); s++ {
			if swings := countSwings(xs[:s], xs[s:], prom, -1); swings < n {
				t.Fatalf("prominence %v split %d: %d swings bound %d peaks", prom, s, swings, n)
			}
		}
		for limit := -1; limit <= n+1; limit++ {
			clamped := limit
			if clamped < 0 {
				clamped = 0
			}
			if got, want := MoreProminentPeaksThan(xs[:split], xs[split:], prom, limit), n > clamped; got != want {
				t.Fatalf("early-exit(limit=%d, split=%d) = %v, full count %d says %v", limit, split, got, n, want)
			}
		}
	})
}

// FuzzWindowedDerivative must tolerate arbitrary series/duration/window
// combinations without panicking, and stay exact on the values it does
// compute: reversing a series negates its derivative.
func FuzzWindowedDerivative(f *testing.F) {
	f.Add([]byte{0, 10, 20}, []byte{1, 1, 1}, 3)
	f.Add([]byte{}, []byte{}, 0)
	f.Fuzz(func(t *testing.T, rawX, rawD []byte, window int) {
		xs := make([]power.Watts, len(rawX))
		for i, b := range rawX {
			xs[i] = power.Watts(b)
		}
		durs := make([]power.Seconds, len(rawD))
		for i, b := range rawD {
			durs[i] = power.Seconds(b)
		}
		d := WindowedDerivative(xs, durs, window)
		if len(xs) != len(durs) && d != 0 {
			t.Fatalf("mismatched lengths returned %v, want 0", d)
		}
		if len(xs) == len(durs) && len(xs) >= 2 {
			rev := make([]power.Watts, len(xs))
			revD := make([]power.Seconds, len(durs))
			for i := range xs {
				rev[i] = xs[len(xs)-1-i]
			}
			// Derivative symmetry needs symmetric durations too; use
			// uniform ones for the check.
			for i := range revD {
				revD[i] = 1
			}
			uni := make([]power.Seconds, len(durs))
			for i := range uni {
				uni[i] = 1
			}
			// The derivative reads only the LAST window, so reversal
			// negation holds exactly when the window spans the series.
			fwd := WindowedDerivative(xs, uni, len(xs))
			bwd := WindowedDerivative(rev, revD, len(rev))
			if fwd != -bwd {
				t.Fatalf("full-window reversal asymmetry: %v vs %v", fwd, bwd)
			}
			// Any window: the result must be finite and bounded by the
			// series' total swing per second.
			d2 := WindowedDerivative(xs, uni, window)
			min, max := xs[0], xs[0]
			for _, x := range xs {
				if x < min {
					min = x
				}
				if x > max {
					max = x
				}
			}
			if d2 > max-min || d2 < -(max-min) {
				t.Fatalf("derivative %v exceeds the series swing %v", d2, max-min)
			}
		}
	})
}
