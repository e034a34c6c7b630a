package signal

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dps/internal/power"
)

func w(xs ...float64) []power.Watts {
	out := make([]power.Watts, len(xs))
	for i, x := range xs {
		out[i] = power.Watts(x)
	}
	return out
}

func TestMean(t *testing.T) {
	if got := Mean(w(1, 2, 3)); got != 2 {
		t.Errorf("Mean = %v, want 2", got)
	}
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v, want 0", got)
	}
}

func TestStdDev(t *testing.T) {
	if got := StdDev(w(5, 5, 5)); got != 0 {
		t.Errorf("StdDev of constant = %v, want 0", got)
	}
	// Population stddev of {1,3} is 1.
	if got := StdDev(w(1, 3)); math.Abs(float64(got)-1) > 1e-12 {
		t.Errorf("StdDev(1,3) = %v, want 1", got)
	}
	if got := StdDev(nil); got != 0 {
		t.Errorf("StdDev(nil) = %v, want 0", got)
	}
}

func TestCountProminentPeaksBasic(t *testing.T) {
	cases := []struct {
		name string
		xs   []power.Watts
		prom power.Watts
		want int
	}{
		{"single clear peak", w(10, 100, 10), 20, 1},
		{"peak below prominence", w(10, 25, 10), 20, 0},
		{"two peaks", w(10, 100, 10, 100, 10), 20, 2},
		{"monotone rise has no peak", w(10, 20, 30, 40), 20, 0},
		{"monotone fall has no peak", w(40, 30, 20, 10), 20, 0},
		{"too short", w(10, 100), 20, 0},
		{"empty", nil, 20, 0},
		{"plateau counted once", w(10, 100, 100, 100, 10), 20, 1},
		{"rising plateau not a peak", w(10, 50, 50, 100, 10), 60, 1},
	}
	for _, c := range cases {
		if got := CountProminentPeaks(c.xs, c.prom); got != c.want {
			t.Errorf("%s: CountProminentPeaks(%v, %v) = %d, want %d", c.name, c.xs, c.prom, got, c.want)
		}
	}
}

func TestCountProminentPeaksUsesKeyValley(t *testing.T) {
	// The middle peak's prominence is limited by the *higher* of the two
	// valleys around it: series 0,100,80,90,80,100,0 — the 90 peak has
	// valleys at 80/80, so prominence 10.
	xs := w(0, 100, 80, 90, 80, 100, 0)
	if got := CountProminentPeaks(xs, 15); got != 2 {
		t.Errorf("prominence-15 count = %d, want 2 (the 90 bump must not count)", got)
	}
	if got := CountProminentPeaks(xs, 5); got != 3 {
		t.Errorf("prominence-5 count = %d, want 3", got)
	}
}

func TestPeakCountOnSquareWave(t *testing.T) {
	// The priority module's high-frequency signature: an oscillating unit
	// produces one prominent peak per period.
	var xs []power.Watts
	for i := 0; i < 5; i++ {
		xs = append(xs, 60, 60, 150, 150, 60)
	}
	got := CountProminentPeaks(xs, 20)
	if got < 4 || got > 5 {
		t.Errorf("square wave peaks = %d, want ~5", got)
	}
}

// Peak counting properties: never negative, never more than half the
// series length (peaks need separating valleys), and raising the
// prominence threshold can only reduce the count.
func TestPeakCountMonotoneInProminenceProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		xs := make([]power.Watts, int(n%40)+3)
		for i := range xs {
			xs[i] = power.Watts(rng.Float64() * 160)
		}
		c10 := CountProminentPeaks(xs, 10)
		c40 := CountProminentPeaks(xs, 40)
		return c10 >= 0 && c40 <= c10 && c10 <= len(xs)/2+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestCountProminentPeaksSegsMatchesConcat: the two-segment scan must see
// exactly the series a caller would get by concatenating the segments —
// every split point of every case, including peaks and plateaus that
// straddle the segment boundary.
func TestCountProminentPeaksSegsMatchesConcat(t *testing.T) {
	series := [][]power.Watts{
		w(10, 100, 10, 100, 10),
		w(10, 100, 100, 100, 10), // plateau
		w(0, 100, 80, 90, 80, 100, 0),
		w(60, 60, 150, 150, 60, 60, 150, 150, 60),
		w(5, 5, 5, 5),
		w(10, 20),
		nil,
	}
	for si, xs := range series {
		for _, prom := range []power.Watts{5, 20, 60} {
			want := CountProminentPeaks(xs, prom)
			for split := 0; split <= len(xs); split++ {
				if got := CountProminentPeaksSegs(xs[:split], xs[split:], prom); got != want {
					t.Errorf("series %d prom %v split %d: Segs count = %d, want %d", si, prom, split, got, want)
				}
			}
		}
	}
}

// TestMoreProminentPeaksThan pins the early-exit variant's contract: it
// must answer exactly count > limit, with negative limits clamped to 0.
func TestMoreProminentPeaksThan(t *testing.T) {
	xs := w(10, 100, 10, 100, 10, 100, 10) // 3 peaks at prominence 20
	for split := 0; split <= len(xs); split++ {
		a, b := xs[:split], xs[split:]
		for limit := -1; limit <= 4; limit++ {
			wantLimit := limit
			if wantLimit < 0 {
				wantLimit = 0
			}
			want := 3 > wantLimit
			if got := MoreProminentPeaksThan(a, b, 20, limit); got != want {
				t.Errorf("split %d limit %d: MoreProminentPeaksThan = %v, want %v", split, limit, got, want)
			}
		}
		if MoreProminentPeaksThan(a, b, 200, 0) {
			t.Errorf("split %d: prominence 200 found a peak in a 90 W-swing series", split)
		}
	}
}

// TestSwingsBoundPeaks: the swing count that screens the exact scan is
// an upper bound on the prominent-peak count — so MoreProminentPeaksThan
// still answers exactly count > limit — and deliberately not equal to
// it. Series are drawn on coarse grids so ties and plateaus, the cases
// where the two differ, are the norm.
func TestSwingsBoundPeaks(t *testing.T) {
	xs := w(0, 100, 90, 100, 0)
	if peaks, swings := CountProminentPeaks(xs, 20), countSwings(xs, nil, 20, -1); peaks != 0 || swings != 1 {
		t.Fatalf("tied maxima: %d peaks, %d swings; want 0 and 1", peaks, swings)
	}
	rng := rand.New(rand.NewSource(7))
	strict := 0
	for iter := 0; iter < 200000; iter++ {
		xs := make([]power.Watts, rng.Intn(24))
		grid := power.Watts(1 + rng.Intn(40))
		for i := range xs {
			xs[i] = grid * power.Watts(rng.Intn(8))
			if rng.Intn(4) == 0 {
				xs[i] += power.Watts(rng.NormFloat64())
			}
		}
		prom := power.Watts(rng.Float64()*60) + 0.5
		if rng.Intn(2) == 0 {
			prom = grid * power.Watts(1+rng.Intn(4)) // rises and falls of exactly the prominence
		}
		split := rng.Intn(len(xs) + 1)
		peaks := CountProminentPeaks(xs, prom)
		swings := countSwings(xs[:split], xs[split:], prom, -1)
		if swings < peaks {
			t.Fatalf("%v prom %v split %d: %d swings < %d peaks", xs, prom, split, swings, peaks)
		}
		if swings > peaks {
			strict++
		}
		for limit := 0; limit <= peaks+1; limit++ {
			if got := MoreProminentPeaksThan(xs[:split], xs[split:], prom, limit); got != (peaks > limit) {
				t.Fatalf("%v prom %v split %d limit %d: got %v with %d peaks", xs, prom, split, limit, got, peaks)
			}
		}
	}
	if strict == 0 {
		t.Error("no series had more swings than peaks: the generator never reached the cases the exact scan exists for")
	}
}

func TestWindowedDerivativeExactOnRamp(t *testing.T) {
	// A 7 W/s ramp sampled at 1 Hz must report exactly 7 for any window.
	xs := w(0, 7, 14, 21, 28)
	durs := []power.Seconds{1, 1, 1, 1, 1}
	for _, win := range []int{2, 3, 5} {
		if got := WindowedDerivative(xs, durs, win); math.Abs(float64(got)-7) > 1e-12 {
			t.Errorf("window %d derivative = %v, want 7", win, got)
		}
	}
}

func TestWindowedDerivativeRespectsDurations(t *testing.T) {
	// Same power change over twice the time halves the derivative.
	xs := w(0, 10)
	if got := WindowedDerivative(xs, []power.Seconds{1, 2}, 2); got != 5 {
		t.Errorf("derivative over 2 s = %v, want 5", got)
	}
}

func TestWindowedDerivativeEdgeCases(t *testing.T) {
	if got := WindowedDerivative(w(5), []power.Seconds{1}, 3); got != 0 {
		t.Errorf("single sample derivative = %v, want 0", got)
	}
	if got := WindowedDerivative(w(1, 2), []power.Seconds{1}, 3); got != 0 {
		t.Errorf("mismatched durations derivative = %v, want 0", got)
	}
	if got := WindowedDerivative(w(1, 2), []power.Seconds{0, 0}, 2); got != 0 {
		t.Errorf("zero elapsed derivative = %v, want 0", got)
	}
	// Window below 2 behaves as 2; window above n is clamped.
	if got := WindowedDerivative(w(0, 3), []power.Seconds{1, 1}, 1); got != 3 {
		t.Errorf("window-1 clamps to 2: got %v, want 3", got)
	}
}

func TestWindowedDerivativeOfConstantIsZeroProperty(t *testing.T) {
	f := func(level float64, n uint8, win uint8) bool {
		size := int(n%30) + 2
		xs := make([]power.Watts, size)
		durs := make([]power.Seconds, size)
		for i := range xs {
			xs[i] = power.Watts(math.Mod(math.Abs(level), 200))
			durs[i] = 1
		}
		return WindowedDerivative(xs, durs, int(win%10)+2) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDerivativeSignProperty(t *testing.T) {
	// Rising series → non-negative derivative; falling → non-positive.
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		size := int(n%20) + 3
		rising := make([]power.Watts, size)
		durs := make([]power.Seconds, size)
		acc := power.Watts(0)
		for i := range rising {
			acc += power.Watts(rng.Float64() * 10)
			rising[i] = acc
			durs[i] = 1
		}
		falling := make([]power.Watts, size)
		for i := range falling {
			falling[i] = rising[size-1-i]
		}
		return WindowedDerivative(rising, durs, 3) >= 0 && WindowedDerivative(falling, durs, 3) <= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
