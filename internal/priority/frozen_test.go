package priority

import (
	"math"
	"math/rand"
	"testing"

	"dps/internal/history"
	"dps/internal/power"
	"dps/internal/signal"
)

// naiveUpdate is Algorithm 2 the slow, obvious way: copy the history out
// of the ring, count every prominent peak with the unscreened scan, take
// the two-pass standard deviation and the slice derivative. It shares
// nothing with Module's path but the thresholds.
func naiveUpdate(cfg Config, highFreq, prio *bool, ring *history.Ring, pNow, capNow, constantCap power.Watts) {
	xs := ring.PowersInto(nil)
	if len(xs) < cfg.MinSamples {
		return
	}
	highFreqNow := signal.CountProminentPeaks(xs, cfg.PeakProminence) > cfg.PeakCountThreshold
	switch {
	case !*highFreq && highFreqNow:
		*highFreq, *prio = true, true
		return
	case *highFreq && (highFreqNow || signal.StdDev(xs) >= cfg.StdThreshold):
		*prio = true
		return
	case *highFreq:
		*highFreq, *prio = false, false
	}
	if cfg.AtCapFraction > 0 && capNow > 0 && pNow >= capNow*power.Watts(cfg.AtCapFraction) {
		*prio = true
		return
	}
	durs := make([]power.Seconds, len(xs))
	for i := range durs {
		_, durs[i] = ring.At(i)
	}
	switch d := signal.WindowedDerivative(xs, durs, cfg.DerivWindow); {
	case d > cfg.DerivIncThreshold:
		*prio = true
	case d < cfg.DerivDecThreshold:
		*prio = false
	case cfg.IdleRevertFraction > 0 && pNow < constantCap*power.Watts(cfg.IdleRevertFraction):
		*prio = false
	}
}

// TestClassifierMatchesNaive: the module's screened, ring-native
// classification makes exactly the high-frequency and priority
// transitions of the naive classifier, push by push, over the history
// shapes that separate a screen from the scan it guards: phase steps
// under meter noise (the spread bound's boundary), plateaus and tied
// maxima (where swings outnumber peaks), and power clipped at a cap.
func TestClassifierMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	raised, cleared := 0, 0
	for iter := 0; iter < 4000; iter++ {
		cfg := DefaultConfig()
		cfg.PeakCountThreshold = 1 + rng.Intn(4)
		m, err := New(cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		ring := history.NewRing(3 + rng.Intn(22))
		ring.SetTailWindow(cfg.DerivWindow - 1)
		var highFreq, prio bool

		mode := rng.Intn(4)
		hi, lo := power.Watts(130+rng.Intn(31)), power.Watts(50+rng.Intn(31))
		if mode != 0 {
			// Swings around the prominence threshold, on a grid so equal
			// maxima and plateaus recur.
			hi = lo + power.Watts(5*(2+rng.Intn(8)))
		}
		phase, high := 0, false
		for step := 0; step < 4*ring.Cap(); step++ {
			if phase == 0 {
				high = !high
				phase = 1 + rng.Intn(4)
				if rng.Intn(8) == 0 {
					phase = 20 + rng.Intn(100) // a job-length phase: the history goes quiet
				}
			}
			phase--
			p := lo
			if high {
				p = hi
			}
			switch mode {
			case 0: // noisy phases, as the benchmark's generator draws them
				p += power.Watts(rng.NormFloat64() * 2)
			case 1: // exact levels: plateaus, tied maxima
			case 2: // ties with the odd dent, the 0,100,90,100,0 family
				if rng.Intn(3) == 0 {
					p -= 10
				}
			default: // demand clipped at a cap between the levels
				p += power.Watts(rng.NormFloat64() * 2)
				if limit := (hi + lo) / 2; p > limit {
					p = limit
				}
			}
			ring.Push(p, 1)
			capNow := p + power.Watts(rng.Float64()*40)
			was := highFreq
			m.UpdateUnit(0, ring, p, capNow, constantCap)
			naiveUpdate(cfg, &highFreq, &prio, ring, p, capNow, constantCap)
			if m.highFreq[0] != highFreq || m.prio[0] != prio {
				t.Fatalf("iter %d step %d mode %d threshold %d: module highFreq=%v prio=%v, naive highFreq=%v prio=%v, history %v",
					iter, step, mode, cfg.PeakCountThreshold, m.highFreq[0], m.prio[0], highFreq, prio, ring.PowersInto(nil))
			}
			if highFreq && !was {
				raised++
			} else if was && !highFreq {
				cleared++
			}
		}
	}
	if raised < 100 || cleared < 100 {
		t.Errorf("high-frequency flag raised %d and cleared %d times: too few to have compared the detector", raised, cleared)
	}
}

// TestSpreadScreenNeverHidesPeaks: whenever the O(1) spread bound says
// the scan can be skipped, the full count is at most PeakCountThreshold
// — on random series scaled to sit astride the bound, and on the
// two-level zig-zag that meets it with equality (so the constant cannot
// be tightened further, and is not looser than stated).
func TestSpreadScreenNeverHidesPeaks(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	skipped, admitted := 0, 0
	for iter := 0; iter < 100000; iter++ {
		cfg := DefaultConfig()
		cfg.PeakCountThreshold = 1 + rng.Intn(4)
		cfg.PeakProminence = power.Watts(5 + rng.Float64()*35)
		n := 3 + rng.Intn(62)
		k := float64(cfg.PeakCountThreshold + 1)
		boundary := float64(cfg.PeakProminence) / math.Sqrt(float64(n)*(2*k+1)/(k*(k+1)))

		xs := make([]power.Watts, n)
		zigzag := rng.Intn(2) == 0
		for i := range xs {
			if zigzag {
				xs[i] = power.Watts(i % 2)
			}
			xs[i] += power.Watts(rng.NormFloat64() * 0.2)
		}
		scale := power.Watts(boundary*(0.7+0.6*rng.Float64())) / signal.StdDev(xs)
		ring := history.NewRing(n)
		for i := range xs {
			xs[i] = 100 + xs[i]*scale
			ring.Push(xs[i], 1)
		}
		peaks := signal.CountProminentPeaks(xs, cfg.PeakProminence)
		for _, std := range []power.Watts{signal.StdDev(xs), ring.StdDev()} {
			if cfg.spreadAdmitsPeaks(n, std) {
				admitted++
				continue
			}
			skipped++
			if peaks > cfg.PeakCountThreshold {
				t.Fatalf("n=%d threshold=%d P=%v σ=%v: screen skips a history with %d peaks: %v",
					n, cfg.PeakCountThreshold, cfg.PeakProminence, std, peaks, xs)
			}
		}
	}
	if skipped < 10000 || admitted < 10000 {
		t.Errorf("screen skipped %d and admitted %d: the generator is not astride the bound", skipped, admitted)
	}

	for threshold := 1; threshold <= 4; threshold++ {
		cfg := DefaultConfig()
		cfg.PeakCountThreshold = threshold
		k := threshold + 1
		lo, hi := power.Watts(60), 60+cfg.PeakProminence
		mean := (power.Watts(k)*hi + power.Watts(k+1)*lo) / power.Watts(2*k+1)
		for n := 2*k + 1; n <= 64; n++ {
			// lo, mean × padding, hi, lo, hi, …, lo: samples at the mean
			// add nothing to n·σ², and none on a rising edge is an extremum.
			xs := []power.Watts{lo}
			for len(xs) < n-2*k {
				xs = append(xs, mean)
			}
			for i := 0; i < k; i++ {
				xs = append(xs, hi, lo)
			}
			std := signal.StdDev(xs)
			if peaks := signal.CountProminentPeaks(xs, cfg.PeakProminence); peaks != k {
				t.Fatalf("threshold %d n %d: zig-zag has %d peaks, want %d", threshold, n, peaks, k)
			}
			if !cfg.spreadAdmitsPeaks(n, std) {
				t.Errorf("threshold %d n %d: screen skips the extremal zig-zag (σ=%v)", threshold, n, std)
			}
			if cfg.spreadAdmitsPeaks(n, std*0.999) {
				t.Errorf("threshold %d n %d: screen admits σ=%v, below the extremal zig-zag's: the bound is looser than k(k+1)/(2k+1)·P²", threshold, n, std*0.999)
			}
		}
	}
}

// TestFreezeDisableFrequency: with the frequency detector ablated,
// Freeze must not run the peak scan.
func TestFreezeDisableFrequency(t *testing.T) {
	cfg := DefaultConfig()
	ring := history.NewRing(8)
	ring.SetTailWindow(cfg.DerivWindow - 1)
	for i := 0; i < 8; i++ {
		if i%2 == 0 {
			ring.Push(150, 1)
		} else {
			ring.Push(20, 1)
		}
	}
	m, _ := New(cfg, 1)
	if !m.Freeze(ring).HighFreqNow {
		t.Fatal("a 130 W square wave is not high-frequency: the test has no teeth")
	}
	m.DisableFrequency = true
	if m.Freeze(ring).HighFreqNow {
		t.Fatal("ablated Freeze ran the frequency detector")
	}
}
