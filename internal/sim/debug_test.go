package sim

import (
	"testing"

	"dps/internal/power"
	"dps/internal/telemetry"
	"dps/internal/workload"
)

// TestDebugCapSpread inspects DPS cap symmetry within a cluster: all
// sockets of one cluster run the same workload, so their caps should stay
// close. Large spreads starve the whole cluster through the slowest
// socket. This is a diagnostic that prints the worst spread observed and
// where it happened.
func TestDebugCapSpread(t *testing.T) {
	if testing.Short() {
		t.Skip("diagnostic")
	}
	lda, _ := workload.ByName("LDA")
	gmm, _ := workload.ByName("GMM")

	type spreadInfo struct {
		t          power.Seconds
		minC, maxC power.Watts
		prioCount  int
	}
	worstA := spreadInfo{}
	samples := 0
	bigSpreadSteps := 0

	cfg := PairConfig{WorkloadA: lda, WorkloadB: gmm, Repeats: 2, Seed: 7}
	cfg.StepHook = func(tm power.Seconds, rec *telemetry.Round) {
		samples++
		// Cluster A = units 0..9.
		a := rec.Cap[:10]
		min, max := a.Min(), a.Max()
		prio := 0
		for _, p := range rec.Prio[:10] {
			if p {
				prio++
			}
		}
		if max-min > worstA.maxC-worstA.minC {
			worstA = spreadInfo{tm, min, max, prio}
		}
		if max-min > 20 {
			bigSpreadSteps++
		}
	}
	res, err := RunPair(cfg, DPSFactory())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("A mean=%.1f steps=%d; worst cluster-A cap spread %.1f..%.1f W at t=%.0fs (prio=%d/10); steps with spread>20W: %d/%d",
		res.A.MeanDuration, res.Steps, worstA.minC, worstA.maxC, worstA.t, worstA.prioCount, bigSpreadSteps, samples)
}
