package exp

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"dps/internal/core"
	"dps/internal/power"
	"dps/internal/proto"
)

// Overhead reproduces the paper's overhead analysis (§6.5): the
// controller's decision-loop latency at increasing unit counts, and the
// wire cost per node per round. The paper claims the controller handles
// tens of thousands of nodes with a one-second loop; the decision time
// here plus a few milliseconds of network fan-out confirms the same
// headroom.
func Overhead(unitCounts []int, stepsPerCount int, seed int64) (Result, error) {
	if len(unitCounts) == 0 {
		unitCounts = []int{20, 200, 2000, 20000}
	}
	if stepsPerCount <= 0 {
		stepsPerCount = 200
	}
	res := Result{
		ID:      "Section 6.5",
		Title:   "Controller overhead per decision step",
		Columns: []string{"units", "us_per_step", "us_kalman", "us_stateless", "us_priority", "us_readjust", "allocs_per_step", "bytes_per_node"},
	}
	for _, n := range unitCounts {
		budget := power.Budget{Total: power.Watts(n) * 110, UnitMax: 165, UnitMin: 10}
		cfg := core.DefaultConfig(n, budget)
		cfg.Seed = seed
		d, err := core.NewDPS(cfg)
		if err != nil {
			return Result{}, err
		}
		rng := rand.New(rand.NewSource(seed))
		readings := make(power.Vector, n)
		for i := range readings {
			readings[i] = power.Watts(40 + rng.Float64()*120)
		}
		snap := core.Snapshot{Power: readings, Interval: 1}

		// Warm the history so the steady-state (not the cold-start) path
		// is measured.
		for i := 0; i < 25; i++ {
			d.Decide(snap)
		}
		var stages core.StageTimings
		// Mallocs delta across the timed loop ties the steady-state
		// zero-allocation claim (see internal/core/alloc_test.go) to the
		// measured experiment.
		var msBefore runtime.MemStats
		runtime.ReadMemStats(&msBefore)
		start := time.Now()
		for i := 0; i < stepsPerCount; i++ {
			// Perturb readings so the Kalman filters and priority module
			// do real work each step.
			for j := range readings {
				readings[j] += power.Watts(rng.NormFloat64() * 2)
				if readings[j] < 0 {
					readings[j] = 0
				}
			}
			_, st := d.DecideStats(snap)
			stages.Kalman += st.Timings.Kalman
			stages.Stateless += st.Timings.Stateless
			stages.Priority += st.Timings.Priority
			stages.Readjust += st.Timings.Readjust
		}
		perStep := time.Since(start) / time.Duration(stepsPerCount)
		var msAfter runtime.MemStats
		runtime.ReadMemStats(&msAfter)
		allocsPerStep := float64(msAfter.Mallocs-msBefore.Mallocs) / float64(stepsPerCount)
		perStageUS := func(total time.Duration) float64 {
			return float64(total.Microseconds()) / float64(stepsPerCount)
		}

		// Wire cost: one 3-byte record per unit in each direction, 2 units
		// per node on the paper's platform.
		const socketsPerNode = 2
		bytesPerNode := float64(2 * socketsPerNode * proto.RecordSize)

		res.Rows = append(res.Rows, Row{
			Name: fmt.Sprintf("%d units", n),
			Values: map[string]float64{
				"units":           float64(n),
				"us_per_step":     float64(perStep.Microseconds()),
				"us_kalman":       perStageUS(stages.Kalman),
				"us_stateless":    perStageUS(stages.Stateless),
				"us_priority":     perStageUS(stages.Priority),
				"us_readjust":     perStageUS(stages.Readjust),
				"allocs_per_step": allocsPerStep,
				"bytes_per_node":  bytesPerNode,
			},
		})
	}
	res.Notes = append(res.Notes,
		"paper: <0.5% controller CPU at 10 nodes; 3 bytes per request per node; 1 s decision loop")
	return res, nil
}
