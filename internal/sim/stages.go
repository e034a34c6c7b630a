package sim

import (
	"fmt"
	"strings"

	"dps/internal/core"
)

// StageBreakdown accumulates DPS per-stage wall time across an
// experiment's decision steps, so benchmark output can report where the
// controller actually spends its microseconds instead of one opaque
// us_per_step number.
type StageBreakdown struct {
	// Rounds is the number of Decide calls accumulated.
	Rounds uint64 `json:"rounds"`
	// Per-stage cumulative wall time, seconds.
	KalmanS    float64 `json:"kalman_s"`
	StatelessS float64 `json:"stateless_s"`
	PriorityS  float64 `json:"priority_s"`
	ReadjustS  float64 `json:"readjust_s"`
	TotalS     float64 `json:"total_s"`
	// Decision outcome tallies.
	Restores        uint64 `json:"restores"`
	PriorityFlips   uint64 `json:"priority_flips"`
	BudgetExhausted uint64 `json:"budget_exhausted"`
	BudgetClamped   uint64 `json:"budget_clamped"`
	// Work totals: unit-rounds the snapshots marked changed and
	// unit-rounds the controller skipped as settled.
	DirtyUnits   uint64 `json:"dirty_units"`
	SkippedUnits uint64 `json:"skipped_units"`
}

// Add folds one round's stats into the breakdown.
func (b *StageBreakdown) Add(st core.RoundStats) {
	b.Rounds++
	b.KalmanS += st.Timings.Kalman.Seconds()
	b.StatelessS += st.Timings.Stateless.Seconds()
	b.PriorityS += st.Timings.Priority.Seconds()
	b.ReadjustS += st.Timings.Readjust.Seconds()
	b.TotalS += st.Total.Seconds()
	if st.Restored {
		b.Restores++
	}
	b.PriorityFlips += uint64(st.PriorityFlips)
	if st.BudgetExhausted {
		b.BudgetExhausted++
	}
	if st.BudgetClamped {
		b.BudgetClamped++
	}
	b.DirtyUnits += uint64(st.DirtyUnits)
	b.SkippedUnits += uint64(st.SkippedUnits)
}

// MeanMicros returns the mean per-round microseconds of one accumulated
// stage total.
func (b *StageBreakdown) MeanMicros(stageSeconds float64) float64 {
	if b.Rounds == 0 {
		return 0
	}
	return stageSeconds * 1e6 / float64(b.Rounds)
}

// Format renders the breakdown as a one-line-per-stage summary.
func (b *StageBreakdown) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "controller stage timing over %d rounds (mean µs/round):\n", b.Rounds)
	for _, row := range []struct {
		name string
		s    float64
	}{
		{"kalman", b.KalmanS},
		{"stateless", b.StatelessS},
		{"priority", b.PriorityS},
		{"readjust", b.ReadjustS},
		{"total", b.TotalS},
	} {
		fmt.Fprintf(&sb, "  %-10s %8.2f\n", row.name, b.MeanMicros(row.s))
	}
	fmt.Fprintf(&sb, "  restores=%d priority_flips=%d budget_exhausted=%d budget_clamped=%d",
		b.Restores, b.PriorityFlips, b.BudgetExhausted, b.BudgetClamped)
	if b.DirtyUnits > 0 || b.SkippedUnits > 0 {
		fmt.Fprintf(&sb, "\n  sparse: dirty_units=%d skipped_units=%d", b.DirtyUnits, b.SkippedUnits)
	}
	return sb.String()
}
