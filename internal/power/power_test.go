package power

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewVector(t *testing.T) {
	v := NewVector(4, 110)
	if len(v) != 4 {
		t.Fatalf("len = %d, want 4", len(v))
	}
	for i, w := range v {
		if w != 110 {
			t.Errorf("v[%d] = %v, want 110", i, w)
		}
	}
}

func TestVectorCloneIsIndependent(t *testing.T) {
	v := Vector{1, 2, 3}
	c := v.Clone()
	c[0] = 99
	if v[0] != 1 {
		t.Errorf("mutating the clone changed the original: %v", v)
	}
}

func TestVectorSumMaxMin(t *testing.T) {
	v := Vector{10, 40, 25}
	if got := v.Sum(); got != 75 {
		t.Errorf("Sum = %v, want 75", got)
	}
	if got := v.Max(); got != 40 {
		t.Errorf("Max = %v, want 40", got)
	}
	if got := v.Min(); got != 10 {
		t.Errorf("Min = %v, want 10", got)
	}
}

func TestVectorEmptyEdges(t *testing.T) {
	var v Vector
	if v.Sum() != 0 || v.Max() != 0 || v.Min() != 0 {
		t.Errorf("empty vector: Sum=%v Max=%v Min=%v, want zeros", v.Sum(), v.Max(), v.Min())
	}
}

func TestVectorClamp(t *testing.T) {
	v := Vector{5, 50, 500}
	v.Clamp(10, 165)
	want := Vector{10, 50, 165}
	for i := range v {
		if v[i] != want[i] {
			t.Errorf("Clamp: v[%d] = %v, want %v", i, v[i], want[i])
		}
	}
}

func TestBudgetConstantCap(t *testing.T) {
	b := Budget{Total: 2200, UnitMax: 165, UnitMin: 10}
	if got := b.ConstantCap(20); got != 110 {
		t.Errorf("ConstantCap(20) = %v, want 110", got)
	}
	// Clamped to UnitMax when the budget is generous.
	if got := b.ConstantCap(2); got != 165 {
		t.Errorf("ConstantCap(2) = %v, want UnitMax 165", got)
	}
	// Clamped to UnitMin when the budget is starved.
	if got := b.ConstantCap(1000); got != 10 {
		t.Errorf("ConstantCap(1000) = %v, want UnitMin 10", got)
	}
	if got := b.ConstantCap(0); got != 0 {
		t.Errorf("ConstantCap(0) = %v, want 0", got)
	}
}

func TestBudgetValidate(t *testing.T) {
	good := Budget{Total: 2200, UnitMax: 165, UnitMin: 10}
	if err := good.Validate(20); err != nil {
		t.Errorf("valid budget rejected: %v", err)
	}
	cases := []struct {
		name string
		b    Budget
		n    int
	}{
		{"zero units", good, 0},
		{"negative total", Budget{Total: -1, UnitMax: 165}, 2},
		{"zero unit max", Budget{Total: 100, UnitMax: 0}, 2},
		{"negative unit min", Budget{Total: 100, UnitMax: 165, UnitMin: -1}, 2},
		{"min above max", Budget{Total: 100, UnitMax: 50, UnitMin: 60}, 2},
		{"mins exceed total", Budget{Total: 100, UnitMax: 165, UnitMin: 60}, 2},
		{"no 0.1 W step in bounds", Budget{Total: 100, UnitMax: 10.08, UnitMin: 10.01}, 2},
	}
	for _, c := range cases {
		if err := c.b.Validate(c.n); err == nil {
			t.Errorf("%s: Validate accepted %+v for %d units", c.name, c.b, c.n)
		}
	}
}

func TestBudgetRespected(t *testing.T) {
	b := Budget{Total: 220, UnitMax: 165, UnitMin: 10}
	if !b.Respected(Vector{110, 110}, 1e-6) {
		t.Error("even split reported as violating")
	}
	if b.Respected(Vector{165, 165}, 1e-6) {
		t.Error("sum 330 > 220 reported as respected")
	}
	if b.Respected(Vector{5, 100}, 1e-6) {
		t.Error("cap below UnitMin reported as respected")
	}
	if b.Respected(Vector{170, 40}, 1e-6) {
		t.Error("cap above UnitMax reported as respected")
	}
	// eps absorbs float drift.
	if !b.Respected(Vector{110, 110.0000001}, 1e-3) {
		t.Error("tiny float drift rejected despite eps")
	}
}

func TestHMeanKnownValues(t *testing.T) {
	if got := HMean([]float64{1, 1, 1}); math.Abs(got-1) > 1e-12 {
		t.Errorf("HMean(1,1,1) = %v, want 1", got)
	}
	// hmean(2, 6) = 3.
	if got := HMean([]float64{2, 6}); math.Abs(got-3) > 1e-12 {
		t.Errorf("HMean(2,6) = %v, want 3", got)
	}
	if got := HMean(nil); got != 0 {
		t.Errorf("HMean(nil) = %v, want 0", got)
	}
	if got := HMean([]float64{1, 0}); got != 0 {
		t.Errorf("HMean with zero = %v, want 0", got)
	}
	if got := HMean([]float64{1, -2}); got != 0 {
		t.Errorf("HMean with negative = %v, want 0", got)
	}
}

// HMean never exceeds the arithmetic mean and is bounded by the extremes
// (AM–HM inequality) — the property that makes it the paper's conservative
// aggregate for paired workloads.
func TestHMeanBoundedByMeanProperty(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		var sum, min, max float64
		min = math.Inf(1)
		for i, r := range raw {
			// Map arbitrary floats into a positive, finite range.
			x := 0.1 + math.Mod(math.Abs(r), 100)
			if math.IsNaN(x) || math.IsInf(x, 0) {
				x = 1
			}
			xs[i] = x
			sum += x
			if x < min {
				min = x
			}
			if x > max {
				max = x
			}
		}
		h := HMean(xs)
		am := sum / float64(len(xs))
		const eps = 1e-9
		return h <= am+eps && h >= min-eps && h <= max+eps
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAbsDiff(t *testing.T) {
	if got := AbsDiff(10, 4); got != 6 {
		t.Errorf("AbsDiff(10,4) = %v, want 6", got)
	}
	if got := AbsDiff(4, 10); got != 6 {
		t.Errorf("AbsDiff(4,10) = %v, want 6", got)
	}
}
