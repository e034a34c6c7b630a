package telemetry

import (
	"encoding/json"
	"math"
	"strconv"
	"testing"
)

// checkNumber appends v in each form and demands strconv's 'g' text and
// encoding/json's, non-finite values only in the Prometheus form
// (encoding/json refuses them).
func checkNumber(t testing.TB, prom, js numbers, v float64) {
	t.Helper()
	want := strconv.FormatFloat(v, 'g', -1, 64)
	if got := string(prom.append(nil, v)); got != want {
		t.Fatalf("%v (bits %#x): Prometheus form %q, strconv %q", v, math.Float64bits(v), got, want)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(js.append(nil, v)); got != string(b) {
		t.Fatalf("%v (bits %#x): JSON form %q, encoding/json %q", v, math.Float64bits(v), got, b)
	}
}

// numberSeeds are the values the fuzz target starts from: the deciwatt
// grid's edges, their float neighbours, signed zeros, subnormals, the
// bounds where either form switches to an exponent, and non-finite
// values.
var numberSeeds = []float64{
	0, math.Copysign(0, -1), 0.1, 0.2, 0.3, 1, 2, 9.9, 10, 110, 123.4, 1.0 / 3,
	float64(99999) / 10, float64(999999) / 10, 1e5, 1e5 - 0.1, 1e5 + 0.1, 1e6, 1e-4, 1e-5,
	math.Nextafter(0.3, 1), math.Nextafter(0.3, 0), math.Nextafter(1e5, 0),
	5e-324, math.SmallestNonzeroFloat64 * 3, 2.2250738585072014e-308, -2.2250738585072014e-308,
	1e-6, math.Nextafter(1e-6, 0), 9.99e-7, 1e-7, 1.2345678901234567e-6, -1.2345678901234567e-6,
	1e20, 1e21, math.Nextafter(1e21, 0), 1.2345678901234567e20, 1e22, 1.7976931348623157e308,
	-0.1, -110, -1e21, math.Inf(1), math.Inf(-1), math.NaN(),
}

// TestAppendNumberMatchesStrconv walks the deciwatt grid — float64(k)/10
// and float64(k)*0.1 for every 13th k < 10⁶ (every 211th under -short),
// so every last digit, and each one's float neighbours — and the seeds.
func TestAppendNumberMatchesStrconv(t *testing.T) {
	prom, js := numbers{}, numbers{json: true}
	for _, v := range numberSeeds {
		checkNumber(t, prom, js, v)
	}
	step := 13
	if testing.Short() {
		step = 211
	}
	for k := 0; k < 1e6; k += step {
		for _, v := range []float64{float64(k) / 10, float64(k) * 0.1} {
			checkNumber(t, prom, js, v)
			checkNumber(t, prom, js, math.Nextafter(v, math.Inf(1)))
			checkNumber(t, prom, js, math.Nextafter(v, math.Inf(-1)))
		}
	}
}

// FuzzAppendNumber holds both forms of the number appender to strconv and
// encoding/json on arbitrary float bits, and on the bits' value scaled
// onto the deciwatt grid and off it by one ulp.
func FuzzAppendNumber(f *testing.F) {
	for _, v := range numberSeeds {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		prom, js := numbers{}, numbers{json: true}
		v := math.Float64frombits(bits)
		checkNumber(t, prom, js, v)
		k := float64(bits % 2e6)
		for _, g := range []float64{k / 10, k * 0.1} {
			checkNumber(t, prom, js, g)
			checkNumber(t, prom, js, math.Nextafter(g, math.Inf(1)))
			checkNumber(t, prom, js, math.Nextafter(g, math.Inf(-1)))
		}
	})
}
