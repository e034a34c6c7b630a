package main

import (
	"sort"
	"strconv"
	"syscall"
	"time"
)

// calibRefMS defines the reference host: the machine on which one run of the
// frozen kernel below takes exactly this long. Every time-valued metric is
// divided by the kernel time measured next to it and multiplied by this, so
// a slow or stolen-from host reports (nearly) the numbers a quiet one does.
const calibRefMS = 20.0

// calibRefLatencyMS is the latency-bound half's share of calibRefMS on a
// quiet core.
const calibRefLatencyMS = 4.8

const (
	calibBigWords   = 32 << 20 / 8 // 32 MiB of float64: misses the private caches
	calibBigSteps   = 1 << 18
	calibBigStride  = 4099
	calibSmallWords = 32 << 10 / 8 // 32 KiB: stays in L1
	calibSmallSteps = 1 << 19
	calibIntWords   = 4096
	calibIntSteps   = 3 << 20
	calibFmtLines   = 60000
)

// calibrator runs the frozen host-calibration kernel. It must never change:
// it is the yardstick every committed number is expressed in. Its four loops
// are chosen for how differently a shared host treats them. While sizing, the
// VM alternated every few tens of seconds between a quiet state and one where
// a neighbour was busy on the same core; going from one to the other
//
//	a dependent float chain in L1 (small)      slowed by  2 %
//	the same chain over strided memory (big)              77 %
//	four independent integer chains (ints)                77 %
//	strconv formatting into a buffer (format)             87 %
//
// while a dense decision round slowed by 40 % and a /metrics scrape by 80 %.
// A yardstick made of the first loop alone cannot see that state at all; one
// made of the last alone overstates it. The mix below slows by about 60 %,
// which is where the system's own code paths sit.
type calibrator struct {
	big   []float64
	small []float64
	ints  []uint64
	text  []byte
	sink  float64
	isink uint64
}

func newCalibrator() *calibrator {
	c := &calibrator{
		big:   make([]float64, calibBigWords),
		small: make([]float64, calibSmallWords),
		ints:  make([]uint64, calibIntWords),
		text:  make([]byte, 0, 128),
	}
	for i := range c.big {
		c.big[i] = float64(i&1023) * 0.125
	}
	for i := range c.small {
		c.small[i] = float64(i&255) * 0.5
	}
	return c
}

// kalmanStep is one scalar predict/update, the inner operation of the
// controller's per-unit filter.
func kalmanStep(x, p, z float64) (float64, float64) {
	p += 0.05
	k := p / (p + 4)
	x += k * (z - x)
	p *= 1 - k
	return x, p
}

// latencyBound is the part of the kernel a busy neighbour barely slows: one
// dependent chain of float operations over an L1-resident window.
func (c *calibrator) latencyBound() {
	x, p := 100.0, 1.0
	for i := 0; i < calibSmallSteps; i++ {
		j := i & (calibSmallWords - 1)
		x, p = kalmanStep(x, p, c.small[j])
		c.small[j] = x
	}
	c.sink += x + p
}

// throughputBound is the part a busy neighbour slows most: cache-missing
// strided updates, independent integer chains, and number formatting.
func (c *calibrator) throughputBound() {
	x, p := 100.0, 1.0
	idx := 0
	for i := 0; i < calibBigSteps; i++ {
		x, p = kalmanStep(x, p, c.big[idx])
		c.big[idx] = x
		idx = (idx + calibBigStride) & (calibBigWords - 1)
	}
	c.sink += x + p

	var a, b, d, e uint64 = 1, 2, 3, 4
	buf := c.ints
	for i := 0; i < calibIntSteps; i++ {
		j := i & (calibIntWords - 1)
		a = (a ^ buf[j]) * 1099511628211
		b = (b + buf[(j+1)&(calibIntWords-1)]) ^ (b >> 7)
		d = d*6364136223846793005 + 1442695040888963407
		e ^= e << 13
		e ^= e >> 7
		e ^= e << 17
		buf[j] = a + b + d + e
	}
	c.isink += a + b + d + e

	out := c.text
	for i := 0; i < calibFmtLines; i++ {
		out = append(out[:0], `dps_unit_cap_watts{unit="`...)
		out = strconv.AppendInt(out, int64(i), 10)
		out = append(out, `"} `...)
		out = strconv.AppendFloat(out, float64(i)*0.37+10, 'g', -1, 64)
		out = append(out, '\n')
	}
	c.isink += uint64(len(out))
}

// hostCal is one run of the kernel: its wall and CPU time, and the wall time
// of its two halves, whose ratio says how contended the core is.
type hostCal struct {
	wallMS, cpuMS        float64
	latencyMS, throughMS float64
}

func (c *calibrator) measure() hostCal {
	cpu0 := processCPU()
	t0 := time.Now()
	c.latencyBound()
	t1 := time.Now()
	c.throughputBound()
	t2 := time.Now()
	return hostCal{wallMS: ms(t2.Sub(t0)), cpuMS: ms(processCPU() - cpu0), latencyMS: ms(t1.Sub(t0)), throughMS: ms(t2.Sub(t1))}
}

// processCPU returns the user+system CPU time the process has consumed.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// quantile returns the q-quantile (nearest rank, lower) of vs without
// modifying it; 0 for an empty slice.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	i := int(q * float64(len(s)-1))
	return s[i]
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
