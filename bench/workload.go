package main

import (
	"math/rand"

	"dps/internal/power"
	"dps/internal/rapl"
)

// warmupRounds is how many untimed rounds a 16k-unit run decides first. The
// server's flight recorder (256 rounds) keeps growing the heap by 1.2 MB a
// round until its ring is full, the history rings (20) and both refresh
// periods (64) must wrap; 320 covers all three with a margin. nodes1k warms
// up for 128: its recorder grows by 0.2 MB a round, which moves nothing, and
// each of its rounds costs a thousand connections' worth of system calls.
const (
	warmupRounds      = 320
	warmupRoundsNodes = 128
)

// blockRounds is the number of rounds between two host-calibration kernels.
const blockRounds = 20

// spec describes one workload: the fleet's shape, the traffic the demand
// generator produces, and how many timed rounds one second of --seconds buys.
// Round counts are a function of the arguments only, never of elapsed time,
// so allocation volume and GC cycle count repeat from run to run.
type spec struct {
	name          string
	config        string // file under configs/
	units         int
	unitsPerAgent int
	noisyAgents   int  // agents whose demand moves; 0 means all of them
	ops           bool // every optional surface on (see ops.go)
	roundsPerSec  int  // timed rounds per second of --seconds
	warmup        int
	reps          int // repetitions of each after-the-loop measurement
}

// meterNoiseW is the σ of the meter noise on every unit whose demand moves.
const meterNoiseW = 2.0

// The four committed workloads. roundsPerSec is sized so that one second of
// --seconds is about one second of timed work on the sizing host.
var specs = []spec{
	{name: "dense16k", config: "dense16k.json", units: 16384, unitsPerAgent: 128,
		roundsPerSec: 50, warmup: warmupRounds, reps: 15},
	{name: "steady16k", config: "steady16k.json", units: 16384, unitsPerAgent: 128, noisyAgents: 6,
		roundsPerSec: 100, warmup: warmupRounds, reps: 15},
	{name: "ops16k", config: "ops16k.json", units: 16384, unitsPerAgent: 128, ops: true,
		roundsPerSec: 20, warmup: warmupRounds, reps: 15},
	{name: "nodes1k", config: "nodes1k.json", units: 2048, unitsPerAgent: 2,
		roundsPerSec: 30, warmup: warmupRoundsNodes, reps: 45},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

func (s spec) agents() int { return s.units / s.unitsPerAgent }

// timedRounds turns --seconds into a round count, a whole number of
// calibration blocks.
func (s spec) timedRounds(seconds int) int {
	r := s.roundsPerSec * seconds
	if r < 2*blockRounds {
		r = 2 * blockRounds
	}
	return r / blockRounds * blockRounds
}

// device is the harness-owned rapl.Device: a RAPL-style wrapping µJ counter
// fed by the demand generator, and a cap register the agent programs. Only
// the driver goroutine touches it, so it carries no lock.
type device struct {
	cap      power.Watts
	energyUJ uint64
	min, max power.Watts
}

var _ rapl.Device = (*device)(nil)

func (d *device) EnergyMicroJoules() (uint64, error) { return d.energyUJ, nil }

func (d *device) SetCap(w power.Watts) error {
	if w < d.min {
		w = d.min
	}
	if w > d.max {
		w = d.max
	}
	d.cap = w
	return nil
}

func (d *device) Cap() (power.Watts, error) { return d.cap, nil }
func (d *device) MaxPower() power.Watts     { return d.max }
func (d *device) MinPower() power.Watts     { return d.min }

// advance accrues one virtual second of energy at min(demand, cap) plus
// meter noise: the closed half of the loop — a unit never reads above the
// cap the controller pushed it.
func (d *device) advance(demand, noise float64) {
	draw := demand
	if c := float64(d.cap); draw > c {
		draw = c
	}
	draw += noise
	if draw < 0 {
		draw = 0
	}
	d.energyUJ = (d.energyUJ + uint64(draw*1e6)) % rapl.CounterWrap
}

// Demand generator, frozen here so that a change to internal/workload can
// never move the benchmark's inputs. Units are grouped in jobs of 64–512
// contiguous units; a job alternates high (130–160 W) and low (50–80 W)
// phases of 20–120 rounds. Quiet units (steady16k) hold one constant level
// below their cap for the whole run.
const (
	jobMinUnits, jobMaxUnits   = 64, 512
	phaseMinRounds, phaseSpan  = 20, 101
	highBaseW, lowBaseW, spanW = 130.0, 50.0, 30.0
)

type job struct {
	first, n int
	high     bool
	level    float64
	left     int
}

type generator struct {
	rng    *rand.Rand
	jobs   []job
	demand []float64 // per unit, current round
	offset []float64 // per unit, fixed ±3 W so units of a job differ
	noisy  []bool    // per unit
}

func newGenerator(s spec, seed int64) *generator {
	g := &generator{
		rng:    rand.New(rand.NewSource(seed)),
		demand: make([]float64, s.units),
		offset: make([]float64, s.units),
		noisy:  make([]bool, s.units),
	}
	agents := s.agents()
	noisyAgent := make([]bool, agents)
	if s.noisyAgents == 0 || s.noisyAgents >= agents {
		for a := range noisyAgent {
			noisyAgent[a] = true
		}
	} else {
		for _, a := range g.rng.Perm(agents)[:s.noisyAgents] {
			noisyAgent[a] = true
		}
	}
	for u := range g.noisy {
		g.noisy[u] = noisyAgent[u/s.unitsPerAgent]
		g.offset[u] = g.rng.Float64()*6 - 3
		// Quiet units: one level for the whole run.
		g.demand[u] = lowBaseW + g.rng.Float64()*spanW
	}
	for first := 0; first < s.units; {
		n := jobMinUnits + g.rng.Intn(jobMaxUnits-jobMinUnits+1)
		if first+n > s.units {
			n = s.units - first
		}
		j := job{first: first, n: n, high: g.rng.Intn(2) == 0}
		g.nextPhase(&j)
		// Desynchronise the jobs' first transitions.
		j.left = 1 + g.rng.Intn(j.left)
		g.jobs = append(g.jobs, j)
		first += n
	}
	return g
}

func (g *generator) nextPhase(j *job) {
	j.high = !j.high
	base := lowBaseW
	if j.high {
		base = highBaseW
	}
	j.level = base + g.rng.Float64()*spanW
	j.left = phaseMinRounds + g.rng.Intn(phaseSpan)
}

// step advances every job by one round and every device by one virtual
// second.
func (g *generator) step(devs []device) {
	for i := range g.jobs {
		j := &g.jobs[i]
		if j.left == 0 {
			g.nextPhase(j)
		}
		j.left--
		for u := j.first; u < j.first+j.n; u++ {
			if g.noisy[u] {
				g.demand[u] = j.level + g.offset[u]
			}
		}
	}
	for u := range devs {
		noise := 0.0
		if g.noisy[u] {
			noise = g.rng.NormFloat64() * meterNoiseW
		}
		devs[u].advance(g.demand[u], noise)
	}
}
