// Package cluster composes the simulated evaluation platform: co-located
// clusters of nodes whose sockets are RAPL power-capping units, executing
// workload runs under whatever caps a power manager sets.
//
// The paper's platform is one server node plus ten client nodes forming
// two clusters (5 nodes × 2 sockets each); a workload occupies one whole
// cluster, all of its sockets drawing the workload's phase demand (with
// small per-socket jitter). Progress is gated by the slowest socket — the
// bulk-synchronous behaviour of both Spark stages and NPB kernels — which
// is what makes skewed power allocations within a cluster wasteful and
// fair ones efficient.
package cluster

import (
	"fmt"
	"math/rand"

	"dps/internal/power"
	"dps/internal/rapl"
	"dps/internal/workload"
)

// Config describes the simulated machine.
type Config struct {
	// Clusters is the number of co-located clusters (the paper runs 2).
	Clusters int
	// NodesPerCluster is the node count per cluster (paper: 5).
	NodesPerCluster int
	// SocketsPerNode is the power-capping unit count per node (paper: 2).
	SocketsPerNode int
	// Rapl configures every simulated socket (per-socket seeds are derived
	// from Config.Seed).
	Rapl rapl.SimConfig
	// Perf is the power-to-speed model shared by all workloads.
	Perf workload.PerfModel
	// DemandJitterSD is the per-socket, per-step Gaussian jitter applied to
	// the cluster's phase demand, modelling load imbalance across sockets.
	DemandJitterSD power.Watts
	// Seed drives all randomness owned by the machine.
	Seed int64
}

// DefaultConfig reproduces the paper's platform: 2 clusters × 5 nodes × 2
// sockets of 165 W TDP.
func DefaultConfig() Config {
	return Config{
		Clusters:        2,
		NodesPerCluster: 5,
		SocketsPerNode:  2,
		Rapl:            rapl.DefaultSimConfig(),
		Perf:            workload.DefaultPerfModel(),
		DemandJitterSD:  1.5,
		Seed:            1,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.Clusters <= 0:
		return fmt.Errorf("cluster: non-positive cluster count %d", c.Clusters)
	case c.NodesPerCluster <= 0:
		return fmt.Errorf("cluster: non-positive nodes per cluster %d", c.NodesPerCluster)
	case c.SocketsPerNode <= 0:
		return fmt.Errorf("cluster: non-positive sockets per node %d", c.SocketsPerNode)
	case c.DemandJitterSD < 0:
		return fmt.Errorf("cluster: negative demand jitter %v", c.DemandJitterSD)
	}
	if err := c.Rapl.Validate(); err != nil {
		return err
	}
	return c.Perf.Validate()
}

// Units returns the machine's total power-capping unit count.
func (c Config) Units() int { return c.Clusters * c.NodesPerCluster * c.SocketsPerNode }

// Machine is the simulated co-located system. It is not safe for
// concurrent use; drive it from one goroutine (the simulator loop).
type Machine struct {
	cfg      Config
	devices  []*rapl.SimDevice
	meters   []*rapl.Meter
	clusters []*Cluster
	rng      *rand.Rand

	demands  power.Vector // per-unit true demand set during the last step
	readings power.Vector // per-unit measured average power of the last step
	elapsed  power.Seconds
}

// NewMachine builds the machine with every socket capped at TDP and no
// workloads loaded.
func NewMachine(cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.Units()
	m := &Machine{
		cfg:      cfg,
		devices:  make([]*rapl.SimDevice, n),
		meters:   make([]*rapl.Meter, n),
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		demands:  make(power.Vector, n),
		readings: make(power.Vector, n),
	}
	for i := range m.devices {
		rcfg := cfg.Rapl
		rcfg.Seed = cfg.Seed*31 + int64(i)
		dev, err := rapl.NewSimDevice(rcfg)
		if err != nil {
			return nil, err
		}
		m.devices[i] = dev
		m.meters[i] = rapl.NewMeter(dev)
		if _, err := m.meters[i].Read(1); err != nil {
			return nil, err
		}
	}
	perCluster := cfg.NodesPerCluster * cfg.SocketsPerNode
	m.clusters = make([]*Cluster, cfg.Clusters)
	for c := range m.clusters {
		units := make([]power.UnitID, perCluster)
		for i := range units {
			units[i] = power.UnitID(c*perCluster + i)
		}
		m.clusters[c] = &Cluster{
			machine: m,
			index:   c,
			units:   units,
			jitter:  make([]power.Watts, perCluster),
		}
	}
	return m, nil
}

// Units returns the total unit count.
func (m *Machine) Units() int { return len(m.devices) }

// NumClusters returns the cluster count.
func (m *Machine) NumClusters() int { return len(m.clusters) }

// Cluster returns cluster i.
func (m *Machine) Cluster(i int) *Cluster { return m.clusters[i] }

// Elapsed returns simulated time since construction.
func (m *Machine) Elapsed() power.Seconds { return m.elapsed }

// ApplyCaps programs every unit's RAPL limit. The devices clamp to the
// hardware range, exactly like the powercap driver.
func (m *Machine) ApplyCaps(caps power.Vector) error {
	if len(caps) != len(m.devices) {
		return fmt.Errorf("cluster: %d caps for %d units", len(caps), len(m.devices))
	}
	for u, c := range caps {
		if err := m.devices[u].SetCap(c); err != nil {
			return fmt.Errorf("cluster: capping unit %d: %w", u, err)
		}
	}
	return nil
}

// Caps reads back the programmed caps from the devices.
func (m *Machine) Caps() power.Vector {
	out := make(power.Vector, len(m.devices))
	for u, d := range m.devices {
		c, err := d.Cap()
		if err != nil {
			// SimDevice.Cap cannot fail; keep the zero value if it ever does.
			continue
		}
		out[u] = c
	}
	return out
}

// Step advances virtual time by dt: workloads progress under the currently
// programmed caps, sockets draw power and accrue (noisy) energy, and the
// per-unit measured average power for the interval is computed. The
// returned readings slice is owned by the machine and overwritten by the
// next Step.
func (m *Machine) Step(dt power.Seconds) (power.Vector, error) {
	if dt <= 0 {
		return nil, fmt.Errorf("cluster: non-positive step %v", dt)
	}
	// Phase 1: refresh demands and program socket loads.
	for _, c := range m.clusters {
		c.refreshJitter(m.rng)
		base := c.currentDemand()
		for i, u := range c.units {
			d := base
			if d > 0 {
				d += c.jitter[i]
				if d < 0 {
					d = 0
				}
			}
			m.demands[u] = d
			m.devices[u].SetLoad(d)
		}
	}

	// Phase 2: advance workload runs, gated by the slowest socket, crossing
	// phase boundaries sub-step.
	for _, c := range m.clusters {
		c.advance(dt)
	}

	// Phase 3: sockets draw power for the interval; meters compute average
	// power; clusters account energy toward their active run.
	for u, dev := range m.devices {
		draw := dev.Advance(dt)
		r, err := m.meters[u].Read(dt)
		if err != nil {
			return nil, err
		}
		m.readings[u] = r
		_ = draw
	}
	for _, c := range m.clusters {
		if c.run != nil {
			for _, u := range c.units {
				c.runEnergy += power.Joules(float64(m.devices[u].LastDraw()) * float64(dt))
			}
			c.runWall += dt
		}
	}
	m.elapsed += dt
	return m.readings, nil
}

// TrueDemands returns the last step's per-unit uncapped demand (ground
// truth; only the Oracle baseline may consume it). Owned by the machine.
func (m *Machine) TrueDemands() power.Vector { return m.demands }

// Cluster is one of the machine's co-located clusters: a fixed set of
// units plus at most one active workload run.
type Cluster struct {
	machine *Machine
	index   int
	units   []power.UnitID
	jitter  []power.Watts

	run       *workload.Run
	runEnergy power.Joules
	runWall   power.Seconds
}

// Index returns the cluster's position on the machine.
func (c *Cluster) Index() int { return c.index }

// Units returns the cluster's unit IDs (owned by the cluster).
func (c *Cluster) Units() []power.UnitID { return c.units }

// SetRun installs a workload run, resetting the per-run energy accounting.
// Pass nil to idle the cluster.
func (c *Cluster) SetRun(r *workload.Run) {
	c.run = r
	c.runEnergy = 0
	c.runWall = 0
}

// Run returns the active run (nil when idle).
func (c *Cluster) Run() *workload.Run { return c.run }

// Active reports whether a run is installed and unfinished.
func (c *Cluster) Active() bool { return c.run != nil && !c.run.Done() }

// RunMeanPower returns the average true power per socket over the active
// run so far — the numerator of the satisfaction metric.
func (c *Cluster) RunMeanPower() power.Watts {
	if c.runWall <= 0 || len(c.units) == 0 {
		return 0
	}
	return power.Watts(float64(c.runEnergy) / float64(c.runWall) / float64(len(c.units)))
}

// RunWall returns wall-clock seconds since the active run was installed.
func (c *Cluster) RunWall() power.Seconds { return c.runWall }

func (c *Cluster) refreshJitter(rng *rand.Rand) {
	sd := float64(c.machine.cfg.DemandJitterSD)
	for i := range c.jitter {
		if sd > 0 {
			c.jitter[i] = power.Watts(rng.NormFloat64() * sd)
		} else {
			c.jitter[i] = 0
		}
	}
}

func (c *Cluster) currentDemand() power.Watts {
	if c.run == nil || c.run.Done() {
		return 0
	}
	return c.run.Demand()
}

// advance progresses the cluster's run for dt wall-clock seconds at the
// speed of its slowest socket, re-evaluating the speed at each phase
// boundary.
func (c *Cluster) advance(dt power.Seconds) {
	if c.run == nil {
		return
	}
	perf := c.machine.cfg.Perf
	remaining := dt
	for remaining > 1e-9 && !c.run.Done() {
		d := c.run.Demand()
		speed := 1.0
		for i, u := range c.units {
			du := d
			if du > 0 {
				du += c.jitter[i]
				if du < 0 {
					du = 0
				}
			}
			capU, _ := c.machine.devices[u].Cap()
			if s := perf.Speed(capU, du); s < speed {
				speed = s
			}
		}
		used := c.run.Advance(speed, remaining)
		if used <= 0 {
			break
		}
		remaining -= used
	}
}
