package dps

import (
	"dps/internal/daemon"
	"dps/internal/rapl"
)

// Deployment types: the controller daemon, node agents, and the RAPL
// hardware interface.
type (
	// RAPLDevice is one power-capping unit's hardware interface: read the
	// energy counter, set the cap.
	RAPLDevice = rapl.Device
	// SimRAPLConfig describes a simulated socket.
	SimRAPLConfig = rapl.SimConfig
	// SimRAPL is a simulated RAPL socket.
	SimRAPL = rapl.SimDevice
	// SysfsRAPL drives the Linux powercap sysfs interface.
	SysfsRAPL = rapl.SysfsDevice
	// Meter converts a device's energy counter into average power.
	Meter = rapl.Meter
	// ServerConfig configures the controller daemon.
	ServerConfig = daemon.ServerConfig
	// Server is the DPS controller daemon.
	Server = daemon.Server
	// AgentConfig configures one node's client.
	AgentConfig = daemon.AgentConfig
	// Agent is a node client reporting power and applying caps.
	Agent = daemon.Agent
	// DaemonFileConfig is dpsd's JSON configuration file format.
	DaemonFileConfig = daemon.FileConfig
	// DaemonStatus is the controller's observable state (GET /status).
	DaemonStatus = daemon.Status
)

// NewSimRAPL builds a simulated RAPL socket.
func NewSimRAPL(cfg SimRAPLConfig) (*SimRAPL, error) { return rapl.NewSimDevice(cfg) }

// DefaultSimRAPLConfig models one socket of the paper's platform (165 W
// TDP, 2 W measurement noise).
func DefaultSimRAPLConfig() SimRAPLConfig { return rapl.DefaultSimConfig() }

// OpenSysfsRAPL opens a powercap domain directory (e.g.
// /sys/class/powercap/intel-rapl:0).
func OpenSysfsRAPL(dir string, minCap Watts) (*SysfsRAPL, error) {
	return rapl.OpenSysfs(dir, minCap)
}

// DiscoverSysfsRAPL lists package-level powercap domains under root
// (normally /sys/class/powercap).
func DiscoverSysfsRAPL(root string) ([]string, error) { return rapl.DiscoverSysfs(root) }

// NewMeter wraps a device for interval power measurement.
func NewMeter(dev RAPLDevice) *Meter { return rapl.NewMeter(dev) }

// NewServer builds a controller daemon around a DPS controller:
// cfg.Manager must be a *DPS (NewDPS), and any other manager, the
// baselines included, is refused by its type. The baselines run in the
// simulator (RunPair).
func NewServer(cfg ServerConfig) (*Server, error) { return daemon.NewServer(cfg) }

// LoadDaemonConfig parses and normalizes a dpsd JSON configuration file;
// its BuildManager, Budget and Interval methods turn it into a running
// daemon without touching internal packages.
func LoadDaemonConfig(path string) (DaemonFileConfig, error) {
	return daemon.LoadFileConfig(path)
}

// NewAgent builds a node agent over local RAPL devices.
func NewAgent(cfg AgentConfig) (*Agent, error) { return daemon.NewAgent(cfg) }

// DialAgent connects and handshakes an agent to a controller address.
func DialAgent(network, addr string, cfg AgentConfig) (*Agent, error) {
	return daemon.Dial(network, addr, cfg)
}
