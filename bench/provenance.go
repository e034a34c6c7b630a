package main

import (
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// provenance says where a result came from, so two results can be told
// apart before they are compared.
type provenance struct {
	// Commit and Dirty are separate on purpose: a "-dirty" suffix baked
	// into the id makes every run from a work tree look like a different
	// commit. Both are "unknown"/false outside a git checkout.
	Commit     string  `json:"commit"`
	Dirty      bool    `json:"dirty"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Kernel     string  `json:"kernel"`
	StealPct   float64 `json:"steal_pct"` // share of all CPU time over the run the hypervisor took
}

// procStat is the aggregate "cpu" line of /proc/stat in clock ticks.
type procStat struct {
	total, steal uint64
}

func readProcStat() procStat {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return procStat{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	var st procStat
	// cpu user nice system idle iowait irq softirq steal guest guest_nice;
	// guest time is already inside user.
	for i, f := range fields[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		if i < 8 {
			st.total += v
		}
		if i == 7 {
			st.steal = v
		}
	}
	return st
}

func collectProvenance(dir string, stat0 procStat) provenance {
	p := provenance{Commit: "unknown", GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	if out, err := exec.Command("git", "-C", dir, "rev-parse", "--short=12", "HEAD").Output(); err == nil {
		p.Commit = strings.TrimSpace(string(out))
		if out, err := exec.Command("git", "-C", dir, "status", "--porcelain").Output(); err == nil {
			p.Dirty = len(strings.TrimSpace(string(out))) > 0
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		p.Kernel = strings.TrimSpace(string(b))
	}
	stat1 := readProcStat()
	if d := stat1.total - stat0.total; d > 0 {
		p.StealPct = 100 * float64(stat1.steal-stat0.steal) / float64(d)
	}
	return p
}
