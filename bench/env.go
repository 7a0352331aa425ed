package main

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// envBlock is the declared machine shape a result was measured on.
type envBlock struct {
	CPUModel    string `json:"cpu_model"`
	NumCPU      int    `json:"num_cpu"`
	GOMAXPROCS  int    `json:"gomaxprocs"` // harness and fwdd child alike
	Connections int    `json:"connections"`
	GoVersion   string `json:"go_version"`
	Kernel      string `json:"kernel"`
	WALDirFS    string `json:"wal_dir_fs"`
	Transport   string `json:"transport"`
	LoadShape   string `json:"load_shape"`
}

func readEnv(walDir string, conns int) envBlock {
	e := envBlock{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: conns, Connections: conns,
		GoVersion: runtime.Version(),
		Transport: "TCP over the host loopback interface (no real link)",
		LoadShape: "closed loop: each writer issues its next op after the previous reply",
		CPUModel:  "unknown", Kernel: "unknown", WALDirFS: "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile("/proc/mounts"); err == nil {
		e.WALDirFS = fsUnder(string(b), walDir)
	}
	return e
}

// fsUnder returns "<fstype> on <mount point>" for the longest mount point
// in a /proc/mounts listing that contains dir.
func fsUnder(mounts, dir string) string {
	best, out := "", "unknown"
	for _, line := range strings.Split(mounts, "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		rel, err := filepath.Rel(mp, dir)
		if err != nil || rel == ".." || strings.HasPrefix(rel, "../") {
			continue
		}
		if len(mp) >= len(best) {
			best, out = mp, f[2]+" on "+mp
		}
	}
	return out
}
