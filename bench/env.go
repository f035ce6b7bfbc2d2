package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// Env is stamped into every result automatically, so two result files can
// be told apart — and refused as incomparable — without a hand-written
// caveat paragraph.
type Env struct {
	GOOS         string  `json:"goos"`
	GOARCH       string  `json:"goarch"`
	CPU          string  `json:"cpu"`
	NumCPU       int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	Clients      int     `json:"clients"`
	GoVersion    string  `json:"go_version"`
	Commit       string  `json:"commit"`
	Seed         int64   `json:"seed"`
	Rounds       int     `json:"rounds"`
	SliceSeconds float64 `json:"slice_seconds"`
	Warmups      int     `json:"warmups"`
}

func stampEnv(cfg config) Env {
	return Env{
		GOOS:         runtime.GOOS,
		GOARCH:       runtime.GOARCH,
		CPU:          cpuModel(),
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		Clients:      clients,
		GoVersion:    runtime.Version(),
		Commit:       gitHead(),
		Seed:         cfg.seed,
		Rounds:       cfg.rounds,
		SliceSeconds: cfg.seconds / float64(cfg.rounds),
		Warmups:      cfg.warmups,
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if key, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(key) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// gitHead is the commit being measured, or "unknown" outside a git
// checkout (the driver's checkout is one).
func gitHead() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
