package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"
)

// header says where a result file's numbers came from: enough to tell two
// files apart before comparing them.
type header struct {
	When      string `json:"when"`
	Commit    string `json:"commit"`
	Dirty     bool   `json:"dirty"`
	GoVersion string `json:"go_version"`
	NProc     int    `json:"nproc"`
	CPUModel  string `json:"cpu_model"`

	Seed          int64   `json:"seed"`
	Trace         bool    `json:"trace"`
	WindowSeconds float64 `json:"window_seconds"`
	WarmupSeconds float64 `json:"warmup_seconds"`
	Setups        int     `json:"setups_per_run"`

	ServerCPUs  []int `json:"server_cpus"`    // nimble-serve is bound to these
	GenCPUs     []int `json:"generator_cpus"` // the HTTP generator is bound to these
	Workers     int   `json:"server_workers"` // -workers and the server's GOMAXPROCS
	Connections int   `json:"connections"`    // keep-alive connections of the HTTP generator
	Procs       int   `json:"in_process_gomaxprocs"`

	ServerModels  string               `json:"server_models"`
	BurstMaxQueue int                  `json:"burst_max_queue"`
	Workloads     []workloadProvenance `json:"workloads"`
}

type workloadProvenance struct {
	Name           string    `json:"name"`
	OfferedRPS     float64   `json:"offered_rps,omitempty"` // open-loop workloads
	LatencyLimitMS []float64 `json:"latency_limit_ms"`      // per request class; 0 = none
	TTFTLimitMS    []float64 `json:"ttft_limit_ms"`
}

func (e *env) header(trace bool) header {
	h := header{
		When:          time.Now().UTC().Format(time.RFC3339),
		Commit:        "unknown",
		GoVersion:     runtime.Version(),
		NProc:         runtime.NumCPU(),
		CPUModel:      cpuModel(),
		Seed:          e.seed,
		Trace:         trace,
		WindowSeconds: e.window.Seconds(),
		WarmupSeconds: e.warm.Seconds(),
		Setups:        e.setups,
		ServerCPUs:    e.serverCPUs,
		GenCPUs:       e.genCPUs,
		Workers:       e.workers(),
		Connections:   e.conns,
		Procs:         e.procs,
		ServerModels:  serverModels,
		BurstMaxQueue: burstMaxQueue,
	}
	// A checkout without .git (an export) has no commit to name.
	if out, err := exec.Command("git", "-C", e.root, "rev-parse", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
		if st, err := exec.Command("git", "-C", e.root, "status", "--porcelain").Output(); err == nil {
			h.Dirty = len(strings.TrimSpace(string(st))) > 0
		}
	}
	for _, w := range workloads {
		p := workloadProvenance{Name: w.name, OfferedRPS: w.offeredRPS()}
		for _, cl := range w.classes {
			p.LatencyLimitMS = append(p.LatencyLimitMS, ms(cl.latencyLimit))
			p.TTFTLimitMS = append(p.TTFTLimitMS, ms(cl.ttftLimit))
		}
		h.Workloads = append(h.Workloads, p)
	}
	return h
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// resultFile is what a run leaves behind and what -compare reads.
type resultFile struct {
	Header    header            `json:"header"`
	Workloads []*workloadResult `json:"workloads"`
}

func (f *resultFile) write(path string) error {
	blob, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

func readResultFile(path string) (*resultFile, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(blob, &f); err != nil {
		return nil, fmt.Errorf("benchmark: %s: %w", path, err)
	}
	return &f, nil
}

func sortedKeys(m metrics) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
