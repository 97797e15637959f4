package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"github.com/expresso-verify/expresso/internal/telemetry"
)

const resultSchema = "expresso-benchmark/1"

// envBlock records where a set of runs was measured, so two result files
// are only ever compared knowingly.
type envBlock struct {
	NProc         int    `json:"nproc"`
	GOMAXPROCS    int    `json:"gomaxprocs"`
	EngineWorkers int    `json:"engine_workers"` // what Options.Workers=0 resolves to
	GoVersion     string `json:"go_version"`
	CPUModel      string `json:"cpu_model"`
	GitRevision   string `json:"git_revision"`
	Seed          int64  `json:"seed"`
	// Load1 is the 1-minute load average at start. It lags by a minute, so
	// in a sequence of runs it mostly shows the previous run; BusyShare —
	// the non-idle share of all CPUs over a 100 ms sample taken before
	// anything is started — is what the noise guard judges.
	Load1     float64 `json:"load1_at_start"`
	BusyShare float64 `json:"cpu_busy_share_at_start"`
}

// noisy is the noise guard: the machine was already more than half busy
// when measuring started.
func (e envBlock) noisy() bool { return e.BusyShare > 0.5 }

// noisyNote is what every mode prints when the guard trips.
func (e envBlock) noisyNote() string {
	return fmt.Sprintf("noisy: %.0f%% of %d CPUs were busy before the run started (load average %.2f); timings are suspect",
		100*e.BusyShare, e.NProc, e.Load1)
}

// cpuTimes reads the machine's cumulative busy and total CPU time, in
// clock ticks, from the first line of /proc/stat.
func cpuTimes() (busy, total float64, ok bool) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	if len(fields) < 5 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i != 3 && i != 4 { // idle, iowait
			busy += v
		}
	}
	return busy, total, true
}

func readEnv(seed int64) envBlock {
	env := envBlock{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), EngineWorkers: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), CPUModel: "unknown", GitRevision: "unknown", Seed: seed,
	}
	if n := telemetry.WorkersFromEnv(); n > 0 {
		env.EngineWorkers = n // the engine honours EXPRESSO_WORKERS, so the record must
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				env.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	if raw, err := os.ReadFile("/proc/loadavg"); err == nil {
		if fields := strings.Fields(string(raw)); len(fields) > 0 {
			env.Load1, _ = strconv.ParseFloat(fields[0], 64)
		}
	}
	if b0, t0, ok := cpuTimes(); ok {
		time.Sleep(100 * time.Millisecond)
		if b1, t1, ok := cpuTimes(); ok && t1 > t0 {
			env.BusyShare = (b1 - b0) / (t1 - t0)
		}
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				env.GitRevision = s.Value
			}
		}
	}
	return env
}

// resultFile is one set of runs: every workload, one or more seeds each.
// Claim is always null here — this benchmark defines the numbers and
// claims no gain; a change that does claim one cites two such files.
type resultFile struct {
	Schema    string           `json:"schema"`
	Claim     *string          `json:"claim"`
	Env       envBlock         `json:"env"`
	Noisy     bool             `json:"noisy"`
	Traced    bool             `json:"traced"`
	Seconds   float64          `json:"seconds"`
	Workloads []workloadResult `json:"workloads"`
}

type workloadResult struct {
	Name  string      `json:"name"`
	WallS float64     `json:"wall_s"`
	Runs  []runRecord `json:"runs"`
}

type runRecord struct {
	Seed int64 `json:"seed"`
	resultLine
}

func (w workloadResult) values(name string) []float64 {
	var out []float64
	for _, r := range w.Runs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func (w workloadResult) attempted() (n int) {
	for _, r := range w.Runs {
		n += r.Attempted
	}
	return n
}

func (w workloadResult) failed() (n int) {
	for _, r := range w.Runs {
		n += r.Failed
	}
	return n
}

func (f *resultFile) write(path string) error {
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResultFile(path string) (*resultFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != resultSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, f.Schema, resultSchema)
	}
	return &f, nil
}

// runProcess executes one run of one workload in its own process, in the
// driver's form, and reads back its result line. A run that finds wrong
// answers exits 1 but still prints its line; anything else is an error.
func runProcess(self string, o options, workload string, seed int64) (*runRecord, error) {
	args := []string{
		"-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(o.seconds),
		"-trace", fmt.Sprint(o.trace), "-dir", o.dir,
	}
	if o.fixture != "" {
		args = append(args, "-fixture", o.fixture)
	}
	cmd := exec.Command(self, args...)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run()
	rec := &runRecord{Seed: seed}
	if err := json.Unmarshal(lastLine(stdout.Bytes()), &rec.resultLine); err != nil || rec.Metrics == nil {
		if runErr != nil {
			return nil, fmt.Errorf("seed %d: %w", seed, runErr)
		}
		return nil, fmt.Errorf("seed %d: no result line", seed)
	}
	return rec, nil
}
