package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/expresso-verify/expresso"
)

// runContext is one run of one workload: its inputs, its scratch
// directory, and the tallies that become the result line.
type runContext struct {
	def     workloadDef
	seed    int64
	seconds float64
	traced  bool
	self    string // this binary, re-executed for every child
	dir     string // scratch for this run, removed when it ends
	outDir  string // where span files go

	props     []expresso.Kind
	propNames []string
	fx        *fixture
	cfgPath   string

	attempted, failed int
	metrics           map[string]float64
}

// op tallies one attempted operation; a non-nil err counts it as failed.
// An operation fails when it errors, times out, answers non-2xx, gives a
// verdict other than the known answer, or shows the wrong provenance.
func (rc *runContext) op(what string, err error) bool {
	rc.attempted++
	if err != nil {
		rc.failed++
		fmt.Fprintf(os.Stderr, "benchmark: %s: %s FAILED: %v\n", rc.def.Name, what, err)
		return false
	}
	return true
}

func (rc *runContext) set(name string, v float64) { rc.metrics[name] = v }

// setup generates the workload's fixture and writes its configuration
// file reps times, and returns the median seconds of one such set-up.
func (rc *runContext) setup(fixtureName string, reps int) (float64, error) {
	var secs []float64
	for i := 0; i < reps; i++ {
		start := time.Now()
		fx, err := makeFixture(fixtureName, rc.seed)
		if err != nil {
			return 0, err
		}
		dir := filepath.Join(rc.dir, fmt.Sprintf("setup-%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return 0, err
		}
		path := filepath.Join(dir, fixtureName+".cfg")
		if err := os.WriteFile(path, []byte(fx.Text), 0o644); err != nil {
			return 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
		rc.fx, rc.cfgPath = fx, path
	}
	return median(secs), nil
}

// procRun is a finished child: what the kernel accounted for it and the
// one line it printed.
type procRun struct {
	Wall  time.Duration // exec to exit, as the parent saw it
	CPU   time.Duration // user + system
	RSSMB float64       // ru_maxrss
	Out   childResult
}

func rusageOf(ps *os.ProcessState) (cpu time.Duration, rssMB float64) {
	cpu = ps.UserTime() + ps.SystemTime()
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return cpu, rssMB
}

// spawn runs one child to completion. The child is killed at the timeout;
// either way it has exited, and been waited for, when spawn returns.
func (rc *runContext) spawn(timeout time.Duration, args ...string) (*procRun, error) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, rc.self, append([]string{"-child"}, args...)...)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	start := time.Now()
	runErr := cmd.Run()
	pr := &procRun{Wall: time.Since(start)}
	if cmd.ProcessState != nil {
		pr.CPU, pr.RSSMB = rusageOf(cmd.ProcessState)
	}
	if err := json.Unmarshal(lastLine(stdout.Bytes()), &pr.Out); err != nil && runErr == nil {
		return pr, fmt.Errorf("child %s: unreadable result: %w", args[0], err)
	}
	if ctx.Err() != nil {
		return pr, fmt.Errorf("child %s: exceeded %s", args[0], timeout)
	}
	if runErr != nil {
		return pr, fmt.Errorf("child %s: %v: %s", args[0], runErr, pr.Out.Error)
	}
	return pr, nil
}

func lastLine(out []byte) []byte {
	out = bytes.TrimRight(out, "\n")
	if i := bytes.LastIndexByte(out, '\n'); i >= 0 {
		return out[i+1:]
	}
	return out
}

// cold runs one cold-process verification of the workload's fixture and
// checks its verdict against the known answer. extra are further `-child
// cold` flags.
func (rc *runContext) cold(cfgPath string, extra ...string) (*procRun, error) {
	args := append([]string{"cold", "-config", cfgPath, "-props", rc.def.Props}, extra...)
	pr, err := rc.spawn(coldTimeout+10*time.Second, args...)
	if err != nil {
		return pr, err
	}
	if len(pr.Out.Runs) == 0 {
		return pr, fmt.Errorf("child cold: no verification in result")
	}
	for _, run := range pr.Out.Runs {
		if err := rc.fx.checkVerdict(rc.props, run.Converged, run.Counts); err != nil {
			return pr, err
		}
	}
	return pr, nil
}

// sameReport fails when two canonical reports differ.
func sameReport(what string, want, got json.RawMessage) error {
	if !bytes.Equal(want, got) {
		return fmt.Errorf("%s: canonical report differs (%d vs %d bytes)", what, len(want), len(got))
	}
	return nil
}

// daemon is a running `-child serve` process and an HTTP client for it.
type daemon struct {
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	stdout *bufio.Reader
	base   string
	client *http.Client
}

// startDaemon starts a `-child serve` process; extra are further flags.
func (rc *runContext) startDaemon(extra ...string) (*daemon, error) {
	cmd := exec.Command(rc.self, append([]string{"-child", "serve"}, extra...)...)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, stdin: stdin, stdout: bufio.NewReader(stdout),
		client: &http.Client{Timeout: deltaTimeout + 5*time.Second}}
	var hello struct {
		Addr string `json:"addr"`
	}
	line, err := d.stdout.ReadBytes('\n')
	if err == nil {
		err = json.Unmarshal(line, &hello)
	}
	if err != nil {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		return nil, fmt.Errorf("daemon did not announce its address: %w", err)
	}
	d.base = "http://" + hello.Addr
	return d, nil
}

// stop closes the daemon's stdin (its signal to drain), reads its closing
// statistics, and waits for it to exit.
func (d *daemon) stop() (*procRun, error) {
	start := time.Now()
	_ = d.stdin.Close()
	timer := time.AfterFunc(deltaTimeout+10*time.Second, func() { _ = d.cmd.Process.Kill() })
	defer timer.Stop()
	line, readErr := d.stdout.ReadBytes('\n')
	waitErr := d.cmd.Wait()
	pr := &procRun{Wall: time.Since(start)}
	pr.CPU, pr.RSSMB = rusageOf(d.cmd.ProcessState)
	if waitErr != nil {
		return pr, fmt.Errorf("daemon exit: %w", waitErr)
	}
	if readErr != nil && len(line) == 0 {
		return pr, fmt.Errorf("daemon closing statistics: %w", readErr)
	}
	if err := json.Unmarshal(line, &pr.Out); err != nil {
		return pr, fmt.Errorf("daemon closing statistics: %w", err)
	}
	return pr, nil
}

// call sends one JSON request; out, when non-nil, receives the decoded
// body of a 2xx answer.
func (d *daemon) call(method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, d.base+path, rd)
	if err != nil {
		return err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	switch out := out.(type) {
	case nil:
	case *[]byte: // a page that is not JSON
		*out = data
	default:
		if err := json.Unmarshal(data, out); err != nil {
			return fmt.Errorf("%s %s: %w", method, path, err)
		}
	}
	return nil
}

// counters reads the daemon's /metrics page into name -> value (plain
// counter and gauge lines only; labelled series are skipped).
func (d *daemon) counters() (map[string]float64, error) {
	var page []byte
	if err := d.call("GET", "/metrics", nil, &page); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(page), "\n") {
		fields := strings.Fields(line)
		if len(fields) != 2 || strings.HasPrefix(line, "#") || strings.Contains(fields[0], "{") {
			continue
		}
		if v, err := strconv.ParseFloat(fields[1], 64); err == nil {
			out[fields[0]] = v
		}
	}
	return out, nil
}

// cpuSeconds is the daemon's user+system CPU so far, from /proc (clock
// ticks; only ever used as a difference over a whole phase).
func (d *daemon) cpuSeconds() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th of the whole line.
	rest := raw[bytes.LastIndexByte(raw, ')')+1:]
	fields := strings.Fields(string(rest))
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	utime, err1 := strconv.ParseFloat(fields[11], 64)
	stime, err2 := strconv.ParseFloat(fields[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unparseable /proc stat line")
	}
	const userHZ = 100 // Linux reports these in USER_HZ, fixed at 100
	return (utime + stime) / userHZ, nil
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total, err
}
