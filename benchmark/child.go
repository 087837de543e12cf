package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// childFlag starts a child process. The parent runs every repeat, the
// live client and the traced live server as its own executable with
// this flag and a JSON-encoded job, so each measures a fresh process.
const childFlag = "-child"

// job is the parent-to-child protocol.
type job struct {
	Role     string  `json:"role"` // replay, traced, slorate, client or liveserver
	Workload string  `json:"workload,omitempty"`
	Seed     int64   `json:"seed"`
	Scale    float64 `json:"scale"`
	Addr     string  `json:"addr,omitempty"`     // client, liveserver
	Requests int     `json:"requests,omitempty"` // client
}

// childMain runs one job and prints its result as one JSON line.
func childMain(arg string) int {
	var j job
	if err := json.Unmarshal([]byte(arg), &j); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark child:", err)
		return 2
	}
	if j.Role == "traced" || j.Role == "liveserver" {
		// Set before the job allocates anything it will be judged by.
		runtime.MemProfileRate = allocProfileRate
	}
	out, err := runChild(j)
	if err == nil {
		err = json.NewEncoder(os.Stdout).Encode(out)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark child %s: %v\n", j.Role, err)
		return 1
	}
	return 0
}

func runChild(j job) (any, error) {
	switch j.Role {
	case "replay", "traced":
		def, err := findWorkload(j.Workload)
		if err != nil {
			return nil, err
		}
		if def.live {
			return nil, fmt.Errorf("%s is not a replay", def.name)
		}
		if j.Role == "traced" {
			return tracedReplay(def, j)
		}
		return replayOnce(def, j)
	case "slorate":
		return sloRate(j)
	case "client":
		return runClient(j)
	case "liveserver":
		return serveTraced(j)
	}
	return nil, fmt.Errorf("unknown child role %q", j.Role)
}

func childCommand(ctx context.Context, j job) (*exec.Cmd, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	arg, err := json.Marshal(j)
	if err != nil {
		return nil, err
	}
	return command(ctx, exe, childFlag, string(arg)), nil
}

// command is exec.CommandContext for a process this one owns: the
// kernel kills it should this process die first, so no child outlives
// the benchmark.
func command(ctx context.Context, name string, args ...string) *exec.Cmd {
	cmd := exec.CommandContext(ctx, name, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return cmd
}

// spawn runs one child to completion and decodes its output into out.
func spawn(ctx context.Context, j job, out any) error {
	cmd, err := childCommand(ctx, j)
	if err != nil {
		return err
	}
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("%s child: %w: %s", j.Role, err, tail(stderr.String()))
	}
	return decodeLast(stdout.Bytes(), out)
}

// decodeLast decodes the last line of a child's output.
func decodeLast(out []byte, v any) error {
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), v); err != nil {
		return fmt.Errorf("child output: %w", err)
	}
	return nil
}

// tail keeps the end of a child's stderr for error messages.
func tail(s string) string {
	s = strings.TrimSpace(s)
	if len(s) > 2000 {
		s = "..." + s[len(s)-2000:]
	}
	return s
}

// process is a server running in the background for the length of one
// live repeat: valora-server itself, or the traced in-process server.
type process struct {
	cmd            *exec.Cmd
	stdout, stderr bytes.Buffer
	started        time.Time
}

func startProcess(cmd *exec.Cmd) (*process, error) {
	p := &process{cmd: cmd}
	cmd.Stdout, cmd.Stderr = &p.stdout, &p.stderr
	p.started = time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	return p, nil
}

// waitHealthy polls /healthz until it answers 200 and returns the time
// since the process started.
func (p *process) waitHealthy(ctx context.Context, addr string) (time.Duration, error) {
	for {
		if status, _, err := get(ctx, addr, "/healthz"); err == nil && status == 200 {
			return time.Since(p.started), nil
		}
		select {
		case <-ctx.Done():
			return 0, fmt.Errorf("server at %s never became healthy: %s", addr, tail(p.stderr.String()))
		case <-time.After(250 * time.Microsecond):
		}
	}
}

// stop sends SIGTERM and waits for the process to exit.
func (p *process) stop() error {
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	if err := p.cmd.Wait(); err != nil {
		return fmt.Errorf("server exit: %w: %s", err, tail(p.stderr.String()))
	}
	return nil
}

// kill ends the process on error paths; it is a no-op once stop ran.
func (p *process) kill() {
	if p.cmd.ProcessState == nil {
		_ = p.cmd.Process.Kill() // already exiting when this fails
		_ = p.cmd.Wait()         // the kill is the reported outcome
	}
}

// cpuTime reports an exited process's user+system CPU time.
func (p *process) cpuTime() time.Duration {
	return p.cmd.ProcessState.UserTime() + p.cmd.ProcessState.SystemTime()
}

// selfCPU reports this process's user+system CPU time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSKB reads VmHWM, the peak resident set of the process's current
// image, from /proc/<pid>/status. Unlike rusage's maxrss it leaves out
// the parent's memory, which Linux carries into a child spawned by
// vfork and exec.
func peakRSSKB(pid string) (int64, error) {
	status, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _, _ := strings.Cut(strings.TrimSpace(v), " ") // "12345 kB"
			return strconv.ParseInt(kb, 10, 64)
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}
