package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/asynclinalg/asyrgs/internal/serve"
)

// daemon is one asyrgsd process on a loopback port.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	stderr bytes.Buffer
	exited chan struct{} // closed once cmd.Wait has returned
	err    error         // cmd.Wait's result, valid after exited closes
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon execs bin on a free loopback port with default flags apart
// from the cache sizes, and returns once /healthz answers. A port taken
// between the probe and the daemon's bind is retried on a new port.
func startDaemon(ctx context.Context, bin string, cacheSize int) (*daemon, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		port, err := freePort()
		if err != nil {
			return nil, fmt.Errorf("finding a free port: %w", err)
		}
		d := &daemon{addr: "127.0.0.1:" + strconv.Itoa(port), exited: make(chan struct{})}
		args := []string{"-addr", d.addr}
		if cacheSize > 0 {
			args = append(args, "-cache", strconv.Itoa(cacheSize), "-prep-cache", strconv.Itoa(cacheSize))
		}
		d.cmd = exec.Command(bin, args...)
		d.cmd.Stderr = &d.stderr
		// The daemon must not outlive this process, even if it is killed.
		d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := d.cmd.Start(); err != nil {
			return nil, fmt.Errorf("starting %s: %w", bin, err)
		}
		go func() {
			d.err = d.cmd.Wait()
			close(d.exited)
		}()
		if lastErr = d.waitReady(ctx); lastErr == nil {
			return d, nil
		}
		d.stop()
	}
	return nil, lastErr
}

func (d *daemon) url(path string) string { return "http://" + d.addr + path }

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// waitReady polls /healthz until it answers 200, the daemon exits, or ten
// seconds pass.
func (d *daemon) waitReady(ctx context.Context) error {
	deadline := time.Now().Add(10 * time.Second)
	client := &http.Client{Timeout: time.Second}
	for time.Now().Before(deadline) {
		select {
		case <-d.exited:
			return fmt.Errorf("asyrgsd exited during start-up (%v): %s", d.err, strings.TrimSpace(d.stderr.String()))
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		if resp, err := client.Get(d.url("/healthz")); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return errors.New("asyrgsd did not answer /healthz within 10s")
}

// stop asks the daemon to drain and exit, kills it if it has not exited
// after 15 seconds, and returns once the process has ended.
func (d *daemon) stop() {
	select {
	case <-d.exited:
		return
	default:
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // an exited process is handled below
	select {
	case <-d.exited:
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// getStats fetches a daemon's GET /stats counters.
func getStats(url string) (serve.Stats, error) {
	var st serve.Stats
	resp, err := (&http.Client{Timeout: 10 * time.Second}).Get(url)
	if err != nil {
		return st, fmt.Errorf("GET /stats: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("GET /stats: status %s", resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("decoding /stats: %w", err)
	}
	return st, nil
}

// procSample is what the benchmark reads from /proc/<pid> of the daemon.
type procSample struct {
	cpuTicks uint64 // user + system CPU time, in clock ticks
	hwmKB    uint64 // peak resident set size (VmHWM)
}

// clockTick is the unit of the CPU times in /proc/<pid>/stat. USER_HZ is
// 100 on every Linux architecture Go supports without cgo's sysconf.
const clockTick = 10 * time.Millisecond

func readProc(pid int) (procSample, error) {
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return procSample{}, err
	}
	cpu, err := parseStatCPU(string(stat))
	if err != nil {
		return procSample{}, err
	}
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return procSample{}, err
	}
	hwm, err := parseStatusKB(string(status), "VmHWM")
	if err != nil {
		return procSample{}, err
	}
	return procSample{cpuTicks: cpu, hwmKB: hwm}, nil
}

// parseStatCPU returns utime + stime from a /proc/<pid>/stat line. The
// command name in field 2 may hold spaces and parentheses, so fields are
// counted from the last ')'.
func parseStatCPU(stat string) (uint64, error) {
	end := strings.LastIndexByte(stat, ')')
	if end < 0 {
		return 0, errors.New("proc stat: no command name")
	}
	// After ")": field 3 (state) is index 0, so utime (14) and stime (15)
	// are indices 11 and 12.
	f := strings.Fields(stat[end+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command name, want at least 13", len(f))
	}
	utime, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat utime: %w", err)
	}
	stime, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat stime: %w", err)
	}
	return utime + stime, nil
}

// parseStatusKB returns the value of a "Key:   123 kB" line of
// /proc/<pid>/status.
func parseStatusKB(status, key string) (uint64, error) {
	for _, line := range strings.Split(status, "\n") {
		name, rest, ok := strings.Cut(line, ":")
		if !ok || name != key {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status: malformed %s line %q", key, line)
		}
		return strconv.ParseUint(f[0], 10, 64)
	}
	return 0, fmt.Errorf("proc status: no %s line", key)
}
