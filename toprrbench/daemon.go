package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one toprrd process on loopback.
type daemon struct {
	cmd     *exec.Cmd
	addr    string
	dataDir string // removed on stop; "" for in-memory runs
	exited  chan struct{}
	stderr  *bytes.Buffer
}

// daemonFlags is the toprrd command line of a workload (without the
// per-process -data-dir). The boot dataset is a token 64 options: the
// benchmark's dataset arrives through POST /v1/datasets.
func daemonFlags(w workload) []string {
	flags := []string{
		"-addr", "127.0.0.1:0",
		"-dist", "IND", "-n", "64", "-d", strconv.Itoa(w.D),
		"-max-body", strconv.Itoa(64 << 20),
		"-req-timeout", "60s",
	}
	if w.Durable {
		flags = append(flags, "-wal-sync", "always")
	}
	return flags
}

// walSync names the WAL durability of a workload's daemon.
func walSync(w workload) string {
	if w.Durable {
		return "always"
	}
	return "in-memory"
}

// startDaemon launches toprrd and waits until it listens.
func startDaemon(bin, workDir string, w workload) (*daemon, error) {
	args := daemonFlags(w)
	d := &daemon{exited: make(chan struct{}), stderr: &bytes.Buffer{}}
	if w.Durable {
		dir, err := os.MkdirTemp(workDir, "data-")
		if err != nil {
			return nil, err
		}
		d.dataDir = dir
		args = append(args, "-data-dir", dir)
	}
	d.cmd = exec.Command(bin, args...)
	// Should the benchmark die without stopping it, the kernel ends the
	// daemon too.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	pipe, err := d.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		d.cleanup()
		return nil, fmt.Errorf("start toprrd: %w", err)
	}
	addrc := make(chan string, 1)
	go func() {
		// The serving line names the bound address; everything the
		// daemon says is kept for error reports.
		sc := bufio.NewScanner(pipe)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			d.stderr.WriteString(line + "\n")
			if i := strings.LastIndex(line, " on "); !sent && strings.HasPrefix(line, "toprrd: serving") && i >= 0 {
				addrc <- strings.TrimSpace(line[i+4:])
				sent = true
			}
		}
		_ = d.cmd.Wait()
		close(d.exited)
	}()
	select {
	case d.addr = <-addrc:
		return d, nil
	case <-d.exited:
		d.cleanup()
		return nil, fmt.Errorf("toprrd exited before serving: %s", d.stderr.String())
	case <-time.After(60 * time.Second):
		d.stop()
		return nil, fmt.Errorf("toprrd did not start within 60s")
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop interrupts the daemon, waits for it to exit (killing it after
// the drain budget) and removes its data directory.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
	d.cleanup()
}

func (d *daemon) cleanup() {
	if d.dataDir != "" {
		_ = os.RemoveAll(d.dataDir)
	}
}

// procSample is the daemon's CPU time and peak resident set, read from
// /proc around the timed window.
type procSample struct {
	cpu   time.Duration // utime + stime
	hwmKB int64         // VmHWM
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat times (100 on
// every Linux architecture the toolchain targets).
const clockTicks = 100

func readProc(pid int) (procSample, error) {
	var s procSample
	stat, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "stat"))
	if err != nil {
		return s, err
	}
	// Fields after the parenthesised command name start at field 3
	// (state); utime and stime are fields 14 and 15.
	rest := string(stat[bytes.LastIndexByte(stat, ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return s, fmt.Errorf("short /proc stat: %q", rest)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return s, fmt.Errorf("parse /proc stat: %q", rest)
	}
	s.cpu = time.Duration(ut+st) * time.Second / clockTicks
	status, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "status"))
	if err != nil {
		return s, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		f := strings.Fields(line)
		if len(f) < 2 {
			continue
		}
		if f[0] == "VmHWM:" {
			s.hwmKB, _ = strconv.ParseInt(f[1], 10, 64)
		}
	}
	if s.hwmKB == 0 {
		return s, fmt.Errorf("no VmHWM in /proc status")
	}
	return s, nil
}

// newConn returns a client pinned to one TCP connection: the load
// generator opens one client per logical connection, so the connection
// count is exactly the client count.
func newConn() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
		DialContext:         (&net.Dialer{Timeout: 10 * time.Second}).DialContext,
	}}
}

// call sends one JSON request and decodes a JSON response into out
// (nil: discard). It returns the response body size.
func call(ctx context.Context, c *http.Client, method, url string, body []byte, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return len(data), err
	}
	if resp.StatusCode/100 != 2 {
		return len(data), fmt.Errorf("%s %s: %d %s", method, url, resp.StatusCode, strings.TrimSpace(string(data)))
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return len(data), fmt.Errorf("%s %s: decode: %w", method, url, err)
		}
	}
	return len(data), nil
}

// dsStats is the part of GET /v1/datasets/{name}/stats the benchmark
// reads.
type dsStats struct {
	Options        int   `json:"options"`
	TopKHits       int   `json:"cache_topk_hits"`
	TopKMisses     int   `json:"cache_topk_misses"`
	PatchedEntries int   `json:"cache_patched_entries"`
	PatchInserts   int   `json:"cache_patch_inserts"`
	SketchHits     int   `json:"sketch_gate_hits"`
	SketchMisses   int   `json:"sketch_gate_misses"`
	SketchCert     int   `json:"sketch_certified"`
	SketchFalls    int   `json:"sketch_fallbacks"`
	WALBytes       int64 `json:"wal_bytes"`
	WALSyncs       int64 `json:"wal_syncs"`
}

type healthz struct {
	GoVersion string `json:"go_version"`
}
