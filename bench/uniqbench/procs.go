package main

import (
	"context"
	"encoding/json"
	"errors"
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

	"repro/internal/cluster"
)

// buildServers compiles cmd/uniqd and cmd/uniqgw from the checkout at root
// into dir and returns their paths.
func buildServers(ctx context.Context, root, dir string) (uniqd, uniqgw string, err error) {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", dir+string(filepath.Separator),
		"./cmd/uniqd", "./cmd/uniqgw")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", "", fmt.Errorf("build servers: %v\n%s", err, out)
	}
	return filepath.Join(dir, "uniqd"), filepath.Join(dir, "uniqgw"), nil
}

// server is one child process (a uniqd node or the gateway).
type server struct {
	name   string
	url    string
	log    string
	cmd    *exec.Cmd
	exited chan struct{}
}

// startServer execs bin with args, logging to logPath. It returns the time
// just before exec so callers can time start-up from it.
func startServer(name, bin, logPath string, port int, args ...string) (*server, time.Time, error) {
	f, err := os.Create(logPath)
	if err != nil {
		return nil, time.Time{}, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = f, f
	// A benchmark killed outright must not leave servers behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	execAt := time.Now()
	if err := cmd.Start(); err != nil {
		f.Close()
		return nil, time.Time{}, fmt.Errorf("start %s: %w", name, err)
	}
	s := &server{
		name:   name,
		url:    fmt.Sprintf("http://127.0.0.1:%d", port),
		log:    logPath,
		cmd:    cmd,
		exited: make(chan struct{}),
	}
	go func() {
		_ = cmd.Wait() // the exit status is reported through the log tail
		f.Close()
		close(s.exited)
	}()
	return s, execAt, nil
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// stop sends SIGTERM, escalates to SIGKILL after a grace period, and waits
// for the process to exit.
func (s *server) stop() {
	select {
	case <-s.exited:
		return
	default:
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(15 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
}

// logTail returns the end of the server's log for error reports.
func (s *server) logTail() string {
	data, _ := os.ReadFile(s.log)
	if len(data) > 2000 {
		data = data[len(data)-2000:]
	}
	return string(data)
}

// waitHealthy polls url+path every 5 ms until it answers 200, the process
// exits, or ctx ends. It returns the time of the first 200.
func (s *server) waitHealthy(ctx context.Context, client *http.Client, path string) (time.Time, error) {
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.url+path, nil)
		if err != nil {
			return time.Time{}, err
		}
		if resp, err := client.Do(req); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return time.Now(), nil
			}
		}
		select {
		case <-s.exited:
			return time.Time{}, fmt.Errorf("%s exited during start-up:\n%s", s.name, s.logTail())
		case <-ctx.Done():
			return time.Time{}, fmt.Errorf("%s not healthy: %w", s.name, ctx.Err())
		case <-time.After(5 * time.Millisecond):
		}
	}
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

// freshStore gives a node its own copy of the seeded store at src. The
// segment store writes only to its newest segment (appends, and tail
// recovery on open) and compacts into new files, so every older segment is
// hard-linked and only the newest, and any other file, is copied. A real
// store is hundreds of megabytes; linking keeps each set-up round cheap.
func freshStore(src, dst string) error {
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	newest := ""
	for _, e := range ents {
		if isSegment(e.Name()) && e.Name() > newest {
			newest = e.Name()
		}
	}
	for _, e := range ents {
		from, to := filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())
		if isSegment(e.Name()) && e.Name() != newest {
			if err := os.Link(from, to); err != nil {
				return err
			}
			continue
		}
		data, err := os.ReadFile(from)
		if err != nil {
			return err
		}
		if err := os.WriteFile(to, data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// isSegment matches segment files ("seg-00000001.uqs"); names are
// zero-padded, so lexical order is segment order.
func isSegment(name string) bool {
	return strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".uqs")
}

// setupRounds is how many times a run starts the two nodes; setup_s is the
// median round, so one slow start does not decide the metric.
const setupRounds = 3

// nodeCache is each node's profile LRU. Each node owns about half the
// seeded users, twice its LRU, so about half of uniform reads are cold.
const nodeCache = 32

// fleet is the system under test: two uniqd nodes behind one uniqgw.
type fleet struct {
	nodes []*server
	gw    *server
	// setup holds each round's start-up time in seconds: exec to first
	// /healthz 200, the slower of the two nodes.
	setup []float64
}

// startFleet starts the nodes setupRounds times on fresh copies of the
// seeded store (every start fits the population prior from scratch), keeps
// the last pair running and puts the gateway in front of it.
func startFleet(ctx context.Context, uniqd, uniqgw, seedDir, runDir string, ctl *http.Client) (*fleet, error) {
	c := &fleet{}
	for round := 0; round < setupRounds; round++ {
		if err := c.startNodes(ctx, uniqd, seedDir, runDir, round, ctl); err != nil {
			c.stop()
			return nil, err
		}
		if round < setupRounds-1 {
			c.stopNodes()
		}
	}
	port, err := freePort()
	if err != nil {
		c.stop()
		return nil, err
	}
	args := []string{"-addr", fmt.Sprintf("127.0.0.1:%d", port), "-log-level", "warn"}
	for _, n := range c.nodes {
		args = append(args, "-node", n.name+"="+n.url)
	}
	gw, _, err := startServer("uniqgw", uniqgw, filepath.Join(runDir, "uniqgw.log"), port, args...)
	if err != nil {
		c.stop()
		return nil, err
	}
	c.gw = gw
	if err := c.waitGateway(ctx, ctl); err != nil {
		c.stop()
		return nil, err
	}
	return c, nil
}

// startNodes runs one set-up round: fresh store copies, both nodes exec'd
// back to back, then both waited for.
func (c *fleet) startNodes(ctx context.Context, uniqd, seedDir, runDir string, round int, ctl *http.Client) error {
	type started struct {
		s      *server
		execAt time.Time
	}
	var nodes []started
	for _, name := range []string{"a", "b"} {
		dir := filepath.Join(runDir, fmt.Sprintf("node-%s-%d", name, round))
		if err := freshStore(seedDir, dir); err != nil {
			return err
		}
		port, err := freePort()
		if err != nil {
			return err
		}
		s, execAt, err := startServer(name, uniqd, dir+".log", port,
			"-addr", fmt.Sprintf("127.0.0.1:%d", port), "-dir", dir,
			"-workers", "2", "-cache", strconv.Itoa(nodeCache), "-log-level", "warn")
		if err != nil {
			return err
		}
		c.nodes = append(c.nodes, s)
		nodes = append(nodes, started{s, execAt})
	}
	worst := 0.0
	for _, n := range nodes {
		wctx, cancel := context.WithTimeout(ctx, 60*time.Second)
		readyAt, err := n.s.waitHealthy(wctx, ctl, "/healthz")
		cancel()
		if err != nil {
			return err
		}
		worst = max(worst, readyAt.Sub(n.execAt).Seconds())
	}
	c.setup = append(c.setup, worst)
	return nil
}

// waitGateway waits until the gateway answers and lists both nodes as
// healthy.
func (c *fleet) waitGateway(ctx context.Context, ctl *http.Client) error {
	wctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if _, err := c.gw.waitHealthy(wctx, ctl, "/healthz"); err != nil {
		return err
	}
	for {
		view, err := fetchNodes(wctx, ctl, c.gw.url)
		if err == nil {
			healthy := 0
			for _, n := range view.Nodes {
				if n.State == cluster.NodeHealthy {
					healthy++
				}
			}
			if healthy == len(c.nodes) {
				return nil
			}
		}
		select {
		case <-wctx.Done():
			return fmt.Errorf("gateway never listed %d healthy nodes: %v", len(c.nodes), err)
		case <-time.After(20 * time.Millisecond):
		}
	}
}

func fetchNodes(ctx context.Context, client *http.Client, gwURL string) (cluster.NodesView, error) {
	var view cluster.NodesView
	err := getJSON(ctx, client, gwURL+"/v1/cluster/nodes", &view)
	return view, err
}

// getJSON fetches url and decodes a 200 JSON body into v.
func getJSON(ctx context.Context, client *http.Client, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func (c *fleet) stopNodes() {
	for _, n := range c.nodes {
		n.stop()
	}
	c.nodes = nil
}

// stop stops the gateway, then the nodes, and waits for all of them.
func (c *fleet) stop() {
	if c.gw != nil {
		c.gw.stop()
		c.gw = nil
	}
	c.stopNodes()
}

// servers lists the running processes: the nodes, then the gateway.
func (c *fleet) servers() []*server { return append(append([]*server(nil), c.nodes...), c.gw) }

// cpuTime returns a process's CPU time. /proc/<pid>/stat counts it in
// 10 ms clock ticks, too coarse for a ten-second window of a lightly loaded
// gateway, so this sums the nanosecond run time of every thread from
// /proc/<pid>/task/*/schedstat. Go servers keep their threads, so no
// thread's time leaves the sum mid-window.
func cpuTime(pid int) (time.Duration, error) {
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	if err != nil || len(tasks) == 0 {
		return 0, fmt.Errorf("no threads for pid %d", pid)
	}
	var total time.Duration
	for _, path := range tasks {
		data, err := os.ReadFile(path)
		if err != nil {
			continue // the thread exited between the glob and the read
		}
		d, err := parseSchedstat(data)
		if err != nil {
			return 0, err
		}
		total += d
	}
	return total, nil
}

// parseSchedstat extracts the run time from a schedstat line: "<ns on
// cpu> <ns waiting> <timeslices>".
func parseSchedstat(data []byte) (time.Duration, error) {
	f := strings.Fields(string(data))
	if len(f) != 3 {
		return 0, fmt.Errorf("schedstat: want 3 fields, got %q", data)
	}
	ns, err := strconv.ParseInt(f[0], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("schedstat: %w", err)
	}
	return time.Duration(ns), nil
}

// peakRSS returns a process's VmHWM (peak resident set) in bytes.
func peakRSS(pid int) (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseVmHWM(data)
}

// parseVmHWM extracts the VmHWM line ("VmHWM:    12345 kB") of
// /proc/<pid>/status, in bytes.
func parseVmHWM(data []byte) (int64, error) {
	for _, line := range strings.Split(string(data), "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("status: malformed VmHWM line %q", line)
		}
		kb, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("status VmHWM: %w", err)
		}
		return kb << 10, nil
	}
	return 0, errors.New("status: no VmHWM line")
}

// selfCPU returns this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
