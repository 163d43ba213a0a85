package main

import (
	"bytes"
	"context"
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
	"sync"
	"syscall"
	"time"
)

// harness owns everything a run leaves outside its own memory: the scratch
// directory and the daemons. Close kills and removes all of it, and is what
// the SIGINT handler and every failure path call.
type harness struct {
	root    string // the checkout
	build   string // <root>/.bench_build: binaries, traces, scratch
	bin     string // built usaasd binary
	scratch string // per-run scratch directory under build
	http    *http.Client

	mu      sync.Mutex
	daemons []*daemon
	nextDir int
}

// findRoot walks up from the working directory to the checkout root, the
// directory that holds cmd/usaasd.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "usaasd", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("cmd/usaasd not found above the working directory: run from a checkout of the repository")
		}
		dir = parent
	}
}

// newHarness builds usaasd from the tree into <root>/.bench_build and makes
// the run's scratch directory there. Everything the benchmark writes stays
// under that one ignored directory.
func newHarness(ctx context.Context) (*harness, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	build := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		return nil, err
	}
	bin := filepath.Join(build, "usaasd")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/usaasd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("building usaasd: %v\n%s", err, out)
	}
	scratch, err := os.MkdirTemp(build, "run-")
	if err != nil {
		return nil, err
	}
	return &harness{
		root:    root,
		build:   build,
		bin:     bin,
		scratch: scratch,
		http: &http.Client{
			Timeout: 2 * time.Minute,
			Transport: &http.Transport{
				MaxIdleConnsPerHost: maxClients,
				MaxConnsPerHost:     maxClients,
			},
		},
	}, nil
}

// Close kills every daemon still running and removes the scratch directory.
func (h *harness) Close() {
	h.mu.Lock()
	ds := h.daemons
	h.daemons = nil
	h.mu.Unlock()
	for _, d := range ds {
		d.kill()
	}
	h.http.CloseIdleConnections()
	os.RemoveAll(h.scratch)
}

// newDataDir names a fresh data directory; usaasd creates it.
func (h *harness) newDataDir() string {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.nextDir++
	return filepath.Join(h.scratch, fmt.Sprintf("data-%d", h.nextDir))
}

// daemon is one running usaasd process.
type daemon struct {
	cmd     *exec.Cmd
	addr    string
	url     string
	args    []string // everything after -addr
	dataDir string   // empty for a coordinator
	spawned time.Time
	output  *tailBuffer
	exited  chan struct{} // closed once Wait has returned
}

// freeAddr asks the kernel for an unused loopback port. Another process can
// take it before the daemon binds, which is why launch retries.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// spawn starts usaasd with -addr plus args and nothing else, so the numbers
// describe the daemon as shipped. It does not wait for readiness.
func (h *harness) spawn(addr, dataDir string, args []string) (*daemon, error) {
	d := &daemon{
		addr:    addr,
		url:     "http://" + addr,
		args:    args,
		dataDir: dataDir,
		output:  &tailBuffer{max: 8 << 10},
		exited:  make(chan struct{}),
	}
	d.cmd = exec.Command(h.bin, append([]string{"-addr", addr}, args...)...)
	d.cmd.Stdout = d.output
	d.cmd.Stderr = d.output
	d.spawned = time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		_ = d.cmd.Wait() // the exit status of a killed daemon carries nothing
		close(d.exited)
	}()
	h.mu.Lock()
	h.daemons = append(h.daemons, d)
	h.mu.Unlock()
	return d, nil
}

// launch starts a daemon on a free port and waits until it is ready,
// picking another port when the first was taken in between.
func (h *harness) launch(ctx context.Context, dataDir string, args ...string) (*daemon, error) {
	var lastErr error
	for attempt := 0; attempt < 5; attempt++ {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		d, err := h.spawn(addr, dataDir, args)
		if err != nil {
			return nil, err
		}
		if _, lastErr = h.waitReady(ctx, d); lastErr == nil {
			return d, nil
		}
		h.stop(d)
		if !strings.Contains(lastErr.Error(), "address already in use") {
			break
		}
	}
	return nil, lastErr
}

// launchStore starts a store-backed daemon on a fresh data directory.
func (h *harness) launchStore(ctx context.Context) (*daemon, error) {
	dir := h.newDataDir()
	return h.launch(ctx, dir, "-data-dir", dir)
}

// launchCoordinator starts a storeless coordinator over the shards.
func (h *harness) launchCoordinator(ctx context.Context, shards []*daemon) (*daemon, error) {
	var spec []string
	for i, s := range shards {
		spec = append(spec, fmt.Sprintf("s%d=%s", i, s.url))
	}
	return h.launch(ctx, "", "-role=coordinator", "-shards", strings.Join(spec, ";"))
}

// kill sends SIGKILL and waits until the process has ended.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // already-exited is fine
	<-d.exited
}

// stop kills d and forgets it.
func (h *harness) stop(d *daemon) {
	d.kill()
	h.mu.Lock()
	for i, x := range h.daemons {
		if x == d {
			h.daemons = append(h.daemons[:i], h.daemons[i+1:]...)
			break
		}
	}
	h.mu.Unlock()
}

// waitReady polls /v1/readyz until it answers 200, and returns the moment
// it did. A daemon that exits while waited for fails with its output.
func (h *harness) waitReady(ctx context.Context, d *daemon) (time.Time, error) {
	deadline := time.Now().Add(60 * time.Second)
	for {
		select {
		case <-d.exited:
			return time.Time{}, fmt.Errorf("usaasd at %s exited before ready: %s", d.url, d.output.String())
		case <-ctx.Done():
			return time.Time{}, ctx.Err()
		default:
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.url+"/v1/readyz", nil)
		if err != nil {
			return time.Time{}, err
		}
		if resp, err := h.http.Do(req); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return time.Now(), nil
			}
		}
		if time.Now().After(deadline) {
			return time.Time{}, fmt.Errorf("usaasd at %s not ready after 60s: %s", d.url, d.output.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// procStat reads a live process's CPU time and peak resident set.
type procStat struct {
	cpu   time.Duration // user + system
	hwmKB int64         // VmHWM
}

const clockTick = 100 // USER_HZ; fixed at 100 on Linux

func (d *daemon) stat() (procStat, error) {
	pid := strconv.Itoa(d.cmd.Process.Pid)
	raw, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return procStat{}, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rest := raw[bytes.LastIndexByte(raw, ')')+1:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return procStat{}, fmt.Errorf("short /proc/%s/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return procStat{}, fmt.Errorf("unparsable /proc/%s/stat", pid)
	}
	ps := procStat{cpu: time.Duration(utime+stime) * time.Second / time.Duration(clockTick)}
	status, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return procStat{}, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			ps.hwmKB, err = strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
			if err != nil {
				return procStat{}, fmt.Errorf("unparsable VmHWM %q", v)
			}
		}
	}
	return ps, nil
}

// selfCPU is the load generator's own user + system time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// dirUsage sums file sizes under dir, split into WAL segments, snapshots
// and everything else. Files that vanish mid-walk (compaction) are skipped.
type dirUsage struct{ wal, snapshot, other int64 }

func (u dirUsage) total() int64 { return u.wal + u.snapshot + u.other }

func diskUsage(dir string) (dirUsage, error) {
	var u dirUsage
	entries, err := os.ReadDir(dir)
	if err != nil {
		return u, err
	}
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			continue
		}
		switch {
		case strings.HasSuffix(e.Name(), ".snap"):
			u.snapshot += info.Size()
		case strings.HasPrefix(e.Name(), "wal-"):
			u.wal += info.Size()
		default:
			u.other += info.Size()
		}
	}
	return u, nil
}

// tailBuffer keeps the last max bytes written to it: enough of a daemon's
// output to explain a failure without holding a whole run's log.
type tailBuffer struct {
	mu  sync.Mutex
	max int
	buf []byte
}

func (b *tailBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.buf = append(b.buf, p...)
	if len(b.buf) > b.max {
		b.buf = append(b.buf[:0], b.buf[len(b.buf)-b.max:]...)
	}
	return len(p), nil
}

func (b *tailBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return string(b.buf)
}
