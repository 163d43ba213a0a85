package main

import (
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
)

// environment is the context a result was measured in. A number without it
// cannot be compared with another box's.
type environment struct {
	Commit     string `json:"commit"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Kernel     string `json:"kernel"`
	GoVersion  string `json:"go_version"`
	Filesystem string `json:"data_dir_filesystem"`
	Clients    int    `json:"max_clients"`
}

func describeEnvironment(h *harness) environment {
	env := environment{
		Commit:     "unknown",
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		Filesystem: filesystemOf(h.scratch),
		Clients:    maxClients,
	}
	// The driver's checkout is not a git repository; then the commit stays
	// unknown.
	if out, err := exec.Command("git", "-C", h.root, "rev-parse", "--short", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
		if out, err := exec.Command("git", "-C", h.root, "status", "--porcelain").Output(); err == nil && len(out) > 0 {
			env.Commit += "-dirty"
		}
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if raw, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env.Kernel = strings.TrimSpace(string(raw))
	}
	return env
}

// filesystemOf names the filesystem type holding dir, from the longest
// matching mount point in /proc/mounts.
func filesystemOf(dir string) string {
	var st syscall.Statfs_t
	if syscall.Statfs(dir, &st) != nil {
		return "unknown"
	}
	raw, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, fs := "", "unknown"
	for _, line := range strings.Split(string(raw), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mount := f[1]
		if (dir == mount || strings.HasPrefix(dir, strings.TrimSuffix(mount, "/")+"/")) && len(mount) > len(best) {
			best, fs = mount, f[2]
		}
	}
	return fs
}
