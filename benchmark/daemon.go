package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

// buildRlzd compiles ./cmd/rlzd of the module at root into outDir.
func buildRlzd(ctx context.Context, root, outDir string) (string, error) {
	bin := filepath.Join(outDir, "rlzd")
	cmd := exec.CommandContext(ctx, "go", "build", "-buildvcs=false", "-o", bin, "./cmd/rlzd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/rlzd: %v\n%s", err, out)
	}
	return bin, nil
}

// tailBuffer keeps the last bytes a child wrote to stderr.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
}

const tailLimit = 16 << 10

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > tailLimit {
		t.buf = t.buf[len(t.buf)-tailLimit:]
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// daemon is one running rlzd child process.
type daemon struct {
	cmd    *exec.Cmd
	url    string
	stderr *tailBuffer
	exited chan struct{} // closed once Wait has returned
}

// freePort asks the kernel for an unused loopback port. The port is
// released before rlzd binds it, so startDaemon retries on a lost race.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon starts rlzd on a free loopback port serving dataDir and
// waits until GET /stats answers.
func startDaemon(ctx context.Context, bin, dataDir string, cacheDocs int) (*daemon, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		addr := "127.0.0.1:" + strconv.Itoa(port)
		d := &daemon{url: "http://" + addr, stderr: &tailBuffer{}, exited: make(chan struct{})}
		d.cmd = exec.Command(bin, "-a", dataDir, "-addr", addr, "-cache", strconv.Itoa(cacheDocs))
		d.cmd.Stderr = d.stderr
		if err := d.cmd.Start(); err != nil {
			return nil, fmt.Errorf("starting %s: %w", bin, err)
		}
		go func() {
			_ = d.cmd.Wait() // the exit status of a killed child carries nothing
			close(d.exited)
		}()
		if lastErr = d.waitReady(ctx); lastErr == nil {
			return d, nil
		}
		d.kill()
		if ctx.Err() != nil {
			break
		}
	}
	return nil, lastErr
}

func (d *daemon) waitReady(ctx context.Context) error {
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-d.exited:
			return fmt.Errorf("rlzd exited during start-up; stderr:\n%s", d.stderr)
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		resp, err := http.Get(d.url + "/stats")
		if err == nil {
			_ = resp.Body.Close() // only the status matters
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("rlzd not ready after 15s; stderr:\n%s", d.stderr)
}

// kill sends SIGKILL — no graceful close, which is what the durability
// check needs — and waits for the process to be gone.
func (d *daemon) kill() {
	if d == nil {
		return
	}
	_ = d.cmd.Process.Kill() // already exited is fine
	<-d.exited
}

func (d *daemon) alive() bool {
	select {
	case <-d.exited:
		return false
	default:
		return true
	}
}

// clockTick is the kernel's USER_HZ, 100 on every Linux Go runs on.
const clockTick = 10 * time.Millisecond

// cpu returns the daemon's user+system CPU time from /proc/<pid>/stat.
func (d *daemon) cpu() time.Duration {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	// The command name may hold spaces; fields are counted after ')'.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0
	}
	utime, _ := strconv.ParseInt(f[11], 10, 64)
	stime, _ := strconv.ParseInt(f[12], 10, 64)
	return time.Duration(utime+stime) * clockTick
}

// rssPeakMB returns VmHWM from /proc/<pid>/status in MB.
func (d *daemon) rssPeakMB() float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// fsType names the filesystem holding path ("tmpfs", "ext4", ...), from
// the longest matching mount point in /proc/self/mounts.
func fsType(path string) string {
	abs, err := filepath.Abs(path)
	if err != nil {
		return "unknown"
	}
	data, err := os.ReadFile("/proc/self/mounts")
	if err != nil {
		return "unknown"
	}
	best, typ := "", "unknown"
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) >= len(best) {
			best, typ = mp, f[2]
		}
	}
	return typ
}

// cpuModel returns the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// dirBytes sums the sizes of the regular files directly inside dir (a
// collection directory is flat).
func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
	}
	return total, nil
}
