package main

import (
	"bufio"
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
	"syscall"
	"time"
)

// buildBorgesd compiles ./cmd/borgesd from the repository at root into
// dir. It runs before any timing starts and is not measured.
func buildBorgesd(ctx context.Context, root, dir string) (string, error) {
	bin := filepath.Join(dir, "borgesd")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/borgesd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/borgesd: %v\n%s", err, out)
	}
	return bin, nil
}

// daemon is a running borgesd subprocess on a loopback port.
type daemon struct {
	cmd     *exec.Cmd
	base    string        // http://127.0.0.1:port
	log     *bytes.Buffer // read only after exit
	started time.Time     // just before exec
	exited  chan error
}

// startDaemon launches borgesd on a free loopback port with args. The
// process is not ready yet: see waitReady.
func startDaemon(bin string, args ...string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	d := &daemon{cmd: cmd, base: "http://" + addr, log: new(bytes.Buffer), exited: make(chan error, 1)}
	cmd.Stdout, cmd.Stderr = d.log, d.log
	d.started = time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start borgesd: %w", err)
	}
	go func() { d.exited <- cmd.Wait() }()
	return d, nil
}

func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// waitReady polls GET path every millisecond until it answers 200 and
// returns the time since the process was started: the cold start.
func (d *daemon) waitReady(path string, timeout time.Duration) (time.Duration, error) {
	client := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case err := <-d.exited:
			d.exited <- err
			return 0, fmt.Errorf("borgesd exited before ready: %v\n%s", err, d.log)
		default:
		}
		resp, err := client.Get(d.base + path)
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return time.Since(d.started), nil
			}
		}
		sleep(time.Millisecond)
	}
	_ = d.cmd.Process.Kill()
	err := <-d.exited
	d.exited <- err
	return 0, fmt.Errorf("borgesd not ready after %v\n%s", timeout, d.log)
}

// peakRSSMiB reads the daemon's VmHWM.
func (d *daemon) peakRSSMiB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.Fields(v)[0], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// resetPeak resets the daemon's VmHWM to its current RSS, as
// internal/memprobe does for the benchmark's own process.
func (d *daemon) resetPeak() error {
	return os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", d.cmd.Process.Pid), []byte("5"), 0)
}

// stop sends SIGTERM and waits for a clean exit, killing the process
// if it has not exited within 10 s.
func (d *daemon) stop() error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-d.exited:
		d.exited <- err
		if err != nil {
			return fmt.Errorf("borgesd exit: %v\n%s", err, d.log)
		}
		return nil
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		err := <-d.exited
		d.exited <- err
		return fmt.Errorf("borgesd ignored SIGTERM for 10s; killed")
	}
}

// scrape fetches /metrics and returns the sum of every sample of each
// named family (labels summed over).
func scrape(client *http.Client, base string, names ...string) (map[string]float64, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64, len(names))
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		for _, n := range names {
			rest, ok := strings.CutPrefix(line, n)
			if !ok || (rest != "" && rest[0] != ' ' && rest[0] != '{') {
				continue
			}
			fields := strings.Fields(rest[strings.LastIndexByte(rest, '}')+1:])
			if len(fields) == 0 {
				continue
			}
			if v, err := strconv.ParseFloat(fields[0], 64); err == nil {
				out[n] += v
			}
		}
	}
	return out, sc.Err()
}
