package main

import (
	"bufio"
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

// binaries are the programs under test, compiled once per run from the
// checkout, before any timer starts.
type binaries struct{ navserver, lakecoord string }

func buildBinaries(root, dir string) (binaries, error) {
	cmd := exec.Command("go", "build", "-o", dir+string(filepath.Separator), "./cmd/navserver", "./cmd/lakecoord")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return binaries{}, fmt.Errorf("build navserver and lakecoord: %w", err)
	}
	return binaries{filepath.Join(dir, "navserver"), filepath.Join(dir, "lakecoord")}, nil
}

// proc is one server process of the stack under test. Its output goes to
// a log file, so the benchmark never spends cycles copying it.
type proc struct {
	name string
	bin  string
	args []string
	log  string
	base string // http://127.0.0.1:port

	cmd  *exec.Cmd
	done chan struct{} // closed once the process has been waited for
}

func newProc(name, bin, log string, args ...string) (*proc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	return &proc{name: name, bin: bin, log: log, base: "http://" + addr, args: append(args, "-addr", addr)}, nil
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("pick a port: %w", err)
	}
	port := l.Addr().(*net.TCPAddr).Port
	return port, l.Close()
}

// start launches the process. The child is killed if the benchmark
// itself dies, so no server outlives a run.
func (p *proc) start() error {
	logf, err := os.OpenFile(p.log, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	cmd := exec.Command(p.bin, p.args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	err = cmd.Start()
	_ = logf.Close() // the child holds its own descriptor
	if err != nil {
		return fmt.Errorf("start %s: %w", p.name, err)
	}
	p.cmd, p.done = cmd, make(chan struct{})
	go func() {
		_ = cmd.Wait() // exit status of a killed server carries no information
		close(p.done)
	}()
	return nil
}

// running reports whether the process was started and has not exited.
func (p *proc) running() bool {
	if p.done == nil {
		return false
	}
	select {
	case <-p.done:
		return false
	default:
		return true
	}
}

// kill sends SIGKILL and waits for the process to be gone.
func (p *proc) kill() {
	if !p.running() {
		return
	}
	_ = p.cmd.Process.Kill() // fails only if the process already exited
	<-p.done
}

// stop asks for a graceful shutdown, and kills after a grace period.
func (p *proc) stop() {
	if !p.running() {
		return
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // fails only if already exited
	select {
	case <-p.done:
	case <-time.After(10 * time.Second):
		p.kill()
	}
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func (p *proc) peakRSSMB() (float64, error) {
	if !p.running() {
		return 0, fmt.Errorf("%s is not running", p.name)
	}
	return vmHWM(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
}

func vmHWM(statusPath string) (float64, error) {
	f, err := os.Open(statusPath)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM in %s: %w", statusPath, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", statusPath)
}

// logBytes is the current size of the process's log.
func (p *proc) logBytes() int64 {
	fi, err := os.Stat(p.log)
	if err != nil {
		return 0
	}
	return fi.Size()
}

// adminClient is for probes and scrapes, never for measured load.
var adminClient = &http.Client{Timeout: 5 * time.Second}

// waitFor polls url every 5ms until ok accepts a 200 body, the process
// dies, or the timeout passes.
func (p *proc) waitFor(path string, timeout time.Duration, ok func([]byte) bool) error {
	deadline := time.Now().Add(timeout)
	for {
		if !p.running() {
			return fmt.Errorf("%s exited while waiting for %s (see %s)", p.name, path, p.log)
		}
		if body, status, err := get(p.base + path); err == nil && status == http.StatusOK && ok(body) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s: %s not ready within %s (see %s)", p.name, path, timeout, p.log)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (p *proc) waitReady(timeout time.Duration) error {
	return p.waitFor("/readyz", timeout, func([]byte) bool { return true })
}

func get(url string) ([]byte, int, error) { return fetch(adminClient, url) }

func fetch(c *http.Client, url string) ([]byte, int, error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return nil, 0, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return body, resp.StatusCode, err
}

func getJSON(url string, v any) error {
	body, status, err := get(url)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", url, status, strings.TrimSpace(string(body)))
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("GET %s: %w", url, err)
	}
	return nil
}
