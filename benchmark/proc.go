package main

import (
	"bufio"
	"bytes"
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

// repoRoot walks up from the working directory to the directory whose
// go.mod declares module ngfix: the server is built from there.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		b, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(strings.TrimSpace(string(b)), "module ngfix\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no go.mod of module ngfix above the working directory: run from inside the repository")
		}
		dir = parent
	}
}

// buildServer compiles ./cmd/ngfix-server of the repository at root into
// dir, once per invocation.
func buildServer(root, dir string) (string, error) {
	bin := filepath.Join(dir, "ngfix-server")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/ngfix-server")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/ngfix-server: %v\n%s", err, out)
	}
	return bin, nil
}

// syncBuffer collects a child's stderr while it is still being written.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// serverProc is one spawned ngfix-server in its own process group.
type serverProc struct {
	cmd    *exec.Cmd
	url    string
	stderr *syncBuffer
	exited chan struct{} // closed once Wait returns
}

// live tracks every running child so exit paths that bypass the normal
// teardown (watchdog, panic, signal) can still kill them all.
var live struct {
	mu    sync.Mutex
	procs map[*serverProc]struct{}
}

func killAllServers() {
	live.mu.Lock()
	procs := make([]*serverProc, 0, len(live.procs))
	for p := range live.procs {
		procs = append(procs, p)
	}
	live.mu.Unlock()
	for _, p := range procs {
		p.kill()
	}
}

// freeAddr picks a loopback port nothing listens on right now.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startServer spawns bin with args (which must carry -addr addr) and
// waits until /readyz answers 200.
func startServer(bin, addr string, args []string, timeout time.Duration) (*serverProc, error) {
	p := &serverProc{
		cmd: exec.Command(bin, args...), url: "http://" + addr,
		stderr: &syncBuffer{}, exited: make(chan struct{}),
	}
	p.cmd.Stderr = p.stderr
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	live.mu.Lock()
	if live.procs == nil {
		live.procs = make(map[*serverProc]struct{})
	}
	live.procs[p] = struct{}{}
	live.mu.Unlock()
	go func() {
		p.cmd.Wait() // the exit status of a server this program kills says nothing
		close(p.exited)
	}()

	deadline := time.Now().Add(timeout)
	client := &http.Client{Timeout: time.Second}
	defer client.CloseIdleConnections()
	for time.Now().Before(deadline) {
		select {
		case <-p.exited:
			p.kill()
			return nil, fmt.Errorf("server exited during start-up:\n%s", p.stderr.String())
		default:
		}
		if resp, err := client.Get(p.url + "/readyz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	p.kill()
	return nil, fmt.Errorf("server not ready after %s:\n%s", timeout, p.stderr.String())
}

// kill SIGKILLs the whole process group and waits for the server to be
// gone. Safe to call twice.
func (p *serverProc) kill() {
	if p.cmd.Process != nil {
		syscall.Kill(-p.cmd.Process.Pid, syscall.SIGKILL) // error means already gone
	}
	<-p.exited
	live.mu.Lock()
	delete(live.procs, p)
	live.mu.Unlock()
}

// rssPeakMB reads the server's high-water resident set (VmHWM).
func (p *serverProc) rssPeakMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if fields := strings.Fields(sc.Text()); len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// scrape reads /metrics and sums every sample by bare metric name
// (labels dropped), which is all the per-layer counts need: totals over
// shards and outcomes.
func (p *serverProc) scrape() (map[string]float64, error) {
	resp, err := http.Get(p.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		out[name] += v
	}
	return out, sc.Err()
}
