package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

// buildServer compiles cmd/geobrowsed of the checkout at root into bin.
func buildServer(root, bin string) error {
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/geobrowsed")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("building cmd/geobrowsed: %w", err)
	}
	return nil
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

// server is one running geobrowsed process.
type server struct {
	role string // static, coordinator or shard
	base string // http://127.0.0.1:port
	cmd  *exec.Cmd
	done chan struct{} // closed once the process has been waited for
	err  error         // Wait's result, valid after done
}

// startServer execs the geobrowsed binary bin on a fresh loopback port
// with args, logging to logPath.
func startServer(bin, role, logPath string, args ...string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	return startProcess(bin, role, addr, logPath, append([]string{"-addr", addr, "-report", "0"}, args...)...)
}

// startProcess execs a server that will listen on addr, logging to
// logPath. The process is killed if the benchmark dies first.
func startProcess(bin, role, addr, logPath string, args ...string) (*server, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s server: %w", role, err)
	}
	s := &server{role: role, base: "http://" + addr, cmd: cmd, done: make(chan struct{})}
	go func() {
		s.err = cmd.Wait()
		close(s.done)
	}()
	return s, nil
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// waitHealthy polls /healthz until it answers 200, the process exits, or
// the timeout passes.
func (s *server) waitHealthy(ctl *http.Client, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := ctl.Get(s.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-s.done:
			return fmt.Errorf("%s server exited during start-up: %v", s.role, s.err)
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s server not healthy after %v: %v", s.role, timeout, err)
		}
	}
}

// stop asks the process to shut down gracefully and kills it if it has
// not exited within ten seconds. It returns once the process is gone.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
}

// topology is the set of server processes of one workload; front answers
// the clients.
type topology struct {
	front *server
	all   []*server
}

func (t *topology) stop() {
	for _, s := range t.all {
		s.stop()
	}
}

// startTopology starts a workload's servers and returns once every one
// answers /healthz, with the time that took from the first exec. Shard
// nodes start first, the coordinator once they are healthy, as an
// operator would bring them up.
func startTopology(w *workload, bin string, in *inputs, ctl *http.Client) (*topology, time.Duration, error) {
	t := &topology{}
	fail := func(err error) (*topology, time.Duration, error) {
		t.stop()
		return nil, 0, err
	}
	// Every data-holding server runs M-EulerApprox at the default areas
	// and pyramid over the workload's grid.
	data := []string{"-algo", "meuler", "-gw", strconv.Itoa(w.gw), "-gh", strconv.Itoa(w.gh)}
	start := time.Now()
	if w.shards == 0 {
		s, err := startServer(bin, "static", filepath.Join(in.dir, "static.log"),
			append(append([]string{"-file", in.files[0]}, data...), w.serverArgs...)...)
		if err != nil {
			return fail(err)
		}
		t.front = s
		t.all = []*server{s}
		if err := s.waitHealthy(ctl, time.Minute); err != nil {
			return fail(err)
		}
		return t, time.Since(start), nil
	}
	spec := ""
	for i, f := range in.files {
		wal := filepath.Join(in.dir, fmt.Sprintf("shard%d.wal", i))
		if err := os.Remove(wal); err != nil && !errors.Is(err, os.ErrNotExist) {
			return fail(err)
		}
		s, err := startServer(bin, "shard", filepath.Join(in.dir, fmt.Sprintf("shard%d.log", i)),
			append([]string{"-live", "-file", f, "-wal", wal}, data...)...)
		if err != nil {
			return fail(err)
		}
		t.all = append(t.all, s)
		if i > 0 {
			spec += ";"
		}
		spec += s.base
	}
	for _, s := range t.all {
		if err := s.waitHealthy(ctl, time.Minute); err != nil {
			return fail(err)
		}
	}
	c, err := startServer(bin, "coordinator", filepath.Join(in.dir, "coordinator.log"), "-coordinator", spec)
	if err != nil {
		return fail(err)
	}
	t.front = c
	t.all = append(t.all, c)
	if err := c.waitHealthy(ctl, time.Minute); err != nil {
		return fail(err)
	}
	return t, time.Since(start), nil
}
