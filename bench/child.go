package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// cleanup runs registered functions once, on normal exit and on SIGINT /
// SIGTERM, so no child process or temporary state directory outlives the
// benchmark on any exit path.
type cleanup struct {
	mu   sync.Mutex
	fns  []func()
	done bool
}

func (c *cleanup) add(fn func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.fns = append(c.fns, fn)
}

func (c *cleanup) run() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.done {
		return
	}
	c.done = true
	for i := len(c.fns) - 1; i >= 0; i-- {
		c.fns[i]()
	}
}

// onSignal runs the cleanup and exits when the process is told to stop.
func (c *cleanup) onSignal() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ch
		c.run()
		os.Exit(130)
	}()
}

// env is what every workload needs from the command line.
type env struct {
	root     string // repository checkout
	out      string // scratch directory (logs, traces, state directories)
	serveBin string
	buildS   float64 // seconds the cmd/serve build took
	clean    *cleanup
}

// tempDir makes a directory under the scratch directory that is removed
// on every exit path, signals included; the caller may remove it sooner.
func (e *env) tempDir(pattern string) (string, error) {
	dir, err := os.MkdirTemp(e.out, pattern)
	if err != nil {
		return "", err
	}
	e.clean.add(func() { os.RemoveAll(dir) })
	return dir, nil
}

// buildServe compiles cmd/serve into the scratch directory and records how
// long that took; the time is reported as loadgen.build_s and is no part of
// setup_s.
func (e *env) buildServe() error {
	if e.serveBin != "" {
		return nil
	}
	bin := filepath.Join(e.out, "serve")
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/serve")
	cmd.Dir = e.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building cmd/serve: %v\n%s", err, out)
	}
	e.buildS = time.Since(start).Seconds()
	e.serveBin = bin
	return nil
}

// child is one running cmd/serve process.
type child struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	debug  string // http://127.0.0.1:port of the private pprof listener
	log    *os.File
	killed sync.Once
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

// startServe launches cmd/serve -synthetic with the shipped defaults plus
// extra, and returns once /healthz answers 200.
func (e *env) startServe(name string, extra ...string) (*child, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	dport, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(filepath.Join(e.out, "serve-"+name+".log"), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	args := append([]string{
		"-synthetic",
		"-addr", "127.0.0.1:" + strconv.Itoa(port),
		"-debug-addr", "127.0.0.1:" + strconv.Itoa(dport),
	}, extra...)
	cmd := exec.Command(e.serveBin, args...)
	cmd.Stderr = logf
	cmd.Stdout = logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	c := &child{
		cmd:   cmd,
		base:  "http://127.0.0.1:" + strconv.Itoa(port),
		debug: "http://127.0.0.1:" + strconv.Itoa(dport),
		log:   logf,
	}
	e.clean.add(c.kill)
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := http.Get(c.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return c, nil
			}
		}
		if time.Now().After(deadline) {
			c.kill()
			return nil, fmt.Errorf("cmd/serve did not become healthy (see %s)", logf.Name())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// kill SIGKILLs the child and waits until it has ended. The run and the
// signal handler's cleanup may both call it: the second caller waits for the
// first to finish.
func (c *child) kill() {
	c.killed.Do(func() {
		_ = c.cmd.Process.Kill() // already-exited is the only failure and is fine
		_ = c.cmd.Wait()         // the exit status of a killed child says nothing
		c.log.Close()
	})
}

func (c *child) pid() int { return c.cmd.Process.Pid }

// procCPU returns the CPU seconds a process has used, summed over its
// threads' /proc schedstat run times: nanosecond counters, where the
// utime/stime of /proc/<pid>/stat tick in hundredths of a second.
func procCPU(pid int) (float64, error) {
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	if err != nil || len(tasks) == 0 {
		return 0, fmt.Errorf("no /proc schedstat for pid %d", pid)
	}
	var ns float64
	for _, t := range tasks {
		data, err := os.ReadFile(t)
		if err != nil {
			continue // the thread ended between the glob and the read
		}
		f := strings.Fields(string(data))
		if len(f) < 1 {
			return 0, errors.New("malformed /proc schedstat")
		}
		v, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			return 0, err
		}
		ns += v
	}
	return ns / 1e9, nil
}

// procHWM returns a process's peak resident set (VmHWM) in MiB.
func procHWM(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, err := strconv.ParseFloat(f[0], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// mallocs reads the child's cumulative heap allocation count from the
// "# Mallocs = N" line of its private pprof listener.
func (c *child) mallocs(ctx context.Context) (float64, error) {
	body, err := httpGet(ctx, c.debug+"/debug/pprof/allocs?debug=1")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(body), "\n") {
		if rest, ok := strings.CutPrefix(line, "# Mallocs = "); ok {
			return strconv.ParseFloat(strings.TrimSpace(rest), 64)
		}
	}
	return 0, errors.New("no Mallocs line in pprof allocs")
}

// scrape reads the named samples (full sample names, labels included) from
// the child's /metrics exposition; absent samples read 0.
func (c *child) scrape(ctx context.Context, names ...string) (map[string]float64, error) {
	body, err := httpGet(ctx, c.base+"/metrics")
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		for _, n := range names {
			if rest, ok := strings.CutPrefix(line, n+" "); ok {
				v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
				if err != nil {
					return nil, fmt.Errorf("metrics sample %s: %w", n, err)
				}
				out[n] = v
			}
		}
	}
	return out, nil
}

func httpGet(ctx context.Context, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return body, nil
}
