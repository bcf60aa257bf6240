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
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one live beaconserved child process with default flags
// apart from its listen address.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:<port>
	client *http.Client
	log    *stderrLog
}

// stderrLog keeps the daemon's stderr: the last lines for error
// reports, and a running GC tally when gctrace is on.
type stderrLog struct {
	mu      sync.Mutex
	partial []byte
	tail    []string
	gc      gcTrace
}

func (l *stderrLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.partial = append(l.partial, p...)
	for {
		i := bytes.IndexByte(l.partial, '\n')
		if i < 0 {
			break
		}
		line := string(l.partial[:i])
		l.partial = l.partial[i+1:]
		l.gc.add(line)
		if l.tail = append(l.tail, line); len(l.tail) > 20 {
			l.tail = l.tail[1:]
		}
	}
	return len(p), nil
}

func (l *stderrLog) gcSnapshot() gcTrace {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.gc
}

func (l *stderrLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return strings.Join(l.tail, "\n")
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

// startDaemon execs bin and waits until /healthz answers 200. conns
// bounds the client's connections to the daemon. With gctrace the
// runtime reports every GC cycle on stderr, which stderrLog tallies.
func startDaemon(bin string, conns int, gctrace bool) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, fmt.Errorf("pick port: %w", err)
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	d := &daemon{
		cmd:  exec.Command(bin, "-addr", addr),
		base: "http://" + addr,
		log:  &stderrLog{},
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		}},
	}
	d.cmd.Stderr = d.log
	// Should this process die without stopping the daemon, the kernel
	// kills it rather than leaving it serving.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if gctrace {
		d.cmd.Env = append(os.Environ(), "GODEBUG=gctrace=1")
	}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := d.client.Get(d.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			_ = d.stop()
			return nil, fmt.Errorf("daemon not ready after 15s: %v\n%s", err, d.log)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stat reads the daemon's CPU time and peak RSS from /proc.
func (d *daemon) stat() (procStat, error) {
	pid := d.cmd.Process.Pid
	line, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return procStat{}, err
	}
	cpu, err := parseProcStat(string(line))
	if err != nil {
		return procStat{}, err
	}
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return procStat{}, err
	}
	hwm, err := parseVmHWM(bytes.NewReader(status))
	if err != nil {
		return procStat{}, err
	}
	return procStat{CPU: cpu, HWMKiB: hwm}, nil
}

// metrics scrapes unlabeled samples from /metrics; an absent one reads
// 0, because counters appear only once first incremented.
func (d *daemon) metrics(names ...string) (map[string]float64, error) {
	resp, err := d.client.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(names))
	for _, n := range names {
		out[n] = 0
	}
	for _, line := range strings.Split(string(body), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if _, want := out[name]; !ok || !want {
			continue
		}
		if out[name], err = strconv.ParseFloat(val, 64); err != nil {
			return nil, fmt.Errorf("metric %s: %w", name, err)
		}
	}
	return out, nil
}

// bodyPool recycles response buffers: simulate responses are ~48 KB,
// and reading each into fresh memory would make the generator's own
// garbage collector compete with the daemon for the same CPUs.
var bodyPool = sync.Pool{New: func() any { return bytes.NewBuffer(make([]byte, 0, 64<<10)) }}

// post sends one simulate request and returns status, X-Cache and the
// body, which stays valid until buf is returned to bodyPool.
func (d *daemon) post(ctx context.Context, body []byte, buf *bytes.Buffer) (int, string, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.base+"/v1/simulate", bytes.NewReader(body))
	if err != nil {
		return 0, "", nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	return resp.StatusCode, resp.Header.Get("X-Cache"), buf.Bytes(), err
}

// stop drains the daemon with SIGTERM, as an operator would, and waits
// for it to exit; a daemon that outlives its drain is killed.
func (d *daemon) stop() error {
	d.client.CloseIdleConnections()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("daemon exit: %w\n%s", err, d.log)
		}
		return nil
	case <-time.After(40 * time.Second):
		_ = d.cmd.Process.Kill()
		<-done
		return fmt.Errorf("daemon did not drain within 40s")
	}
}
