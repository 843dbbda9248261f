package main

// Server processes: each run starts fresh servers on free loopback
// ports, waits for /healthz, confirms the store is empty, and stops
// every process it started, by pid, on success, failure and interrupt.

import (
	"bufio"
	"bytes"
	"context"
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
	"sync"
	"syscall"
	"time"
)

// tailBuffer keeps the last max bytes written to it: a server's log,
// shown when the server misbehaves.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
	max int
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > t.max {
		t.buf = append([]byte(nil), t.buf[len(t.buf)-t.max:]...)
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

type proc struct {
	name string
	url  string
	cmd  *exec.Cmd
	log  *tailBuffer
	done chan struct{} // closed once the process has been waited for
}

// fleet owns every process a run starts.
type fleet struct {
	bin   string
	mu    sync.Mutex
	procs []*proc
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// start launches one server binary on a free loopback port and waits
// until its /healthz answers 200.
func (f *fleet) start(name, binary string, args ...string) (*proc, error) {
	port, err := freePort()
	if err != nil {
		return nil, fmt.Errorf("%s: free port: %w", name, err)
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(filepath.Join(f.bin, binary), append([]string{"-addr", addr}, args...)...)
	p := &proc{name: name, url: "http://" + addr, cmd: cmd, log: &tailBuffer{max: 16 << 10}, done: make(chan struct{})}
	cmd.Stdout, cmd.Stderr = p.log, p.log
	// The kernel kills the server if the benchmark dies without
	// stopping it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	f.mu.Lock()
	if err := cmd.Start(); err != nil {
		f.mu.Unlock()
		return nil, fmt.Errorf("%s: start: %w", name, err)
	}
	f.procs = append(f.procs, p)
	f.mu.Unlock()
	go func() {
		_ = cmd.Wait() // the exit status of a stopped server is not a result
		close(p.done)
	}()
	if err := waitHealthy(p, 30*time.Second); err != nil {
		return nil, err
	}
	return p, nil
}

func waitHealthy(p *proc, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		select {
		case <-p.done:
			return fmt.Errorf("%s exited before it was healthy:\n%s", p.name, p.log)
		default:
		}
		resp, err := http.Get(p.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not healthy after %v:\n%s", p.name, limit, p.log)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop ends one process: SIGTERM, then SIGKILL if it has not exited
// within the grace period; it returns once the process is reaped.
func (f *fleet) stop(p *proc) {
	select {
	case <-p.done:
		return
	default:
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
		return
	case <-time.After(3 * time.Second):
	}
	_ = p.cmd.Process.Kill()
	<-p.done
}

// stopAll stops every process the fleet started, routers first.
func (f *fleet) stopAll() {
	f.mu.Lock()
	ps := append([]*proc(nil), f.procs...)
	f.procs = nil
	f.mu.Unlock()
	for i := len(ps) - 1; i >= 0; i-- {
		f.stop(ps[i])
	}
}

// peakRSSMB reads VmHWM, the peak resident set, of a process.
func peakRSSMB(pid int) (float64, error) {
	fh, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer fh.Close()
	sc := bufio.NewScanner(fh)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM of %d: %w", pid, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM for pid %d", pid)
}

// client is the load generator's HTTP client. Each caller keeps one
// keep-alive connection per server.
var client = &http.Client{Transport: &http.Transport{
	MaxIdleConnsPerHost: 8,
	IdleConnTimeout:     time.Minute,
	DisableCompression:  true,
}}

// call sends one request under the client deadline and returns the
// status and body.
func call(ctx context.Context, method, url string, body any) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, nil, err
		}
		rd = bytes.NewReader(b)
	}
	ctx, cancel := context.WithTimeout(ctx, clientDeadline)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// getJSON fetches a JSON document.
func getJSON(url string, dst any) error {
	status, b, err := call(context.Background(), http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", url, status, b)
	}
	return json.Unmarshal(b, dst)
}

// requireEmpty confirms a freshly started server holds no documents:
// a server left over from an earlier run would answer from a stale
// corpus at stale versions.
func requireEmpty(p *proc) error {
	var raw json.RawMessage
	if err := getJSON(p.url+"/documents", &raw); err != nil {
		return fmt.Errorf("%s: list documents: %w", p.name, err)
	}
	// A server lists an array; the router wraps it as {"documents": [...]}.
	var docs []json.RawMessage
	if err := json.Unmarshal(raw, &docs); err != nil {
		var wrapped struct {
			Documents []json.RawMessage `json:"documents"`
		}
		if err := json.Unmarshal(raw, &wrapped); err != nil {
			return fmt.Errorf("%s: list documents: %w", p.name, err)
		}
		docs = wrapped.Documents
	}
	if len(docs) != 0 {
		return fmt.Errorf("%s: fresh server already holds %d documents", p.name, len(docs))
	}
	return nil
}

// register posts one document and returns the version the server
// assigned.
func register(url string, d doc) (uint64, error) {
	status, b, err := call(context.Background(), http.MethodPost, url+"/documents", map[string]string{"name": d.name, "xml": d.xml})
	if err != nil {
		return 0, fmt.Errorf("register %s: %w", d.name, err)
	}
	if status != http.StatusOK {
		return 0, fmt.Errorf("register %s: status %d: %s", d.name, status, b)
	}
	var out struct {
		Version uint64 `json:"version"`
	}
	if err := json.Unmarshal(b, &out); err != nil {
		return 0, fmt.Errorf("register %s: %w", d.name, err)
	}
	return out.Version, nil
}

// clockTicks is the kernel's USER_HZ, the unit of the CPU times in
// /proc/<pid>/stat; it is 100 on every Linux architecture Go supports.
const clockTicks = 100

// cpuTime reads the CPU time, user plus system, a process has used.
func cpuTime(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The fields after the parenthesized command name; utime and
	// stime are the 14th and 15th fields of the whole line.
	s := string(b)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	var ticks int64
	for _, f := range fields[11:13] {
		n, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("/proc/%d/stat: %w", pid, err)
		}
		ticks += n
	}
	return time.Duration(ticks) * time.Second / clockTicks, nil
}

// cpuOf sums the CPU time of several processes.
func cpuOf(pids []int) (time.Duration, error) {
	var total time.Duration
	for _, pid := range pids {
		t, err := cpuTime(pid)
		if err != nil {
			return 0, err
		}
		total += t
	}
	return total, nil
}

func pidsOf(ps []*proc) []int {
	out := make([]int, len(ps))
	for i, p := range ps {
		out[i] = p.cmd.Process.Pid
	}
	return out
}
