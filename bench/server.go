package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"queryaudit/internal/metrics"
	"queryaudit/internal/server"
)

// readyTimeout bounds one server start, restore included.
const readyTimeout = 90 * time.Second

// repoRoot walks up from the working directory to the queryaudit module
// root, whose ./cmd/auditserver the benchmark builds.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		b, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(b), "module queryaudit\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside the queryaudit repository (no go.mod declaring module queryaudit)")
		}
		dir = parent
	}
}

// buildServer compiles ./cmd/auditserver from the working tree into
// <root>/.bench_build/bin.
func buildServer(root string) (string, error) {
	bin := filepath.Join(root, ".bench_build", "bin", "auditserver")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/auditserver")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building auditserver: %v\n%s", err, out)
	}
	return bin, nil
}

// serverProc is one running auditserver.
type serverProc struct {
	cmd  *exec.Cmd
	base string
	log  *logTail
	done chan struct{} // closed when the process has exited
	err  error         // Wait's result, valid after done
}

// startServer execs the server and returns once GET /readyz answers 200,
// with the time that took. The server binds 127.0.0.1:0 and prints
// "listening on <addr>" only once it is ready, so the address comes from
// its log.
func startServer(bin string, args []string, nproc int) (*serverProc, time.Duration, error) {
	lt := &logTail{addr: make(chan string, 1)}
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(nproc))
	cmd.Stderr = lt
	// The server must not outlive the benchmark, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	s := &serverProc{cmd: cmd, log: lt, done: make(chan struct{})}
	go func() {
		s.err = cmd.Wait()
		close(s.done)
	}()
	select {
	case addr := <-lt.addr:
		s.base = "http://" + addr
	case <-s.done:
		return nil, 0, fmt.Errorf("auditserver exited before ready: %v\n%s", s.err, lt.String())
	case <-time.After(readyTimeout):
		s.kill()
		return nil, 0, fmt.Errorf("auditserver not ready after %s\n%s", readyTimeout, lt.String())
	}
	resp, err := http.Get(s.base + "/readyz")
	if err != nil {
		s.kill()
		return nil, 0, err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		s.kill()
		return nil, 0, fmt.Errorf("GET /readyz: %s after the ready log line", resp.Status)
	}
	return s, time.Since(start), nil
}

// stop sends SIGINT, which makes the server drain and save its session
// snapshot, and waits for a clean exit.
func (s *serverProc) stop() error {
	if err := s.cmd.Process.Signal(os.Interrupt); err != nil {
		s.kill()
		return err
	}
	select {
	case <-s.done:
	case <-time.After(60 * time.Second):
		s.kill()
		return errors.New("auditserver did not exit within 60s of SIGINT")
	}
	if s.err != nil {
		return fmt.Errorf("auditserver: %v\n%s", s.err, s.log.String())
	}
	return nil
}

// kill stops the process outright and waits for it; for error paths.
func (s *serverProc) kill() {
	_ = s.cmd.Process.Kill() // already exited is fine
	<-s.done
}

// cpuTicks returns the server's utime+stime in clock ticks (1/100 s).
func (s *serverProc) cpuTicks() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed /proc stat line")
	}
	return ut + st, nil
}

// peakRSSMB returns the server's VmHWM in MB.
func (s *serverProc) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// logTail keeps the server's recent log output for error messages and
// reports the address from the "listening on" line.
type logTail struct {
	mu      sync.Mutex
	buf     []byte
	partial []byte
	addr    chan string
}

const logTailBytes = 8 << 10

func (l *logTail) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf = append(l.buf, p...)
	if len(l.buf) > logTailBytes {
		l.buf = l.buf[len(l.buf)-logTailBytes:]
	}
	l.partial = append(l.partial, p...)
	for {
		i := bytes.IndexByte(l.partial, '\n')
		if i < 0 {
			break
		}
		line := string(l.partial[:i])
		l.partial = l.partial[i+1:]
		if j := strings.Index(line, "listening on "); j >= 0 {
			select {
			case l.addr <- strings.TrimSpace(line[j+len("listening on "):]):
			default:
			}
		}
	}
	return len(p), nil
}

func (l *logTail) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return string(l.buf)
}

// sessionsDigest fetches GET /v1/sessions and hashes its (analyst, seq,
// digest) rows: two servers agree on it exactly when every analyst's
// decision transcript is identical.
func sessionsDigest(h http.Handler, base string) (string, error) {
	var resp server.SessionsResponse
	if err := getJSON(h, base+"/v1/sessions", &resp); err != nil {
		return "", err
	}
	return digestOf(resp), nil
}

func digestOf(resp server.SessionsResponse) string {
	sum := sha256.New()
	for _, s := range resp.Sessions {
		fmt.Fprintf(sum, "%s %d %s\n", s.Analyst, s.Seq, s.Digest)
	}
	return hex.EncodeToString(sum.Sum(nil))
}

// fetchMetrics reads GET /v1/metrics.
func fetchMetrics(h http.Handler, base string) (metrics.Snapshot, error) {
	var snap metrics.Snapshot
	err := getJSON(h, base+"/v1/metrics", &snap)
	return snap, err
}

// getJSON decodes a GET response, through the network when h is nil and
// in-process through h otherwise.
func getJSON(h http.Handler, url string, v any) error {
	var body []byte
	if h == nil {
		resp, err := http.Get(url)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("GET %s: %s", url, resp.Status)
		}
		if body, err = io.ReadAll(resp.Body); err != nil {
			return err
		}
	} else {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("GET %s: %d", url, rec.Code)
		}
		body = rec.Body.Bytes()
	}
	return json.Unmarshal(body, v)
}
