package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// session owns everything one runner process leaves on the machine: the run
// directory (built binaries, data directories) and the child processes.
// close undoes all of it and is safe to call from a signal handler, a
// deferred call and a failed assertion alike.
type session struct {
	dir       string // bench/.run/run-XXXX, absolute
	talkbackd string // the program under test, built into dir
	// workloads is the table the session runs; the traced run's in-process
	// suite takes its database sizes from it.
	workloads []*workload
	// ref is the yardstick server (see refserver), alive for the whole session.
	ref *server

	mu      sync.Mutex
	servers map[*server]struct{}
	closed  bool // no further child may start

	closing  sync.Once
	closeErr error
}

// runRoot is where run directories live: inside the checkout (the benchmark
// may write nowhere else) and named in the root .gitignore.
const runRoot = ".run"

// newSession creates the run directory, builds cmd/talkbackd and the
// reference server into it (go build -o, never go run) and starts the
// latter. The runner's working directory must be bench/ (`go run -C bench .`
// and `go test` both arrange that), so the program under test is the
// checkout one level up.
func newSession(ws []*workload) (*session, error) {
	if _, err := os.Stat(filepath.Join("..", "cmd", "talkbackd", "main.go")); err != nil {
		return nil, fmt.Errorf("no ../cmd/talkbackd next to the benchmark (run `go run -C bench .` from the repository root): %w", err)
	}
	if err := os.MkdirAll(runRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(runRoot, "run-")
	if err != nil {
		return nil, err
	}
	if dir, err = filepath.Abs(dir); err != nil {
		return nil, err
	}
	s := &session{dir: dir, talkbackd: filepath.Join(dir, "talkbackd"), workloads: ws, servers: map[*server]struct{}{}}
	refserver := filepath.Join(dir, "refserver")
	for _, b := range []struct{ out, in, pkg string }{
		{s.talkbackd, "..", "./cmd/talkbackd"},
		{refserver, ".", "./refserver"},
	} {
		build := exec.Command("go", "build", "-o", b.out, b.pkg)
		build.Dir = b.in
		if out, err := build.CombinedOutput(); err != nil {
			s.close()
			return nil, fmt.Errorf("building %s: %v\n%s", b.pkg, err, out)
		}
	}
	if s.ref, err = s.start(refserver); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// close stops every child, removes the run directory and reports any process
// still executing a binary built into it. A second caller — the deferred
// close racing the signal handler's — waits for the first and gets its result.
func (s *session) close() error {
	s.closing.Do(func() {
		s.mu.Lock()
		s.closed = true
		live := make([]*server, 0, len(s.servers))
		for srv := range s.servers {
			live = append(live, srv)
		}
		s.mu.Unlock()
		for _, srv := range live {
			srv.stop()
		}
		leaked := s.survivors()
		s.closeErr = os.RemoveAll(s.dir)
		_ = os.Remove(runRoot) // succeeds only when no other run is using it
		if len(leaked) > 0 {
			s.closeErr = fmt.Errorf("children still running after the run: pids %v", leaked)
		}
	})
	return s.closeErr
}

// survivors scans /proc for processes whose executable was built into the
// run directory.
func (s *session) survivors() []int {
	entries, _ := os.ReadDir("/proc")
	var pids []int
	for _, e := range entries {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		exe, err := os.Readlink(filepath.Join("/proc", e.Name(), "exe"))
		if err == nil && strings.HasPrefix(exe, s.dir+string(filepath.Separator)) {
			pids = append(pids, pid)
		}
	}
	return pids
}

// server is one running child: talkbackd or the reference server.
type server struct {
	sess   *session
	cmd    *exec.Cmd
	pid    int
	base   string        // http://127.0.0.1:port
	exited chan struct{} // closed once Wait has returned
	log    bytes.Buffer
	http   *http.Client
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

// start spawns binary with -addr on a free port plus args (talkbackd keeps
// every other flag at its default) and returns once GET /stats answers 200.
// The child runs in its own process group and is killed by the kernel if the
// runner dies without cleaning up.
func (s *session) start(binary string, args ...string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	srv := &server{
		sess:   s,
		base:   "http://" + addr,
		exited: make(chan struct{}),
		// One keep-alive connection: a talk-back caller waits for its reply.
		http: &http.Client{Transport: &http.Transport{
			MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true,
		}},
	}
	srv.cmd = exec.Command(binary, append([]string{"-addr", addr}, args...)...)
	srv.cmd.Stdout, srv.cmd.Stderr = &srv.log, &srv.log
	srv.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, errors.New("session closed")
	}
	// Pdeathsig fires when the spawning *thread* exits, so the goroutine that
	// forks stays locked to its thread until the child has been waited for.
	started := make(chan error)
	go func() {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		err := srv.cmd.Start()
		started <- err
		if err == nil {
			_ = srv.cmd.Wait()
			close(srv.exited)
		}
	}()
	if err := <-started; err != nil {
		s.mu.Unlock()
		return nil, err
	}
	srv.pid = srv.cmd.Process.Pid
	s.servers[srv] = struct{}{}
	s.mu.Unlock()

	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := srv.http.Get(srv.base + "/stats")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return srv, nil
			}
		}
		select {
		case <-srv.exited:
			srv.stop()
			return nil, fmt.Errorf("%s exited during boot:\n%s", filepath.Base(binary), srv.log.String())
		default:
		}
		if time.Now().After(deadline) {
			srv.stop()
			return nil, fmt.Errorf("%s did not answer /stats within 60s:\n%s", filepath.Base(binary), srv.log.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop ends the child: SIGTERM, five seconds of grace, then SIGKILL to the
// whole process group, and always a completed Wait.
func (srv *server) stop() { srv.end(syscall.SIGTERM) }

// kill is the crash the durability check simulates: no drain, no final
// checkpoint, only what fsync already made durable.
func (srv *server) kill() { srv.end(syscall.SIGKILL) }

func (srv *server) end(sig syscall.Signal) {
	srv.http.CloseIdleConnections()
	select {
	case <-srv.exited: // waited for already; the pid may be someone else's by now
	default:
		_ = syscall.Kill(-srv.pid, sig)
		select {
		case <-srv.exited:
		case <-time.After(5 * time.Second):
			_ = syscall.Kill(-srv.pid, syscall.SIGKILL)
			<-srv.exited
		}
	}
	srv.sess.mu.Lock()
	delete(srv.sess.servers, srv)
	srv.sess.mu.Unlock()
}

// cpuMillis is the CPU time the child has used so far. The scheduler's
// per-thread run time (nanoseconds) is summed over the child's threads; a
// kernel without schedstat falls back to utime+stime from /proc/<pid>/stat,
// whose 10 ms ticks are coarse against a 0.75 s window.
func (srv *server) cpuMillis() (float64, error) {
	stats, _ := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", srv.pid))
	var ns int64
	for _, path := range stats {
		if data, err := os.ReadFile(path); err == nil {
			if f := strings.Fields(string(data)); len(f) > 0 {
				n, _ := strconv.ParseInt(f[0], 10, 64)
				ns += n
			}
		}
	}
	if ns > 0 {
		return float64(ns) / 1e6, nil
	}
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", srv.pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields are counted after its ")".
	f := strings.Fields(string(data[bytes.LastIndexByte(data, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", data)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat line %q", data)
	}
	return float64(utime+stime) * 10, nil // USER_HZ is 100 on every Linux ABI Go supports
}

// peakRSSMB reads the child's VmHWM.
func (srv *server) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", srv.pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// counters flattens the numeric leaves of GET /stats into dotted names
// ("caches.response.Hits", "durability.syncs").
func (srv *server) counters() (map[string]float64, error) {
	resp, err := srv.http.Get(srv.base + "/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var tree map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&tree); err != nil {
		return nil, fmt.Errorf("decoding /stats: %w", err)
	}
	out := map[string]float64{}
	var walk func(prefix string, v any)
	walk = func(prefix string, v any) {
		switch t := v.(type) {
		case float64:
			out[prefix] = t
		case map[string]any:
			for k, c := range t {
				walk(strings.TrimPrefix(prefix+"."+k, "."), c)
			}
		}
	}
	walk("", tree)
	return out, nil
}
