package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
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

// buildHsserve compiles cmd/hsserve into a fresh directory under dir
// and returns the binary's path and a function removing it.
func buildHsserve(root, dir string) (bin string, cleanup func(), err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", nil, err
	}
	tmp, err := os.MkdirTemp(dir, "hsserve-")
	if err != nil {
		return "", nil, err
	}
	cleanup = func() { os.RemoveAll(tmp) }
	bin = filepath.Join(tmp, "hsserve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/hsserve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		cleanup()
		return "", nil, fmt.Errorf("go build ./cmd/hsserve: %v\n%s", err, out)
	}
	return bin, cleanup, nil
}

// hsserve is one running server subprocess.
type hsserve struct {
	cmd     *exec.Cmd
	base    string // http://host:port of the tenant API
	debug   string // http://host:port of the debug server
	stderr  bytes.Buffer
	readEOF chan struct{} // closed when stdout has been read to its end
	reaped  bool          // Wait has returned

	mu    sync.Mutex
	lines []string
}

// startHsserve starts the server with its documented defaults (two
// tenants, gold:2 and bronze:1, on an ephemeral port) and returns once
// it has announced its addresses. The debug server is on only so that
// the benchmark can read the process's allocation counters from
// /debug/pprof/heap; it serves nothing during the timed window. The
// subprocess is killed if this process dies.
func startHsserve(bin string, shadow bool) (*hsserve, error) {
	args := []string{"-addr", "127.0.0.1:0", "-debug-addr", "127.0.0.1:0", "-tenant", "gold:2", "-tenant", "bronze:1"}
	if shadow {
		args = append(args, "-shadow")
	}
	h := &hsserve{cmd: exec.Command(bin, args...), readEOF: make(chan struct{})}
	h.cmd.Stderr = &h.stderr
	h.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := h.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := h.cmd.Start(); err != nil {
		return nil, err
	}
	addrs := make(chan [2]string, 1) // one send, by the reader below
	go func() {
		defer close(h.readEOF)
		var found [2]string
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			h.mu.Lock()
			h.lines = append(h.lines, line)
			h.mu.Unlock()
			for i, prefix := range []string{"hsserve listening on ", "debug server listening on "} {
				if rest, ok := strings.CutPrefix(line, prefix); ok && found[i] == "" {
					found[i], _, _ = strings.Cut(rest, " ")
					if found[0] != "" && found[1] != "" {
						addrs <- found
					}
				}
			}
		}
	}()
	select {
	case a := <-addrs:
		h.base, h.debug = a[0], a[1]
		return h, nil
	case <-h.readEOF:
		h.kill()
		return nil, fmt.Errorf("hsserve exited before announcing its addresses: %s", h.stderr.String())
	case <-time.After(20 * time.Second):
		h.kill()
		return nil, fmt.Errorf("hsserve did not announce its addresses within 20 s")
	}
}

// kill ends the subprocess at once and reaps it, unless stop or an
// earlier kill already has. Callers defer it, so that no path out of
// a run leaves the server behind.
func (h *hsserve) kill() {
	if h.reaped {
		return
	}
	h.reaped = true
	_ = h.cmd.Process.Kill() // already exited is fine
	<-h.readEOF
	_ = h.cmd.Wait() // reaping only; the exit status of a killed process says nothing
}

// stop asks the server to shut down gracefully and checks that it
// drained, leaked no buffer and exited with status 0.
func (h *hsserve) stop() error {
	if err := h.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		h.kill()
		return fmt.Errorf("hsserve: SIGTERM: %w", err)
	}
	select {
	case <-h.readEOF:
	case <-time.After(20 * time.Second):
		h.kill()
		return fmt.Errorf("hsserve did not exit within 20 s of SIGTERM")
	}
	h.reaped = true
	if err := h.cmd.Wait(); err != nil {
		return fmt.Errorf("hsserve exit: %w: %s", err, h.stderr.String())
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, line := range h.lines {
		if strings.Contains(line, "leaked buffers: 0") {
			return nil
		}
	}
	return fmt.Errorf("hsserve did not report 'leaked buffers: 0': %q", h.lines)
}

// cpu returns the server's user+system CPU time so far.
func (h *hsserve) cpu() (time.Duration, error) { return procCPU(h.cmd.Process.Pid) }

// memMark reads the server's cumulative allocation counters from the
// runtime.MemStats dump that ends /debug/pprof/heap?debug=1.
func (h *hsserve) memMark(c *http.Client) (m serverMem, err error) {
	status, body, err := httpDo(c, http.MethodGet, h.debug+"/debug/pprof/heap?debug=1", nil)
	if err != nil {
		return m, err
	}
	if status != http.StatusOK {
		return m, fmt.Errorf("debug server: heap profile: HTTP %d", status)
	}
	seen := 0
	for _, line := range strings.Split(string(body), "\n") {
		key, val, ok := strings.Cut(strings.TrimPrefix(line, "# "), " = ")
		if !ok || !strings.HasPrefix(line, "# ") {
			continue
		}
		switch key {
		case "TotalAlloc":
			m.totalAlloc, err = strconv.ParseUint(val, 10, 64)
		case "Mallocs":
			m.mallocs, err = strconv.ParseUint(val, 10, 64)
		case "NumGC":
			m.numGC, err = strconv.ParseUint(val, 10, 64)
		case "PauseNs":
			// A ring of the last 256 pauses, printed as [a b c ...].
			for _, f := range strings.Fields(strings.Trim(val, "[]")) {
				var ns uint64
				if ns, err = strconv.ParseUint(f, 10, 64); err != nil {
					break
				}
				m.pauseRing += ns
			}
		default:
			continue
		}
		if err != nil {
			return m, fmt.Errorf("debug server: heap profile: %s: %w", key, err)
		}
		seen++
	}
	if seen != 4 {
		return m, fmt.Errorf("debug server: heap profile carries %d of the 4 MemStats lines wanted", seen)
	}
	return m, nil
}

// serverMem is a snapshot of the server's allocator counters.
type serverMem struct {
	totalAlloc, mallocs, numGC uint64
	pauseRing                  uint64 // sum of the last 256 GC pauses
}

// since returns the allocation between two snapshots. The pause total
// is exact while fewer than 256 collections ran in between and scaled
// up from the last 256 otherwise.
func (m serverMem) since(before serverMem) memDelta {
	d := memDelta{bytes: m.totalAlloc - before.totalAlloc, mallocs: m.mallocs - before.mallocs}
	const ring = 256
	switch gcs := m.numGC - before.numGC; {
	case m.numGC <= ring:
		d.gcPause = time.Duration(m.pauseRing - before.pauseRing)
	case gcs > 0:
		d.gcPause = time.Duration(float64(m.pauseRing) * float64(gcs) / ring)
	}
	return d
}

// newClient returns an HTTP client capped at two keep-alive
// connections per host, the load generator's whole fan-out.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2, DisableCompression: true},
		Timeout:   30 * time.Second,
	}
}

// bodyReader wraps a request body; a nil body stays a nil reader.
func bodyReader(body []byte) io.Reader {
	if body == nil {
		return nil
	}
	return bytes.NewReader(body)
}

// httpDo sends one request and reads the whole response.
func httpDo(c *http.Client, method, url string, body []byte) (status int, respBody []byte, err error) {
	req, err := http.NewRequest(method, url, bodyReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	respBody, err = io.ReadAll(resp.Body)
	return resp.StatusCode, respBody, err
}
