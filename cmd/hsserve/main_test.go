package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"hstreams/internal/serve"
)

// serverArg is the argument under which the test binary re-executes
// itself as hsserve, with the rest of its arguments as hsserve's flags.
const serverArg = "-as-hsserve"

func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == serverArg {
		os.Args = append(os.Args[:1], os.Args[2:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestServeSmoke is the serving layer's CI gate. It boots hsserve with
// its debug server and two tenants at 2:1 weights on four in-service
// slots, keeps eight waited 5 ms spin submits outstanding per tenant
// until a fixed number have completed, and asserts:
//
//  1. completed work divides by weight: gold/bronze = 2.0 ± 10%, and
//     no submit is shed: both tenants block at admission, and eight
//     workers each stay under the default max_pending of 64;
//  2. no stream's queue-depth peak exceeds -max-inflight, the only
//     bound on a tenant's in-service work;
//  3. /metrics carries the tenant families, and gold's weight as 2,
//     on the API and on the debug server alike;
//  4. /debug/tenants lists gold (weight 2) and bronze (weight 1), as
//     JSON and as the ?format=text table;
//  5. SIGTERM shuts the server down with exit 0 and zero leaked
//     buffers (gold holds one buffer that shutdown must free).
//
// Every submit past the first few waits for a slot, so the ratio is
// stride admission's under saturation, and the run length is a count,
// not a duration.
func TestServeSmoke(t *testing.T) {
	const (
		maxInflight = 4
		workers     = 8 // closed-loop submitters per tenant
		completions = 600
	)
	cmd := exec.Command(os.Args[0], serverArg, "-addr", "127.0.0.1:0",
		"-debug-addr", "127.0.0.1:0",
		"-max-inflight", strconv.Itoa(maxInflight),
		"-tenant", "gold:2", "-tenant", "bronze:1")
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cmd.Process.Kill() }) // already reaped is fine
	out := bufio.NewScanner(stdout)
	var base, debug string
	for debug == "" && out.Scan() {
		if rest, ok := strings.CutPrefix(out.Text(), "hsserve listening on "); ok {
			base, _, _ = strings.Cut(rest, " ")
		} else if rest, ok := strings.CutPrefix(out.Text(), "debug server listening on "); ok {
			debug = rest
		}
	}
	if base == "" || debug == "" {
		t.Fatal("hsserve exited without announcing its two addresses")
	}
	logc := make(chan string, 1)
	go func() {
		var log strings.Builder
		for out.Scan() {
			log.WriteString(out.Text() + "\n")
		}
		logc <- log.String()
	}()

	if code := post(t, base+"/v1/tenants/gold/buffers", `{"name":"smoke","size":4096}`); code != http.StatusCreated {
		t.Fatalf("allocating gold's buffer: HTTP %d", code)
	}

	// 1. Fair share over the first completions; any status but 200,
	// a 429 included, fails the run.
	submit := fmt.Sprintf(`{"kernel":"spin","args":[%d],"wait":true}`, 5*time.Millisecond)
	var done atomic.Int64
	ok := map[string]*atomic.Int64{"gold": new(atomic.Int64), "bronze": new(atomic.Int64)}
	var wg sync.WaitGroup
	for tenant, n := range ok {
		for range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for done.Load() < completions {
					switch code := post(t, base+"/v1/tenants/"+tenant+"/submit", submit); code {
					case http.StatusOK:
						if done.Add(1) <= completions {
							n.Add(1)
						}
					default:
						t.Errorf("%s submit: HTTP %d", tenant, code)
						return
					}
				}
			}()
		}
	}
	wg.Wait()
	g, b := ok["gold"].Load(), ok["bronze"].Load()
	ratio := float64(g) / float64(b)
	t.Logf("completed gold=%d bronze=%d: ratio %.3f (want 2.0 ± 10%%)", g, b, ratio)
	if ratio < 1.8 || ratio > 2.2 {
		t.Errorf("fair-share ratio gold/bronze = %.3f, want 2.0 ± 10%%", ratio)
	}

	// 2 and 3. Scrape /metrics.
	exposition := get(t, base+"/metrics")
	streams := 0
	for _, ln := range strings.Split(exposition, "\n") {
		if rest, ok := strings.CutPrefix(ln, "hstreams_queue_depth_peak{"); ok {
			_, v, _ := strings.Cut(rest, "} ")
			streams++
			if peak, err := strconv.Atoi(v); err != nil || peak > maxInflight {
				t.Errorf("%s: peak over -max-inflight %d", ln, maxInflight)
			}
		}
	}
	if streams == 0 {
		t.Error("/metrics reports no hstreams_queue_depth_peak")
	}
	for _, fam := range []string{"hstreams_tenant_actions_total", "hstreams_tenant_weight",
		"hstreams_tenant_admission_wait_seconds_count", "hstreams_buffers_live"} {
		if !strings.Contains(exposition, "\n"+fam) {
			t.Errorf("/metrics lacks %s", fam)
		}
	}
	if !strings.Contains(exposition, "\n"+`hstreams_tenant_weight{tenant="gold"} 2`+"\n") {
		t.Error("/metrics does not export gold's weight as 2")
	}
	// The debug server serves the same registry, the one the runtime
	// writes and the shutdown leak check reads.
	if dbg := get(t, debug+"/metrics"); !strings.Contains(dbg, "\n"+`hstreams_tenant_weight{tenant="gold"} 2`+"\n") ||
		!strings.Contains(dbg, "\nhstreams_buffers_live") {
		t.Error("the debug server's /metrics is not hsserve's registry: no gold weight or hstreams_buffers_live")
	}

	// 4. /debug/tenants lists both tenants with their weights, as
	// JSON and as the text table.
	var status []serve.TenantStatus
	if err := json.Unmarshal([]byte(get(t, debug+"/debug/tenants")), &status); err != nil {
		t.Fatal(err)
	}
	weights := map[string]int{}
	for _, ts := range status {
		weights[ts.Name] = ts.Quotas.Weight
	}
	if len(weights) != 2 || weights["gold"] != 2 || weights["bronze"] != 1 {
		t.Errorf("/debug/tenants weights = %v, want gold:2 bronze:1", weights)
	}
	table := get(t, debug+"/debug/tenants?format=text")
	if !strings.HasPrefix(table, "tenant ") || !strings.Contains(table, "\ngold ") ||
		!strings.Contains(table, "\nbronze ") {
		t.Errorf("/debug/tenants?format=text does not render the table:\n%s", table)
	}

	// 5. Graceful shutdown.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	log := <-logc
	if err := cmd.Wait(); err != nil {
		t.Fatalf("hsserve after SIGTERM: %v\n%s", err, log)
	}
	if !strings.Contains(log, "leaked buffers: 0") {
		t.Fatalf("hsserve shutdown log lacks \"leaked buffers: 0\":\n%s", log)
	}
}

// get fetches url and returns the body; a transport error or a status
// other than 200 fails the test.
func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return string(body)
}

// post sends a JSON body and returns the status code, draining and
// closing the response; a transport error fails the test.
func post(t *testing.T, url, body string) int {
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Error(err)
		return 0
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}
