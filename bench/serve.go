package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptrace"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The serve workloads drive an hsserve subprocess over HTTP, the way
// a tenant does. Both use the server's two default tenants and, per
// tenant, eight 4 KiB input and eight 64 B output buffers allocated
// in set-up.
const (
	serveBufs     = 8
	serveInBytes  = 4 << 10
	serveOutBytes = 64
	// warmRequests is the untimed traffic that ends set-up: enough
	// for both connections to be open and the server's pools to have
	// grown, counted in requests so that setup_s times the server's
	// start and not a fixed sleep.
	warmRequests = 500
	// openRate is the arrival rate of serve_open, about 4 % of what
	// the server sustains on two connections: nothing queues, so
	// each layer's self time shows in the latency one for one.
	openRate = 500.0
	// missUS stands in for the latency of a request that failed or
	// was refused: slower than any limit.
	missUS = 1e9
)

var serveTenants = [2]string{"gold", "bronze"}

// reqKind classifies the requests the generator sends; per-kind
// latencies are per-layer metrics of serve_mix.
type reqKind int

const (
	kindSum reqKind = iota
	kindFill
	kindAlloc
	kindFree
	kindTenantCreate
	kindTenantDelete
	kindTenantGet
	kindHealthz
	numKinds
)

var kindNames = [numKinds]string{"submit sum (waited)", "submit fill (not waited)", "alloc buffer", "free buffer",
	"tenant create", "tenant delete", "tenant get", "healthz"}

// request is one generated HTTP request.
type request struct {
	kind   reqKind
	tenant int // index into serveTenants; -1 for an ephemeral tenant or none
	method string
	path   string
	body   []byte
}

func sumRequest(tenant, buf int) request {
	body := fmt.Sprintf(`{"kernel":"sum","buffers":[{"name":"in%d","access":"in"},{"name":"out%d","access":"out"}],"wait":true}`, buf, buf)
	return request{kind: kindSum, tenant: tenant, method: http.MethodPost,
		path: "/v1/tenants/" + serveTenants[tenant] + "/submit", body: []byte(body)}
}

func fillRequest(tenant, buf int, value byte) request {
	body := fmt.Sprintf(`{"kernel":"fill","args":[%d],"buffers":[{"name":"in%d","access":"out"}]}`, value, buf)
	return request{kind: kindFill, tenant: tenant, method: http.MethodPost,
		path: "/v1/tenants/" + serveTenants[tenant] + "/submit", body: []byte(body)}
}

func allocRequest(tenant string, name string, size int) request {
	return request{kind: kindAlloc, tenant: -1, method: http.MethodPost, path: "/v1/tenants/" + tenant + "/buffers",
		body: []byte(fmt.Sprintf(`{"name":%q,"size":%d}`, name, size))}
}

func freeRequest(tenant, name string) request {
	return request{kind: kindFree, tenant: -1, method: http.MethodDelete, path: "/v1/tenants/" + tenant + "/buffers/" + name}
}

func tenantCreateRequest(name string) request {
	return request{kind: kindTenantCreate, tenant: -1, method: http.MethodPost, path: "/v1/tenants",
		body: []byte(fmt.Sprintf(`{"name":%q,"weight":1}`, name))}
}

func tenantDeleteRequest(name string) request {
	return request{kind: kindTenantDelete, tenant: -1, method: http.MethodDelete, path: "/v1/tenants/" + name}
}

var healthzRequest = request{kind: kindHealthz, tenant: -1, method: http.MethodGet, path: "/healthz"}

// serveRig is one running server with the client that drives it.
type serveRig struct {
	srv    *hsserve
	client *http.Client
	// submits counts the successful submissions per standing tenant;
	// the server's own per-tenant action count must match it.
	submits [2]atomic.Int64
}

// do sends one request, checks the response and returns whether it
// succeeded, whether it was shed (429), and when the response had
// been read. In a traced run it records the request's spans: the
// write of the request, the wait for the first response byte, the
// read of the rest.
func (r *serveRig) do(q request, tr *tracer, unit int64) (ok, shed bool, sent, done time.Time) {
	req, err := http.NewRequest(q.method, r.srv.base+q.path, bodyReader(q.body))
	if err != nil {
		return false, false, sent, time.Now()
	}
	if q.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	var wrote, first time.Time
	if tr != nil {
		req = req.WithContext(httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
			WroteRequest:         func(httptrace.WroteRequestInfo) { wrote = time.Now() },
			GotFirstResponseByte: func() { first = time.Now() },
		}))
	}
	sent = time.Now()
	resp, err := r.client.Do(req)
	if err != nil {
		return false, false, sent, time.Now()
	}
	var reply struct {
		Status string `json:"status"`
		Error  string `json:"error"`
	}
	decErr := json.NewDecoder(resp.Body).Decode(&reply)
	resp.Body.Close()
	done = time.Now()
	if tr != nil && !wrote.IsZero() && !first.IsZero() {
		id := tr.id()
		tr.put(id, 0, unit, "request", sent, done)
		tr.leaf(id, unit, "http.write", sent, wrote)
		tr.leaf(id, unit, "http.wait (server)", wrote, first)
		tr.leaf(id, unit, "http.read", first, done)
	}
	shed = resp.StatusCode == http.StatusTooManyRequests
	switch q.kind {
	case kindSum:
		ok = resp.StatusCode == http.StatusOK && decErr == nil && reply.Status == "done" && reply.Error == ""
	case kindFill:
		ok = resp.StatusCode == http.StatusOK && decErr == nil && reply.Status == "accepted" && reply.Error == ""
	case kindAlloc, kindTenantCreate:
		ok = resp.StatusCode == http.StatusCreated
	default:
		ok = resp.StatusCode == http.StatusOK
	}
	if ok && q.tenant >= 0 && (q.kind == kindSum || q.kind == kindFill) {
		r.submits[q.tenant].Add(1)
	}
	return ok, shed, sent, done
}

// startServe is a serve workload's set-up: start the server, allocate
// the tenants' buffers, send the warm-up traffic.
func startServe(bin string, seed int64) (*serveRig, error) {
	srv, err := startHsserve(bin, false)
	if err != nil {
		return nil, err
	}
	r := &serveRig{srv: srv, client: newClient()}
	for _, tenant := range serveTenants {
		for b := 0; b < serveBufs; b++ {
			for _, q := range []request{
				allocRequest(tenant, "in"+strconv.Itoa(b), serveInBytes),
				allocRequest(tenant, "out"+strconv.Itoa(b), serveOutBytes),
			} {
				if ok, _, _, _ := r.do(q, nil, 0); !ok {
					srv.kill()
					return nil, fmt.Errorf("set-up: %s %s failed", q.method, q.path)
				}
			}
		}
	}
	var wg sync.WaitGroup
	var failed atomic.Int64
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed ^ int64(w+1)<<32))
			for i := 0; i < warmRequests/2; i++ {
				if ok, _, _, _ := r.do(sumRequest(w, rng.Intn(serveBufs)), nil, 0); !ok {
					failed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if n := failed.Load(); n > 0 {
		srv.kill()
		return nil, fmt.Errorf("set-up: %d of %d warm-up requests failed", n, warmRequests)
	}
	return r, nil
}

// finish runs the checks that end a serve workload: the server is
// healthy, its per-tenant action counts equal the successful
// submissions once nothing is in flight, and it shuts down cleanly
// without leaking a buffer.
func (r *serveRig) finish(out *outcome) error {
	if ok, _, _, _ := r.do(healthzRequest, nil, 0); !ok {
		out.problems = append(out.problems, "/healthz is not 200 at the end of the run")
	}
	for i, tenant := range serveTenants {
		var st struct {
			Pending, Inflight int
			Actions           int64
		}
		deadline := time.Now().Add(10 * time.Second)
		for {
			status, body, err := httpDo(r.client, http.MethodGet, r.srv.base+"/v1/tenants/"+tenant, nil)
			if err != nil || status != http.StatusOK {
				return fmt.Errorf("GET tenant %s: HTTP %d %v", tenant, status, err)
			}
			if err := json.Unmarshal(body, &st); err != nil {
				return fmt.Errorf("GET tenant %s: %w", tenant, err)
			}
			want := r.submits[i].Load()
			if st.Pending == 0 && st.Inflight == 0 && st.Actions == want {
				break
			}
			if time.Now().After(deadline) {
				out.problems = append(out.problems, fmt.Sprintf("tenant %s: server counts %d actions (%d pending, %d in flight), the generator %d successful submissions",
					tenant, st.Actions, st.Pending, st.Inflight, want))
				break
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	if err := r.srv.stop(); err != nil {
		out.problems = append(out.problems, err.Error())
	}
	return nil
}

// setupServe builds hsserve, starts the idle spinners (see idle.go)
// and sets the workload up e.reps times, shutting the server down
// again (with its checks) after all but the last. It returns the last
// rig and a function that stops the spinners and removes the binary.
func setupServe(e *env, out *outcome) (r *serveRig, bin string, cleanup func(), err error) {
	bin, rmBin, err := buildHsserve(e.root, e.outDir())
	if err != nil {
		return nil, "", nil, err
	}
	cleanup = rmBin
	if stopSpinners, err := keepAwake(); err != nil {
		fmt.Fprintf(e.log, "no idle spinners (%v): latencies include the hypervisor's wake-up of halted CPUs\n", err)
	} else {
		cleanup = func() { stopSpinners(); rmBin() }
	}
	var setups []float64
	for i := 0; i < e.reps; i++ {
		if r != nil {
			if err := r.srv.stop(); err != nil {
				out.problems = append(out.problems, err.Error())
			}
		}
		t0 := time.Now()
		if r, err = startServe(bin, e.seed); err != nil {
			cleanup()
			return nil, "", nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	out.e2e["setup_s"] = newDist(setups).q(0.5)
	fmt.Fprintf(e.log, "set-up (s) %v\n", newDist(setups))
	return r, bin, cleanup, nil
}

// window brackets the timed window of a serve workload with the
// server-side readings: CPU from /proc, allocation from the debug
// server.
type window struct {
	r     *serveRig
	cpu   time.Duration
	mem   serverMem
	start time.Time
}

func (r *serveRig) open() (*window, error) {
	w := &window{r: r}
	var err error
	if w.mem, err = r.srv.memMark(r.client); err != nil {
		return nil, err
	}
	if w.cpu, err = r.srv.cpu(); err != nil {
		return nil, err
	}
	w.start = time.Now()
	return w, nil
}

// close ends the window and fills in the metrics every serve workload
// shares.
func (w *window) close(out *outcome, ops int64, traced bool) error {
	wall := time.Since(w.start)
	cpu, err := w.r.srv.cpu()
	if err != nil {
		return err
	}
	mem, err := w.r.srv.memMark(w.r.client)
	if err != nil {
		return err
	}
	d := mem.since(w.mem)
	out.e2e["ops_per_s"] = float64(ops) / wall.Seconds()
	out.e2e["cpu_us_per_op"] = float64(cpu-w.cpu) / 1e3 / float64(ops)
	out.e2e["alloc_bytes_per_op"] = float64(d.bytes) / float64(ops)
	if traced {
		out.proc(d, int(ops))
		if out.layer["proc.peak_rss_mb"], err = peakRSSMB(w.r.srv.cmd.Process.Pid); err != nil {
			return err
		}
	}
	return nil
}

// arrivals returns the seeded Poisson arrival schedule of an open
// loop as offsets from its start.
func arrivals(seed int64, rate float64, dur time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	var out []time.Duration
	for t := rng.ExpFloat64() / rate; t < dur.Seconds(); t += rng.ExpFloat64() / rate {
		out = append(out, time.Duration(t*float64(time.Second)))
	}
	return out
}

// openLoop runs job i at start+schedule[i], or as soon after as the
// job before it has ended, and tells each job when it was due, so
// that it can time itself from then: a request that waited behind a
// slow one has that wait counted. It returns how late the generator
// itself was for each job, which is the time between the later of
// (due, end of the job before) and the job's start.
//
// The jobs run on the calling goroutine, so serve_open keeps one
// connection busy, not two. On this machine's two cores a pacer that
// hands requests to worker goroutines either spins against the server
// while a request is in flight or wakes the worker late (at 2000
// arrivals a second the hand-off read 5 ms at p50 where the request
// took 0.3 ms); a pacer that sends the request itself is silent while
// the server works.
//
// Timers here fire up to 1.1 ms late, which is several requests'
// worth, so the pacer sleeps only until timerSlop before the arrival
// and yields in a loop for the rest.
func openLoop(schedule []time.Duration, job func(i int, due time.Time)) (lateUS []float64) {
	lateUS = make([]float64, len(schedule))
	start := time.Now()
	free := start
	for i, off := range schedule {
		due := start.Add(off)
		if d := time.Until(due); d > timerSlop {
			time.Sleep(d - timerSlop)
		}
		for time.Now().Before(due) {
			runtime.Gosched()
		}
		ready := due
		if free.After(ready) {
			ready = free
		}
		lateUS[i] = float64(time.Since(ready)) / 1e3
		job(i, due)
		free = time.Now()
	}
	return lateUS
}

const timerSlop = 1200 * time.Microsecond

// openChoices returns the seeded (tenant, buffer) choice of every
// request of serve_open: tenants 2:1, buffers uniform.
func openChoices(seed int64, n int) []request {
	rng := rand.New(rand.NewSource(seed ^ 0x6f70656e))
	out := make([]request, n)
	for i := range out {
		tenant := 0
		if rng.Intn(3) == 2 {
			tenant = 1
		}
		out[i] = sumRequest(tenant, rng.Intn(serveBufs))
	}
	return out
}

// runOpenPhase sends one open-loop phase and returns, per request,
// the latency from its due time and from its send (missUS for a
// failed one), with the failure count.
func (r *serveRig) runOpenPhase(schedule []time.Duration, reqs []request, tr *tracer) (fromDue, fromSend, lateUS []float64, failed int64) {
	fromDue = make([]float64, len(schedule))
	fromSend = make([]float64, len(schedule))
	lateUS = openLoop(schedule, func(i int, due time.Time) {
		t := tr
		if i%2 == 1 {
			t = nil // every second request goes untraced, to price the spans
		}
		ok, _, sent, done := r.do(reqs[i], t, int64(i+1))
		if !ok {
			failed++
			fromDue[i], fromSend[i] = missUS, missUS
			return
		}
		fromDue[i] = float64(done.Sub(due)) / 1e3
		fromSend[i] = float64(done.Sub(sent)) / 1e3
	})
	return fromDue, fromSend, lateUS, failed
}

// runServeOpen measures serve_open.
func runServeOpen(e *env) (*outcome, error) {
	out := newOutcome()
	r, bin, cleanup, err := setupServe(e, out)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	defer r.srv.kill()
	traced := e.tr != nil

	var admBefore admission
	if traced {
		// The floor under a submit, measured first on the same warm
		// server: the HTTP round trip alone.
		sched := arrivals(e.seed+1, openRate, min(layerPhase, e.dur))
		reqs := make([]request, len(sched))
		for i := range reqs {
			reqs[i] = healthzRequest
		}
		_, rtt, _, failed := r.runOpenPhase(sched, reqs, nil)
		out.attempted += int64(len(sched))
		out.failed += failed
		out.layer["serve.http_rtt_p50_us"] = newDist(rtt).q(0.5)
		if admBefore, err = r.admission(); err != nil {
			return nil, err
		}
	}

	schedule := arrivals(e.seed, openRate, e.dur)
	reqs := openChoices(e.seed, len(schedule))
	w, err := r.open()
	if err != nil {
		return nil, err
	}
	fromDue, fromSend, lateUS, failed := r.runOpenPhase(schedule, reqs, e.tr)
	n := int64(len(schedule))
	if err := w.close(out, n-failed, traced); err != nil {
		return nil, err
	}
	out.attempted += n
	out.failed += failed

	dd, ld := newDist(fromDue), newDist(lateUS)
	out.e2e["latency_p50_us"] = steadyQuantile(schedule, fromDue, time.Second, 0.5)
	out.e2e["latency_p90_us"] = steadyQuantile(schedule, fromDue, time.Second, 0.9)
	fmt.Fprintf(e.log, "serve_open: %d requests at %.0f/s; latency from due time (us) %v p90=%.4g p99=%.4g\n", n, openRate, dd, dd.q(0.9), dd.q(0.99))
	fmt.Fprintf(e.log, "serve_open: generator lateness (us) %v p99=%.4g\n", ld, ld.q(0.99))
	if ld.q(0.99) > 100 {
		fmt.Fprintf(e.log, "serve_open: INVALID as a latency measurement: the generator ran more than 100 us late at p99\n")
	}

	if traced {
		admAfter, err := r.admission()
		if err != nil {
			return nil, err
		}
		out.layer["serve.admission_wait_mean_us"] = (admAfter.sum - admBefore.sum) / (admAfter.count - admBefore.count) * 1e6
		sd := newDist(fromSend)
		out.layer["serve.http_submit_real_p50_us"] = sd.q(0.5)
		out.layer["client.gen_late_p99_us"] = ld.q(0.99)
		out.layer["client.achieved_rate"] = float64(n) / schedule[len(schedule)-1].Seconds()
		out.layer["client.latency_p99_us"] = dd.q(0.99)
		out.layer["client.latency_p999_us"] = dd.q(0.999)
		out.layer["client.latency_max_us"] = dd[len(dd)-1]
		var withSpans, without []float64
		for i, us := range fromSend {
			if i%2 == 0 {
				withSpans = append(withSpans, us)
			} else {
				without = append(without, us)
			}
		}
		out.layer["bench.trace_overhead_pct"] = (newDist(withSpans).q(0.5)/newDist(without).q(0.5) - 1) * 100
	}
	if err := r.finish(out); err != nil {
		return nil, err
	}
	if !traced {
		return out, nil
	}

	// The same submit against a shadow server: decode and admission
	// run, the runtime does not. With the two lines above the three
	// telescope to the end-to-end median.
	shadow, err := startHsserve(bin, true)
	if err != nil {
		return nil, err
	}
	defer shadow.kill()
	sr := &serveRig{srv: shadow, client: newClient()}
	sched := arrivals(e.seed+2, openRate, min(layerPhase, e.dur))
	// A shadow server resolves no buffers, so the body names none.
	shadowReqs := make([]request, len(sched))
	for i := range shadowReqs {
		shadowReqs[i] = sumRequest(i%2, 0)
		shadowReqs[i].body = []byte(`{"kernel":"sum","wait":true}`)
	}
	_, shadowLat, _, failed := sr.runOpenPhase(sched, shadowReqs, nil)
	out.attempted += int64(len(sched))
	out.failed += failed
	if err := shadow.stop(); err != nil {
		out.problems = append(out.problems, "shadow server: "+err.Error())
	}
	rtt, shadowP50, realP50 := out.layer["serve.http_rtt_p50_us"], newDist(shadowLat).q(0.5), out.layer["serve.http_submit_real_p50_us"]
	out.layer["serve.http_submit_shadow_p50_us"] = shadowP50
	fmt.Fprintf(e.log, "serve_open: latency_p50_us %.1f = http round trip %.1f + decode and admission %.1f + runtime and kernel %.1f + residual (due time to send: generator lateness, waiting for the request before) %.1f\n",
		dd.q(0.5), rtt, shadowP50-rtt, realP50-shadowP50, dd.q(0.5)-realP50)
	return out, nil
}

// layerPhase is the length of each of the two extra open-loop phases
// of a traced serve_open run (less when the run itself is shorter).
const layerPhase = time.Second

// admission is the running total of the admission-wait histogram.
type admission struct{ sum, count float64 }

// admission scrapes /metrics for the admission-wait totals over all
// tenants.
func (r *serveRig) admission() (a admission, err error) {
	status, body, err := httpDo(r.client, http.MethodGet, r.srv.base+"/metrics", nil)
	if err != nil || status != http.StatusOK {
		return a, fmt.Errorf("GET /metrics: HTTP %d %v", status, err)
	}
	for _, line := range strings.Split(string(body), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		into := &a.sum
		switch {
		case strings.HasPrefix(name, "hstreams_tenant_admission_wait_seconds_sum"):
		case strings.HasPrefix(name, "hstreams_tenant_admission_wait_seconds_count"):
			into = &a.count
		default:
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return a, fmt.Errorf("/metrics: %q: %w", line, err)
		}
		*into += v
	}
	if a.count == 0 {
		return a, fmt.Errorf("/metrics carries no hstreams_tenant_admission_wait_seconds samples")
	}
	return a, nil
}

// mixGen generates one connection's share of serve_mix from a seed:
// out of 1000 requests 800 waited sum submissions, 100 fill
// submissions that are not waited for, 49 buffer allocations of a
// seeded size between 4 and 256 KiB, 49 frees of an earlier one, one
// create-and-delete of an ephemeral tenant and one tenant status read.
type mixGen struct {
	rng    *rand.Rand
	tenant int
	live   []string // buffers allocated and not yet freed
	names  int
}

// mixMaxLive bounds the buffers one connection keeps allocated; at
// the bound an allocation becomes a free.
const mixMaxLive = 64

func newMixGen(seed int64, tenant int) *mixGen {
	return &mixGen{rng: rand.New(rand.NewSource(seed ^ int64(tenant+1)<<40)), tenant: tenant}
}

// next returns the next one or two requests (two for the ephemeral
// tenant, whose deletion follows its creation).
func (g *mixGen) next() []request {
	name := serveTenants[g.tenant]
	pick := g.rng.Intn(1000)
	alloc := func() []request {
		g.names++
		buf := fmt.Sprintf("mix%d", g.names)
		g.live = append(g.live, buf)
		return []request{allocRequest(name, buf, serveInBytes+g.rng.Intn(256<<10-serveInBytes+1))}
	}
	free := func() []request {
		i := g.rng.Intn(len(g.live))
		buf := g.live[i]
		g.live[i] = g.live[len(g.live)-1]
		g.live = g.live[:len(g.live)-1]
		return []request{freeRequest(name, buf)}
	}
	switch {
	case pick < 800:
		return []request{sumRequest(g.tenant, g.rng.Intn(serveBufs))}
	case pick < 900:
		return []request{fillRequest(g.tenant, g.rng.Intn(serveBufs), byte(g.rng.Intn(256)))}
	case pick < 949:
		if len(g.live) >= mixMaxLive {
			return free()
		}
		return alloc()
	case pick < 998:
		if len(g.live) == 0 {
			return alloc()
		}
		return free()
	case pick < 999:
		g.names++
		eph := fmt.Sprintf("eph-%s-%d", name, g.names)
		return []request{tenantCreateRequest(eph), tenantDeleteRequest(eph)}
	default:
		return []request{{kind: kindTenantGet, tenant: -1, method: http.MethodGet, path: "/v1/tenants/" + name}}
	}
}

// runServeMix measures serve_mix: a closed loop of two connections,
// one per tenant, each sending its generated mix as fast as the
// server answers.
func runServeMix(e *env) (*outcome, error) {
	out := newOutcome()
	r, _, cleanup, err := setupServe(e, out)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	defer r.srv.kill()
	traced := e.tr != nil

	type connResult struct {
		attempted, failed, shed int64
		lat                     [numKinds][]float64 // from send, microseconds
		tracedSums              []float64           // the waited sums among them that recorded spans
		sumAt                   []time.Duration     // when each waited sum ended, from the window's start
		okPerSec                []int64             // successful requests by the second they ended in
	}
	var results [2]connResult
	w, err := r.open()
	if err != nil {
		return nil, err
	}
	deadline := w.start.Add(e.dur)
	var wg sync.WaitGroup
	for c := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res := &results[c]
			gen := newMixGen(e.seed, c)
			for unit := int64(c + 1); time.Now().Before(deadline); unit += 2 {
				for _, q := range gen.next() {
					// One request in 16 is traced: the closed loop
					// sends some hundred thousand in a run.
					tr := e.tr
					if unit%16 > 1 {
						tr = nil
					}
					ok, shed, sent, done := r.do(q, tr, unit)
					res.attempted++
					if shed {
						res.shed++
					}
					if !ok {
						res.failed++
						continue
					}
					us := float64(done.Sub(sent)) / 1e3
					res.lat[q.kind] = append(res.lat[q.kind], us)
					at := done.Sub(w.start)
					for int(at/time.Second) >= len(res.okPerSec) {
						res.okPerSec = append(res.okPerSec, 0)
					}
					res.okPerSec[at/time.Second]++
					if q.kind == kindSum {
						res.sumAt = append(res.sumAt, at)
						if tr != nil {
							res.tracedSums = append(res.tracedSums, us)
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	var attempted, failed, shed int64
	var lat [numKinds][]float64
	var tracedSums []float64
	var sumAt []time.Duration
	okPerSec := make([]float64, int(e.dur/time.Second)) // whole seconds only
	for c := range results {
		tracedSums = append(tracedSums, results[c].tracedSums...)
		sumAt = append(sumAt, results[c].sumAt...)
		for sec := range okPerSec {
			if sec < len(results[c].okPerSec) {
				okPerSec[sec] += float64(results[c].okPerSec[sec])
			}
		}
		attempted += results[c].attempted
		failed += results[c].failed
		shed += results[c].shed
		for k := range lat {
			lat[k] = append(lat[k], results[c].lat[k]...)
		}
	}
	if err := w.close(out, attempted-failed, traced); err != nil {
		return nil, err
	}
	out.attempted += attempted
	out.failed += failed

	sums := newDist(lat[kindSum])
	out.e2e["latency_p50_us"] = steadyQuantile(sumAt, lat[kindSum], time.Second, 0.5)
	out.e2e["latency_p90_us"] = steadyQuantile(sumAt, lat[kindSum], time.Second, 0.9)
	fmt.Fprintf(e.log, "serve_mix: %d requests on 2 connections\n", attempted)
	if len(okPerSec) > 0 {
		// The median second, for the reason steadyQuantile gives.
		out.e2e["ops_per_s"] = newDist(okPerSec).q(0.5)
		fmt.Fprintf(e.log, "serve_mix: successful requests per second %v\n", newDist(okPerSec))
	}
	for k := range lat {
		if len(lat[k]) > 0 {
			fmt.Fprintf(e.log, "serve_mix: %-26s latency (us) %v\n", kindNames[k], newDist(lat[k]))
		}
	}
	if traced {
		// The mix holds one tenant create in a thousand requests; a
		// short window may see none. If a control-plane kind is
		// missing, one of each is sent after the window and times the
		// missing ones.
		probes := []request{
			allocRequest("gold", "probe", serveInBytes), freeRequest("gold", "probe"),
			tenantCreateRequest("eph-probe"), tenantDeleteRequest("eph-probe"),
		}
		missing := map[reqKind]bool{}
		for _, q := range probes {
			if len(lat[q.kind]) == 0 {
				missing[q.kind] = true
			}
		}
		for _, q := range probes {
			if len(missing) == 0 {
				break
			}
			ok, _, sent, done := r.do(q, nil, 0)
			out.attempted++
			if !ok {
				out.failed++
			} else if missing[q.kind] {
				lat[q.kind] = append(lat[q.kind], float64(done.Sub(sent))/1e3)
			}
		}
		out.layer["serve.alloc_buffer_us"] = mean(lat[kindAlloc])
		out.layer["serve.free_buffer_us"] = mean(lat[kindFree])
		out.layer["serve.tenant_create_us"] = mean(lat[kindTenantCreate])
		out.layer["serve.tenant_delete_us"] = mean(lat[kindTenantDelete])
		out.layer["serve.shed_share"] = float64(shed) / float64(attempted)
		out.layer["bench.trace_overhead_pct"] = (newDist(tracedSums).q(0.5)/sums.q(0.5) - 1) * 100
	}
	return out, r.finish(out)
}
