package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hstreams/internal/core"
	"hstreams/internal/metrics"
	"hstreams/internal/platform"
)

// testServer builds a Real-mode runtime with a spin kernel and a
// server over it, both on a private metrics registry.
func testServer(t *testing.T, opt Options) (*Server, *core.Runtime) {
	t.Helper()
	reg := metrics.New()
	rt, err := core.Init(core.Config{
		Machine: platform.HSWPlusKNC(0),
		Mode:    core.ModeReal,
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Fini)
	rt.RegisterKernel("spin", func(ctx *core.KernelCtx) {
		d := time.Duration(0)
		if len(ctx.Args) > 0 {
			d = time.Duration(ctx.Args[0])
		}
		time.Sleep(d)
	})
	rt.RegisterKernel("fill", func(ctx *core.KernelCtx) {
		if len(ctx.Ops) > 0 && len(ctx.Args) > 0 {
			for i := range ctx.Ops[0] {
				ctx.Ops[0][i] = byte(ctx.Args[0])
			}
		}
	})
	opt.Runtime = rt
	opt.Registry = reg
	s, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s, rt
}

func TestRegisterValidation(t *testing.T) {
	s, _ := testServer(t, Options{})
	if _, err := s.Register("", Quotas{}); err == nil {
		t.Fatal("empty tenant name accepted")
	}
	if _, err := s.Register("a", Quotas{OnFull: "bounce"}); err == nil {
		t.Fatal("bad on_full accepted")
	}
	if _, err := s.Register("a", Quotas{MaxStreams: 9}); err == nil {
		t.Fatal("max_streams over the 8 in-service slots accepted")
	}
	if _, err := s.Register("a", Quotas{}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Register("a", Quotas{}); !errors.Is(err, ErrTenantExists) {
		t.Fatalf("duplicate Register = %v, want ErrTenantExists", err)
	}
	if _, err := s.Register("b", Quotas{Weight: 3, MaxStreams: 1}); err != nil {
		t.Fatal(err)
	}
	ts := s.Tenants()
	if len(ts) != 2 || ts[0].Name != "a" || ts[1].Name != "b" {
		t.Fatalf("Tenants() = %+v, want [a b]", ts)
	}
	if ts[1].Quotas.Weight != 3 || len(ts[1].Streams) != 1 {
		t.Fatalf("tenant b = %+v, want weight 3, one stream", ts[1])
	}
	if err := s.Unregister("a"); err != nil {
		t.Fatal(err)
	}
	if err := s.Unregister("a"); !errors.Is(err, ErrNoTenant) {
		t.Fatalf("second Unregister = %v, want ErrNoTenant", err)
	}
}

func TestBufferQuota(t *testing.T) {
	s, _ := testServer(t, Options{})
	if _, err := s.Register("q", Quotas{MaxBufferBytes: 1024}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AllocBuffer("q", "a", 768); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AllocBuffer("q", "b", 512); !errors.Is(err, ErrQuota) {
		t.Fatalf("over-quota alloc = %v, want ErrQuota", err)
	}
	if _, err := s.AllocBuffer("q", "a", 64); err == nil {
		t.Fatal("duplicate buffer name accepted")
	}
	// Freeing returns the quota immediately.
	if err := s.FreeBuffer("q", "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AllocBuffer("q", "b", 1024); err != nil {
		t.Fatalf("alloc after free = %v, want quota returned", err)
	}
	if err := s.FreeBuffer("q", "missing"); err == nil {
		t.Fatal("freeing unknown buffer succeeded")
	}
}

// TestSubmitRoundTrip drives one waited fill through the whole
// admission path and checks the kernel really ran.
func TestSubmitRoundTrip(t *testing.T) {
	s, _ := testServer(t, Options{})
	if _, err := s.Register("rt", Quotas{}); err != nil {
		t.Fatal(err)
	}
	b, err := s.AllocBuffer("rt", "buf", 64)
	if err != nil {
		t.Fatal(err)
	}
	a, err := s.Submit(context.Background(), "rt", SubmitRequest{
		Kernel: "fill", Args: []int64{7}, Ops: []core.Operand{b.All(core.InOut)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Wait(); err != nil {
		t.Fatal(err)
	}
	for i, v := range b.HostBytes() {
		if v != 7 {
			t.Fatalf("buf[%d] = %d after fill(7)", i, v)
		}
	}
	if err := s.Unregister("rt"); err != nil {
		t.Fatal(err)
	}
}

func TestSubmitUnknownTenant(t *testing.T) {
	s, _ := testServer(t, Options{})
	if _, err := s.Submit(context.Background(), "ghost", SubmitRequest{Kernel: "spin"}); !errors.Is(err, ErrNoTenant) {
		t.Fatalf("Submit to unknown tenant = %v, want ErrNoTenant", err)
	}
}

// TestPendingShed saturates a shed-policy tenant: with one in-service
// slot and a pending bound of 2, concurrent submitters must see
// ErrPendingFull.
func TestPendingShed(t *testing.T) {
	s, _ := testServer(t, Options{MaxInflight: 1})
	if _, err := s.Register("shed", Quotas{MaxPending: 2, OnFull: "shed"}); err != nil {
		t.Fatal(err)
	}
	var sheds, oks atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a, err := s.Submit(context.Background(), "shed", SubmitRequest{
				Kernel: "spin", Args: []int64{int64(20 * time.Millisecond)},
			})
			switch {
			case errors.Is(err, ErrPendingFull):
				sheds.Add(1)
			case err == nil:
				_ = a.Wait()
				oks.Add(1)
			default:
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if sheds.Load() == 0 {
		t.Fatalf("16 submits against pending bound 2 never shed (ok=%d)", oks.Load())
	}
	if oks.Load() == 0 {
		t.Fatal("every submit shed — admission never served anyone")
	}
}

// TestSubmitBlocksAndHonorsCancel fills a block-policy tenant's
// pending queue, then checks a further Submit blocks until its
// context is cancelled.
func TestSubmitBlocksAndHonorsCancel(t *testing.T) {
	s, _ := testServer(t, Options{MaxInflight: 1})
	if _, err := s.Register("blk", Quotas{MaxPending: 1, OnFull: "block"}); err != nil {
		t.Fatal(err)
	}
	// Occupy the single slot and the single pending seat with slow
	// work: the first Submit is granted on the spot, the second queues.
	hold := func() {
		_, _ = s.Submit(context.Background(), "blk", SubmitRequest{
			Kernel: "spin", Args: []int64{int64(time.Second)},
		})
	}
	hold()
	go hold()
	waitStatus(t, s, "blk", 1, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := s.Submit(ctx, "blk", SubmitRequest{Kernel: "spin", Args: []int64{0}})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("blocked Submit = %v, want DeadlineExceeded", err)
	}
	if d := time.Since(start); d < 80*time.Millisecond {
		t.Fatalf("Submit returned after %v — it never blocked", d)
	}
}

// TestShadowMode checks the no-runtime path: registration, buffer
// accounting, and submission all work, and dispatch is completion.
func TestShadowMode(t *testing.T) {
	s, err := New(Options{Shadow: true, Registry: metrics.New()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Register("sh", Quotas{MaxBufferBytes: 100}); err != nil {
		t.Fatal(err)
	}
	b, err := s.AllocBuffer("sh", "a", 80)
	if err != nil {
		t.Fatal(err)
	}
	if b != nil {
		t.Fatal("shadow alloc returned a real buffer")
	}
	if _, err := s.AllocBuffer("sh", "b", 40); !errors.Is(err, ErrQuota) {
		t.Fatalf("shadow over-quota alloc = %v, want ErrQuota", err)
	}
	a, err := s.Submit(context.Background(), "sh", SubmitRequest{Kernel: "anything"})
	if err != nil {
		t.Fatal(err)
	}
	if a != nil {
		t.Fatal("shadow Submit returned a real action")
	}
	ts := s.Tenants()
	if len(ts) != 1 || ts[0].Actions != 1 || ts[0].Buffers != 1 || ts[0].BufferBytes != 80 {
		t.Fatalf("shadow status = %+v, want 1 action, 1 buffer, 80 bytes", ts)
	}
	if err := s.Unregister("sh"); err != nil {
		t.Fatal(err)
	}
}

// TestNewRejectsSimRuntime pins the mode gate: the Sim engine assumes
// a single host goroutine, so serving over it must be refused.
func TestNewRejectsSimRuntime(t *testing.T) {
	rt, err := core.Init(core.Config{
		Machine: platform.HSWPlusKNC(0),
		Mode:    core.ModeSim,
		Metrics: metrics.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Fini()
	if _, err := New(Options{Runtime: rt, Registry: metrics.New()}); !errors.Is(err, ErrNeedRealMode) {
		t.Fatalf("New over Sim runtime = %v, want ErrNeedRealMode", err)
	}
}

// --- HTTP layer ---

// postObj posts v as JSON and decodes the response into out.
func postObj(t *testing.T, client *http.Client, url string, v, out any) int {
	t.Helper()
	payload, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s response: %v", url, err)
		}
	}
	return resp.StatusCode
}

func TestHTTPLifecycle(t *testing.T) {
	s, _ := testServer(t, Options{MaxInflight: 2})
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	c := hs.Client()

	// Capabilities advertise the registered kernels.
	resp, err := c.Get(hs.URL + "/v1/capabilities")
	if err != nil {
		t.Fatal(err)
	}
	var caps capabilityDoc
	if err := json.NewDecoder(resp.Body).Decode(&caps); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if caps.Mode != "real" || caps.Version != protocolVersion {
		t.Fatalf("capabilities = %+v", caps)
	}
	kernels := fmt.Sprint(caps.Kernels)
	if kernels != "[fill spin]" {
		t.Fatalf("kernels = %s, want [fill spin]", kernels)
	}

	// Negotiation: satisfied and unsatisfied.
	var neg negotiateResponse
	if st := postObj(t, c, hs.URL+"/v1/negotiate", negotiateRequest{Kernels: []string{"spin"}}, &neg); st != http.StatusOK || !neg.OK {
		t.Fatalf("negotiate(spin) = %d %+v", st, neg)
	}
	if st := postObj(t, c, hs.URL+"/v1/negotiate", negotiateRequest{Kernels: []string{"dgemm"}}, &neg); st != http.StatusConflict || neg.OK || len(neg.MissingKernels) != 1 {
		t.Fatalf("negotiate(dgemm) = %d %+v, want 409 with missing kernel", st, neg)
	}

	// Tenant + buffer + waited submit.
	if st := postObj(t, c, hs.URL+"/v1/tenants", createTenantRequest{Name: "web"}, nil); st != http.StatusCreated {
		t.Fatalf("create tenant = %d", st)
	}
	if st := postObj(t, c, hs.URL+"/v1/tenants", createTenantRequest{Name: "web"}, nil); st != http.StatusConflict {
		t.Fatalf("duplicate tenant = %d, want 409", st)
	}
	if st := postObj(t, c, hs.URL+"/v1/tenants/web/buffers", allocBufferRequest{Name: "b", Size: 64}, nil); st != http.StatusCreated {
		t.Fatalf("alloc buffer = %d", st)
	}
	var sub submitResponse
	st := postObj(t, c, hs.URL+"/v1/tenants/web/submit", submitRequest{
		Kernel:  "fill",
		Args:    []int64{9},
		Buffers: []operandRef{{Name: "b"}},
		Wait:    true,
	}, &sub)
	if st != http.StatusOK || sub.Status != "done" || sub.Error != "" {
		t.Fatalf("submit = %d %+v", st, sub)
	}
	// Submitting against an unknown tenant and buffer 404s.
	if st := postObj(t, c, hs.URL+"/v1/tenants/ghost/submit", submitRequest{Kernel: "spin"}, nil); st != http.StatusNotFound {
		t.Fatalf("submit to ghost = %d, want 404", st)
	}
	if st := postObj(t, c, hs.URL+"/v1/tenants/web/submit", submitRequest{Kernel: "fill", Buffers: []operandRef{{Name: "nope"}}}, nil); st != http.StatusBadRequest {
		t.Fatalf("submit with unknown buffer = %d, want 400", st)
	}

	// Free the buffer, then submit against it: 400 family (gone).
	req, _ := http.NewRequest(http.MethodDelete, hs.URL+"/v1/tenants/web/buffers/b", nil)
	dresp, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("free buffer = %d", dresp.StatusCode)
	}

	// Healthz is green; /metrics exposes the tenant families.
	hresp, err := c.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", hresp.StatusCode)
	}
	mresp, err := c.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(mresp.Body)
	mresp.Body.Close()
	if !bytes.Contains(buf.Bytes(), []byte("hstreams_tenant_actions_total")) {
		t.Fatal("/metrics missing hstreams_tenant_actions_total")
	}

	// Delete the tenant; its status endpoint then 404s.
	req, _ = http.NewRequest(http.MethodDelete, hs.URL+"/v1/tenants/web", nil)
	dresp, err = c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("delete tenant = %d", dresp.StatusCode)
	}
	gresp, err := c.Get(hs.URL + "/v1/tenants/web")
	if err != nil {
		t.Fatal(err)
	}
	gresp.Body.Close()
	if gresp.StatusCode != http.StatusNotFound {
		t.Fatalf("get deleted tenant = %d, want 404", gresp.StatusCode)
	}
}

// TestHTTPShed pins the 429 contract: an overloaded shed tenant
// returns 429 with a machine-readable reason.
func TestHTTPShed(t *testing.T) {
	s, _ := testServer(t, Options{MaxInflight: 1})
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	c := hs.Client()
	if st := postObj(t, c, hs.URL+"/v1/tenants", createTenantRequest{
		Name:   "busy",
		Quotas: Quotas{MaxPending: 1, OnFull: "shed"},
	}, nil); st != http.StatusCreated {
		t.Fatalf("create tenant = %d", st)
	}
	var saw429 atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var p errorPayload
			st := postObj(t, c, hs.URL+"/v1/tenants/busy/submit", submitRequest{
				Kernel: "spin", Args: []int64{int64(50 * time.Millisecond)}, Wait: true,
			}, &p)
			if st == http.StatusTooManyRequests {
				if p.Reason != "pending-full" && p.Reason != "stream-queue-full" {
					t.Errorf("429 reason = %q", p.Reason)
				}
				saw429.Store(true)
			}
		}()
	}
	wg.Wait()
	if !saw429.Load() {
		t.Fatal("12 concurrent submits against pending bound 1 never returned 429")
	}
}

// TestHTTPOversizedBody pins the body cap: a tenant or submit body
// over maxBodyBytes is refused with 413 before it is decoded, and the
// server keeps serving.
func TestHTTPOversizedBody(t *testing.T) {
	s, _ := testServer(t, Options{})
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	c := hs.Client()
	if st := postObj(t, c, hs.URL+"/v1/tenants", createTenantRequest{Name: "web"}, nil); st != http.StatusCreated {
		t.Fatalf("create tenant = %d", st)
	}
	huge := strings.Repeat("x", maxBodyBytes)
	for path, body := range map[string]any{
		"/v1/tenants":            createTenantRequest{Name: huge},
		"/v1/tenants/web/submit": submitRequest{Kernel: huge},
	} {
		var p errorPayload
		if st := postObj(t, c, hs.URL+path, body, &p); st != http.StatusRequestEntityTooLarge {
			t.Fatalf("oversized POST %s = %d %+v, want 413", path, st, p)
		}
	}
	var sub submitResponse
	if st := postObj(t, c, hs.URL+"/v1/tenants/web/submit", submitRequest{Kernel: "spin", Wait: true}, &sub); st != http.StatusOK || sub.Status != "done" {
		t.Fatalf("submit after the oversized bodies = %d %+v, want 200 done", st, sub)
	}
	if ts := s.Tenants(); len(ts) != 1 {
		t.Fatalf("tenants = %+v, want only web", ts)
	}
}

// TestHTTPTrailingData pins the one-value body: data after the first
// JSON value is refused with 400 in the error envelope, before any
// tenant is registered, while trailing whitespace is accepted.
func TestHTTPTrailingData(t *testing.T) {
	s, _ := testServer(t, Options{})
	h := s.Handler()
	for _, body := range []string{
		`{"name":"a"} trailing garbage`,
		`{"name":"b"}{"name":"c"}`,
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/tenants", strings.NewReader(body)))
		var p errorPayload
		if err := json.Unmarshal(rec.Body.Bytes(), &p); err != nil || p.Error == "" || rec.Code != http.StatusBadRequest {
			t.Fatalf("POST /v1/tenants %q = %d %s, want 400 with an error envelope", body, rec.Code, rec.Body)
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/tenants", strings.NewReader("{\"name\":\"d\"}\n \t")))
	if rec.Code != http.StatusCreated {
		t.Fatalf("POST /v1/tenants with trailing whitespace = %d %s, want 201", rec.Code, rec.Body)
	}
	if ts := s.Tenants(); len(ts) != 1 || ts[0].Name != "d" {
		t.Fatalf("tenants = %+v, want only d", ts)
	}
}
