package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hstreams/internal/core"
)

// waitStatus polls until the tenant reports exactly the given inflight
// and pending counts.
func waitStatus(t *testing.T, s *Server, tenant string, inflight, pending int) {
	t.Helper()
	var last TenantStatus
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		for _, st := range s.Tenants() {
			if st.Name == tenant {
				last = st
			}
		}
		if last.Inflight == inflight && last.Pending == pending {
			return
		}
	}
	t.Fatalf("tenant %q settled at inflight %d / pending %d, want %d / %d",
		tenant, last.Inflight, last.Pending, inflight, pending)
}

// gateKernel registers a kernel that parks every invocation until the
// returned channel yields: one token releases one invocation, closing
// it releases all. The gate is opened at cleanup (before the server
// drains) so a failed test cannot hang.
func gateKernel(t *testing.T, rt *core.Runtime) (gate chan struct{}, open func()) {
	gate = make(chan struct{})
	rt.RegisterKernel("gate", func(*core.KernelCtx) { <-gate })
	var once sync.Once
	open = func() { once.Do(func() { close(gate) }) }
	t.Cleanup(open)
	return gate, open
}

// grantLog registers a "tag" kernel that appends its first argument to
// a log. With one in-service slot actions run one at a time, so the
// log is the grant order.
type grantLog struct {
	mu    sync.Mutex
	order []byte
}

func newGrantLog(rt *core.Runtime) *grantLog {
	l := &grantLog{}
	rt.RegisterKernel("tag", func(ctx *core.KernelCtx) {
		l.mu.Lock()
		l.order = append(l.order, byte(ctx.Args[0]))
		l.mu.Unlock()
	})
	return l
}

// submitTagged queues n tag submissions for the tenant, each from its
// own goroutine, and returns a wait for all of them to retire.
func submitTagged(t *testing.T, s *Server, tenant string, n int) (wait func()) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a, err := s.Submit(context.Background(), tenant, SubmitRequest{Kernel: "tag", Args: []int64{int64(tenant[0])}})
			if err != nil {
				t.Error(err)
				return
			}
			_ = a.Wait()
		}()
	}
	return wg.Wait
}

func mustSubmit(t *testing.T, s *Server, tenant, kernel string) *core.Action {
	t.Helper()
	a, err := s.Submit(context.Background(), tenant, SubmitRequest{Kernel: kernel, Args: []int64{0}})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestPendingBoundIsExact pins both bounds: the pick is made when a
// slot is free, so with the single slot held a shed tenant queues
// exactly MaxPending submissions — none is popped early to sit between
// the queue and the slot — and the next one sheds.
func TestPendingBoundIsExact(t *testing.T) {
	s, rt := testServer(t, Options{MaxInflight: 1})
	_, open := gateKernel(t, rt)
	if _, err := s.Register("shed", Quotas{MaxPending: 2, OnFull: "shed"}); err != nil {
		t.Fatal(err)
	}
	mustSubmit(t, s, "shed", "gate") // granted on the spot; holds the slot
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Submit(context.Background(), "shed", SubmitRequest{Kernel: "spin"}); err != nil {
				t.Error(err)
			}
		}()
	}
	waitStatus(t, s, "shed", 1, 2)
	if _, err := s.Submit(context.Background(), "shed", SubmitRequest{Kernel: "spin"}); !errors.Is(err, ErrPendingFull) {
		t.Fatalf("Submit at inflight 1 / pending 2 = %v, want ErrPendingFull", err)
	}
	open()
	wg.Wait()
}

// TestGrantFollowsStrideNotArrival fills MaxInflight 2, queues the
// higher-pass tenant first and the lower-pass tenant second, and frees
// one slot: the grant must go to the lower pass.
func TestGrantFollowsStrideNotArrival(t *testing.T) {
	s, rt := testServer(t, Options{MaxInflight: 2})
	gate, _ := gateKernel(t, rt)
	log := newGrantLog(rt)
	if _, err := s.Register("light", Quotas{Weight: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Register("heavy", Quotas{Weight: 4}); err != nil {
		t.Fatal(err)
	}
	// Both tenants stay busy behind a gated action each, so their
	// passes keep the charges: heavy 1/4 stride, light 1/4 + 1.
	mustSubmit(t, s, "heavy", "gate")
	mustSubmit(t, s, "light", "gate")
	waitLight := submitTagged(t, s, "light", 1)
	waitStatus(t, s, "light", 1, 1)
	waitHeavy := submitTagged(t, s, "heavy", 1)
	waitStatus(t, s, "heavy", 1, 1)
	gate <- struct{}{} // one slot comes back
	waitLight()
	waitHeavy()
	if got := string(log.order); got != "hl" {
		t.Fatalf("grant order %q, want \"hl\": heavy has the lower pass though light arrived first", got)
	}
}

// TestIdleTenantBanksNoCredit lets one tenant dispatch alone while the
// other idles, then queues both behind a held slot. The newly busy
// tenant starts at the global pass, so at equal weights the grants
// alternate instead of the idler taking a burst.
func TestIdleTenantBanksNoCredit(t *testing.T) {
	s, rt := testServer(t, Options{MaxInflight: 1})
	_, open := gateKernel(t, rt)
	log := newGrantLog(rt)
	for _, name := range []string{"a", "b"} {
		if _, err := s.Register(name, Quotas{}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		if err := mustSubmit(t, s, "a", "spin").Wait(); err != nil {
			t.Fatal(err)
		}
	}
	waitStatus(t, s, "a", 0, 0)
	mustSubmit(t, s, "a", "gate")
	waitA := submitTagged(t, s, "a", 4)
	waitB := submitTagged(t, s, "b", 4)
	waitStatus(t, s, "a", 1, 4)
	waitStatus(t, s, "b", 0, 4)
	open()
	waitA()
	waitB()
	if got := string(log.order); got != "abababab" {
		t.Fatalf("grant order %q, want \"abababab\": b idled and must not bank credit", got)
	}
}

// TestGrantOrderFollowsWeights queues 3k submissions per tenant at
// weights 2:1 behind a held slot. Of the first 3k grants exactly 2k go
// to gold, and no prefix strays from 2:1 by more than one grant.
// Saturated throughput shares over the real binary are
// TestServeSmoke's check (cmd/hsserve).
func TestGrantOrderFollowsWeights(t *testing.T) {
	const k = 20
	s, rt := testServer(t, Options{MaxInflight: 1})
	_, open := gateKernel(t, rt)
	log := newGrantLog(rt)
	if _, err := s.Register("gold", Quotas{Weight: 2, MaxPending: 3 * k}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Register("bronze", Quotas{Weight: 1, MaxPending: 3 * k}); err != nil {
		t.Fatal(err)
	}
	mustSubmit(t, s, "gold", "gate")
	waitGold := submitTagged(t, s, "gold", 3*k)
	waitBronze := submitTagged(t, s, "bronze", 3*k)
	waitStatus(t, s, "gold", 1, 3*k)
	waitStatus(t, s, "bronze", 0, 3*k)
	open()
	waitGold()
	waitBronze()
	order := string(log.order[:3*k])
	gold := 0
	for i, c := range order {
		if c == 'g' {
			gold++
		}
		if n := i + 1; 3*gold < 2*n-3 || 3*gold > 2*n+3 {
			t.Fatalf("after %d grants gold holds %d, want 2:1 within one grant; order %q", n, gold, order)
		}
	}
	if gold != 2*k {
		t.Fatalf("gold holds %d of the first %d grants, want %d; order %q", gold, 3*k, 2*k, order)
	}
}

// TestSubmitDuringRegister spins a submitter on each name while it is
// being registered: the tenant must be invisible until its stream
// group is complete, then serve the submission.
func TestSubmitDuringRegister(t *testing.T) {
	s, _ := testServer(t, Options{})
	for i := 0; i < 2000; i++ {
		name := fmt.Sprintf("t%d", i)
		spinning := make(chan struct{})
		done := make(chan error, 1)
		go func() {
			for first := true; ; first = false {
				a, err := s.Submit(context.Background(), name, SubmitRequest{Kernel: "spin"})
				if first {
					close(spinning)
				}
				if err == nil {
					done <- a.Wait()
					return
				}
				if !errors.Is(err, ErrNoTenant) {
					done <- err
					return
				}
			}
		}()
		<-spinning
		if _, err := s.Register(name, Quotas{}); err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != nil {
			t.Fatalf("Submit racing Register(%q) = %v", name, err)
		}
		if err := s.Unregister(name); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBufferChurnAgainstTenantDelete races buffer alloc/free and
// tenant deletion against tenant creation over the HTTP handler. No
// interleaving may panic, and every runtime buffer must be freed — by
// the tenant's deletion or, for an allocation the deletion overtook,
// by AllocBuffer itself.
func TestBufferChurnAgainstTenantDelete(t *testing.T) {
	s, _ := testServer(t, Options{})
	h := s.Handler()
	base := s.opt.Registry.Total("hstreams_buffers_live")
	for round := 0; round < 400; round++ {
		var deleted atomic.Bool
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { // allocator
			defer wg.Done()
			for !deleted.Load() {
				_, err := s.AllocBuffer("churn", "b", 64)
				switch {
				case err == nil:
					_ = s.FreeBuffer("churn", "b") // fails when the delete freed it first
				case !errors.Is(err, ErrNoTenant) && !errors.Is(err, ErrTenantClosing):
					t.Error(err)
					return
				}
			}
		}()
		go func() { // deleter
			defer wg.Done()
			defer deleted.Store(true)
			for {
				err := s.Unregister("churn")
				if err == nil {
					return
				}
				if !errors.Is(err, ErrNoTenant) {
					t.Error(err)
					return
				}
			}
		}()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/tenants", strings.NewReader(`{"name":"churn"}`)))
		if rec.Code != http.StatusCreated {
			t.Fatalf("round %d: create tenant = %d %s", round, rec.Code, rec.Body)
		}
		wg.Wait()
	}
	if live := s.opt.Registry.Total("hstreams_buffers_live"); live != base {
		t.Fatalf("hstreams_buffers_live = %v after the churn, want baseline %v", live, base)
	}
}

// TestDuplicateAllocBufferOneWinner races same-name AllocBuffers. The
// name check and the table write sit on either side of the runtime
// allocation, so exactly one must win per round, and the losers must
// free their buffers and hand back their reserved quota.
func TestDuplicateAllocBufferOneWinner(t *testing.T) {
	s, _ := testServer(t, Options{})
	if _, err := s.Register("dup", Quotas{}); err != nil {
		t.Fatal(err)
	}
	base := s.opt.Registry.Total("hstreams_buffers_live")
	const racers, size = 8, 4096
	for round := 0; round < 200; round++ {
		start := make(chan struct{})
		var winners atomic.Int64
		var wg sync.WaitGroup
		for i := 0; i < racers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if _, err := s.AllocBuffer("dup", "b", size); err == nil {
					winners.Add(1)
				}
			}()
		}
		close(start)
		wg.Wait()
		if n := winners.Load(); n != 1 {
			t.Fatalf("round %d: %d same-name AllocBuffers succeeded, want 1", round, n)
		}
		if err := s.FreeBuffer("dup", "b"); err != nil {
			t.Fatal(err)
		}
	}
	if live := s.opt.Registry.Total("hstreams_buffers_live"); live != base {
		t.Fatalf("hstreams_buffers_live = %v after every FreeBuffer, want baseline %v", live, base)
	}
	if st := s.Tenants()[0]; st.BufferBytes != 0 || st.Buffers != 0 {
		t.Fatalf("tenant holds %d buffers / %d bytes after every FreeBuffer, want 0 / 0", st.Buffers, st.BufferBytes)
	}
}

// TestSubmitSpawnsNoGoroutine holds n non-waited submits in service on
// a gated kernel: the slots come back from the streams' retire hook,
// so the in-service work must not park a goroutine per request.
func TestSubmitSpawnsNoGoroutine(t *testing.T) {
	const n = 48
	s, rt := testServer(t, Options{MaxInflight: n})
	_, open := gateKernel(t, rt)
	if _, err := s.Register("g", Quotas{}); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	for i := 0; i < n; i++ {
		mustSubmit(t, s, "g", "gate")
	}
	waitStatus(t, s, "g", n, 0)
	grown := runtime.NumGoroutine() - before
	open()
	waitStatus(t, s, "g", 0, 0)
	if grown > n/4 {
		t.Fatalf("%d in-service submits grew the process by %d goroutines, want far fewer", n, grown)
	}
}
