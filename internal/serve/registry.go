package serve

import (
	"fmt"
	"sort"

	"hstreams/internal/core"
	"hstreams/internal/metrics"
)

// Quotas bounds one tenant's footprint on the shared runtime. Zero
// values take the server defaults (Options); Weight additionally
// drives the fair-share scheduler.
type Quotas struct {
	// Weight is the tenant's fair-share weight: under saturation,
	// tenants complete work in proportion to their weights. Values
	// < 1 default to 1.
	Weight int `json:"weight"`
	// MaxStreams is the tenant's stream-group size. 0 takes
	// Options.StreamsPerTenant.
	MaxStreams int `json:"max_streams,omitempty"`
	// MaxBufferBytes caps the tenant's total live buffer bytes.
	// 0 means unlimited.
	MaxBufferBytes int64 `json:"max_buffer_bytes,omitempty"`
	// QueueDepth bounds each tenant stream's incomplete-action
	// window. 0 takes Options.DefaultQueueDepth.
	QueueDepth int `json:"queue_depth,omitempty"`
	// OnFull picks the behavior when the tenant's pending queue is at
	// MaxPending: "block" (backpressure the submitter; the default)
	// or "shed" (fail fast with 429 / ErrPendingFull). Tenant streams
	// always shed at QueueDepth — a submitter never parks on a full
	// stream while it holds an in-service slot.
	OnFull string `json:"on_full,omitempty"`
	// MaxPending bounds submissions admitted but not yet dispatched.
	// 0 takes Options.DefaultMaxPending.
	MaxPending int `json:"max_pending,omitempty"`
}

// Tenant is one registered client: a stream group, a buffer set, and
// an admission queue, all bounded by its Quotas. All mutable state is
// guarded by the server's lock.
type Tenant struct {
	name    string
	q       Quotas
	streams []*core.Stream
	next    int // round-robin cursor over streams
	bufs    map[string]tenantBuf
	// bufBytes tracks live buffer bytes against MaxBufferBytes.
	bufBytes int64

	pending  []*submission
	inflight int
	closing  bool

	// pass is the stride-scheduler virtual time: it advances by
	// strideScale/Weight per dispatch, and the runnable tenant with
	// the smallest pass is served next.
	pass float64

	// Resolved per-tenant metric handles.
	mActions  *metrics.Counter
	mInflight *metrics.Gauge
	mPending  *metrics.Gauge
	mBufBytes *metrics.Gauge
	mStreams  *metrics.Gauge
	mWeight   *metrics.Gauge
	mWait     *metrics.Histogram
}

// tenantBuf is one entry of a tenant's buffer table.
type tenantBuf struct {
	b    *core.Buf // nil in shadow mode, where only the accounting exists
	size int64
}

// TenantStatus is a point-in-time snapshot of one tenant, served by
// GET /v1/tenants and /debug/tenants.
type TenantStatus struct {
	// Name is the tenant's registered name.
	Name string `json:"name"`
	// Quotas echoes the tenant's resolved quota set.
	Quotas Quotas `json:"quotas"`
	// Streams lists the tenant's stream names.
	Streams []string `json:"streams"`
	// Buffers counts the tenant's live buffers.
	Buffers int `json:"buffers"`
	// BufferBytes is the tenant's live buffer footprint.
	BufferBytes int64 `json:"buffer_bytes"`
	// Pending counts admitted-but-undispatched submissions.
	Pending int `json:"pending"`
	// Inflight counts dispatched-but-incomplete submissions.
	Inflight int `json:"inflight"`
	// Actions is the tenant's completed-action total.
	Actions int64 `json:"actions"`
	// Pass is the stride scheduler's virtual time for the tenant —
	// runnable tenants are served smallest-pass first.
	Pass float64 `json:"pass"`
	// Closing reports a tenant mid-deletion.
	Closing bool `json:"closing,omitempty"`
}

// Register creates a tenant with the given quotas and builds its
// stream group. Stream groups overlap on the serving domain's cores;
// isolation is by admission, not by core partitioning. The name is
// reserved from the start, but the tenant becomes visible — to Submit,
// AllocBuffer, Unregister and status — only once its group is
// complete.
func (s *Server) Register(name string, q Quotas) (*Tenant, error) {
	if name == "" {
		return nil, fmt.Errorf("serve: empty tenant name")
	}
	if q.Weight < 1 {
		q.Weight = 1
	}
	if q.MaxStreams < 1 {
		q.MaxStreams = s.opt.StreamsPerTenant
	}
	if q.QueueDepth < 1 {
		q.QueueDepth = s.opt.DefaultQueueDepth
	}
	if q.MaxPending < 1 {
		q.MaxPending = s.opt.DefaultMaxPending
	}
	switch q.OnFull {
	case "":
		q.OnFull = "block"
	case "block", "shed":
	default:
		return nil, fmt.Errorf("serve: bad on_full %q (want block or shed)", q.OnFull)
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	if _, ok := s.tenants[name]; ok || s.registering[name] {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrTenantExists, name)
	}
	s.registering[name] = true
	s.mu.Unlock()

	t := &Tenant{
		name:      name,
		q:         q,
		bufs:      make(map[string]tenantBuf),
		mActions:  s.mets.actions.With(name),
		mInflight: s.mets.inflight.With(name),
		mPending:  s.mets.pending.With(name),
		mBufBytes: s.mets.bufBytes.With(name),
		mStreams:  s.mets.streams.With(name),
		mWeight:   s.mets.weight.With(name),
		mWait:     s.mets.wait.With(name),
	}
	var err error
	// Submit is the only code that enqueues into tenant streams, so
	// every action they retire holds an in-service slot of t's: the
	// retire hook counts it and returns the slot.
	retire := func(*core.Action) {
		t.mActions.Inc()
		s.release(t)
	}
	for i := 0; s.rt != nil && i < q.MaxStreams; i++ {
		st, cerr := s.rt.StreamCreate(s.domain, 0, s.opt.StreamWidth)
		if cerr != nil {
			err = fmt.Errorf("serve: creating stream %d for %q: %w", i, name, cerr)
			break
		}
		// Tenant streams always shed at the bound: a submitter parked
		// on a full stream would sit on its in-service slot doing no
		// work, and every other tenant's grant waits for that slot.
		st.SetQueueBound(q.QueueDepth, core.QueueShed)
		st.SetRetireHook(retire)
		t.streams = append(t.streams, st)
	}

	s.mu.Lock()
	delete(s.registering, name)
	if err == nil && s.closed {
		err = ErrClosed
	}
	if err == nil {
		// A fresh tenant starts at the global pass so it cannot burn
		// banked credit against incumbents.
		t.pass = s.gpass
		t.mWeight.Set(int64(q.Weight))
		t.mStreams.Set(int64(len(t.streams)))
		s.tenants[name] = t
	}
	s.mu.Unlock()
	if err != nil {
		for _, st := range t.streams {
			_ = st.Destroy() // nothing was ever enqueued; err already says why
		}
		s.mets.deleteTenant(name) // the name is still reserved to this call
		return nil, err
	}
	return t, nil
}

// Unregister drains and deletes a tenant: new submissions are
// refused, pending ones are shed, in-service ones retire, its
// hstreams_tenant_* rows leave the registry, streams are destroyed,
// and every tenant buffer is freed.
func (s *Server) Unregister(name string) error {
	s.mu.Lock()
	t, err := s.tenantLocked(name)
	if err != nil {
		s.mu.Unlock()
		return err
	}
	t.closing = true
	// Shed everything still waiting for dispatch.
	for _, sub := range t.pending {
		sub.err = fmt.Errorf("%w: %q", ErrTenantClosing, name)
		close(sub.wake)
		s.mets.shed.With(name, "tenant-closing").Inc()
	}
	t.pending = nil
	t.mPending.Set(0)
	s.cond.Broadcast() // Submits blocked on this tenant's pending space see closing
	// Wait for in-service submissions to retire.
	for t.inflight > 0 {
		s.cond.Wait()
	}
	delete(s.tenants, name)
	s.mets.deleteTenant(name)
	bufs := t.bufs
	t.bufs = nil
	streams := t.streams
	s.mu.Unlock()

	var firstErr error
	for _, st := range streams {
		if err := st.Destroy(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for _, tb := range bufs {
		if tb.b != nil {
			if err := tb.b.Free(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

// tenantLocked resolves a live tenant by name. Caller holds s.mu.
func (s *Server) tenantLocked(name string) (*Tenant, error) {
	t, ok := s.tenants[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoTenant, name)
	}
	if t.closing {
		return nil, fmt.Errorf("%w: %q", ErrTenantClosing, name)
	}
	return t, nil
}

// Tenants snapshots every tenant's status, sorted by name — the
// payload behind GET /v1/tenants and the debug server's
// /debug/tenants.
func (s *Server) Tenants() []TenantStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]TenantStatus, 0, len(s.tenants))
	for _, t := range s.tenants {
		out = append(out, s.statusLocked(t))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// statusLocked snapshots one tenant. Caller holds s.mu.
func (s *Server) statusLocked(t *Tenant) TenantStatus {
	st := TenantStatus{
		Name:        t.name,
		Quotas:      t.q,
		Buffers:     len(t.bufs),
		BufferBytes: t.bufBytes,
		Pending:     len(t.pending),
		Inflight:    t.inflight,
		Actions:     t.mActions.Value(),
		Pass:        t.pass,
		Closing:     t.closing,
	}
	for _, str := range t.streams {
		st.Streams = append(st.Streams, str.Name())
	}
	return st
}

// AllocBuffer creates a named buffer owned by the tenant, counted
// against its MaxBufferBytes quota. In shadow mode only the
// accounting exists.
func (s *Server) AllocBuffer(tenant, name string, size int64) (*core.Buf, error) {
	if size <= 0 {
		return nil, core.ErrBadBufferSize
	}
	s.mu.Lock()
	t, err := s.tenantLocked(tenant)
	if err != nil {
		s.mu.Unlock()
		return nil, err
	}
	if _, ok := t.bufs[name]; ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("serve: buffer %q exists for tenant %q", name, tenant)
	}
	if t.q.MaxBufferBytes > 0 && t.bufBytes+size > t.q.MaxBufferBytes {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: tenant %q buffer bytes %d+%d > %d",
			ErrQuota, tenant, t.bufBytes, size, t.q.MaxBufferBytes)
	}
	// Reserve the quota before the (lock-free) runtime allocation so
	// concurrent allocs cannot oversubscribe it.
	t.bufBytes += size
	s.mu.Unlock()

	var b *core.Buf
	if s.rt != nil {
		b, err = s.rt.Alloc1D(tenant+"/"+name, size)
	}
	s.mu.Lock()
	if err == nil && t.closing {
		// Unregister ran during the allocation and will not see this
		// buffer: hand it back here.
		err = fmt.Errorf("%w: %q", ErrTenantClosing, tenant)
	}
	if _, ok := t.bufs[name]; err == nil && ok {
		// A concurrent AllocBuffer of the same name won the race while
		// s.mu was dropped: keep its buffer, hand this one back.
		err = fmt.Errorf("serve: buffer %q exists for tenant %q", name, tenant)
	}
	if err != nil {
		t.bufBytes -= size
	} else {
		t.bufs[name] = tenantBuf{b, size}
	}
	s.mu.Unlock()
	if err != nil {
		if b != nil {
			_ = b.Free() // fresh and unreferenced; err already says why
		}
		return nil, err
	}
	t.mBufBytes.Add(size)
	return b, nil
}

// FreeBuffer frees a tenant buffer and returns its bytes to the
// quota. Reclamation defers until in-flight references retire (see
// core.Buf.Free); the quota is returned immediately — the tenant
// committed to the free.
func (s *Server) FreeBuffer(tenant, name string) error {
	s.mu.Lock()
	t, err := s.tenantLocked(tenant)
	if err != nil {
		s.mu.Unlock()
		return err
	}
	tb, ok := t.bufs[name]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("serve: no buffer %q for tenant %q", name, tenant)
	}
	delete(t.bufs, name)
	t.bufBytes -= tb.size
	s.mu.Unlock()
	t.mBufBytes.Add(-tb.size)
	if tb.b != nil {
		return tb.b.Free()
	}
	return nil
}
