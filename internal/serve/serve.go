// Package serve is the multi-tenant serving front end: an HTTP/JSON
// layer that multiplexes many independent clients onto one hStreams
// runtime. It is the first step from "single-process library" toward
// the ROADMAP's production serving system, and it follows the phased
// rollout shape streaming infrastructure tends to grow through:
//
//	registry → handlers → capability negotiation → shadow mode
//
// The tenant registry tracks each client's stream group, buffers, and
// quotas (registry.go). The handlers expose tenant lifecycle, buffer
// lifecycle, and work submission over HTTP/JSON (handlers.go).
// Capability negotiation lets a client verify the server speaks its
// dialect — kernels, execution mode, protocol version — before
// committing work (GET /v1/capabilities, POST /v1/negotiate). Shadow
// mode runs the full admission, quota, and accounting path without
// touching the runtime, so a new deployment can take mirrored traffic
// and prove its capacity math before it serves for real
// (Options.Shadow).
//
// Admission across tenants is weighted fair-share stride scheduling
// (admission.go): each tenant advances a virtual "pass" by
// strideScale/weight per dispatched action, and whenever an in-service
// slot (there are MaxInflight) is free it goes to the runnable tenant
// with the smallest pass, so under saturation tenants complete work in
// proportion to their weights. That decision is one function run under
// the server lock when a submission arrives and when a slot comes
// back; the submitter it picks enqueues its own action, so nothing
// stands between a request's goroutine and the stream's source end.
// The slot comes back from the tenant streams' retire hook
// (core.Stream.SetRetireHook) as the action retires, so no goroutine
// waits on an in-service action either.
// Within a tenant, work spreads round-robin over its stream group.
// The grant is the only bound on in-service work: an action holds its
// slot until it retires, so no tenant stream's window ever outgrows
// MaxInflight, and a stalled sink backs up into the tenant's pending
// queue (MaxPending, then block or shed) instead of into the process.
//
// The runtime must be in Real mode: Sim mode's virtual clock assumes
// a single host goroutine, which concurrent HTTP handlers violate.
// Shadow mode needs no runtime at all.
package serve

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"hstreams/internal/core"
	"hstreams/internal/metrics"
)

// Protocol version advertised by /v1/capabilities and checked by
// /v1/negotiate.
const protocolVersion = 1

// Serving-layer errors.
var (
	// ErrTenantExists reports a Register for a name already in use.
	ErrTenantExists = errors.New("serve: tenant exists")
	// ErrNoTenant reports an operation on an unknown tenant.
	ErrNoTenant = errors.New("serve: no such tenant")
	// ErrTenantClosing reports a submission to a tenant being deleted.
	ErrTenantClosing = errors.New("serve: tenant closing")
	// ErrPendingFull reports a submission shed because the tenant's
	// pending queue is at MaxPending and its policy is shed.
	ErrPendingFull = errors.New("serve: tenant pending queue full")
	// ErrQuota reports an allocation that would exceed a tenant quota.
	ErrQuota = errors.New("serve: quota exceeded")
	// ErrClosed reports an operation on a closed server.
	ErrClosed = errors.New("serve: server closed")
	// ErrNeedRealMode reports a non-shadow server over a Sim runtime.
	ErrNeedRealMode = errors.New("serve: runtime must be in Real mode (Sim is single-goroutine)")
)

// Options configures New.
type Options struct {
	// Runtime is the hStreams runtime tenants share. Required unless
	// Shadow is set; must be in Real mode.
	Runtime *core.Runtime
	// Registry receives the hstreams_tenant_* metric families. Nil
	// uses metrics.Default().
	Registry *metrics.Registry
	// MaxInflight bounds actions in service across all tenants — the
	// server-wide concurrency the fair-share scheduler divides.
	// Values < 1 default to 8.
	MaxInflight int
	// StreamsPerTenant is the default stream-group size for tenants
	// that do not set Quotas.MaxStreams. Values < 1 default to 2.
	StreamsPerTenant int
	// StreamWidth is the core count granted to each tenant stream.
	// Groups overlap on the host's cores (the paper permits mapping
	// multiple streams onto common resources). Values < 1 default to 1.
	StreamWidth int
	// DefaultMaxPending bounds each tenant's admission queue when
	// Quotas.MaxPending is unset. Values < 1 default to 64.
	DefaultMaxPending int
	// Shadow runs the admission, quota, and accounting path without a
	// runtime: submissions are dispatched and completed immediately,
	// never executed. Deployments use it to validate capacity math on
	// mirrored traffic before serving for real.
	Shadow bool
}

// fill resolves defaults in place.
func (o *Options) fill() {
	if o.Registry == nil {
		o.Registry = metrics.Default()
	}
	if o.MaxInflight < 1 {
		o.MaxInflight = 8
	}
	if o.StreamsPerTenant < 1 {
		o.StreamsPerTenant = 2
	}
	if o.StreamWidth < 1 {
		o.StreamWidth = 1
	}
	if o.DefaultMaxPending < 1 {
		o.DefaultMaxPending = 64
	}
}

// Server is the serving front end. Create one with New, mount
// Handler on an HTTP listener (or call Start), and Close on the way
// out.
type Server struct {
	opt  Options
	rt   *core.Runtime
	mets *tenantMetrics

	// mu guards the tenant table, every tenant's mutable state, the
	// free-slot count and the stride-scheduler pass values. cond
	// broadcasts on a released slot, tenant deletion and shutdown, for
	// a block-policy Submit waiting for pending space and an
	// Unregister waiting for in-service work.
	mu      sync.Mutex
	cond    *sync.Cond
	tenants map[string]*Tenant
	// registering reserves the names of tenants whose stream groups
	// Register is still building; they are not in tenants yet.
	registering map[string]bool
	free        int     // unused in-service capacity, of MaxInflight
	gpass       float64 // pass of the last dispatched tenant
	closed      bool
}

// New builds a serving front end over the given runtime. It starts no
// goroutine: admission runs on the submitters' own.
func New(opt Options) (*Server, error) {
	opt.fill()
	if !opt.Shadow {
		if opt.Runtime == nil {
			return nil, errors.New("serve: Options.Runtime required outside shadow mode")
		}
		if opt.Runtime.Mode() != core.ModeReal {
			return nil, ErrNeedRealMode
		}
	}
	s := &Server{
		opt:         opt,
		rt:          opt.Runtime,
		mets:        newTenantMetrics(opt.Registry),
		tenants:     make(map[string]*Tenant),
		registering: make(map[string]bool),
		free:        opt.MaxInflight,
	}
	s.cond = sync.NewCond(&s.mu)
	return s, nil
}

// Runtime returns the runtime the server multiplexes onto (nil in
// shadow mode).
func (s *Server) Runtime() *core.Runtime { return s.rt }

// Shadow reports whether the server runs in shadow mode.
func (s *Server) Shadow() bool { return s.opt.Shadow }

// Close drains every tenant (waiting for in-service work to retire
// and freeing tenant buffers) and stops admission. The runtime itself
// is not finalized — the caller owns it.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	names := make([]string, 0, len(s.tenants))
	for name := range s.tenants {
		names = append(names, name)
	}
	s.mu.Unlock()
	var firstErr error
	for _, name := range names {
		if err := s.Unregister(name); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	return firstErr
}

// readHeaderTimeout bounds how long a connection may take to send its
// request headers, so a client that never finishes them cannot hold a
// connection open for good.
const readHeaderTimeout = 10 * time.Second

// Listener is a running serving endpoint bound to a TCP address.
type Listener struct {
	s   *Server
	ln  net.Listener
	srv *http.Server
}

// Start binds addr (port 0 picks a free port) and serves the API in a
// background goroutine until Close.
func Start(addr string, opt Options) (*Listener, error) {
	s, err := New(opt)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		s.Close()
		return nil, err
	}
	l := &Listener{s: s, ln: ln, srv: &http.Server{Handler: s.Handler(), ReadHeaderTimeout: readHeaderTimeout}}
	go func() { _ = l.srv.Serve(ln) }()
	return l, nil
}

// Addr returns the bound address, useful when Start was given port 0.
func (l *Listener) Addr() string { return l.ln.Addr().String() }

// Server returns the serving front end behind the listener.
func (l *Listener) Server() *Server { return l.s }

// Close stops the HTTP listener, then drains and closes the server.
func (l *Listener) Close() error {
	_ = l.srv.Close()
	return l.s.Close()
}

// String renders the server's shape for logs.
func (s *Server) String() string {
	mode := "real"
	if s.opt.Shadow {
		mode = "shadow"
	}
	return fmt.Sprintf("serve(%s, inflight=%d)", mode, s.opt.MaxInflight)
}
