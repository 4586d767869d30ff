package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"hstreams/internal/core"
)

// Handler returns the serving API mux:
//
//	GET    /v1/capabilities                        server capability document
//	POST   /v1/negotiate                           capability negotiation
//	GET    /v1/tenants                             list tenant status
//	POST   /v1/tenants                             register a tenant
//	GET    /v1/tenants/{tenant}                    one tenant's status
//	DELETE /v1/tenants/{tenant}                    drain and delete a tenant
//	POST   /v1/tenants/{tenant}/buffers            allocate a tenant buffer
//	DELETE /v1/tenants/{tenant}/buffers/{buffer}   free a tenant buffer
//	POST   /v1/tenants/{tenant}/submit             submit a compute action
//	GET    /metrics                                the metrics registry
//	GET    /healthz                                liveness (500 on runtime error)
//
// Everything speaks JSON; errors come back as {"error": "..."} with
// 404 (no tenant/buffer), 409 (exists / negotiation failed), 413
// (quota, or a body over maxBodyBytes), 429 (shed), or 400.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/capabilities", s.handleCapabilities)
	mux.HandleFunc("POST /v1/negotiate", s.handleNegotiate)
	mux.HandleFunc("GET /v1/tenants", s.handleListTenants)
	mux.HandleFunc("POST /v1/tenants", s.handleCreateTenant)
	mux.HandleFunc("GET /v1/tenants/{tenant}", s.handleGetTenant)
	mux.HandleFunc("DELETE /v1/tenants/{tenant}", s.handleDeleteTenant)
	mux.HandleFunc("POST /v1/tenants/{tenant}/buffers", s.handleAllocBuffer)
	mux.HandleFunc("DELETE /v1/tenants/{tenant}/buffers/{buffer}", s.handleFreeBuffer)
	mux.HandleFunc("POST /v1/tenants/{tenant}/submit", s.handleSubmit)
	mux.Handle("GET /metrics", s.opt.Registry)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

// writeJSON renders v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// errorPayload is the JSON error envelope.
type errorPayload struct {
	// Error is the failure rendered as text.
	Error string `json:"error"`
	// Reason is a machine-readable cause for shed responses
	// (pending-full).
	Reason string `json:"reason,omitempty"`
}

// writeErr maps serving errors onto HTTP statuses.
func writeErr(w http.ResponseWriter, err error) {
	p := errorPayload{Error: err.Error()}
	status := http.StatusBadRequest
	switch {
	case errors.Is(err, ErrNoTenant):
		status = http.StatusNotFound
	case errors.Is(err, ErrTenantExists):
		status = http.StatusConflict
	case errors.Is(err, ErrPendingFull):
		status, p.Reason = http.StatusTooManyRequests, "pending-full"
	case errors.Is(err, ErrQuota), errors.As(err, new(*http.MaxBytesError)):
		status = http.StatusRequestEntityTooLarge
	case errors.Is(err, ErrTenantClosing), errors.Is(err, ErrClosed):
		status = http.StatusConflict
	case errors.Is(err, core.ErrBufferFreed):
		status = http.StatusGone
	case errors.Is(err, core.ErrNoKernel):
		status = http.StatusNotFound
	}
	writeJSON(w, status, p)
}

// maxBodyBytes caps every request body. The largest legitimate body,
// a submit naming many operands, is a few kilobytes.
const maxBodyBytes = 1 << 20

// errTrailingData refuses a body that holds more than one JSON value.
var errTrailingData = errors.New("request body has data after the JSON value")

// decode parses the request body into v, refusing bodies over
// maxBodyBytes with an *http.MaxBytesError and anything but whitespace
// after the first JSON value with errTrailingData, so a second object
// is never silently dropped.
func decode(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	switch _, err := dec.Token(); {
	case err == io.EOF:
		return nil
	case errors.As(err, new(*http.MaxBytesError)):
		return err
	}
	return errTrailingData
}

// capabilityDoc is the GET /v1/capabilities response: what this
// server can do, for clients to negotiate against.
type capabilityDoc struct {
	// Version is the serving protocol version.
	Version int `json:"version"`
	// Mode is "real" or "shadow".
	Mode string `json:"mode"`
	// MaxInflight is the server-wide in-service bound.
	MaxInflight int `json:"max_inflight"`
	// StreamsPerTenant is the default stream-group size.
	StreamsPerTenant int `json:"streams_per_tenant"`
	// Kernels lists the registered kernel names (empty in shadow).
	Kernels []string `json:"kernels"`
	// Domains lists the runtime's domains (empty in shadow).
	Domains []domainDoc `json:"domains,omitempty"`
}

// domainDoc describes one runtime domain in the capability document.
type domainDoc struct {
	// Name is the domain name.
	Name string `json:"name"`
	// Cores is the domain's core count.
	Cores int `json:"cores"`
}

// capabilities builds the server's capability document.
func (s *Server) capabilities() capabilityDoc {
	doc := capabilityDoc{
		Version:          protocolVersion,
		Mode:             "real",
		MaxInflight:      s.opt.MaxInflight,
		StreamsPerTenant: s.opt.StreamsPerTenant,
		Kernels:          []string{},
	}
	if s.opt.Shadow {
		doc.Mode = "shadow"
	}
	if s.rt != nil {
		doc.Kernels = s.rt.Kernels()
		for _, d := range s.rt.Domains() {
			doc.Domains = append(doc.Domains, domainDoc{Name: d.Spec().Name, Cores: d.Spec().Cores()})
		}
	}
	return doc
}

func (s *Server) handleCapabilities(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.capabilities())
}

// negotiateRequest is what a client requires of the server.
type negotiateRequest struct {
	// Version is the protocol version the client speaks; 0 accepts any.
	Version int `json:"version,omitempty"`
	// Kernels are kernel names the client will submit.
	Kernels []string `json:"kernels,omitempty"`
	// Mode, when set, requires "real" or "shadow" execution.
	Mode string `json:"mode,omitempty"`
}

// negotiateResponse reports whether the server satisfies the client.
type negotiateResponse struct {
	// OK is true when every requirement is met.
	OK bool `json:"ok"`
	// Error is set when OK is false, so the 409 carries the error
	// envelope every failed request does; MissingKernels and Mismatch
	// say why.
	Error string `json:"error,omitempty"`
	// MissingKernels lists required kernels the server lacks.
	MissingKernels []string `json:"missing_kernels,omitempty"`
	// Mismatch describes a version or mode mismatch.
	Mismatch string `json:"mismatch,omitempty"`
	// Capabilities echoes the full capability document so one round
	// trip suffices.
	Capabilities capabilityDoc `json:"capabilities"`
}

func (s *Server) handleNegotiate(w http.ResponseWriter, r *http.Request) {
	var req negotiateRequest
	if err := decode(w, r, &req); err != nil {
		writeErr(w, fmt.Errorf("serve: bad negotiate body: %w", err))
		return
	}
	caps := s.capabilities()
	resp := negotiateResponse{OK: true, Capabilities: caps}
	if req.Version != 0 && req.Version != caps.Version {
		resp.OK = false
		resp.Mismatch = fmt.Sprintf("version %d != %d", req.Version, caps.Version)
	}
	if req.Mode != "" && req.Mode != caps.Mode {
		resp.OK = false
		resp.Mismatch = fmt.Sprintf("mode %q != %q", req.Mode, caps.Mode)
	}
	have := make(map[string]bool, len(caps.Kernels))
	for _, k := range caps.Kernels {
		have[k] = true
	}
	for _, k := range req.Kernels {
		// Shadow mode executes nothing, so every kernel "exists".
		if !have[k] && !s.opt.Shadow {
			resp.OK = false
			resp.MissingKernels = append(resp.MissingKernels, k)
		}
	}
	status := http.StatusOK
	if !resp.OK {
		status, resp.Error = http.StatusConflict, "serve: negotiation failed"
	}
	writeJSON(w, status, resp)
}

// createTenantRequest is the POST /v1/tenants body.
type createTenantRequest struct {
	// Name is the tenant's unique name.
	Name string `json:"name"`
	// Quotas configures the tenant's bounds; zero fields take server
	// defaults.
	Quotas
}

func (s *Server) handleCreateTenant(w http.ResponseWriter, r *http.Request) {
	var req createTenantRequest
	if err := decode(w, r, &req); err != nil {
		writeErr(w, fmt.Errorf("serve: bad tenant body: %w", err))
		return
	}
	t, err := s.Register(req.Name, req.Quotas)
	if err != nil {
		writeErr(w, err)
		return
	}
	s.mu.Lock()
	st := s.statusLocked(t)
	s.mu.Unlock()
	writeJSON(w, http.StatusCreated, st)
}

func (s *Server) handleListTenants(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Tenants())
}

func (s *Server) handleGetTenant(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("tenant")
	s.mu.Lock()
	t, ok := s.tenants[name]
	var st TenantStatus
	if ok {
		st = s.statusLocked(t)
	}
	s.mu.Unlock()
	if !ok {
		writeErr(w, fmt.Errorf("%w: %q", ErrNoTenant, name))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleDeleteTenant(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("tenant")
	if err := s.Unregister(name); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"deleted": name})
}

// allocBufferRequest is the POST /v1/tenants/{tenant}/buffers body.
type allocBufferRequest struct {
	// Name is the buffer's tenant-unique name.
	Name string `json:"name"`
	// Size is the buffer length in bytes.
	Size int64 `json:"size"`
}

// bufferResponse describes an allocated buffer.
type bufferResponse struct {
	// Name is the buffer's tenant-scoped name.
	Name string `json:"name"`
	// Size is the buffer length in bytes.
	Size int64 `json:"size"`
	// ProxyBase is the buffer's source proxy base address (0 in
	// shadow mode).
	ProxyBase uint64 `json:"proxy_base"`
}

func (s *Server) handleAllocBuffer(w http.ResponseWriter, r *http.Request) {
	tenant := r.PathValue("tenant")
	var req allocBufferRequest
	if err := decode(w, r, &req); err != nil {
		writeErr(w, fmt.Errorf("serve: bad buffer body: %w", err))
		return
	}
	b, err := s.AllocBuffer(tenant, req.Name, req.Size)
	if err != nil {
		writeErr(w, err)
		return
	}
	resp := bufferResponse{Name: req.Name, Size: req.Size}
	if b != nil {
		resp.ProxyBase = b.ProxyBase()
	}
	writeJSON(w, http.StatusCreated, resp)
}

func (s *Server) handleFreeBuffer(w http.ResponseWriter, r *http.Request) {
	tenant := r.PathValue("tenant")
	if err := s.FreeBuffer(tenant, r.PathValue("buffer")); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"freed": r.PathValue("buffer")})
}

// submitRequest is the POST /v1/tenants/{tenant}/submit body.
type submitRequest struct {
	// Kernel names the registered kernel to invoke.
	Kernel string `json:"kernel"`
	// Args are the kernel's scalar arguments.
	Args []int64 `json:"args,omitempty"`
	// Buffers declare the action's memory operands.
	Buffers []operandRef `json:"buffers,omitempty"`
	// Wait, when true, holds the response until the action completes.
	Wait bool `json:"wait,omitempty"`
}

// operandRef names a tenant buffer range and its access mode.
type operandRef struct {
	// Name is the tenant buffer's name.
	Name string `json:"name"`
	// Access is "in", "out", or "inout" (default "inout").
	Access string `json:"access,omitempty"`
	// Off/Len select a byte range; Len 0 means the whole buffer.
	Off int64 `json:"off,omitempty"`
	Len int64 `json:"len,omitempty"`
}

// submitResponse reports a submission's outcome.
type submitResponse struct {
	// Status is "done" (wait or shadow) or "accepted".
	Status string `json:"status"`
	// Action is the launched action's id (0 in shadow mode).
	Action uint64 `json:"action,omitempty"`
	// ElapsedNS is submit-to-completion time for waited submissions.
	ElapsedNS int64 `json:"elapsed_ns,omitempty"`
	// Error carries the action's execution error for waited
	// submissions that failed.
	Error string `json:"error,omitempty"`
}

// resolveOps turns a live tenant's operand references into core
// operands.
func (s *Server) resolveOps(tenant string, refs []operandRef) ([]core.Operand, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, err := s.tenantLocked(tenant)
	if err != nil {
		return nil, err
	}
	ops := make([]core.Operand, 0, len(refs))
	for _, ref := range refs {
		tb, ok := t.bufs[ref.Name]
		if !ok {
			return nil, fmt.Errorf("serve: no buffer %q for tenant %q", ref.Name, tenant)
		}
		acc := core.InOut
		switch ref.Access {
		case "", "inout":
		case "in":
			acc = core.In
		case "out":
			acc = core.Out
		default:
			return nil, fmt.Errorf("serve: bad access %q (want in, out, or inout)", ref.Access)
		}
		n := ref.Len
		if n == 0 {
			n = tb.b.Size() - ref.Off
		}
		ops = append(ops, core.Operand{Buf: tb.b, Off: ref.Off, Len: n, Acc: acc})
	}
	return ops, nil
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	tenant := r.PathValue("tenant")
	var req submitRequest
	if err := decode(w, r, &req); err != nil {
		writeErr(w, fmt.Errorf("serve: bad submit body: %w", err))
		return
	}
	var ops []core.Operand
	if !s.opt.Shadow && len(req.Buffers) > 0 {
		var err error
		if ops, err = s.resolveOps(tenant, req.Buffers); err != nil {
			writeErr(w, err)
			return
		}
	}
	start := time.Now()
	a, err := s.Submit(r.Context(), tenant, SubmitRequest{Kernel: req.Kernel, Args: req.Args, Ops: ops})
	if err != nil {
		writeErr(w, err)
		return
	}
	resp := submitResponse{Status: "done"}
	switch {
	case a == nil: // shadow: dispatch is completion
	case req.Wait:
		if werr := a.Wait(); werr != nil {
			resp.Error = werr.Error()
		}
		resp.Action = a.ID()
		resp.ElapsedNS = time.Since(start).Nanoseconds()
	default:
		resp.Status = "accepted"
		resp.Action = a.ID()
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.rt != nil {
		if err := s.rt.Err(); err != nil {
			writeJSON(w, http.StatusInternalServerError, errorPayload{Error: err.Error()})
			return
		}
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
