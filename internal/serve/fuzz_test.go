package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"hstreams/internal/core"
	"hstreams/internal/metrics"
	"hstreams/internal/platform"
)

// fuzzEndpoints are the request decoders FuzzServeRequests drives,
// chosen by the input's selector byte.
var fuzzEndpoints = [...]string{
	"/v1/tenants",
	"/v1/tenants/t/buffers",
	"/v1/tenants/t/submit",
	"/v1/negotiate",
}

// FuzzServeRequests sends a raw body to one of the serving API's
// decoding endpoints on a fresh Real host-only server holding tenant
// "t" with buffer "b". Every status must be one the API documents, no
// handler may answer 5xx, every error body must be the {"error": ...}
// envelope, and afterwards every tenant's buffer_bytes must equal the
// sum of its live buffers' sizes.
func FuzzServeRequests(f *testing.F) {
	for _, seed := range []struct {
		sel  byte
		body string
	}{
		{0, `{"name":"u","weight":2,"max_pending":4}`},
		{0, `{"name":"t"}`},
		{0, `{"name":""}`},
		{0, `{"name":"u","max_streams":1000000000}`},
		{1, `{"name":"c","size":4096}`},
		{1, `{"name":"b","size":16}`},
		{1, `{"name":"big","size":1048577}`},
		{1, `{"name":"neg","size":-1}`},
		{2, `{"kernel":"fill","args":[7],"buffers":[{"name":"b","access":"out"}],"wait":true}`},
		{2, `{"kernel":"fill","buffers":[{"name":"b","off":4000,"len":200}]}`},
		{2, `{"kernel":"fill","buffers":[{"name":"b","off":-8,"len":-8}],"wait":true}`},
		{2, `{"kernel":"nope","wait":true}`},
		{3, `{"version":1,"kernels":["fill"],"mode":"real"}`},
		{3, `{"version":99,"kernels":["dgemm"]}`},
		{3, `{"mode":"shadow"}`},
		{2, `{"kernel":`},
		{3, `[]`},
		{0, `{"name":"a"} trailing garbage`},
		{0, `{"name":"b"}{"name":"c"}`},
	} {
		f.Add(seed.sel, []byte(seed.body))
	}
	f.Fuzz(func(t *testing.T, sel byte, body []byte) {
		reg := metrics.New()
		rt, err := core.Init(core.Config{
			Machine: platform.HSWPlusKNC(0), Mode: core.ModeReal, Metrics: reg,
			DisableCausalTrace: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Fini()
		rt.RegisterKernel("fill", func(ctx *core.KernelCtx) {
			for _, op := range ctx.Ops {
				for i := range op {
					op[i] = 1
				}
			}
		})
		s, err := New(Options{Runtime: rt, Registry: reg, MaxInflight: 2, StreamsPerTenant: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if _, err := s.Register("t", Quotas{MaxBufferBytes: 1 << 20, MaxPending: 2}); err != nil {
			t.Fatal(err)
		}
		if _, err := s.AllocBuffer("t", "b", 4096); err != nil {
			t.Fatal(err)
		}

		path := fuzzEndpoints[int(sel)%len(fuzzEndpoints)]
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK, http.StatusCreated:
		case http.StatusBadRequest, http.StatusNotFound, http.StatusConflict, http.StatusGone,
			http.StatusRequestEntityTooLarge, http.StatusTooManyRequests:
			var p errorPayload
			if err := json.Unmarshal(rec.Body.Bytes(), &p); err != nil || p.Error == "" {
				t.Fatalf("POST %s %q: %d body %q is not the error envelope", path, body, rec.Code, rec.Body)
			}
		default:
			t.Fatalf("POST %s %q: undocumented status %d: %s", path, body, rec.Code, rec.Body)
		}

		s.mu.Lock()
		defer s.mu.Unlock()
		for name, tn := range s.tenants {
			var live int64
			for _, tb := range tn.bufs {
				live += tb.b.Size()
			}
			if tn.bufBytes != live {
				t.Fatalf("POST %s %q: tenant %q buffer_bytes %d, live buffers hold %d", path, body, name, tn.bufBytes, live)
			}
		}
	})
}
