package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hstreams/internal/core"
	"hstreams/internal/metrics"
	"hstreams/internal/telemetry"
)

// serveReq runs one request through the handler in process and
// returns the status.
func serveReq(h http.Handler, method, path, body string) int {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	return rec.Code
}

// TestUnknownTenantCreatesNoSeries pins that requests naming a tenant
// that does not exist are answered 404 without adding a registry
// series: a scan of bogus names must not grow the registry (or, in
// hsserve, the telemetry store behind it).
func TestUnknownTenantCreatesNoSeries(t *testing.T) {
	reg := metrics.New()
	s, err := New(Options{Shadow: true, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	before := len(reg.Snapshot())
	for i := 0; i < 50; i++ {
		name := fmt.Sprintf("/v1/tenants/bogus-%d", i)
		for _, r := range []struct{ method, path, body string }{
			{"POST", name + "/submit", `{"kernel":"k"}`},
			{"POST", name + "/buffers", `{"name":"b","size":8}`},
			{"DELETE", name + "/buffers/b", ""},
			{"DELETE", name, ""},
		} {
			if st := serveReq(h, r.method, r.path, r.body); st != http.StatusNotFound {
				t.Fatalf("%s %s = %d, want 404", r.method, r.path, st)
			}
		}
	}
	if after := len(reg.Snapshot()); after != before {
		t.Fatalf("registry grew from %d to %d samples on requests for unknown tenants", before, after)
	}
}

// TestTenantChurnLeavesNoSeries churns short-lived tenants through the
// HTTP API beside two standing ones while a sampler runs at synthetic
// times, and checks that one window after the churn the registry and
// the telemetry store are back at the standing tenants' baseline. It
// runs on a Shadow server and on a Real runtime, where each tenant
// also creates a stream group whose streams and per-stream core series
// must leave with the tenant.
func TestTenantChurnLeavesNoSeries(t *testing.T) {
	t.Run("shadow", func(t *testing.T) {
		reg := metrics.New()
		s, err := New(Options{Shadow: true, Registry: reg})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		checkChurnLeavesNoSeries(t, s, reg)
	})
	t.Run("real", func(t *testing.T) {
		s, rt := testServer(t, Options{})
		rt.RegisterKernel("k", func(*core.KernelCtx) {})
		checkChurnLeavesNoSeries(t, s, rt.Metrics())
		// The churned tenants' streams left the runtime with them:
		// only alpha's and beta's four remain.
		var names []string
		for _, ss := range rt.Status().Streams {
			names = append(names, ss.Name)
		}
		if len(names) != 4 {
			t.Fatalf("runtime lists %d streams after churn, want the standing tenants' 4", len(names))
		}
		host := rt.Host().Spec().Name
		if want := fmt.Sprintf("[%[1]s.s0 %[1]s.s1 %[1]s.s2 %[1]s.s3]", host); fmt.Sprint(names) != want {
			t.Fatalf("runtime lists streams %v after churn, want %s", names, want)
		}
		if got := rt.Metrics().Total("hstreams_domain_streams"); got != 4 {
			t.Fatalf("hstreams_domain_streams = %v after churn, want 4", got)
		}
	})
}

// checkChurnLeavesNoSeries is TestTenantChurnLeavesNoSeries over one
// server and the registry it reports into.
func checkChurnLeavesNoSeries(t *testing.T, s *Server, reg *metrics.Registry) {
	h := s.Handler()
	st := telemetry.NewStore(10*time.Second, 40)
	sam := telemetry.NewSampler(telemetry.SamplerOptions{Registry: reg, Store: st, Interval: time.Hour})
	now := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	tick := func() {
		now = now.Add(250 * time.Millisecond)
		sam.SampleOnce(now)
	}
	// use drives one tenant through every endpoint that creates a row.
	use := func(name string) {
		for _, r := range []struct {
			method, path, body string
			want               int
		}{
			{"POST", "/v1/tenants", `{"name":"` + name + `"}`, http.StatusCreated},
			{"POST", "/v1/tenants/" + name + "/buffers", `{"name":"b","size":64}`, http.StatusCreated},
			{"POST", "/v1/tenants/" + name + "/submit", `{"kernel":"k","wait":true}`, http.StatusOK},
			{"DELETE", "/v1/tenants/" + name + "/buffers/b", "", http.StatusOK},
		} {
			if got := serveReq(h, r.method, r.path, r.body); got != r.want {
				t.Fatalf("%s %s = %d, want %d", r.method, r.path, got, r.want)
			}
		}
	}
	use("alpha")
	use("beta")
	tick()
	baseSamples, baseHists, baseSeries := len(reg.Snapshot()), len(reg.SnapshotHistograms()), st.Len()

	for i := 0; i < 300; i++ {
		name := fmt.Sprintf("churn-%d", i)
		use(name)
		tick() // the store sees the short-lived tenant's rows
		if got := serveReq(h, "DELETE", "/v1/tenants/"+name, ""); got != http.StatusOK {
			t.Fatalf("DELETE tenant %s = %d", name, got)
		}
	}
	if got := st.Len(); got <= baseSeries {
		t.Fatalf("store holds %d series during churn, want more than the baseline %d", got, baseSeries)
	}
	if got := len(reg.Snapshot()); got != baseSamples {
		t.Fatalf("registry holds %d samples after churn, want the standing baseline %d", got, baseSamples)
	}
	if got := len(reg.SnapshotHistograms()); got != baseHists {
		t.Fatalf("registry holds %d histograms after churn, want %d", got, baseHists)
	}
	for end := now.Add(st.Window()); !now.After(end); {
		tick()
	}
	if got := st.Len(); got != baseSeries {
		t.Fatalf("store holds %d series one window after churn, want the standing baseline %d", got, baseSeries)
	}
}
