package serve

import "hstreams/internal/metrics"

// tenantMetrics holds the hstreams_tenant_* families the serving
// layer reports into. Per-tenant handles resolve once at Register
// (Tenant.m*), so steady-state accounting is atomic adds.
type tenantMetrics struct {
	actions  *metrics.CounterVec   // tenant: completed actions
	shed     *metrics.CounterVec   // tenant, reason: refused submissions
	inflight *metrics.GaugeVec     // tenant: dispatched, not yet retired
	pending  *metrics.GaugeVec     // tenant: admitted, not yet dispatched
	bufBytes *metrics.GaugeVec     // tenant: live buffer bytes
	weight   *metrics.GaugeVec     // tenant: fair-share weight
	wait     *metrics.HistogramVec // tenant: admission wait (submit→dispatch)
}

func newTenantMetrics(reg *metrics.Registry) *tenantMetrics {
	return &tenantMetrics{
		actions:  reg.CounterVec("hstreams_tenant_actions_total", "Actions completed per tenant; the fairness share basis.", "tenant"),
		shed:     reg.CounterVec("hstreams_tenant_shed_total", "Submissions refused by tenant and reason (pending-full, tenant-closing).", "tenant", "reason"),
		inflight: reg.GaugeVec("hstreams_tenant_inflight", "Dispatched-but-unretired submissions per tenant.", "tenant"),
		pending:  reg.GaugeVec("hstreams_tenant_pending", "Admitted-but-undispatched submissions per tenant.", "tenant"),
		bufBytes: reg.GaugeVec("hstreams_tenant_buffer_bytes", "Live buffer bytes per tenant, counted against Quotas.MaxBufferBytes.", "tenant"),
		weight:   reg.GaugeVec("hstreams_tenant_weight", "Fair-share weight per tenant.", "tenant"),
		wait:     reg.HistogramVec("hstreams_tenant_admission_wait_seconds", "Submit-to-dispatch wait per tenant; sustained growth on one tenant means starvation.", nil, "tenant"),
	}
}

// deleteTenant removes every hstreams_tenant_* row of the named
// tenant, so tenant churn leaves no series behind. Unregister calls it
// under the server lock once the tenant is gone from the table, after
// which no path resolves a row for that name until it registers again.
func (m *tenantMetrics) deleteTenant(name string) {
	for _, reason := range [...]string{"pending-full", "tenant-closing"} {
		m.shed.Delete(name, reason)
	}
	m.actions.Delete(name)
	for _, g := range [...]*metrics.GaugeVec{m.inflight, m.pending, m.bufBytes, m.weight} {
		g.Delete(name)
	}
	m.wait.Delete(name)
}
