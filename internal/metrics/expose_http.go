package metrics

import "net/http"

// ServeHTTP makes a Registry an http.Handler serving the Prometheus
// text exposition, so the debug server mounts it directly at /metrics.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = r.WriteProm(w)
}
