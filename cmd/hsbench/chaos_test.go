package main

import "testing"

// TestChaosGate is the resilience layer's CI gate: the -fig chaos run
// under two fixed-seed fault profiles must still verify bit-for-bit
// against the reference product, with faults actually injected so the
// pass is not a fault-free run.
//
//   - retry (hsbench -fig chaos -fault-seed 1): the default plan
//     (p=0.05, 8 re-attempts) is absorbed by the backoff loop alone —
//     nonzero retries, no quarantine;
//   - breaker (-fault-seed 1 -faults 0.4 -breaker 3 -retry 1): the
//     card's breaker trips and the run finishes via host re-route —
//     exactly one quarantine, nonzero reroutes.
func TestChaosGate(t *testing.T) {
	for _, p := range []struct {
		name        string
		opts        chaosOptions
		quarantines float64
		retries     bool // retries must be nonzero
		reroutes    bool // reroutes must be nonzero
	}{
		{name: "retry", opts: chaosOptions{seed: 1, backoff: chaosBackoff},
			quarantines: 0, retries: true},
		{name: "breaker", opts: chaosOptions{seed: 1, prob: 0.4, breaker: 3, retry: 1, backoff: chaosBackoff},
			quarantines: 1, reroutes: true},
	} {
		t.Run(p.name, func(t *testing.T) {
			r := runChaos(p.opts, nil)
			t.Logf("%+v", r)
			if r.verify != nil {
				t.Errorf("result did not verify: %v", r.verify)
			}
			if r.faultsInjected == 0 {
				t.Error("fault plan never fired, the gate proved nothing")
			}
			if r.quarantines != p.quarantines {
				t.Errorf("quarantines = %.0f, want %.0f", r.quarantines, p.quarantines)
			}
			if p.retries && r.retries == 0 {
				t.Error("zero retries under faults")
			}
			if p.reroutes && r.reroutes == 0 {
				t.Error("nothing re-routed after the breaker trip")
			}
		})
	}
}
