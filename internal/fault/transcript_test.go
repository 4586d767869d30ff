package fault

import (
	"strings"
	"testing"
	"time"
)

// TestDecisionTranscript pins the decisions themselves, not only their
// repeatability: a change to the draw order, the per-site ordinals or
// the mix would still replay identically run to run, but not match
// these literals. Moving the injection call between layers must leave
// both transcripts untouched.
func TestDecisionTranscript(t *testing.T) {
	t.Run("seed42", func(t *testing.T) {
		// TestSeededInjectorDeterministic's plan and script.
		plan := Plan{
			Seed:          42,
			TransferError: 0.2,
			SlowLink:      0.3,
			SlowLatency:   time.Millisecond,
			KernelError:   0.25,
			SinkDeath:     0.05,
			DeadOps:       4,
		}
		got := replay(plan)[:len(seed42Transcript)]
		for i, want := range seed42Transcript {
			if got[i] != want {
				t.Fatalf("outcome %d:\n  got:  %s\n  want: %s", i, got[i], want)
			}
		}
	})
	t.Run("chaos", func(t *testing.T) {
		// hsbench -fig chaos -fault-seed 1 -faults 0.4 (runChaos's plan).
		// Marks: '.' clean, 's' slow, 'e' error, 'B' slow and error,
		// 'k' failed kernel launch.
		in := NewInjector(Plan{
			Seed:          1,
			TransferError: 0.4,
			KernelError:   0.4,
			SlowLink:      0.4,
			SlowLatency:   50 * time.Microsecond,
		}, nil)
		for _, c := range []struct{ site, got, want string }{
			{"HSW→KNC0", linkMarks(in, "HSW", "KNC0", 40), ".s.BBeeB..s.ee...ee...BBe.sees..B...s.s."},
			{"KNC0→HSW", linkMarks(in, "KNC0", "HSW", 40), "eBs.s.e....ess..e.seeseseeee.Be.sB.s.ee."},
			{"KNC0", kernelMarks(in, "KNC0", 40), "k........kkkk.k.......kkk.k.kkk....kk..."},
		} {
			if c.got != c.want {
				t.Errorf("%s:\n  got:  %s\n  want: %s", c.site, c.got, c.want)
			}
		}
	})
}

// seed42Transcript is replay's first 60 outcomes under the seed-42 plan.
var seed42Transcript = strings.Split(strings.TrimSpace(`
T 0s <nil>
K <nil>
T 0s <nil>
T 0s <nil>
T 0s <nil>
K <nil>
T 1ms fault: injected transient transfer at host→card0 (decision 10)
T 0s <nil>
T 0s <nil>
K <nil>
T 0s fault: injected transient transfer at host→card0 (decision 16)
T 0s <nil>
T 1ms <nil>
K <nil>
T 0s fault: injected transient transfer at host→card0 (decision 22)
T 0s <nil>
T 0s <nil>
K <nil>
T 1ms fault: injected transient transfer at host→card0 (decision 28)
T 1ms <nil>
T 1ms <nil>
K <nil>
T 1ms fault: injected transient transfer at host→card0 (decision 34)
T 0s <nil>
T 0s <nil>
K <nil>
T 0s <nil>
T 0s <nil>
T 0s <nil>
K fault: injected transient kernel at card0 (decision 16)
T 1ms fault: injected transient sink-death at card0 (decision 46)
T 1ms fault: injected transient sink-death at card0 (decision 48)
T 1ms fault: injected transient sink-death at card0 (decision 50)
K fault: injected transient sink-death at card0 (decision 18)
T 1ms fault: injected transient transfer at host→card0 (decision 52)
T 0s fault: injected transient transfer at host→card0 (decision 54)
T 0s fault: injected transient transfer at host→card0 (decision 56)
K fault: injected transient kernel at card0 (decision 20)
T 1ms <nil>
T 0s <nil>
T 0s <nil>
K <nil>
T 0s <nil>
T 1ms <nil>
T 0s <nil>
K fault: injected transient kernel at card0 (decision 24)
T 0s <nil>
T 0s fault: injected transient transfer at host→card0 (decision 72)
T 0s fault: injected transient transfer at host→card0 (decision 74)
K fault: injected transient kernel at card0 (decision 26)
T 0s <nil>
T 0s <nil>
T 0s fault: injected transient transfer at host→card0 (decision 80)
K <nil>
T 0s fault: injected transient transfer at host→card0 (decision 82)
T 0s <nil>
T 1ms <nil>
K <nil>
T 1ms fault: injected transient transfer at host→card0 (decision 88)
T 1ms <nil>
`), "\n")
