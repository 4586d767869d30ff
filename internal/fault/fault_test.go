package fault

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"hstreams/internal/metrics"
)

// replay runs a fixed serial decision script against a fresh injector
// and returns a compact transcript of every outcome.
func replay(plan Plan) []string {
	in := NewInjector(plan, nil)
	var out []string
	for i := 0; i < 200; i++ {
		d, err := in.Transfer("host", "card0")
		out = append(out, fmt.Sprintf("T %v %v", d, err))
		if i%3 == 0 {
			out = append(out, fmt.Sprintf("K %v", in.Kernel("card0")))
		}
	}
	return out
}

// linkMarks draws n serial Transfer decisions from src to dst and
// marks each: '.' clean, 's' slow, 'e' error, 'B' slow and error.
func linkMarks(in *Injector, src, dst string, n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		d, err := in.Transfer(src, dst)
		switch {
		case d > 0 && err != nil:
			b.WriteByte('B')
		case d > 0:
			b.WriteByte('s')
		case err != nil:
			b.WriteByte('e')
		default:
			b.WriteByte('.')
		}
	}
	return b.String()
}

// kernelMarks draws n serial Kernel decisions on domain and marks
// each: '.' clean, 'k' failed launch.
func kernelMarks(in *Injector, domain string, n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		if in.Kernel(domain) != nil {
			b.WriteByte('k')
		} else {
			b.WriteByte('.')
		}
	}
	return b.String()
}

func TestSeededInjectorDeterministic(t *testing.T) {
	plan := Plan{
		Seed:          42,
		TransferError: 0.2,
		SlowLink:      0.3,
		SlowLatency:   time.Millisecond,
		KernelError:   0.25,
		SinkDeath:     0.05,
		DeadOps:       4,
	}
	a, b := replay(plan), replay(plan)
	if len(a) != len(b) {
		t.Fatalf("transcript lengths differ: %d vs %d", len(a), len(b))
	}
	var faults int
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d diverged:\n  run1: %s\n  run2: %s", i, a[i], b[i])
		}
		if a[i] != "T 0s <nil>" && a[i] != "K <nil>" {
			faults++
		}
	}
	if faults == 0 {
		t.Fatalf("plan with nonzero probabilities injected nothing in %d decisions", len(a))
	}
	// A different seed must give a different schedule.
	plan.Seed = 43
	c := replay(plan)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seed 42 and seed 43 produced identical fault schedules")
	}
}

func TestZeroPlanInjectsNothing(t *testing.T) {
	reg := metrics.New()
	in := NewInjector(Plan{Seed: 7}, reg)
	for i := 0; i < 500; i++ {
		if d, err := in.Transfer("host", "card0"); d != 0 || err != nil {
			t.Fatalf("zero plan injected on transfer %d: delay=%v err=%v", i, d, err)
		}
		if err := in.Kernel("card0"); err != nil {
			t.Fatalf("zero plan injected on kernel %d: %v", i, err)
		}
	}
	if got := reg.Total("hstreams_faults_injected_total"); got != 0 {
		t.Fatalf("hstreams_faults_injected_total = %v, want 0", got)
	}
}

func TestArmAfterSuppressesWarmup(t *testing.T) {
	// Certain-fault plan: every armed transfer must fail.
	plan := Plan{Seed: 1, TransferError: 1.0, ArmAfter: 100}
	in := NewInjector(plan, nil)
	for i := 0; i < 50; i++ { // 2 draws each → 100 decisions total
		if _, err := in.Transfer("host", "card0"); err != nil {
			t.Fatalf("transfer %d failed during warm-up (decisions=%d): %v", i, in.Decisions(), err)
		}
	}
	if _, err := in.Transfer("host", "card0"); err == nil {
		t.Fatal("first armed transfer did not fail under TransferError=1.0")
	}
}

func TestSinkDeathEpisode(t *testing.T) {
	// Death is certain on the first kernel launch; nothing else is
	// injected. The episode must then fail exactly DeadOps operations
	// on that domain (transfers in either direction included) and
	// leave other domains untouched.
	plan := Plan{Seed: 9, SinkDeath: 1.0, DeadOps: 3}
	in := NewInjector(plan, nil)

	err := in.Kernel("card0")
	if err == nil {
		t.Fatal("kernel during death episode succeeded")
	}
	var fe *Error
	if !errors.As(err, &fe) || fe.Site != SiteSinkDeath || fe.Key != "card0" {
		t.Fatalf("unexpected death error: %#v", err)
	}
	// Two more dead operations: a transfer touching card0 and one more
	// kernel — note the kernel draw re-arms the episode under
	// SinkDeath=1.0, so only assert the transfer direction here.
	if _, err := in.Transfer("host", "card0"); !errors.As(err, &fe) || fe.Site != SiteSinkDeath {
		t.Fatalf("transfer to dead domain did not fail with death error: %v", err)
	}
	if _, err := in.Transfer("card0", "host"); !errors.As(err, &fe) || fe.Site != SiteSinkDeath {
		t.Fatalf("transfer from dead domain did not fail with death error: %v", err)
	}
	// Episode exhausted (3 dead ops consumed): transfers recover.
	if _, err := in.Transfer("host", "card0"); err != nil {
		t.Fatalf("transfer after episode end still failing: %v", err)
	}
	// Other domains never saw a fault.
	if _, err := in.Transfer("host", "card1"); err != nil {
		t.Fatalf("unrelated domain failed: %v", err)
	}
}

func TestTaxonomy(t *testing.T) {
	tr := &Error{Site: SiteTransfer, Key: "host→card0", Seq: 3}
	if !IsTransient(tr) {
		t.Error("injected fault not IsTransient")
	}
	if IsTransient(errors.New("plain")) {
		t.Error("plain error reported transient")
	}
	if !IsTransient(fmt.Errorf("wrapped: %w", tr)) {
		t.Error("wrapped injected fault not IsTransient")
	}
	if IsTransient(nil) {
		t.Error("nil error reported transient")
	}
	if got, want := tr.Error(), "fault: injected transient transfer at host→card0 (decision 3)"; got != want {
		t.Errorf("Error() = %q, want %q", got, want)
	}
}

func TestSlowLinkDelay(t *testing.T) {
	plan := Plan{Seed: 5, SlowLink: 1.0, SlowLatency: 3 * time.Millisecond}
	in := NewInjector(plan, nil)
	d, err := in.Transfer("host", "card0")
	if err != nil {
		t.Fatalf("slow-link-only plan returned error: %v", err)
	}
	if d != 3*time.Millisecond {
		t.Fatalf("delay = %v, want 3ms", d)
	}
}
