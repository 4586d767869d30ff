package fabric

import (
	"bytes"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"

	"hstreams/internal/platform"
)

func twoNodeFabric(t *testing.T) (*Fabric, *Node, *Node) {
	t.Helper()
	f := New()
	host := f.AddNode("host")
	card := f.AddNode("knc0")
	if _, err := f.Connect(host, card, platform.PCIe()); err != nil {
		t.Fatalf("Connect: %v", err)
	}
	return f, host, card
}

func TestNodeEnumeration(t *testing.T) {
	f, host, card := twoNodeFabric(t)
	ns := f.Nodes()
	if len(ns) != 2 || ns[0] != host || ns[1] != card {
		t.Fatalf("Nodes = %v", ns)
	}
	if host.ID() != 0 || card.ID() != 1 {
		t.Fatalf("ids = %d,%d want 0,1", host.ID(), card.ID())
	}
	if host.Name() != "host" || host.String() == "" {
		t.Fatal("bad node naming")
	}
}

func TestConnectIsIdempotent(t *testing.T) {
	f, host, card := twoNodeFabric(t)
	l1, err := f.LinkBetween(host, card)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := f.Connect(card, host, platform.PCIe())
	if err != nil {
		t.Fatal(err)
	}
	if l1 != l2 {
		t.Fatal("Connect created a duplicate link for the same pair")
	}
}

func TestConnectSelfFails(t *testing.T) {
	f := New()
	n := f.AddNode("solo")
	if _, err := f.Connect(n, n, platform.PCIe()); err != ErrSelfConnect {
		t.Fatalf("err = %v, want ErrSelfConnect", err)
	}
}

func TestLinkBetweenUnconnected(t *testing.T) {
	f := New()
	a, b := f.AddNode("a"), f.AddNode("b")
	if _, err := f.LinkBetween(a, b); err != ErrNotConnected {
		t.Fatalf("err = %v, want ErrNotConnected", err)
	}
}

func TestDMARoundTrip(t *testing.T) {
	f, host, card := twoNodeFabric(t)
	w := Register(card, 1<<20)
	src := make([]byte, 4096)
	for i := range src {
		src[i] = byte(i)
	}
	d, err := w.DMAWrite(f, host, 100, src)
	if err != nil || d <= 0 {
		t.Fatalf("DMAWrite: d=%v err=%v", d, err)
	}
	dst := make([]byte, 4096)
	if _, err := w.DMARead(f, host, 100, dst); err != nil {
		t.Fatalf("DMARead: %v", err)
	}
	if !bytes.Equal(src, dst) {
		t.Fatal("DMA round trip corrupted data")
	}
}

func TestDMABoundsChecked(t *testing.T) {
	f, host, card := twoNodeFabric(t)
	w := Register(card, 128)
	if _, err := w.DMAWrite(f, host, 120, make([]byte, 16)); err != ErrOutOfRange {
		t.Fatalf("overrun write err = %v, want ErrOutOfRange", err)
	}
	if _, err := w.DMARead(f, host, -1, make([]byte, 4)); err != ErrOutOfRange {
		t.Fatalf("negative read err = %v, want ErrOutOfRange", err)
	}
}

func TestDMAStatsAccumulate(t *testing.T) {
	f, host, card := twoNodeFabric(t)
	w := Register(card, 1<<20)
	payload := make([]byte, 64<<10)
	for i := 0; i < 3; i++ {
		if _, err := w.DMAWrite(f, host, 0, payload); err != nil {
			t.Fatal(err)
		}
	}
	link, _ := f.LinkBetween(host, card)
	s := link.Stats(host)
	if s.Transfers != 3 || s.Bytes != 3*64<<10 {
		t.Fatalf("stats = %+v", s)
	}
	want := 3 * link.Spec().TransferTime(64<<10)
	if s.ModeledTime != want {
		t.Fatalf("modeled time = %v, want %v", s.ModeledTime, want)
	}
	// Reads are accounted on the card→host direction.
	if _, err := w.DMARead(f, host, 0, payload); err != nil {
		t.Fatal(err)
	}
	if got := link.Stats(card).Transfers; got != 1 {
		t.Fatalf("card→host transfers = %d, want 1", got)
	}
}

func TestRegisterBackedAliases(t *testing.T) {
	f, host, card := twoNodeFabric(t)
	backing := make([]byte, 256)
	w := RegisterBacked(card, backing)
	if _, err := w.DMAWrite(f, host, 0, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if string(backing[:5]) != "hello" {
		t.Fatal("RegisterBacked does not alias caller memory")
	}
	if w.Node() != card || w.Size() != 256 {
		t.Fatal("window metadata wrong")
	}
}

func TestLocalCopy(t *testing.T) {
	f := New()
	n := f.AddNode("host")
	_ = f
	a := Register(n, 64)
	b := Register(n, 64)
	copy(a.Bytes(), "abcdef")
	if err := LocalCopy(b, 10, a, 0, 6); err != nil {
		t.Fatal(err)
	}
	if string(b.Bytes()[10:16]) != "abcdef" {
		t.Fatal("LocalCopy moved wrong bytes")
	}
	if err := LocalCopy(b, 60, a, 0, 10); err != ErrOutOfRange {
		t.Fatalf("err = %v, want ErrOutOfRange", err)
	}
}

func TestEndpointMessaging(t *testing.T) {
	f, host, card := twoNodeFabric(t)
	eh, ec, err := ConnectPair(f, host, card)
	if err != nil {
		t.Fatal(err)
	}
	if eh.Local() != host || eh.Peer() != card {
		t.Fatal("endpoint wiring wrong")
	}
	if _, err := eh.Send([]byte("run")); err != nil {
		t.Fatal(err)
	}
	msg, err := ec.Recv()
	if err != nil || string(msg) != "run" {
		t.Fatalf("Recv = %q, %v", msg, err)
	}
	if _, ok := ec.TryRecv(); ok {
		t.Fatal("TryRecv found a phantom message")
	}
	if _, err := ec.Send([]byte("done")); err != nil {
		t.Fatal(err)
	}
	if m, ok := eh.TryRecv(); !ok || string(m) != "done" {
		t.Fatalf("TryRecv = %q, %v", m, ok)
	}
}

func TestEndpointSendCopies(t *testing.T) {
	f, host, card := twoNodeFabric(t)
	eh, ec, _ := ConnectPair(f, host, card)
	buf := []byte("aaaa")
	if _, err := eh.Send(buf); err != nil {
		t.Fatal(err)
	}
	copy(buf, "bbbb")
	msg, _ := ec.Recv()
	if string(msg) != "aaaa" {
		t.Fatal("Send aliased the caller's buffer")
	}
}

func TestEndpointClose(t *testing.T) {
	f, host, card := twoNodeFabric(t)
	eh, ec, _ := ConnectPair(f, host, card)
	if _, err := eh.Send([]byte("x")); err != nil {
		t.Fatal(err)
	}
	ec.Close()
	ec.Close() // double close must be safe
	if msg, err := ec.Recv(); err != nil || string(msg) != "x" {
		t.Fatalf("draining after close: %q, %v", msg, err)
	}
	if _, err := ec.Recv(); err != ErrClosed {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	if _, err := eh.Send([]byte("y")); err != ErrClosed {
		t.Fatalf("send to closed peer err = %v, want ErrClosed", err)
	}
	eh.Close()
	if _, err := eh.Send([]byte("z")); err != ErrClosed {
		t.Fatalf("send on closed endpoint err = %v, want ErrClosed", err)
	}
}

func TestEndpointConcurrentTraffic(t *testing.T) {
	f, host, card := twoNodeFabric(t)
	eh, ec, _ := ConnectPair(f, host, card)
	const n = 200
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			if _, err := eh.Send([]byte{byte(i)}); err != nil {
				t.Errorf("send %d: %v", i, err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			msg, err := ec.Recv()
			if err != nil || msg[0] != byte(i) {
				t.Errorf("recv %d = %v, %v", i, msg, err)
				return
			}
		}
	}()
	wg.Wait()
}

// TestSendRacesClose: a Close of the receiving end that lands while a
// sender is inside Send, or blocked on a full inbox, makes that Send
// return ErrClosed rather than panic on a closed channel or hang, and
// every message a Send delivered can still be received after Close.
// Pairs are made one after another, one sender goroutine each; the
// receiver closes after a varying number of receives, so Close falls
// at different points of the sender's loop, including its full-inbox
// wait.
func TestSendRacesClose(t *testing.T) {
	f, host, card := twoNodeFabric(t)
	for i := 0; i < 400; i++ {
		eh, ec, err := ConnectPair(f, host, card)
		if err != nil {
			t.Fatal(err)
		}
		sent := make(chan int)
		go func() {
			n := 0
			for {
				_, err := eh.Send([]byte{byte(n)})
				if err == ErrClosed {
					sent <- n
					return
				}
				if err != nil {
					t.Errorf("pair %d: Send = %v, want nil or ErrClosed", i, err)
				}
				n++
			}
		}()
		got := 0
		for ; got < i%7; got++ {
			if _, err := ec.Recv(); err != nil {
				t.Fatalf("pair %d: Recv before Close: %v", i, err)
			}
		}
		ec.Close()
		n := <-sent
		for {
			if _, err := ec.Recv(); err != nil {
				break
			}
			got++
		}
		if got != n {
			t.Fatalf("pair %d: %d sends delivered, %d messages received", i, n, got)
		}
	}
}

// TestOneWayPairMakesOneInbox: a pair that carries messages one way
// allocates the receiving end's inbox only, not one per end.
func TestOneWayPairMakesOneInbox(t *testing.T) {
	f, host, card := twoNodeFabric(t)
	inbox := uint64(endpointDepth) * uint64(unsafe.Sizeof([]byte(nil)))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	eh, ec, err := ConnectPair(f, host, card)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eh.Send([]byte("run")); err != nil {
		t.Fatal(err)
	}
	if msg, err := ec.Recv(); err != nil || string(msg) != "run" {
		t.Fatalf("Recv = %q, %v", msg, err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got < inbox || got >= 2*inbox {
		t.Fatalf("a one-way pair allocated %d B; want one inbox of %d B and change", got, inbox)
	}
	eh.Close()
	if _, err := eh.Recv(); err != ErrClosed {
		t.Fatalf("Recv on a closed end that never had an inbox: err = %v, want ErrClosed", err)
	}
	if _, ok := eh.TryRecv(); ok {
		t.Fatal("TryRecv on a closed end that never had an inbox found a message")
	}
	if _, err := ec.Send([]byte("done")); err != ErrClosed {
		t.Fatalf("send to a closed end that never had an inbox: err = %v, want ErrClosed", err)
	}
}

func TestConnectPairRequiresLink(t *testing.T) {
	f := New()
	a, b := f.AddNode("a"), f.AddNode("b")
	if _, _, err := ConnectPair(f, a, b); err != ErrNotConnected {
		t.Fatalf("err = %v, want ErrNotConnected", err)
	}
}

// Property: DMA write-then-read restores arbitrary payloads at
// arbitrary in-range offsets.
func TestDMAWriteReadProperty(t *testing.T) {
	f, host, card := twoNodeFabric(t)
	w := Register(card, 1<<16)
	fn := func(data []byte, off uint16) bool {
		o := int(off) % (1<<16 - len(data) + 1)
		if len(data) == 0 {
			return true
		}
		if _, err := w.DMAWrite(f, host, o, data); err != nil {
			return false
		}
		out := make([]byte, len(data))
		if _, err := w.DMARead(f, host, o, out); err != nil {
			return false
		}
		return bytes.Equal(data, out)
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
