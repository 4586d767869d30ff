package fabric

import (
	"sync"
	"sync/atomic"
	"time"
)

// Endpoint is one side of a connected message channel between two
// nodes, in the style of SCIF endpoints. Messages are small control
// payloads (run-function descriptors, completions); bulk data moves
// through Window DMA instead.
type Endpoint struct {
	local, peer *Node
	link        *Link

	mu     sync.Mutex
	closed bool
	// inbox is made on the first receive from this end or send to it
	// (see box), so an end that is only ever sent from holds none.
	inbox  atomic.Pointer[mailbox]
	remote *Endpoint
	// sending counts the Sends delivering into this end's inbox. Close
	// waits for them before it closes the inbox, so none sends on a
	// closed channel.
	sending sync.WaitGroup
}

// mailbox is an endpoint's inbox. Close closes done first, which
// releases any Send blocked on a full msgs, and closes msgs once no
// Send is left inside.
type mailbox struct {
	msgs chan []byte
	done chan struct{}
}

const endpointDepth = 1024

// ConnectPair creates a connected endpoint pair between two nodes that
// must already have a link on the fabric. Each end makes its inbox of
// endpointDepth messages on first use, so a pair used one way holds
// one.
func ConnectPair(f *Fabric, a, b *Node) (*Endpoint, *Endpoint, error) {
	link, err := f.LinkBetween(a, b)
	if err != nil {
		return nil, nil, err
	}
	ea := &Endpoint{local: a, peer: b, link: link}
	eb := &Endpoint{local: b, peer: a, link: link}
	ea.remote, eb.remote = eb, ea
	return ea, eb, nil
}

// Send delivers msg to the peer's inbox and returns the modeled wire
// time. The payload is copied, so the caller may reuse msg. It fails
// with ErrClosed once either end is closed, also when it was blocked
// on a full inbox that the peer closes.
func (e *Endpoint) Send(msg []byte) (time.Duration, error) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return 0, ErrClosed
	}
	remote := e.remote
	e.mu.Unlock()

	cp := append([]byte(nil), msg...)
	remote.mu.Lock()
	mb := remote.boxLocked()
	if mb == nil {
		remote.mu.Unlock()
		return 0, ErrClosed
	}
	remote.sending.Add(1)
	remote.mu.Unlock()
	defer remote.sending.Done()
	// An inbox with room takes the message without a select over done.
	select {
	case mb.msgs <- cp:
	default:
		select {
		case mb.msgs <- cp:
		case <-mb.done:
			return 0, ErrClosed
		}
	}
	return e.link.Account(e.local, int64(len(msg))), nil
}

// Recv blocks for the next message. It returns ErrClosed after the
// endpoint is closed and drained.
func (e *Endpoint) Recv() ([]byte, error) {
	mb := e.box()
	if mb == nil {
		return nil, ErrClosed
	}
	msg, ok := <-mb.msgs
	if !ok {
		return nil, ErrClosed
	}
	return msg, nil
}

// TryRecv returns the next message without blocking; ok reports
// whether one was available.
func (e *Endpoint) TryRecv() (msg []byte, ok bool) {
	mb := e.inbox.Load()
	if mb == nil {
		return nil, false
	}
	select {
	case m, open := <-mb.msgs:
		if !open {
			return nil, false
		}
		return m, true
	default:
		return nil, false
	}
}

// Close shuts the endpoint down. Pending messages can still be
// received; further sends fail with ErrClosed, and so do sends blocked
// on a full inbox, which Close releases rather than waits out.
func (e *Endpoint) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	mb := e.inbox.Load()
	e.mu.Unlock()
	if mb != nil {
		close(mb.done)
		e.sending.Wait()
		close(mb.msgs)
	}
}

// box returns the endpoint's inbox, making it if the endpoint has none
// and is open; nil means it closed before any message was sent to it
// or received from it.
func (e *Endpoint) box() *mailbox {
	if mb := e.inbox.Load(); mb != nil {
		return mb
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.boxLocked()
}

// boxLocked is box for a caller that holds e.mu; it returns nil once
// the endpoint is closed.
func (e *Endpoint) boxLocked() *mailbox {
	if e.closed {
		return nil
	}
	if mb := e.inbox.Load(); mb != nil {
		return mb
	}
	mb := &mailbox{msgs: make(chan []byte, endpointDepth), done: make(chan struct{})}
	e.inbox.Store(mb)
	return mb
}

// Local returns the endpoint's own node.
func (e *Endpoint) Local() *Node { return e.local }

// Peer returns the node at the other end.
func (e *Endpoint) Peer() *Node { return e.peer }
