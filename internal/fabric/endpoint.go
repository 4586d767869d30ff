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
	inbox  atomic.Pointer[chan []byte]
	remote *Endpoint
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
// time. The payload is copied, so the caller may reuse msg.
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
	if remote.closed {
		remote.mu.Unlock()
		return 0, ErrClosed
	}
	inbox := remote.boxLocked()
	remote.mu.Unlock()
	inbox <- cp
	return e.link.Account(e.local, int64(len(msg))), nil
}

// Recv blocks for the next message. It returns ErrClosed after the
// endpoint is closed and drained.
func (e *Endpoint) Recv() ([]byte, error) {
	inbox := e.box()
	if inbox == nil {
		return nil, ErrClosed
	}
	msg, ok := <-inbox
	if !ok {
		return nil, ErrClosed
	}
	return msg, nil
}

// TryRecv returns the next message without blocking; ok reports
// whether one was available.
func (e *Endpoint) TryRecv() (msg []byte, ok bool) {
	inbox := e.inbox.Load()
	if inbox == nil {
		return nil, false
	}
	select {
	case m, open := <-*inbox:
		if !open {
			return nil, false
		}
		return m, true
	default:
		return nil, false
	}
}

// Close shuts the endpoint down. Pending messages can still be
// received; further sends fail with ErrClosed.
func (e *Endpoint) Close() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.closed {
		e.closed = true
		if inbox := e.inbox.Load(); inbox != nil {
			close(*inbox)
		}
	}
}

// box returns the endpoint's inbox, making it if the endpoint has none
// and is open; nil means it closed before any message was sent to it
// or received from it.
func (e *Endpoint) box() chan []byte {
	if inbox := e.inbox.Load(); inbox != nil {
		return *inbox
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.boxLocked()
}

// boxLocked is box for a caller that holds e.mu.
func (e *Endpoint) boxLocked() chan []byte {
	if inbox := e.inbox.Load(); inbox != nil {
		return *inbox
	}
	if e.closed {
		return nil
	}
	inbox := make(chan []byte, endpointDepth)
	e.inbox.Store(&inbox)
	return inbox
}

// Local returns the endpoint's own node.
func (e *Endpoint) Local() *Node { return e.local }

// Peer returns the node at the other end.
func (e *Endpoint) Peer() *Node { return e.peer }
