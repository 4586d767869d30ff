package fabric

import (
	"sync"
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
	inbox  chan []byte
	remote *Endpoint
}

const endpointDepth = 1024

// ConnectPair creates a connected endpoint pair between two nodes that
// must already have a link on the fabric.
func ConnectPair(f *Fabric, a, b *Node) (*Endpoint, *Endpoint, error) {
	link, err := f.LinkBetween(a, b)
	if err != nil {
		return nil, nil, err
	}
	ea := &Endpoint{local: a, peer: b, link: link, inbox: make(chan []byte, endpointDepth)}
	eb := &Endpoint{local: b, peer: a, link: link, inbox: make(chan []byte, endpointDepth)}
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
	inbox := remote.inbox
	remote.mu.Unlock()
	inbox <- cp
	return e.link.Account(e.local, int64(len(msg))), nil
}

// Recv blocks for the next message. It returns ErrClosed after the
// endpoint is closed and drained.
func (e *Endpoint) Recv() ([]byte, error) {
	msg, ok := <-e.inbox
	if !ok {
		return nil, ErrClosed
	}
	return msg, nil
}

// TryRecv returns the next message without blocking; ok reports
// whether one was available.
func (e *Endpoint) TryRecv() (msg []byte, ok bool) {
	select {
	case m, open := <-e.inbox:
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
		close(e.inbox)
	}
}

// Local returns the endpoint's own node.
func (e *Endpoint) Local() *Node { return e.local }

// Peer returns the node at the other end.
func (e *Endpoint) Peer() *Node { return e.peer }
