// Package shm provides the shared-memory request channel used between NFs
// inside one L²5GC unit: a lock-free descriptor ring whose consumer is
// whichever sender finds it idle, and a table that hands replies straight
// to the callers waiting for them.
//
// Senders pass pointers — the receiving NF observes the same object with no
// serialization, copy, or kernel crossing. This is the in-process analogue
// of ONVM's shared hugepage rings that the paper's SBI and N4 replacements
// are built on. The paper's NFs poll their rings, so a hand-over costs a
// cache-line transfer; a goroutine asleep on a doorbell costs a scheduler
// hand-off each way. A Mailbox therefore has no goroutine of its own: Send
// enqueues and, if nobody is draining the ring, drains it on the sender's
// goroutine (run to completion); if somebody is, the descriptor waits its
// turn behind that drainer. Either way every descriptor goes through the
// ring, in arrival order, one handler at a time.
package shm

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"l25gc/internal/ring"
)

// ErrClosed is returned by Send after Close, and by Call.Wait when the
// caller's endpoint closes under it.
var ErrClosed = errors.New("shm: mailbox closed")

// ErrFull is returned by Send when the descriptor ring is full.
var ErrFull = errors.New("shm: ring full")

// ErrTimeout is returned by Call.Wait when no reply came in time.
var ErrTimeout = errors.New("shm: reply timed out")

// Mailbox is a multi-producer descriptor ring with the consumer's handler
// attached. The ring has one consumer at a time: the Send call holding its
// ring.Owner flag (the same ownership helper the packet path's rings use).
type Mailbox[T any] struct {
	own ring.Owner
	q   queue[T]

	inline atomic.Uint64
	queued atomic.Uint64
}

// queue is the consuming side of a Mailbox, run by its current owner.
type queue[T any] struct {
	r      *ring.MPSC[T]
	handle func(T)
	closed atomic.Bool
}

// Consume handles (after Close: discards) every published descriptor and
// returns how many it handled.
func (q *queue[T]) Consume() (n int) {
	for v, ok := q.r.Dequeue(); ok; v, ok = q.r.Dequeue() {
		if !q.closed.Load() {
			q.handle(v)
			n++
		}
	}
	return n
}

func (q *queue[T]) Ready() bool { return q.r.Ready() }

// NewMailbox creates a mailbox with ring capacity n whose descriptors are
// consumed by handle, one at a time and in arrival order.
func NewMailbox[T any](n int, handle func(T)) *Mailbox[T] {
	return &Mailbox[T]{q: queue[T]{r: ring.NewMPSC[T](n), handle: handle}}
}

// Send enqueues v and, when no other Send is draining the ring, drains it:
// the handler runs on this goroutine for v and for whatever other senders
// enqueue meanwhile, until the ring is empty. Otherwise v is left for the
// current drainer and Send returns at once. A handler that sends to the
// mailbox it is being served from is in the second case: its descriptor is
// handled after it returns. A handler that blocks keeps its Send from
// returning, and every descriptor behind it waiting.
func (m *Mailbox[T]) Send(v T) error {
	if m.q.closed.Load() {
		return ErrClosed
	}
	if !m.q.r.Enqueue(v) {
		return ErrFull
	}
	if n := m.own.Drain(&m.q); n > 0 {
		m.inline.Add(1)
		if n > 1 {
			m.queued.Add(uint64(n - 1))
		}
	}
	return nil
}

// Len reports the approximate number of queued descriptors.
func (m *Mailbox[T]) Len() int { return m.q.r.Len() }

// ServedInline reports how many descriptors were handled by the Send call
// that enqueued them: no goroutine was parked or woken for the request. A
// drainer books the first descriptor it handles as its own, which is exact
// unless a previous drainer took this one's descriptor in the instant
// before releasing.
func (m *Mailbox[T]) ServedInline() uint64 { return m.inline.Load() }

// ServedQueued reports how many were handled by another sender's Send.
func (m *Mailbox[T]) ServedQueued() uint64 { return m.queued.Load() }

// Close refuses further Sends and discards what is queued. A handler in
// flight finishes; the descriptors behind it are discarded by its drainer.
func (m *Mailbox[T]) Close() {
	if m.q.closed.CompareAndSwap(false, true) {
		m.own.Drain(&m.q)
	}
}

// Calls matches replies to the callers waiting for them, by sequence
// number. Replies never share a ring with requests — the replier calls
// Complete, which fills the waiting caller's slot directly — so a reply
// cannot queue behind a request whose handler is blocked.
type Calls[R any] struct {
	mu      sync.Mutex
	pending map[uint32]*Call[R]
	free    sync.Pool
}

// Call is one registered caller: the slot its reply lands in and the timer
// bounding the wait. Calls are recycled; use one only between Begin and End.
type Call[R any] struct {
	ch    chan R
	timer *time.Timer // stopped and drained whenever Wait is not running
}

// NewCalls returns an empty table.
func NewCalls[R any]() *Calls[R] {
	return &Calls[R]{pending: make(map[uint32]*Call[R])}
}

// Begin registers a caller for the reply to seq.
func (c *Calls[R]) Begin(seq uint32) *Call[R] {
	w, _ := c.free.Get().(*Call[R])
	if w == nil {
		w = &Call[R]{ch: make(chan R, 1)}
	}
	c.mu.Lock()
	c.pending[seq] = w
	c.mu.Unlock()
	return w
}

// End unregisters the caller. Complete delivers under the table lock, so
// once the entry is gone no reply, however late, can reach w: an unread one
// is discarded here and w is safe to reuse.
func (c *Calls[R]) End(seq uint32, w *Call[R]) {
	c.mu.Lock()
	delete(c.pending, seq)
	c.mu.Unlock()
	select {
	case <-w.ch:
	default:
	}
	c.free.Put(w)
}

// Complete hands r to the caller registered for seq. It reports false when
// there is none (the caller gave up) or it already holds a reply (a
// duplicate). It never blocks.
func (c *Calls[R]) Complete(seq uint32, r R) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.pending[seq]
	if w == nil {
		return false
	}
	select {
	case w.ch <- r:
		return true
	default:
		return false
	}
}

// Len reports the number of registered callers.
func (c *Calls[R]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}

// Poll returns the reply if it has already arrived — after a Send that
// served the request inline it has, and the caller never parks.
func (w *Call[R]) Poll() (r R, ok bool) {
	select {
	case r = <-w.ch:
		return r, true
	default:
		return r, false
	}
}

// Wait parks the caller until the reply arrives (nil), d elapses
// (ErrTimeout) or done closes (ErrClosed). It may be called again after a
// timeout: a retransmitting caller keeps the same registration.
func (w *Call[R]) Wait(d time.Duration, done <-chan struct{}) (r R, err error) {
	if w.timer == nil {
		w.timer = time.NewTimer(d)
	} else {
		w.timer.Reset(d)
	}
	select {
	case r = <-w.ch:
	case <-w.timer.C:
		return r, ErrTimeout
	case <-done:
		err = ErrClosed
	}
	if !w.timer.Stop() {
		<-w.timer.C
	}
	return r, err
}
