// Package ring provides lock-free multi-producer descriptor rings: MPSC
// (one consumer), MPMC, and Sharded (MPSC shards with per-key FIFO).
//
// These rings are the core primitive of the shared-memory NFV platform
// (internal/onvm): every network function owns an Rx ring and a Tx ring, and
// the NF manager moves packet descriptors between rings without copying
// packet payloads, mirroring OpenNetVM's DPDK rte_ring usage in the paper.
//
// Capacities are rounded up to powers of two so that index arithmetic is a
// mask rather than a modulo. All operations are non-blocking: Enqueue returns
// false when the ring is full, Dequeue returns false when it is empty.
package ring

import (
	"sync/atomic"
)

// pad keeps hot atomics on separate cache lines to avoid false sharing
// between the producer and consumer cursors.
type pad [64]byte

// ceilPow2 returns the smallest power of two >= n (and >= 2).
func ceilPow2(n int) uint64 {
	c := uint64(2)
	for c < uint64(n) {
		c <<= 1
	}
	return c
}

// MPSC is a bounded lock-free multi-producer single-consumer ring.
//
// Producers reserve a slot with a CAS on the tail cursor and then publish it
// by bumping a per-slot sequence number; the single consumer observes slots
// in order once published. This is the classic bounded MPMC queue of Vyukov,
// restricted to one consumer.
type MPSC[T any] struct {
	mask uint64
	buf  []mslot[T]

	_    pad
	head atomic.Uint64
	_    pad
	tail atomic.Uint64
	_    pad
}

type mslot[T any] struct {
	seq atomic.Uint64
	v   T
}

// NewMPSC returns an MPSC ring holding at least capacity elements.
func NewMPSC[T any](capacity int) *MPSC[T] {
	if capacity < 1 {
		capacity = 1
	}
	c := ceilPow2(capacity)
	r := &MPSC[T]{mask: c - 1, buf: make([]mslot[T], c)}
	for i := range r.buf {
		r.buf[i].seq.Store(uint64(i))
	}
	return r
}

// Cap returns the ring capacity.
func (r *MPSC[T]) Cap() int { return len(r.buf) }

// Len returns the approximate number of queued elements.
func (r *MPSC[T]) Len() int {
	n := int(r.tail.Load() - r.head.Load())
	if n < 0 {
		return 0
	}
	return n
}

// Ready reports whether the oldest element is published, i.e. whether a
// Dequeue would succeed. Unlike Len it does not count a slot a producer
// has reserved but not yet published, so a consumer that parks on !Ready
// and is woken by producers after they publish neither sleeps through an
// element nor spins waiting for one. Single consumer only.
func (r *MPSC[T]) Ready() bool {
	h := r.head.Load()
	return r.buf[h&r.mask].seq.Load() == h+1
}

// Enqueue adds v to the ring from any goroutine. Returns false when full.
func (r *MPSC[T]) Enqueue(v T) bool {
	for {
		t := r.tail.Load()
		s := &r.buf[t&r.mask]
		seq := s.seq.Load()
		switch {
		case seq == t: // slot free
			if r.tail.CompareAndSwap(t, t+1) {
				s.v = v
				s.seq.Store(t + 1) // publish
				return true
			}
		case seq < t: // slot still occupied: ring full
			return false
		default: // another producer won this slot; retry
		}
	}
}

// Dequeue removes the oldest published element. Single consumer only.
func (r *MPSC[T]) Dequeue() (v T, ok bool) {
	h := r.head.Load()
	s := &r.buf[h&r.mask]
	if s.seq.Load() != h+1 { // not yet published
		return v, false
	}
	v = s.v
	var zero T
	s.v = zero
	s.seq.Store(h + uint64(len(r.buf))) // mark free for the next lap
	r.head.Store(h + 1)
	return v, true
}

// EnqueueBulk adds as many leading elements of vs as fit, in order, from any
// goroutine, and returns how many were added: one CAS on the tail cursor
// reserves the whole run, then the slots are published front to back, so
// the consumer sees a burst as a contiguous run of one producer's elements.
// Free space is judged from the head cursor, which the consumer advances
// only after it has marked the slots behind it free.
func (r *MPSC[T]) EnqueueBulk(vs []T) int {
	if len(vs) == 0 {
		return 0
	}
	size := uint64(len(r.buf))
	for {
		// head before tail: head never passes tail, so used cannot underflow.
		h := r.head.Load()
		t := r.tail.Load()
		used := t - h
		if used > size { // stale head against a tail a full lap on; reload
			continue
		}
		n := size - used
		if n == 0 {
			return 0
		}
		if n > uint64(len(vs)) {
			n = uint64(len(vs))
		}
		if !r.tail.CompareAndSwap(t, t+n) {
			continue
		}
		for i := uint64(0); i < n; i++ {
			s := &r.buf[(t+i)&r.mask]
			s.v = vs[i]
			s.seq.Store(t + i + 1) // publish
		}
		return int(n)
	}
}

// DequeueBulk removes up to len(out) published elements into out with one
// scan of the slots and one store of the head cursor. It stops at the first
// slot a producer has reserved but not yet published. Single consumer only.
func (r *MPSC[T]) DequeueBulk(out []T) int {
	h := r.head.Load()
	size := uint64(len(r.buf))
	var zero T
	n := uint64(0)
	for ; n < uint64(len(out)); n++ {
		s := &r.buf[(h+n)&r.mask]
		if s.seq.Load() != h+n+1 { // not yet published
			break
		}
		out[n] = s.v
		s.v = zero
		s.seq.Store(h + n + size) // mark free for the next lap
	}
	if n > 0 {
		r.head.Store(h + n)
	}
	return int(n)
}
