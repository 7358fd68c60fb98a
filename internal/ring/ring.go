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

// DequeueBulk removes up to len(out) published elements into out.
func (r *MPSC[T]) DequeueBulk(out []T) int {
	n := 0
	for n < len(out) {
		v, ok := r.Dequeue()
		if !ok {
			break
		}
		out[n] = v
		n++
	}
	return n
}
