package ring

import "sync/atomic"

// MPMC is a bounded lock-free multi-producer multi-consumer ring (Vyukov's
// bounded queue). It backs the packet-buffer pool free list, where any NF
// goroutine may allocate or release concurrently.
type MPMC[T any] struct {
	mask uint64
	buf  []mslot[T]

	_    pad
	head atomic.Uint64
	_    pad
	tail atomic.Uint64
	_    pad
}

// NewMPMC returns an MPMC ring holding at least capacity elements.
func NewMPMC[T any](capacity int) *MPMC[T] {
	if capacity < 1 {
		capacity = 1
	}
	c := ceilPow2(capacity)
	r := &MPMC[T]{mask: c - 1, buf: make([]mslot[T], c)}
	for i := range r.buf {
		r.buf[i].seq.Store(uint64(i))
	}
	return r
}

// Cap returns the ring capacity.
func (r *MPMC[T]) Cap() int { return len(r.buf) }

// Len returns the approximate number of queued elements.
func (r *MPMC[T]) Len() int {
	n := int(r.tail.Load() - r.head.Load())
	if n < 0 {
		return 0
	}
	return n
}

// Enqueue adds v from any goroutine. Returns false when full.
func (r *MPMC[T]) Enqueue(v T) bool {
	for {
		t := r.tail.Load()
		s := &r.buf[t&r.mask]
		seq := s.seq.Load()
		switch {
		case seq == t:
			if r.tail.CompareAndSwap(t, t+1) {
				s.v = v
				s.seq.Store(t + 1)
				return true
			}
		case seq < t:
			return false
		}
	}
}

// Dequeue removes the oldest element from any goroutine.
func (r *MPMC[T]) Dequeue() (v T, ok bool) {
	for {
		h := r.head.Load()
		s := &r.buf[h&r.mask]
		seq := s.seq.Load()
		switch {
		case seq == h+1:
			if r.head.CompareAndSwap(h, h+1) {
				v = s.v
				var zero T
				s.v = zero
				s.seq.Store(h + uint64(len(r.buf)))
				return v, true
			}
		case seq <= h:
			return v, false
		}
	}
}

// EnqueueBulk adds as many leading elements of vs as fit, from any
// goroutine, and returns how many were added. Concurrent consumers free
// slots out of order, so the run is first checked slot by slot and then
// reserved with one CAS on the tail cursor: a slot seen free at its
// position stays free until that position's producer — this caller, once
// the CAS succeeds — writes it.
func (r *MPMC[T]) EnqueueBulk(vs []T) int {
	for {
		t := r.tail.Load()
		n := uint64(0)
		for n < uint64(len(vs)) && r.buf[(t+n)&r.mask].seq.Load() == t+n {
			n++
		}
		if n == 0 {
			if len(vs) == 0 || r.buf[t&r.mask].seq.Load() < t {
				return 0 // nothing to add, or slot still occupied: ring full
			}
			continue // another producer won this slot; retry
		}
		if !r.tail.CompareAndSwap(t, t+n) {
			continue
		}
		for i := uint64(0); i < n; i++ {
			s := &r.buf[(t+i)&r.mask]
			s.v = vs[i]
			s.seq.Store(t + i + 1)
		}
		return int(n)
	}
}

// Enqueued and Dequeued return how many elements were ever added to and
// removed from the ring: the cursors themselves, so counting costs the
// operations nothing. An operation in flight is already counted.
func (r *MPMC[T]) Enqueued() uint64 { return r.tail.Load() }
func (r *MPMC[T]) Dequeued() uint64 { return r.head.Load() }
