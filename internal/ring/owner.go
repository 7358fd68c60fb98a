package ring

import (
	"runtime"
	"sync/atomic"
)

// Owner is the consumer-ownership flag that lets a multi-producer ring run
// without a consumer goroutine. A producer publishes its element and then
// calls Drain: if no other caller is consuming the ring, this one becomes
// its consumer and empties it (run to completion); otherwise the element
// waits in the ring for the caller that is. Either way the ring has one
// consumer at a time, so the MPSC single-consumer contract and the ring's
// FIFO order both hold, and nobody is parked or woken.
//
// The owner gives the flag back and then looks at the ring once more. A
// producer publishes and then tries the flag. Both the flag and a slot's
// publication are sequentially consistent atomics, so of an owner's last
// look and a producer's try at least one sees the other side's store: an
// element published while its owner is letting go is consumed by the
// owner's second look or by the producer itself, and is never stranded.
type Owner struct {
	owned atomic.Bool
}

// Consumer is the consuming side of a ring run by an Owner.
type Consumer interface {
	// Consume takes every element published on the ring and returns how
	// many it handled. It is only called by the ring's current owner.
	Consume() int
	// Ready reports whether an element is published on the ring.
	Ready() bool
}

// Drain consumes c if no other caller owns it, until it is empty, and
// returns how many elements this call handled: 0 when another caller owns
// the ring (which then handles what this caller published).
func (o *Owner) Drain(c Consumer) (n int) {
	for o.owned.CompareAndSwap(false, true) {
		n += c.Consume()
		o.owned.Store(false)
		if !c.Ready() {
			break
		}
	}
	return n
}

// TryLock takes the flag if no other caller owns the ring and reports
// whether it did. A caller that wins may run its own element without
// putting it on the ring when the ring is empty, then must let go with
// Unlock.
func (o *Owner) TryLock() bool { return o.owned.CompareAndSwap(false, true) }

// Unlock gives the flag back and then reports whether c has an element
// published, which the caller must see consumed (a Drain of its own, on
// another goroutine if it will not wait for it). It is Drain's release and
// second look without the loop: of Unlock's look and a producer's try for
// the flag, at least one sees the other side's store, so an element
// published while the owner lets go is reported here or taken by its
// producer.
func (o *Owner) Unlock(c Consumer) bool {
	o.owned.Store(false)
	return c.Ready()
}

// Hold takes the flag for good, waiting out the owner in flight: Drain
// never consumes the ring again, and whatever is left in it belongs to the
// holder. It is the teardown half of the protocol.
func (o *Owner) Hold() {
	for !o.owned.CompareAndSwap(false, true) {
		runtime.Gosched()
	}
}
