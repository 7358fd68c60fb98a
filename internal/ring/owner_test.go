package ring

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// counter is an MPSC ring of ints consumed through an Owner, recording how
// many elements were handled and whether two consumers ever overlapped.
type counter struct {
	own     Owner
	r       *MPSC[int]
	busy    atomic.Int32
	overlap atomic.Bool
	handled atomic.Int64
	next    []int // per producer: the next element expected
	misord  atomic.Bool
	done    []atomic.Int64 // per producer, if set: how many handled
}

func (c *counter) Consume() int { return c.consume(math.MaxInt) }

// consume handles up to limit elements off the ring.
func (c *counter) consume(limit int) (n int) {
	c.enter()
	for ; n < limit; n++ {
		v, ok := c.r.Dequeue()
		if !ok {
			break
		}
		c.handle(v)
	}
	c.leave(n)
	return n
}

func (c *counter) enter() {
	if c.busy.Add(1) != 1 {
		c.overlap.Store(true)
	}
}

func (c *counter) leave(handled int) {
	c.busy.Add(-1)
	c.handled.Add(int64(handled))
}

// handle checks that v is the next element of its producer.
func (c *counter) handle(v int) {
	p, i := v>>20, v&(1<<20-1)
	if c.next[p] != i {
		c.misord.Store(true)
	}
	c.next[p] = i + 1
	if c.done != nil {
		c.done[p].Store(int64(i + 1))
	}
}

func (c *counter) Ready() bool { return c.r.Ready() }

// send publishes one element and drains the ring if nobody owns it.
func (c *counter) send(v int) {
	for !c.r.Enqueue(v) { // the owner lost its CPU with the ring full
		time.Sleep(time.Microsecond)
	}
	c.own.Drain(c)
}

// TestOwnerNothingStrandedAtRelease is the ownership protocol's liveness
// property: 10^5 lone sends from four producers, each a publish followed
// by a try for the flag, with a consumer so cheap that owners spend most of
// their time between their last empty look and letting go. An element
// published in that window must be taken by the owner's second look or by
// its producer; once every send has returned nothing may be left, with no
// final drain. Along the way the ring never has two consumers at once and
// each producer's elements come out in the order it sent them.
func TestOwnerNothingStrandedAtRelease(t *testing.T) {
	const producers, per = 4, 25_000
	c := &counter{r: NewMPSC[int](1024), next: make([]int, producers)}
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.send(p<<20 | i)
			}
		}(p)
	}
	wg.Wait()
	if n := c.handled.Load(); n != producers*per {
		t.Fatalf("handled %d of %d: an element was stranded in the ring", n, producers*per)
	}
	if c.overlap.Load() {
		t.Fatal("two callers consumed the ring at once")
	}
	if c.misord.Load() {
		t.Fatal("a producer's elements came out of order")
	}
	if c.own.owned.Load() {
		t.Fatal("the flag is still taken with every Drain returned")
	}
}

// offer is the run-in-place protocol over TryLock and Unlock. A producer
// that takes the flag handles its element without queueing it if the ring
// is empty, and otherwise queues it and handles what the ring holds at
// that moment; one that finds the flag taken queues its element and tries
// the flag once more. Whoever lets go with an element published hands the
// ring to a drainer, a plain Drain caller on a goroutine of its own.
func (c *counter) offer(v int, drainers *sync.WaitGroup) {
	switch {
	case !c.own.TryLock():
		for !c.r.Enqueue(v) { // full: an owner or a drainer is on it
			time.Sleep(time.Microsecond)
		}
		if !c.own.TryLock() {
			return
		}
		c.consume(c.r.Len())
	case c.r.Len() == 0:
		c.enter()
		c.handle(v)
		c.leave(1)
	default:
		for !c.r.Enqueue(v) {
			c.consume(c.r.Len())
		}
		c.consume(c.r.Len())
	}
	if c.own.Unlock(c) {
		drainers.Add(1)
		go func() {
			defer drainers.Done()
			c.own.Drain(c)
		}()
	}
}

// TestOwnerInPlaceNothingStranded is the liveness property of the
// run-in-place protocol: 10^5 lone offers from four producers, each
// waiting for its element to be handled before it offers the next, with
// owners that never consume what arrives after they look. An element
// published while its owner lets go must be reported by Unlock, and so
// reach a drainer, or be taken by its producer: one that is neither stays
// in the ring, and its producer waits in vain. Along the way the ring
// never has two consumers at once, and each producer's elements are
// handled in the order it sent them, whether in place, by an owner or by
// a drainer.
func TestOwnerInPlaceNothingStranded(t *testing.T) {
	const producers, per = 4, 25_000
	c := &counter{r: NewMPSC[int](1024), next: make([]int, producers),
		done: make([]atomic.Int64, producers)}
	var wg, drainers sync.WaitGroup
	var stranded atomic.Bool
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < per && !stranded.Load(); i++ {
				c.offer(p<<20|i, &drainers)
				for deadline := time.Now().Add(time.Second); c.done[p].Load() <= int64(i); {
					if time.Now().After(deadline) {
						stranded.Store(true)
						return
					}
					runtime.Gosched()
				}
			}
		}(p)
	}
	wg.Wait()
	drainers.Wait()
	if stranded.Load() {
		t.Fatal("an offered element was not handled within a second: stranded in the ring")
	}
	if n := c.handled.Load(); n != producers*per {
		t.Fatalf("handled %d of %d: an element was stranded in the ring", n, producers*per)
	}
	if c.overlap.Load() {
		t.Fatal("two callers consumed the ring at once")
	}
	if c.misord.Load() {
		t.Fatal("a producer's elements were handled out of order")
	}
	if c.own.owned.Load() {
		t.Fatal("the flag is still taken with every offer and drainer returned")
	}
}

// TestOwnerDrainReportsWhoServed: a lone Drain consumes its own element
// and reports it; a Drain against a held flag consumes nothing and leaves
// the element for the holder.
func TestOwnerDrainReportsWhoServed(t *testing.T) {
	c := &counter{r: NewMPSC[int](8), next: make([]int, 1)}
	c.r.Enqueue(0)
	if n := c.own.Drain(c); n != 1 {
		t.Fatalf("lone Drain handled %d, want 1", n)
	}
	c.own.Hold()
	c.r.Enqueue(1)
	if n := c.own.Drain(c); n != 0 {
		t.Fatalf("Drain against a held flag handled %d, want 0", n)
	}
	if c.r.Len() != 1 {
		t.Fatalf("ring holds %d, want the element left for the holder", c.r.Len())
	}
}

// TestOwnerHoldWaitsOutOwner: Hold returns only once the owner in flight
// has let go, and from then on Drain consumes nothing.
func TestOwnerHoldWaitsOutOwner(t *testing.T) {
	entered, gate := make(chan struct{}), make(chan struct{})
	var once sync.Once
	b := &blocking{r: NewMPSC[int](8), entered: entered, gate: gate, once: &once}
	b.r.Enqueue(1)
	go b.own.Drain(b)
	<-entered
	held := make(chan struct{})
	go func() {
		b.own.Hold()
		close(held)
	}()
	select {
	case <-held:
		t.Fatal("Hold returned while the owner was still consuming")
	case <-time.After(20 * time.Millisecond):
	}
	close(gate)
	<-held
	b.r.Enqueue(2)
	if n := b.own.Drain(b); n != 0 || b.handled.Load() != 1 {
		t.Fatalf("after Hold: Drain handled %d (total %d), want 0 (1)", n, b.handled.Load())
	}
}

// blocking is a consumer whose first element blocks until gate closes.
type blocking struct {
	own     Owner
	r       *MPSC[int]
	entered chan struct{}
	gate    chan struct{}
	once    *sync.Once
	handled atomic.Int64
}

func (b *blocking) Consume() (n int) {
	for _, ok := b.r.Dequeue(); ok; _, ok = b.r.Dequeue() {
		b.once.Do(func() {
			close(b.entered)
			<-b.gate
		})
		n++
	}
	b.handled.Add(int64(n))
	return n
}

func (b *blocking) Ready() bool { return b.r.Ready() }
