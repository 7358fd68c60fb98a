package shm

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestMailboxSendRunsHandlerInline(t *testing.T) {
	var got []int
	m := NewMailbox(8, func(v int) { got = append(got, v) })
	for i := 0; i < 3; i++ {
		if err := m.Send(i); err != nil {
			t.Fatal(err)
		}
		// No other goroutine exists: the handler must have run already.
		if len(got) != i+1 || got[i] != i {
			t.Fatalf("after Send(%d) handled = %v", i, got)
		}
	}
	if inline, queued := m.ServedInline(), m.ServedQueued(); inline != 3 || queued != 0 {
		t.Fatalf("served = %d inline, %d queued; want 3, 0", inline, queued)
	}
}

// P producers × M messages: each handled exactly once, per-producer order
// kept, never two handlers at a time.
func TestMailboxManyProducers(t *testing.T) {
	const producers, per = 8, 2000
	var (
		inHandler atomic.Int32
		next      [producers]int // guarded by one-at-a-time dispatch itself
		handled   int
	)
	var m *Mailbox[[2]int]
	m = NewMailbox(64, func(v [2]int) {
		if n := inHandler.Add(1); n != 1 {
			t.Errorf("%d handlers running at once", n)
		}
		p, i := v[0], v[1]
		if next[p] != i {
			t.Errorf("producer %d: got message %d, want %d", p, i, next[p])
		}
		next[p] = i + 1
		handled++
		inHandler.Add(-1)
	})
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				for m.Send([2]int{p, i}) == ErrFull {
					time.Sleep(time.Microsecond)
				}
			}
		}(p)
	}
	wg.Wait()
	// Every Send has returned, so every drain has released: nothing may be
	// left in the ring.
	if handled != producers*per {
		t.Fatalf("handled %d of %d", handled, producers*per)
	}
	inline, queued := m.ServedInline(), m.ServedQueued()
	if inline+queued != producers*per {
		t.Fatalf("served = %d + %d, want %d in all", inline, queued, producers*per)
	}
}

// A descriptor published while the drainer is between its last empty
// Dequeue and the release must be picked up by one side or the other.
// Two senders with an empty handler spend nearly all their time in that
// window; a stranded descriptor shows as handled < sent once both are done.
func TestMailboxNothingStrandedAtRelease(t *testing.T) {
	const per = 200_000
	var handled atomic.Int64
	m := NewMailbox(1024, func(int) { handled.Add(1) })
	var wg sync.WaitGroup
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				for m.Send(i) == ErrFull { // the drainer lost its CPU
					time.Sleep(time.Microsecond)
				}
			}
		}()
	}
	wg.Wait()
	if n := handled.Load(); n != 2*per {
		t.Fatalf("handled %d of %d: a descriptor was stranded in the ring", n, 2*per)
	}
}

// A handler that sends to the mailbox it is being served from does not
// deadlock: its descriptor is queued and handled after it returns.
func TestMailboxHandlerSendsToOwnRing(t *testing.T) {
	var order []string
	var m *Mailbox[string]
	m = NewMailbox(8, func(v string) {
		order = append(order, "begin "+v)
		if v == "outer" {
			if err := m.Send("inner"); err != nil {
				t.Errorf("nested Send: %v", err)
			}
		}
		order = append(order, "end "+v)
	})
	if err := m.Send("outer"); err != nil {
		t.Fatal(err)
	}
	want := []string{"begin outer", "end outer", "begin inner", "end inner"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if inline, queued := m.ServedInline(), m.ServedQueued(); inline != 1 || queued != 1 {
		t.Fatalf("served = %d inline, %d queued; want 1, 1", inline, queued)
	}
}

func TestMailboxFull(t *testing.T) {
	block, entered := make(chan struct{}), make(chan struct{})
	m := NewMailbox(2, func(v int) {
		if v == 0 {
			close(entered)
			<-block
		}
	})
	done := make(chan error, 1)
	go func() { done <- m.Send(0) }()
	<-entered // the ring is empty again, its drainer stuck in the handler
	if err := m.Send(1); err != nil {
		t.Fatal(err)
	}
	if err := m.Send(2); err != nil {
		t.Fatal(err)
	}
	if err := m.Send(3); err != ErrFull {
		t.Fatalf("err = %v, want ErrFull", err)
	}
	close(block)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if inline, queued := m.ServedInline(), m.ServedQueued(); inline != 1 || queued != 2 {
		t.Fatalf("served = %d inline, %d queued; want 1, 2", inline, queued)
	}
}

func TestMailboxClose(t *testing.T) {
	var handled atomic.Int32
	m := NewMailbox(4, func(int) { handled.Add(1) })
	m.Send(1)
	m.Close()
	if err := m.Send(2); err != ErrClosed {
		t.Fatalf("Send after Close = %v", err)
	}
	m.Close() // idempotent
	if handled.Load() != 1 {
		t.Fatalf("handled = %d", handled.Load())
	}
}

// Close with a handler in flight: the handler finishes, what was queued
// behind it is discarded, and nothing starts afterwards.
func TestMailboxCloseWithHandlerInFlight(t *testing.T) {
	block, entered := make(chan struct{}), make(chan struct{})
	var handled atomic.Int32
	m := NewMailbox(8, func(v int) {
		if handled.Add(1) == 1 {
			close(entered)
			<-block
		}
	})
	done := make(chan struct{})
	go func() { m.Send(0); close(done) }()
	<-entered
	for i := 1; i <= 3; i++ {
		if err := m.Send(i); err != nil { // queued behind the blocked handler
			t.Fatal(err)
		}
	}
	m.Close() // must not wait for the handler
	if err := m.Send(9); err != ErrClosed {
		t.Fatalf("Send after Close = %v", err)
	}
	close(block)
	<-done
	if n := handled.Load(); n != 1 {
		t.Fatalf("%d handlers ran; the 3 queued behind Close must be discarded", n)
	}
}

func TestCallsCompleteBeforeAndAfterWait(t *testing.T) {
	c := NewCalls[int]()
	w := c.Begin(7)
	if !c.Complete(7, 42) {
		t.Fatal("Complete found no caller")
	}
	if c.Complete(7, 43) {
		t.Fatal("duplicate reply accepted")
	}
	if c.Complete(8, 1) {
		t.Fatal("reply for an unknown sequence number accepted")
	}
	if v, ok := w.Poll(); !ok || v != 42 {
		t.Fatalf("Poll = %d,%v", v, ok)
	}
	c.End(7, w)
	if c.Len() != 0 {
		t.Fatalf("Len = %d after End", c.Len())
	}
	if c.Complete(7, 44) {
		t.Fatal("late reply accepted after End")
	}

	w = c.Begin(9)
	go func() {
		time.Sleep(2 * time.Millisecond)
		c.Complete(9, 5)
	}()
	if v, err := w.Wait(time.Second, nil); err != nil || v != 5 {
		t.Fatalf("Wait = %d, %v", v, err)
	}
	c.End(9, w)
}

func TestCallWaitTimeoutCloseAndReuse(t *testing.T) {
	c := NewCalls[int]()
	w := c.Begin(1)
	if _, ok := w.Poll(); ok {
		t.Fatal("Poll on an unanswered call")
	}
	if _, err := w.Wait(5*time.Millisecond, nil); err != ErrTimeout {
		t.Fatalf("Wait = %v, want ErrTimeout", err)
	}
	// A retransmitting caller waits again on the same registration.
	c.Complete(1, 11)
	if v, err := w.Wait(time.Second, nil); err != nil || v != 11 {
		t.Fatalf("second Wait = %d, %v", v, err)
	}
	done := make(chan struct{})
	close(done)
	if _, err := w.Wait(time.Hour, done); err != ErrClosed {
		t.Fatalf("Wait on closed done = %v, want ErrClosed", err)
	}
	// An unread reply left in a recycled call must not reach its next user.
	c.Complete(1, 12)
	c.End(1, w)
	w2 := c.Begin(2)
	if v, ok := w2.Poll(); ok {
		t.Fatalf("recycled call delivered stale reply %d", v)
	}
	if _, err := w2.Wait(5*time.Millisecond, nil); err != ErrTimeout {
		t.Fatalf("Wait on recycled call = %v, want ErrTimeout", err)
	}
	c.End(2, w2)
}

func BenchmarkMailboxRoundTrip(b *testing.B) {
	m := NewMailbox(1024, func(int) {})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Send(i)
	}
}
