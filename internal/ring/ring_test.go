package ring

import (
	"runtime"
	"sync"
	"testing"
	"testing/quick"
)

func TestCapacityRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, 2}, {1, 2}, {2, 2}, {3, 4}, {5, 8}, {8, 8}, {1000, 1024},
	} {
		if got := NewMPSC[int](tc.in).Cap(); got != tc.want {
			t.Errorf("NewMPSC(%d).Cap() = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestMPSCBasic(t *testing.T) {
	r := NewMPSC[string](4)
	if !r.Enqueue("a") || !r.Enqueue("b") {
		t.Fatal("enqueue failed")
	}
	if v, ok := r.Dequeue(); !ok || v != "a" {
		t.Fatalf("got %q,%v", v, ok)
	}
	if v, ok := r.Dequeue(); !ok || v != "b" {
		t.Fatalf("got %q,%v", v, ok)
	}
	if _, ok := r.Dequeue(); ok {
		t.Fatal("dequeue on empty should fail")
	}
}

func TestMPSCFull(t *testing.T) {
	r := NewMPSC[int](2)
	if !r.Enqueue(1) || !r.Enqueue(2) {
		t.Fatal("fill failed")
	}
	if r.Enqueue(3) {
		t.Fatal("enqueue on full MPSC should fail")
	}
	if v, _ := r.Dequeue(); v != 1 {
		t.Fatal("fifo violated")
	}
	if !r.Enqueue(3) {
		t.Fatal("enqueue after dequeue should succeed")
	}
}

func TestMPSCManyProducers(t *testing.T) {
	const producers = 8
	const perProducer = 2000
	r := NewMPSC[int](1024)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				for !r.Enqueue(p*perProducer + i) {
				}
			}
		}(p)
	}
	got := make(map[int]bool, producers*perProducer)
	lastPer := make([]int, producers)
	for i := range lastPer {
		lastPer[i] = -1
	}
	done := make(chan struct{})
	go func() {
		for len(got) < producers*perProducer {
			if v, ok := r.Dequeue(); ok {
				if got[v] {
					t.Errorf("duplicate value %d", v)
					break
				}
				got[v] = true
				p, seq := v/perProducer, v%perProducer
				if seq <= lastPer[p] {
					t.Errorf("per-producer order violated: p%d seq %d after %d", p, seq, lastPer[p])
					break
				}
				lastPer[p] = seq
			}
		}
		close(done)
	}()
	wg.Wait()
	<-done
	if len(got) != producers*perProducer {
		t.Fatalf("received %d values, want %d", len(got), producers*perProducer)
	}
}

func TestMPSCFIFOProperty(t *testing.T) {
	f := func(capRaw uint8, vals []int32) bool {
		capacity := int(capRaw%64) + 1
		r := NewMPSC[int32](capacity)
		accepted := make([]int32, 0, len(vals))
		for _, v := range vals {
			if r.Enqueue(v) {
				accepted = append(accepted, v)
			}
		}
		for _, want := range accepted {
			got, ok := r.Dequeue()
			if !ok || got != want {
				return false
			}
		}
		_, ok := r.Dequeue()
		return !ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMPSCEnqueueDequeue(b *testing.B) {
	r := NewMPSC[int](1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Enqueue(i)
		r.Dequeue()
	}
}

// TestMPSCEnqueueBulkPartialFit pins the partial-fit contract: a bulk
// enqueue into a nearly full ring takes the leading elements that fit,
// reports how many, and leaves the ring's order intact.
func TestMPSCEnqueueBulkPartialFit(t *testing.T) {
	r := NewMPSC[int](8)
	if n := r.EnqueueBulk([]int{0, 1, 2, 3, 4, 5}); n != 6 {
		t.Fatalf("EnqueueBulk into empty ring = %d, want 6", n)
	}
	if n := r.EnqueueBulk([]int{6, 7, 8, 9}); n != 2 {
		t.Fatalf("EnqueueBulk with 2 slots free = %d, want 2", n)
	}
	if n := r.EnqueueBulk([]int{8}); n != 0 {
		t.Fatalf("EnqueueBulk into full ring = %d, want 0", n)
	}
	if r.Enqueue(8) {
		t.Fatal("Enqueue into full ring succeeded")
	}
	if n := r.EnqueueBulk(nil); n != 0 {
		t.Fatalf("EnqueueBulk(nil) = %d, want 0", n)
	}
	out := make([]int, 16)
	if n := r.DequeueBulk(out); n != 8 {
		t.Fatalf("DequeueBulk = %d, want 8", n)
	}
	for i, v := range out[:8] {
		if v != i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i)
		}
	}
	if n := r.DequeueBulk(out); n != 0 {
		t.Fatalf("DequeueBulk on empty ring = %d, want 0", n)
	}
}

// TestMPSCBulkWrapAround laps a small ring many times with bursts whose
// sizes do not divide its capacity, mixing bulk and single operations.
func TestMPSCBulkWrapAround(t *testing.T) {
	r := NewMPSC[int](8)
	next, want := 0, 0
	in := make([]int, 5)
	out := make([]int, 3)
	for lap := 0; lap < 1000; lap++ {
		for i := range in {
			in[i] = next + i
		}
		next += r.EnqueueBulk(in)
		if lap%7 == 0 && r.Enqueue(next) {
			next++
		}
		for _, v := range out[:r.DequeueBulk(out)] {
			if v != want {
				t.Fatalf("lap %d: dequeued %d, want %d", lap, v, want)
			}
			want++
		}
		if lap%5 == 0 {
			if v, ok := r.Dequeue(); ok {
				if v != want {
					t.Fatalf("lap %d: Dequeue = %d, want %d", lap, v, want)
				}
				want++
			}
		}
		if got := r.Len(); got != next-want {
			t.Fatalf("lap %d: Len = %d, want %d", lap, got, next-want)
		}
	}
	if want == 0 {
		t.Fatal("nothing moved")
	}
}

// TestMPSCBulkProducersFIFO runs four bulk producers against the single
// consumer: every element arrives exactly once, each producer's elements
// in the order it enqueued them, and one burst's elements contiguously
// unless the ring filled mid-burst.
func TestMPSCBulkProducersFIFO(t *testing.T) {
	const (
		producers   = 4
		perProducer = 20000
		burst       = 13
	)
	r := NewMPSC[int](256)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			buf := make([]int, burst)
			for sent := 0; sent < perProducer; {
				n := burst
				if perProducer-sent < n {
					n = perProducer - sent
				}
				for i := 0; i < n; i++ {
					buf[i] = p*perProducer + sent + i
				}
				k := r.EnqueueBulk(buf[:n])
				sent += k
				if k == 0 {
					runtime.Gosched()
				}
			}
		}(p)
	}
	next := make([]int, producers)
	out := make([]int, 64)
	for got := 0; got < producers*perProducer; {
		n := r.DequeueBulk(out)
		if n == 0 {
			runtime.Gosched()
			continue
		}
		for _, v := range out[:n] {
			p, seq := v/perProducer, v%perProducer
			if seq != next[p] {
				t.Fatalf("producer %d: got seq %d, want %d", p, seq, next[p])
			}
			next[p]++
		}
		got += n
	}
	wg.Wait()
	if r.Len() != 0 {
		t.Fatalf("ring holds %d elements after all were consumed", r.Len())
	}
}

// TestMPSCDequeueBulkStopsAtUnpublished holds a slot between its
// reservation and its publication and checks that the consumer stops in
// front of it — it must neither return the slot's stale contents nor step
// over it to the published slots behind.
func TestMPSCDequeueBulkStopsAtUnpublished(t *testing.T) {
	r := NewMPSC[int](8)
	r.EnqueueBulk([]int{10, 11})
	// Reserve position 2 the way a producer does, without publishing it.
	held := r.tail.Load()
	if !r.tail.CompareAndSwap(held, held+1) {
		t.Fatal("reservation failed")
	}
	r.EnqueueBulk([]int{13, 14}) // published, but behind the held slot
	out := make([]int, 8)
	if n := r.DequeueBulk(out); n != 2 || out[0] != 10 || out[1] != 11 {
		t.Fatalf("DequeueBulk = %d %v, want the 2 elements in front of the held slot", n, out[:n])
	}
	if n := r.DequeueBulk(out); n != 0 {
		t.Fatalf("DequeueBulk returned %d elements past an unpublished slot", n)
	}
	if _, ok := r.Dequeue(); ok {
		t.Fatal("Dequeue returned an unpublished slot")
	}
	if r.Ready() || r.Len() != 3 {
		t.Fatalf("Ready = %v, Len = %d with only a reserved slot at the head; want false, 3", r.Ready(), r.Len())
	}
	// Publish it; everything behind becomes visible in order.
	s := &r.buf[held&r.mask]
	s.v = 12
	s.seq.Store(held + 1)
	if !r.Ready() {
		t.Fatal("Ready = false with a published element at the head")
	}
	if n := r.DequeueBulk(out); n != 3 || out[0] != 12 || out[1] != 13 || out[2] != 14 {
		t.Fatalf("after publication DequeueBulk = %d %v, want [12 13 14]", n, out[:n])
	}
}

func BenchmarkMPSCBulk64(b *testing.B) {
	r := NewMPSC[int](1024)
	var in, out [64]int
	b.ReportAllocs()
	for i := 0; i < b.N; i += 64 {
		r.EnqueueBulk(in[:])
		r.DequeueBulk(out[:])
	}
}
