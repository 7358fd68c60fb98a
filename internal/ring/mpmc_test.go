package ring

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestMPMCBasic(t *testing.T) {
	r := NewMPMC[int](4)
	if !r.Enqueue(1) || !r.Enqueue(2) {
		t.Fatal("enqueue failed")
	}
	if v, ok := r.Dequeue(); !ok || v != 1 {
		t.Fatalf("got %d,%v want 1,true", v, ok)
	}
	if v, ok := r.Dequeue(); !ok || v != 2 {
		t.Fatalf("got %d,%v want 2,true", v, ok)
	}
	if _, ok := r.Dequeue(); ok {
		t.Fatal("dequeue on empty should fail")
	}
}

func TestMPMCFullEmpty(t *testing.T) {
	r := NewMPMC[int](2)
	if !r.Enqueue(1) || !r.Enqueue(2) {
		t.Fatal("fill failed")
	}
	if r.Enqueue(3) {
		t.Fatal("enqueue on full should fail")
	}
	r.Dequeue()
	if !r.Enqueue(3) {
		t.Fatal("enqueue after drain should succeed")
	}
}

func TestMPMCConcurrentConservation(t *testing.T) {
	const producers, consumers, per = 4, 4, 2000
	r := NewMPMC[int](128)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				for !r.Enqueue(p*per + i) {
				}
			}
		}(p)
	}
	var mu sync.Mutex
	got := make(map[int]bool, producers*per)
	var cwg sync.WaitGroup
	stop := make(chan struct{})
	for c := 0; c < consumers; c++ {
		cwg.Add(1)
		go func() {
			defer cwg.Done()
			for {
				if v, ok := r.Dequeue(); ok {
					mu.Lock()
					if got[v] {
						t.Errorf("duplicate %d", v)
					}
					got[v] = true
					done := len(got) == producers*per
					mu.Unlock()
					if done {
						close(stop)
						return
					}
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	wg.Wait()
	cwg.Wait()
	if len(got) != producers*per {
		t.Fatalf("received %d, want %d", len(got), producers*per)
	}
}

func TestMPMCFIFOProperty(t *testing.T) {
	f := func(capRaw uint8, vals []int16) bool {
		r := NewMPMC[int16](int(capRaw%32) + 1)
		accepted := vals[:0:0]
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

// TestMPMCEnqueueBulk covers the free-list use of the bulk enqueue:
// partial fit, and concurrent bulk producers against concurrent consumers
// with every element arriving exactly once.
func TestMPMCEnqueueBulk(t *testing.T) {
	r := NewMPMC[int](8)
	if n := r.EnqueueBulk([]int{0, 1, 2, 3, 4, 5}); n != 6 {
		t.Fatalf("EnqueueBulk into empty ring = %d, want 6", n)
	}
	if n := r.EnqueueBulk([]int{6, 7, 8}); n != 2 {
		t.Fatalf("EnqueueBulk with 2 slots free = %d, want 2", n)
	}
	if n := r.EnqueueBulk([]int{8}); n != 0 {
		t.Fatalf("EnqueueBulk into full ring = %d, want 0", n)
	}
	if r.Enqueued() != 8 || r.Dequeued() != 0 {
		t.Fatalf("cursors = %d/%d, want 8/0", r.Enqueued(), r.Dequeued())
	}
	for want := 0; want < 8; want++ {
		if v, ok := r.Dequeue(); !ok || v != want {
			t.Fatalf("Dequeue = %d,%v, want %d", v, ok, want)
		}
	}

	const producers, consumers, perProducer = 3, 3, 30000
	ring := NewMPMC[int](64)
	var seen [producers * perProducer]atomic.Int32
	var got atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			buf := make([]int, 7)
			for sent := 0; sent < perProducer; {
				n := len(buf)
				if perProducer-sent < n {
					n = perProducer - sent
				}
				for i := 0; i < n; i++ {
					buf[i] = p*perProducer + sent + i
				}
				k := ring.EnqueueBulk(buf[:n])
				sent += k
				if k == 0 {
					runtime.Gosched()
				}
			}
		}(p)
	}
	for c := 0; c < consumers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for got.Load() < producers*perProducer {
				v, ok := ring.Dequeue()
				if !ok {
					runtime.Gosched()
					continue
				}
				seen[v].Add(1)
				got.Add(1)
			}
		}()
	}
	wg.Wait()
	for v := range seen {
		if n := seen[v].Load(); n != 1 {
			t.Fatalf("element %d arrived %d times", v, n)
		}
	}
}
