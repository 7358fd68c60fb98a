package ring

import (
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
