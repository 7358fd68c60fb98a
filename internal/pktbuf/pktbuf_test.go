package pktbuf

import (
	"bytes"
	"runtime"
	rtmetrics "runtime/metrics"
	"sync"
	"testing"
	"testing/quick"
)

func TestPoolGetRelease(t *testing.T) {
	p := NewPool(4, "op1")
	if p.Size() != 4 {
		t.Fatalf("Size = %d, want 4", p.Size())
	}
	bufs := make([]*Buf, 0, 4)
	for i := 0; i < 4; i++ {
		b, err := p.Get()
		if err != nil {
			t.Fatalf("Get %d: %v", i, err)
		}
		bufs = append(bufs, b)
	}
	if _, err := p.Get(); err != ErrPoolEmpty {
		t.Fatalf("Get on empty pool = %v, want ErrPoolEmpty", err)
	}
	for _, b := range bufs {
		b.Release()
	}
	if p.Avail() != 4 {
		t.Fatalf("Avail after release = %d, want 4", p.Avail())
	}
	gets, puts := p.Stats()
	if gets != 4 || puts != 4 {
		t.Fatalf("Stats = %d,%d want 4,4", gets, puts)
	}
}

func TestBufSetDataAndBytes(t *testing.T) {
	p := NewPool(1, "t")
	b, _ := p.Get()
	defer b.Release()
	payload := []byte("hello 5gc")
	if err := b.SetData(payload); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b.Bytes(), payload) {
		t.Fatalf("Bytes = %q, want %q", b.Bytes(), payload)
	}
	if b.Len() != len(payload) {
		t.Fatalf("Len = %d, want %d", b.Len(), len(payload))
	}
}

func TestBufSetDataTooLarge(t *testing.T) {
	p := NewPool(1, "t")
	b, _ := p.Get()
	defer b.Release()
	if err := b.SetData(make([]byte, MaxFrame)); err != ErrFrameTooLarge {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

func TestBufPrependTrimRoundTrip(t *testing.T) {
	p := NewPool(1, "t")
	b, _ := p.Get()
	defer b.Release()
	b.SetData([]byte("payload"))
	hdr, err := b.Prepend(8)
	if err != nil {
		t.Fatal(err)
	}
	copy(hdr, "GTPUHDR!")
	if got := string(b.Bytes()); got != "GTPUHDR!payload" {
		t.Fatalf("after prepend: %q", got)
	}
	if err := b.Trim(8); err != nil {
		t.Fatal(err)
	}
	if got := string(b.Bytes()); got != "payload" {
		t.Fatalf("after trim: %q", got)
	}
}

func TestBufPrependExceedsHeadroom(t *testing.T) {
	p := NewPool(1, "t")
	b, _ := p.Get()
	defer b.Release()
	if _, err := b.Prepend(Headroom + 1); err != ErrNoHeadroom {
		t.Fatalf("err = %v, want ErrNoHeadroom", err)
	}
	// Exactly Headroom must succeed.
	if _, err := b.Prepend(Headroom); err != nil {
		t.Fatalf("Prepend(Headroom) = %v", err)
	}
}

func TestBufTrimTooMuch(t *testing.T) {
	p := NewPool(1, "t")
	b, _ := p.Get()
	defer b.Release()
	b.SetData([]byte("abc"))
	if err := b.Trim(4); err != ErrShortFrame {
		t.Fatalf("err = %v, want ErrShortFrame", err)
	}
}

func TestBufAppend(t *testing.T) {
	p := NewPool(1, "t")
	b, _ := p.Get()
	defer b.Release()
	s, err := b.Append(4)
	if err != nil {
		t.Fatal(err)
	}
	copy(s, "abcd")
	if got := string(b.Bytes()); got != "abcd" {
		t.Fatalf("got %q", got)
	}
	if _, err := b.Append(MaxFrame); err != ErrFrameTooLarge {
		t.Fatalf("oversize append err = %v", err)
	}
}

func TestRetainRelease(t *testing.T) {
	p := NewPool(1, "t")
	b, _ := p.Get()
	b.Retain()
	b.Release()
	if p.Avail() != 0 {
		t.Fatal("buffer returned while still referenced")
	}
	b.Release()
	if p.Avail() != 1 {
		t.Fatal("buffer not returned after final release")
	}
}

func TestDoubleReleasePanics(t *testing.T) {
	p := NewPool(1, "t")
	b, _ := p.Get()
	b.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("double release should panic")
		}
	}()
	b.Release()
}

// A buffer that re-enters a free ring already holding every buffer is a
// genuine over-release and must still panic (put only retries while the
// ring is short of capacity).
func TestOverReleasePanics(t *testing.T) {
	p := NewPool(2, "t")
	b, _ := p.Get()
	b.Release()
	b.Retain() // forge a reference on a free buffer
	defer func() {
		if recover() == nil {
			t.Fatal("release into a full free ring should panic")
		}
	}()
	b.Release()
}

func TestMetaResetOnGet(t *testing.T) {
	p := NewPool(1, "t")
	b, _ := p.Get()
	b.Meta.TEID = 42
	b.Meta.Action = ActionToPort
	b.Release()
	b2, _ := p.Get()
	if b2.Meta.TEID != 0 || b2.Meta.Action != ActionDrop {
		t.Fatalf("Meta not reset: %+v", b2.Meta)
	}
}

func TestConcurrentGetRelease(t *testing.T) {
	p := NewPool(64, "t")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				b, err := p.Get()
				if err != nil {
					continue
				}
				b.SetData([]byte{1, 2, 3})
				b.Release()
			}
		}()
	}
	wg.Wait()
	if p.Avail() != 64 {
		t.Fatalf("leaked buffers: avail %d want 64", p.Avail())
	}
}

func TestActionString(t *testing.T) {
	for a, want := range map[Action]string{
		ActionDrop: "drop", ActionToNF: "tonf", ActionToPort: "toport",
		ActionBuffer: "buffer", Action(9): "invalid",
	} {
		if a.String() != want {
			t.Errorf("Action(%d).String() = %q, want %q", a, a.String(), want)
		}
	}
}

// Property: SetData followed by any valid sequence of Prepend/Trim pairs
// preserves the payload bytes.
func TestPrependTrimProperty(t *testing.T) {
	p := NewPool(1, "t")
	f := func(payload []byte, hdrSizes []uint8) bool {
		if len(payload) > MaxFrame-Headroom {
			payload = payload[:MaxFrame-Headroom]
		}
		b, err := p.Get()
		if err != nil {
			return false
		}
		defer b.Release()
		b.SetData(payload)
		applied := []int{}
		for _, h := range hdrSizes {
			n := int(h % 32)
			if _, err := b.Prepend(n); err != nil {
				break
			}
			applied = append(applied, n)
		}
		for i := len(applied) - 1; i >= 0; i-- {
			if err := b.Trim(applied[i]); err != nil {
				return false
			}
		}
		return bytes.Equal(b.Bytes(), payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPoolGetRelease(b *testing.B) {
	p := NewPool(1024, "bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf, _ := p.Get()
		buf.Release()
	}
}

// TestReleaseBulk pins the burst release: one reference dropped per
// buffer, only buffers with none left go back (together), a retained
// buffer survives, a buffer of another pool goes home to its own, and the
// lifetime counts stay exact.
func TestReleaseBulk(t *testing.T) {
	p, other := NewPool(8, "a"), NewPool(2, "b")
	var bufs []*Buf
	for i := 0; i < 6; i++ {
		b, err := p.Get()
		if err != nil {
			t.Fatal(err)
		}
		bufs = append(bufs, b)
	}
	retained := bufs[2]
	retained.Retain()
	foreign, _ := other.Get()
	bufs = append(bufs, foreign)

	p.ReleaseBulk(bufs)
	if got := p.Avail(); got != 7 {
		t.Fatalf("Avail = %d, want 7 (6 taken, 5 returned, 1 retained)", got)
	}
	if other.Avail() != 2 {
		t.Fatalf("foreign buffer not returned to its own pool: Avail = %d", other.Avail())
	}
	if gets, puts := p.Stats(); gets != 6 || puts != 5 {
		t.Fatalf("Stats = %d,%d want 6,5", gets, puts)
	}
	retained.Release()
	if p.Avail() != 8 {
		t.Fatalf("Avail = %d after the last reference went, want 8", p.Avail())
	}
	p.ReleaseBulk(nil)

	// One release too many is still caught.
	b, _ := p.Get()
	b.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("bulk release of a free buffer should panic")
		}
	}()
	p.ReleaseBulk([]*Buf{b})
}

// TestCacheHandsOutLastFreed: a cache hands out the buffer released into
// it last, ahead of every buffer waiting in the pool's ring, and a burst
// released together comes back last-first; past its capacity it gives its
// older half back to the ring.
func TestCacheHandsOutLastFreed(t *testing.T) {
	p := NewPool(2048, "t")
	c := p.NewCache()
	a, _ := c.Get()
	b, _ := c.Get()
	c.ReleaseBulk([]*Buf{a})
	c.ReleaseBulk([]*Buf{b})
	if got, _ := c.Get(); got != b {
		t.Fatal("Get did not hand out the buffer released last")
	}
	if got, _ := c.Get(); got != a {
		t.Fatal("Get did not hand out the buffer released before it")
	}
	var burst [cacheSize + 8]*Buf
	for i := range burst {
		burst[i], _ = p.Get()
	}
	burst[0], burst[1] = a, b
	want := burst[len(burst)-1]
	c.ReleaseBulk(burst[:])
	if c.n > cacheSize {
		t.Fatalf("cache holds %d, over its capacity %d", c.n, cacheSize)
	}
	if got, _ := c.Get(); got != want {
		t.Fatal("after a burst release, Get did not hand out the burst's last buffer")
	}
}

// TestCacheConservation has four goroutines, each the owner of a cache of
// its own, take and give back buffers in bursts of every size through
// their cache and the pool directly, publishing at random points, so every
// path — refill from an empty cache, spill from a full one, the ring on
// its own — runs concurrently. Nothing is lost or made up: once every
// cache has published, the lifetime counts agree with what the pool holds,
// gets - puts == Size - Avail, with and without buffers still out, and
// Avail == Size once the caches are flushed.
func TestCacheConservation(t *testing.T) {
	const size, workers, rounds = 1024, 4, 2000
	p := NewPool(size, "t")
	caches := make([]*Cache, workers)
	for w := range caches {
		caches[w] = p.NewCache()
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := caches[w]
			var held [cacheSize + 16]*Buf
			for r := 0; r < rounds; r++ {
				n := (r*7 + w) % len(held)
				got := 0
				for got < n {
					get := c.Get
					if r%5 == 0 {
						get = p.Get
					}
					b, err := get()
					if err != nil {
						break
					}
					held[got] = b
					got++
				}
				switch r % 3 {
				case 0:
					for _, b := range held[:got] {
						b.Release()
					}
				case 1:
					p.ReleaseBulk(held[:got])
				default:
					c.ReleaseBulk(held[:got])
				}
				if r%4 == w {
					c.Publish()
				}
			}
			c.Publish()
		}(w)
	}
	wg.Wait()
	check := func(out int) {
		t.Helper()
		gets, puts := p.Stats()
		if int(gets-puts) != size-p.Avail() || p.Avail() != size-out {
			t.Fatalf("gets %d - puts %d = %d, Size - Avail = %d - %d; want equal, with %d out",
				gets, puts, gets-puts, size, p.Avail(), out)
		}
	}
	check(0)
	var out []*Buf
	for i := 0; i < cacheSize/2; i++ {
		b, _ := caches[i%workers].Get()
		out = append(out, b)
	}
	for _, c := range caches {
		c.Publish()
	}
	check(len(out))
	caches[0].ReleaseBulk(out)
	caches[0].Publish()
	check(0)
	for _, c := range caches {
		c.Flush()
	}
	check(0)
	if pop := p.Populated(); p.free.Len() != pop || pop > size {
		t.Fatalf("free ring holds %d after every cache flushed, want the %d populated (of %d)",
			p.free.Len(), pop, size)
	}
}

// TestPoolPopulatesOnDemand: a new pool has allocated no buffer and counts
// them all free; the first Get populates one chunk, and a Get that finds
// the ring empty the next.
func TestPoolPopulatesOnDemand(t *testing.T) {
	const size = 8192
	p := NewPool(size, "t")
	if p.Populated() != 0 || p.Avail() != size {
		t.Fatalf("new pool: Populated %d, Avail %d; want 0, %d", p.Populated(), p.Avail(), size)
	}
	var held []*Buf
	for i := 0; i <= chunkBufs; i++ {
		b, err := p.Get()
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, b)
		want := chunkBufs
		if i == chunkBufs {
			want = 2 * chunkBufs
		}
		if p.Populated() != want {
			t.Fatalf("after %d gets Populated = %d, want %d", i+1, p.Populated(), want)
		}
	}
	if p.Avail() != size-len(held) {
		t.Fatalf("Avail = %d, want %d", p.Avail(), size-len(held))
	}
	p.ReleaseBulk(held)
	if p.Avail() != size || p.Populated() != 2*chunkBufs {
		t.Fatalf("after release: Avail %d, Populated %d; want %d, %d", p.Avail(), p.Populated(), size, 2*chunkBufs)
	}
}

// TestPoolEmptyExactlyAtSize takes buffers through a cache and from the
// pool directly, interleaved, from a pool whose size is neither a power
// of two nor a whole number of chunks. A Get fails only once every buffer
// is out or held by the cache, and both ways fail exactly when Size are
// out.
func TestPoolEmptyExactlyAtSize(t *testing.T) {
	const size = 3*chunkBufs + 37
	p := NewPool(size, "t")
	c := p.NewCache()
	var out []*Buf
	for cacheDone, poolDone := false, false; !cacheDone || !poolDone; {
		viaPool := len(out)%3 == 0
		if viaPool && poolDone || !viaPool && cacheDone {
			viaPool = !viaPool
		}
		get := c.Get
		if viaPool {
			get = p.Get
		}
		b, err := get()
		if err == nil {
			out = append(out, b)
			if p.Populated() > size {
				t.Fatalf("Populated = %d, over Size %d", p.Populated(), size)
			}
			continue
		}
		if err != ErrPoolEmpty {
			t.Fatal(err)
		}
		if viaPool {
			if len(out)+c.n != size {
				t.Fatalf("Pool.Get failed with %d out and %d cached, want %d together", len(out), c.n, size)
			}
			poolDone = true
		} else {
			if len(out) != size {
				t.Fatalf("Cache.Get failed with %d out, want %d", len(out), size)
			}
			cacheDone = true
		}
	}
	if p.Populated() != size {
		t.Fatalf("Populated = %d, want %d", p.Populated(), size)
	}
	if _, err := p.Get(); err != ErrPoolEmpty {
		t.Fatalf("Get with Size out = %v, want ErrPoolEmpty", err)
	}
	c.ReleaseBulk(out)
	c.Flush()
	if p.Avail() != size {
		t.Fatalf("Avail = %d after every buffer came back, want %d", p.Avail(), size)
	}
}

// TestPoolConcurrentGrowth has four goroutines take, stamp and give back
// buffers through caches of their own and the pool directly while the
// pool populates under them. No buffer is handed out twice, no two
// buffers share frame bytes, and population stops at Size.
func TestPoolConcurrentGrowth(t *testing.T) {
	const size, workers, rounds = 4*chunkBufs + 100, 4, 50
	p := NewPool(size, "t")
	var (
		mu     sync.Mutex
		holder = map[*Buf]int{}
		frames = map[*byte]bool{}
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := p.NewCache()
			defer c.Flush()
			var held []*Buf
			for r := 0; r < rounds; r++ {
				for len(held) < size/2 {
					get := c.Get
					if len(held)%2 == 0 {
						get = p.Get
					}
					b, err := get()
					if err != nil {
						break
					}
					mu.Lock()
					h, twice := holder[b]
					holder[b] = w
					frames[&b.mem[0]] = true
					mu.Unlock()
					if twice {
						t.Errorf("buffer handed to %d while %d holds it", w, h)
						return
					}
					b.SetData(bytes.Repeat([]byte{byte(w)}, 100))
					held = append(held, b)
				}
				for _, b := range held {
					if b.Bytes()[0] != byte(w) || b.Bytes()[99] != byte(w) {
						t.Errorf("frame of a buffer %d holds was overwritten", w)
						return
					}
					mu.Lock()
					delete(holder, b)
					mu.Unlock()
				}
				if r%2 == 0 {
					c.ReleaseBulk(held)
				} else {
					p.ReleaseBulk(held)
				}
				held = held[:0]
			}
		}(w)
	}
	wg.Wait()
	if p.Populated() > size {
		t.Fatalf("Populated = %d, over Size %d", p.Populated(), size)
	}
	if len(frames) != p.Populated() {
		t.Fatalf("%d distinct frames handed out, %d buffers populated", len(frames), p.Populated())
	}
	if p.Avail() != size {
		t.Fatalf("Avail = %d after every buffer came back, want %d", p.Avail(), size)
	}
}

// TestPoolStatsPartPopulated: the lifetime counts agree with Avail while
// the pool has populated only some of its buffers.
func TestPoolStatsPartPopulated(t *testing.T) {
	const size = 8192
	p := NewPool(size, "t")
	c := p.NewCache()
	var held []*Buf
	for i := 0; i < 300; i++ {
		get := p.Get
		if i%2 == 0 {
			get = c.Get
		}
		b, err := get()
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, b)
	}
	c.ReleaseBulk(held[:50])
	p.ReleaseBulk(held[50:100])
	c.Publish()
	if p.Populated() >= size {
		t.Fatalf("Populated = %d: the pool is not part-populated", p.Populated())
	}
	gets, puts := p.Stats()
	if int(gets-puts) != size-p.Avail() || p.Avail() != size-200 {
		t.Fatalf("gets %d - puts %d = %d, Size - Avail = %d - %d; want equal, with 200 out",
			gets, puts, gets-puts, size, p.Avail())
	}
}

// TestPoolFramesNotScanned: the frames of a fully used pool live in
// pointer-free slabs, so the heap the garbage collector scans grows by
// the buffer headers and the free ring only, not by 8192 frames of
// MaxFrame bytes (13 MB).
func TestPoolFramesNotScanned(t *testing.T) {
	scan := []rtmetrics.Sample{{Name: "/gc/scan/heap:bytes"}}
	runtime.GC()
	rtmetrics.Read(scan)
	before := scan[0].Value.Uint64()
	p := NewPool(8192, "t")
	held := make([]*Buf, 0, p.Size())
	for {
		b, err := p.Get()
		if err != nil {
			break
		}
		held = append(held, b)
	}
	runtime.GC()
	rtmetrics.Read(scan)
	grown := int64(scan[0].Value.Uint64()) - int64(before)
	if len(held) != p.Size() {
		t.Fatalf("took %d buffers, want %d", len(held), p.Size())
	}
	if grown >= 2<<20 {
		t.Fatalf("scannable heap grew by %.2f MB for a fully used pool, want under 2 MB", float64(grown)/(1<<20))
	}
	runtime.KeepAlive(held)
}
