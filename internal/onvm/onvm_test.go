package onvm

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"l25gc/internal/faults"
	"l25gc/internal/pktbuf"
	"l25gc/internal/testutil"
	"l25gc/internal/trace"
)

func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestInjectToNFToPort(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	m := NewManager(Config{PoolSize: 64, PoolPrefix: "t"})
	defer m.Stop()

	var got atomic.Value
	m.RegisterPort(2, func(frame []byte, meta pktbuf.Meta) {
		cp := append([]byte(nil), frame...)
		got.Store(cp)
	})
	// NF: uppercase the payload and forward to port 2.
	_, err := m.Register(1, "shout", func(b *pktbuf.Buf) bool {
		d := b.Bytes()
		for i := range d {
			if d[i] >= 'a' && d[i] <= 'z' {
				d[i] -= 32
			}
		}
		b.Meta.Action = pktbuf.ActionToPort
		b.Meta.Port = 2
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	m.BindPortNF(1, 1)
	if err := m.Inject(1, []byte("hello"), pktbuf.Meta{}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return got.Load() != nil }, "port delivery")
	if string(got.Load().([]byte)) != "HELLO" {
		t.Fatalf("got %q", got.Load())
	}
	// Buffer must be back in the pool.
	waitFor(t, func() bool { return m.Pool().Avail() == 64 }, "buffer return")
}

func TestServiceChain(t *testing.T) {
	m := NewManager(Config{PoolSize: 64, PoolPrefix: "t"})
	defer m.Stop()

	var order []string
	var mu sync.Mutex
	var done atomic.Bool
	m.RegisterPort(9, func(frame []byte, meta pktbuf.Meta) { done.Store(true) })

	mkNF := func(name string, next uint16, toPort bool) Handler {
		return func(b *pktbuf.Buf) bool {
			mu.Lock()
			order = append(order, name)
			mu.Unlock()
			if toPort {
				b.Meta.Action = pktbuf.ActionToPort
				b.Meta.Port = 9
			} else {
				b.Meta.Action = pktbuf.ActionToNF
				b.Meta.Dst = next
			}
			return true
		}
	}
	m.Register(10, "a", mkNF("a", 11, false))
	m.Register(11, "b", mkNF("b", 12, false))
	m.Register(12, "c", mkNF("c", 0, true))
	m.BindPortNF(1, 10)
	m.Inject(1, []byte("x"), pktbuf.Meta{})
	waitFor(t, func() bool { return done.Load() }, "chain completion")
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Fatalf("chain order = %v", order)
	}
}

func TestDropAction(t *testing.T) {
	m := NewManager(Config{PoolSize: 8, PoolPrefix: "t"})
	defer m.Stop()
	m.Register(1, "dropper", func(b *pktbuf.Buf) bool {
		b.Meta.Action = pktbuf.ActionDrop
		return true
	})
	m.BindPortNF(1, 1)
	for i := 0; i < 5; i++ {
		if err := m.Inject(1, []byte("z"), pktbuf.Meta{}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { _, d := m.Stats(); return d == 5 }, "drops counted")
	waitFor(t, func() bool { return m.Pool().Avail() == 8 }, "buffers recycled")
}

func TestHandlerKeepsOwnership(t *testing.T) {
	m := NewManager(Config{PoolSize: 8, PoolPrefix: "t"})
	defer m.Stop()
	var parked atomic.Pointer[pktbuf.Buf]
	inst, _ := m.Register(1, "parker", func(b *pktbuf.Buf) bool {
		parked.Store(b)
		return false // keep the descriptor (session buffering)
	})
	m.BindPortNF(1, 1)
	m.Inject(1, []byte("hold"), pktbuf.Meta{})
	waitFor(t, func() bool { return parked.Load() != nil }, "parked buffer")
	if m.Pool().Avail() != 7 {
		t.Fatalf("avail = %d, want 7 while parked", m.Pool().Avail())
	}
	// Later the NF re-emits the parked packet (e.g. after handover).
	b := parked.Load()
	b.Meta.Action = pktbuf.ActionToPort
	b.Meta.Port = 5
	var delivered atomic.Bool
	m.RegisterPort(5, func(frame []byte, meta pktbuf.Meta) {
		if string(frame) == "hold" {
			delivered.Store(true)
		}
	})
	if sent := inst.SendBurst([]*pktbuf.Buf{b}); sent != 1 {
		t.Fatalf("SendBurst accepted %d descriptors, want 1", sent)
	}
	waitFor(t, func() bool { return delivered.Load() }, "late delivery")
	waitFor(t, func() bool { return m.Pool().Avail() == 8 }, "buffer recycled")
}

func TestInjectUnknownPort(t *testing.T) {
	m := NewManager(Config{PoolSize: 8, PoolPrefix: "t"})
	defer m.Stop()
	if err := m.Inject(77, []byte("x"), pktbuf.Meta{}); err != ErrNoPort {
		t.Fatalf("err = %v, want ErrNoPort", err)
	}
}

func TestDeliverUnknownServiceDrops(t *testing.T) {
	m := NewManager(Config{PoolSize: 8, PoolPrefix: "t"})
	defer m.Stop()
	m.Register(1, "fwd", func(b *pktbuf.Buf) bool {
		b.Meta.Action = pktbuf.ActionToNF
		b.Meta.Dst = 99 // nobody home
		return true
	})
	m.BindPortNF(1, 1)
	m.Inject(1, []byte("x"), pktbuf.Meta{})
	waitFor(t, func() bool { _, d := m.Stats(); return d == 1 }, "drop counted")
	waitFor(t, func() bool { return m.Pool().Avail() == 8 }, "buffer recycled")
}

func TestCanarySplit(t *testing.T) {
	m := NewManager(Config{PoolSize: 2048, PoolPrefix: "t"})
	defer m.Stop()
	var stable, canary atomic.Uint64
	sink := func(counter *atomic.Uint64) Handler {
		return func(b *pktbuf.Buf) bool {
			counter.Add(1)
			b.Meta.Action = pktbuf.ActionDrop
			return true
		}
	}
	m.Register(1, "v1", sink(&stable))
	m.Register(1, "v2", sink(&canary))
	if err := m.SetCanary(1, 25); err != nil {
		t.Fatal(err)
	}
	if err := m.SetCanary(1, 150); err != ErrBadPercent {
		t.Fatalf("bad percent: %v", err)
	}
	m.BindPortNF(1, 1)
	const n = 1000
	for i := 0; i < n; i++ {
		// Distinct TEIDs = distinct flows for the RSS hash.
		m.Inject(1, []byte("p"), pktbuf.Meta{TEID: uint32(i)})
	}
	waitFor(t, func() bool { return stable.Load()+canary.Load() == n }, "all processed")
	frac := float64(canary.Load()) / n
	if frac < 0.15 || frac > 0.35 {
		t.Fatalf("canary fraction = %.2f, want ~0.25", frac)
	}
}

func TestRSSSpreadsAcrossInstances(t *testing.T) {
	m := NewManager(Config{PoolSize: 2048, PoolPrefix: "t"})
	defer m.Stop()
	var a, b atomic.Uint64
	drop := func(c *atomic.Uint64) Handler {
		return func(buf *pktbuf.Buf) bool {
			c.Add(1)
			buf.Meta.Action = pktbuf.ActionDrop
			return true
		}
	}
	m.Register(1, "i0", drop(&a))
	m.Register(1, "i1", drop(&b))
	m.BindPortNF(1, 1)
	const n = 1000
	for i := 0; i < n; i++ {
		m.Inject(1, []byte("p"), pktbuf.Meta{TEID: uint32(i)})
	}
	waitFor(t, func() bool { return a.Load()+b.Load() == n }, "all processed")
	if a.Load() == 0 || b.Load() == 0 {
		t.Fatalf("RSS did not spread: %d/%d", a.Load(), b.Load())
	}
	// Same flow (same TEID) must always hit the same instance.
	a.Store(0)
	b.Store(0)
	for i := 0; i < 100; i++ {
		m.Inject(1, []byte("p"), pktbuf.Meta{TEID: 42})
	}
	waitFor(t, func() bool { return a.Load()+b.Load() == 100 }, "flow processed")
	if a.Load() != 0 && b.Load() != 0 {
		t.Fatalf("one flow split across instances: %d/%d", a.Load(), b.Load())
	}
}

func TestSecurityDomainPrefixes(t *testing.T) {
	m1 := NewManager(Config{PoolSize: 8, PoolPrefix: "operatorA"})
	defer m1.Stop()
	m2 := NewManager(Config{PoolSize: 8, PoolPrefix: "operatorB"})
	defer m2.Stop()
	if m1.Pool().Prefix() == m2.Pool().Prefix() {
		t.Fatal("distinct 5GC units must have distinct pool prefixes")
	}
	// Buffers from one pool must never be returnable to the other: the
	// pools are fully disjoint objects.
	b1, _ := m1.Pool().Get()
	if m2.Pool().Avail() != 8 {
		t.Fatal("pools share state")
	}
	b1.Release()
}

func TestStopIsIdempotentAndTerminatesNFs(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	m := NewManager(Config{PoolSize: 8, PoolPrefix: "t"})
	m.Register(1, "nf", func(b *pktbuf.Buf) bool {
		b.Meta.Action = pktbuf.ActionDrop
		return true
	})
	m.Stop()
	m.Stop()
	if err := m.Inject(1, []byte("x"), pktbuf.Meta{}); err != ErrStopped {
		t.Fatalf("Inject after stop = %v", err)
	}
}

// BenchmarkDescriptorSwitch compares the descriptor hot path with tracing
// disabled (nil track: one atomic load per stage) and enabled; the
// disabled variant is the acceptance bar for instrumentation overhead.
func BenchmarkDescriptorSwitch(b *testing.B) {
	b.Run("tracer=off", func(b *testing.B) { benchSwitch(b, nil) })
	b.Run("tracer=on", func(b *testing.B) { benchSwitch(b, trace.New()) })
}

// benchSwitch ping-pongs one descriptor at a time, so the measurement is
// the per-descriptor inject -> switch -> NF -> switch -> egress cost
// without flood-control artifacts on a single CPU.
func benchSwitch(b *testing.B, tr *trace.Tracer) {
	m := NewManager(Config{PoolSize: 64, PoolPrefix: "bench"})
	defer m.Stop()
	m.SetTracer(trace.NewTrack(tr, "onvm"))
	done := make(chan struct{}, 1)
	m.Register(1, "fwd", func(buf *pktbuf.Buf) bool {
		buf.Meta.Action = pktbuf.ActionToPort
		buf.Meta.Port = 2
		return true
	})
	m.RegisterPort(2, func(frame []byte, meta pktbuf.Meta) { done <- struct{}{} })
	m.BindPortNF(1, 1)
	payload := make([]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Inject(1, payload, pktbuf.Meta{}); err != nil {
			b.Fatal(err)
		}
		<-done
		if tr != nil && i%4096 == 4095 {
			tr.Reset() // bound span memory; Reset cost stays in-measure
		}
	}
}

// BenchmarkInlineHop is one Inject through an idle one-NF chain to a sink
// that only counts: the whole per-packet cost of the platform on its
// caller (buffer, handler, switch, release), with no hand-off to measure.
func BenchmarkInlineHop(b *testing.B) {
	m := NewManager(Config{PoolSize: 1024, PoolPrefix: "bench"})
	defer m.Stop()
	m.Register(1, "fwd", func(buf *pktbuf.Buf) bool {
		buf.Meta.Action, buf.Meta.Port = pktbuf.ActionToPort, 2
		return true
	})
	var out int
	m.RegisterPort(2, func([]byte, pktbuf.Meta) { out++ })
	m.BindPortNF(1, 1)
	payload := make([]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A stamped flow hash: the frame is not parsed for one.
		if err := m.Inject(1, payload, pktbuf.Meta{RSS: 1}); err != nil {
			b.Fatal(err)
		}
	}
	if out != b.N {
		b.Fatalf("%d of %d packets out", out, b.N)
	}
}

func TestRingSizeHonored(t *testing.T) {
	m := NewManager(Config{PoolSize: 64, RingSize: 4, PoolPrefix: "t"})
	defer m.Stop()
	if m.ringSize() != 4 {
		t.Fatalf("ringSize = %d, want 4", m.ringSize())
	}
}

func TestBackpressureCountsRingOverflowDrops(t *testing.T) {
	// Tiny ring, NF wedged until released: an Inject delivering into it
	// backpressures briefly then counts overflow drops instead of blocking
	// forever. The primer wedges its injecting goroutine in the handler,
	// holding the NF's Rx ring; the rest arrive from this goroutine.
	m := NewManager(Config{PoolSize: 256, RingSize: 2, PoolPrefix: "t", BackpressureSpins: 4})
	defer m.Stop()
	release, entered := make(chan struct{}), make(chan struct{})
	unwedge := sync.OnceFunc(func() { close(release) })
	defer unwedge() // before Stop, which waits the wedged handler out
	var once sync.Once
	var handled atomic.Uint64
	if _, err := m.Register(1, "wedged", func(b *pktbuf.Buf) bool {
		once.Do(func() { close(entered) })
		<-release
		handled.Add(1)
		b.Meta.Action = pktbuf.ActionDrop
		return true
	}); err != nil {
		t.Fatal(err)
	}
	m.BindPortNF(1, 1)
	const total = 64
	primed := make(chan error, 1)
	go func() { primed <- m.Inject(1, []byte("pkt"), pktbuf.Meta{}) }()
	<-entered
	for i := 1; i < total; i++ {
		if err := m.Inject(1, []byte("pkt"), pktbuf.Meta{}); err != nil {
			t.Fatal(err)
		}
	}
	if m.RingDrops().Load() == 0 {
		t.Fatal("no ring overflow drops with the NF wedged")
	}
	unwedge()
	if err := <-primed; err != nil {
		t.Fatal(err)
	}
	// Everything is accounted for: each packet was either delivered to the
	// NF or counted as a ring-overflow drop, and all buffers come home. The
	// primer's Inject ran only its own packet; the ones queued behind it go
	// through a drainer, which may still be running when it returns.
	waitFor(t, func() bool { return handled.Load()+m.RingDrops().Load() == total },
		"handled + ring drops == total")
	waitFor(t, func() bool { return m.Pool().Avail() == 256 }, "buffer return")
}

func TestInjectorDropsAndDelaysDescriptors(t *testing.T) {
	m := NewManager(Config{PoolSize: 64, PoolPrefix: "t"})
	defer m.Stop()
	inj := faults.New(7).
		Add(faults.Rule{Point: "onvm.deliver", Kind: faults.Drop, Count: 3}).
		Add(faults.Rule{Point: "onvm.deliver", Kind: faults.Delay,
			After: 3, Count: 1, Delay: 20 * time.Millisecond})
	m.SetInjector(inj, "onvm")
	var handled atomic.Uint64
	if _, err := m.Register(1, "sink", func(b *pktbuf.Buf) bool {
		handled.Add(1)
		b.Meta.Action = pktbuf.ActionDrop
		return true
	}); err != nil {
		t.Fatal(err)
	}
	m.BindPortNF(1, 1)
	start := time.Now()
	for i := 0; i < 5; i++ {
		if err := m.Inject(1, []byte("pkt"), pktbuf.Meta{}); err != nil {
			t.Fatal(err)
		}
	}
	// 3 dropped, 1 delayed, 1 straight through: 2 reach the NF.
	waitFor(t, func() bool { return handled.Load() == 2 }, "injected delivery")
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
		t.Fatalf("delayed descriptor arrived after %v, want >= 20ms", elapsed)
	}
	if got := inj.Count("onvm.deliver", faults.Drop); got != 3 {
		t.Fatalf("injector drop count = %d, want 3", got)
	}
	waitFor(t, func() bool { return m.Pool().Avail() == 64 }, "buffer return")
}
