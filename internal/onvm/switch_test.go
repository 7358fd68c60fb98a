package onvm

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"l25gc/internal/faults"
	"l25gc/internal/metrics"
	"l25gc/internal/pktbuf"
)

// TestNewManagerStartsNoGoroutine: the platform is only rings, so creating
// a manager and registering an NF starts no goroutine.
func TestNewManagerStartsNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	m := NewManager(Config{PoolSize: 8, PoolPrefix: "t"})
	defer m.Stop()
	if _, err := m.Register(1, "nf", func(*pktbuf.Buf) bool { return true }); err != nil {
		t.Fatal(err)
	}
	if n := runtime.NumGoroutine(); n != before {
		t.Fatalf("%d goroutines after NewManager + Register, %d before", n, before)
	}
}

// TestDelayedEgressDoesNotStallOtherNFs is the regression test for the
// inline time.Sleep in the old switch loop: a fault-delayed egress frame
// must not freeze every other NF behind the switch.
func TestDelayedEgressDoesNotStallOtherNFs(t *testing.T) {
	const delay = 150 * time.Millisecond
	m := NewManager(Config{PoolSize: 64, PoolPrefix: "t"})
	defer m.Stop()
	inj := faults.New(1).
		Add(faults.Rule{Point: "onvm.egress", Kind: faults.Delay, Count: 1, Delay: delay})
	m.SetInjector(inj, "onvm")

	var slowAt, fastAt atomic.Int64
	start := time.Now()
	m.RegisterPort(1, func(frame []byte, meta pktbuf.Meta) {
		slowAt.Store(int64(time.Since(start)))
	})
	m.RegisterPort(2, func(frame []byte, meta pktbuf.Meta) {
		fastAt.Store(int64(time.Since(start)))
	})
	fwd := func(port uint16) Handler {
		return func(b *pktbuf.Buf) bool {
			b.Meta.Action = pktbuf.ActionToPort
			b.Meta.Port = port
			return true
		}
	}
	m.Register(1, "slow", fwd(1))
	m.Register(2, "fast", fwd(2))
	m.BindPortNF(1, 1)
	m.BindPortNF(2, 2)

	if err := m.Inject(1, []byte("delayed"), pktbuf.Meta{}); err != nil {
		t.Fatal(err)
	}
	// Give the delayed frame time to reach the egress fault decision and
	// park in its timer, then send traffic for the second NF.
	time.Sleep(30 * time.Millisecond)
	if err := m.Inject(2, []byte("prompt"), pktbuf.Meta{}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return fastAt.Load() != 0 }, "prompt egress")
	if got := time.Duration(fastAt.Load()); got >= delay {
		t.Fatalf("second NF's frame egressed after %v: stalled behind the delayed frame (delay %v)", got, delay)
	}
	waitFor(t, func() bool { return slowAt.Load() != 0 }, "delayed egress")
	if got := time.Duration(slowAt.Load()); got < delay {
		t.Fatalf("delayed frame egressed after %v, want >= %v", got, delay)
	}
	waitFor(t, func() bool { return m.Pool().Avail() == 64 }, "buffer return")
}

// TestTxRingOverflowCountsDrops is the regression test for silent
// descriptor loss: when an NF's Tx ring stays full, the released
// descriptors must show up in txDrops and the dropped aggregate.
func TestTxRingOverflowCountsDrops(t *testing.T) {
	const total = 48
	m := NewManager(Config{PoolSize: 256, RingSize: 4, PoolPrefix: "t", BackpressureSpins: 4})
	defer m.Stop()

	release := make(chan struct{})
	unwedge := sync.OnceFunc(func() { close(release) })
	defer unwedge() // before Stop, which waits the wedged owner out
	blocked := make(chan struct{})
	var once sync.Once
	var egressed atomic.Uint64
	m.RegisterPort(9, func(frame []byte, meta pktbuf.Meta) {
		first := false
		once.Do(func() { first = true })
		if first {
			close(blocked)
			<-release // wedge the Tx ring's owner inside the egress sink
		}
		egressed.Add(1)
	})
	inst, err := m.Register(1, "fwd", func(b *pktbuf.Buf) bool {
		b.Meta.Action = pktbuf.ActionToPort
		b.Meta.Port = 9
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	m.BindPortNF(1, 1)

	// Primer: one frame handed straight to the Tx ring from another
	// goroutine, which then owns the ring and wedges in the sink.
	primer, err := m.Pool().Get()
	if err != nil {
		t.Fatal(err)
	}
	primer.SetData([]byte("primer"))
	primer.Meta.Action, primer.Meta.Port = pktbuf.ActionToPort, 9
	go inst.SendBurst([]*pktbuf.Buf{primer})
	<-blocked
	// Flood: deliveries and the handler still run on this goroutine, while
	// the NF's Tx ring backs up behind its wedged owner.
	for i := 0; i < total; i++ {
		for {
			err := m.Inject(1, []byte("flood"), pktbuf.Meta{})
			if err == nil {
				break
			}
			runtime.Gosched()
		}
	}
	if m.TxDrops() == 0 {
		t.Fatal("no tx-overflow drops counted")
	}
	unwedge()

	// Conservation: every injected frame either egressed or is accounted in
	// a drop counter, and all buffers come home.
	waitFor(t, func() bool {
		return egressed.Load()+m.TxDrops()+m.RingDrops().Load() == total+1
	}, "full accounting")
	if inst.TxDrops() != m.TxDrops() {
		t.Fatalf("instance txDrops %d != manager txDrops %d", inst.TxDrops(), m.TxDrops())
	}
	_, dropped := m.Stats()
	if dropped < m.TxDrops() {
		t.Fatalf("dropped aggregate %d does not fold in txDrops %d", dropped, m.TxDrops())
	}
	waitFor(t, func() bool { return m.Pool().Avail() == 256 }, "buffer return")
}

// TestTxHandbackWaitsForOwner: a descriptor handed back onto a Tx ring that
// another caller owns is left there — SendBurst returns at once, whatever
// the owner is doing — and the owner emits it before it lets go, with no
// further traffic to dislodge it.
func TestTxHandbackWaitsForOwner(t *testing.T) {
	m := NewManager(Config{PoolSize: 8, PoolPrefix: "t"})
	defer m.Stop()
	gate, held := make(chan struct{}), make(chan struct{})
	unwedge := sync.OnceFunc(func() { close(gate) })
	defer unwedge() // before Stop, which waits the wedged owner out
	var delivered atomic.Bool
	m.RegisterPort(3, func(frame []byte, meta pktbuf.Meta) {
		switch string(frame) {
		case "first":
			close(held)
			<-gate
		case "handed back":
			delivered.Store(true)
		}
	})
	inst, err := m.Register(1, "idle", func(b *pktbuf.Buf) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	frame := func(data string) *pktbuf.Buf {
		b, err := m.Pool().Get()
		if err != nil {
			t.Fatal(err)
		}
		b.SetData([]byte(data))
		b.Meta.Action, b.Meta.Port = pktbuf.ActionToPort, 3
		return b
	}
	first := frame("first")
	go inst.SendBurst([]*pktbuf.Buf{first})
	<-held
	if sent := inst.SendBurst([]*pktbuf.Buf{frame("handed back")}); sent != 1 {
		t.Fatalf("SendBurst = %d, want 1", sent)
	}
	if delivered.Load() {
		t.Fatal("the handed-back frame was emitted while the owner was wedged")
	}
	unwedge()
	waitFor(t, func() bool { return delivered.Load() }, "the owner emitting the handed-back frame")
	waitFor(t, func() bool { return m.Pool().Avail() == 8 }, "buffer return")
}

// TestStopWaitsOutOwnersAndReleasesQueued pins the teardown contract: Stop
// does not return while a caller is still running a ring (here, wedged in
// a handler with descriptors queued behind it in the NF's Rx ring), and
// every descriptor still queued anywhere — including
// one no owner will come for — is back in the pool when Stop returns.
func TestStopWaitsOutOwnersAndReleasesQueued(t *testing.T) {
	m := NewManager(Config{PoolSize: 128, PoolPrefix: "t"})
	entered, gate := make(chan struct{}), make(chan struct{})
	var once sync.Once
	m.Register(1, "slow", func(b *pktbuf.Buf) bool {
		once.Do(func() {
			close(entered)
			<-gate
		})
		b.Meta.Action = pktbuf.ActionDrop
		return true
	})
	m.BindPortNF(1, 1)
	// A descriptor left on an idle NF's Tx ring with no Drain after it:
	// nobody owns the ring, so only Stop can give it back.
	idle, err := m.Register(2, "idle", func(b *pktbuf.Buf) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	left, err := m.Pool().Get()
	if err != nil {
		t.Fatal(err)
	}
	if !idle.tx.r.Enqueue(left) {
		t.Fatal("tx enqueue failed")
	}
	go m.Inject(1, []byte("x"), pktbuf.Meta{})
	<-entered
	for i := 0; i < 60; i++ {
		if err := m.Inject(1, []byte("x"), pktbuf.Meta{}); err != nil {
			t.Fatal(err)
		}
	}
	stopped := make(chan struct{})
	go func() {
		m.Stop()
		close(stopped)
	}()
	select {
	case <-stopped:
		t.Fatal("Stop returned while a handler was still running")
	case <-time.After(20 * time.Millisecond):
	}
	if err := m.Inject(1, []byte("x"), pktbuf.Meta{}); err != ErrStopped {
		t.Fatalf("Inject during Stop = %v, want ErrStopped", err)
	}
	close(gate)
	<-stopped
	if avail := m.Pool().Avail(); avail != 128 {
		t.Fatalf("pool avail after Stop = %d, want 128 (descriptors leaked)", avail)
	}
}

// TestDelayedTimersAfterStopRelease: a fault-delayed delivery and a
// fault-delayed egress frame whose timers fire after Stop are released to
// the pool and counted in onvm.dropped; neither reaches the NF or the sink.
func TestDelayedTimersAfterStopRelease(t *testing.T) {
	// Long enough that both timers are still pending when Stop runs.
	const delay = 200 * time.Millisecond
	m := NewManager(Config{PoolSize: 8, PoolPrefix: "t"})
	reg := metrics.NewRegistry()
	m.ExportMetrics(reg, "onvm")
	inj := faults.New(1).
		Add(faults.Rule{Point: "onvm.deliver", Kind: faults.Delay, Count: 1, Delay: delay}).
		Add(faults.Rule{Point: "onvm.egress", Kind: faults.Delay, Count: 1, Delay: delay})
	m.SetInjector(inj, "onvm")
	var handled, egressed atomic.Uint64
	m.Register(1, "fwd", func(b *pktbuf.Buf) bool {
		handled.Add(1)
		b.Meta.Action, b.Meta.Port = pktbuf.ActionToPort, 2
		return true
	})
	m.RegisterPort(2, func([]byte, pktbuf.Meta) { egressed.Add(1) })
	m.BindPortNF(1, 1)

	// The first frame's delivery is delayed; the second reaches the NF and
	// its egress is delayed.
	for _, data := range []string{"delivery delayed", "egress delayed"} {
		if err := m.Inject(1, []byte(data), pktbuf.Meta{}); err != nil {
			t.Fatal(err)
		}
	}
	if n := m.Pool().Size() - m.Pool().Avail(); n != 2 || handled.Load() != 1 {
		t.Fatalf("%d buffers held, %d handled before Stop; want 2 held by timers, 1 handled", n, handled.Load())
	}
	m.Stop()
	waitFor(t, func() bool { return m.Pool().Avail() == 8 }, "both timers releasing their buffer")
	if got := reg.Snapshot().Counters["onvm.dropped"]; got != 2 {
		t.Fatalf("onvm.dropped = %d, want 2", got)
	}
	if handled.Load() != 1 || egressed.Load() != 0 {
		t.Fatalf("after Stop: handled %d, egressed %d; want 1, 0", handled.Load(), egressed.Load())
	}
}

// TestMultiProducerPerFlowFIFO drives many flows from 4 producers into 3
// instances of one service and asserts per-flow FIFO at egress.
func TestMultiProducerPerFlowFIFO(t *testing.T) {
	const (
		flows   = 16
		perFlow = 200
		port    = 7
	)
	// PoolSize below the NF ring capacity throttles in-flight descriptors so
	// Rx rings cannot overflow: every injected frame must egress.
	m := NewManager(Config{PoolSize: 512, PoolPrefix: "t"})
	defer m.Stop()

	var last [flows]atomic.Uint64
	var reorders, received atomic.Uint64
	m.RegisterPort(port, func(frame []byte, meta pktbuf.Meta) {
		f := meta.TEID
		if prev := last[f].Load(); meta.Seq <= prev {
			reorders.Add(1)
		}
		last[f].Store(meta.Seq)
		received.Add(1)
	})
	for i := 0; i < 3; i++ {
		if _, err := m.Register(1, "fwd", func(b *pktbuf.Buf) bool {
			b.Meta.Action = pktbuf.ActionToPort
			b.Meta.Port = port
			return true
		}); err != nil {
			t.Fatal(err)
		}
	}
	m.BindPortNF(1, 1)

	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for seq := uint64(1); seq <= perFlow; seq++ {
				for f := p; f < flows; f += 4 {
					meta := pktbuf.Meta{
						TEID: uint32(f),
						RSS:  uint64(f)*0x9e3779b97f4a7c15 + 1,
						Seq:  seq,
					}
					for {
						if err := m.Inject(1, []byte("pkt"), meta); err == nil {
							break
						}
						runtime.Gosched()
					}
				}
			}
		}(p)
	}
	wg.Wait()
	waitFor(t, func() bool { return received.Load() == flows*perFlow }, "all frames egressed")
	if reorders.Load() != 0 {
		t.Fatalf("%d per-flow reorders across 4 producers", reorders.Load())
	}
	// Every flow saw its final sequence number.
	for f := 0; f < flows; f++ {
		if last[f].Load() != perFlow {
			t.Fatalf("flow %d last seq = %d, want %d", f, last[f].Load(), perFlow)
		}
	}
	waitFor(t, func() bool { return m.Pool().Avail() == 512 }, "buffer return")
}
