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
	"l25gc/internal/testutil"
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
// descriptor loss: when an NF's Tx ring stays full, the descriptors
// SendBurst could not hand over must show up in txDrops and the dropped
// aggregate, and go back to the caller.
func TestTxRingOverflowCountsDrops(t *testing.T) {
	const total, burst = 48, 8
	m := NewManager(Config{PoolSize: 256, RingSize: 4, PoolPrefix: "t", BackpressureSpins: 4})
	defer m.Stop()

	release := make(chan struct{})
	unwedge := sync.OnceFunc(func() { close(release) })
	defer unwedge() // before Stop, which waits the wedged holder out
	blocked := make(chan struct{})
	var once sync.Once
	var egressed atomic.Uint64
	m.RegisterPort(9, func(frame []byte, meta pktbuf.Meta) {
		first := false
		once.Do(func() { first = true })
		if first {
			close(blocked)
			<-release // wedge the instance's holder inside the egress sink
		}
		egressed.Add(1)
	})
	inst, err := m.Register(1, "fwd", func(b *pktbuf.Buf) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	frame := func(data string) *pktbuf.Buf {
		b, err := m.Pool().Get()
		if err != nil {
			t.Fatal(err)
		}
		b.SetData([]byte(data))
		b.Meta.Action, b.Meta.Port = pktbuf.ActionToPort, 9
		return b
	}

	// Primer: one frame handed back from another goroutine, which then
	// holds the instance and wedges in the sink.
	go inst.SendBurst([]*pktbuf.Buf{frame("primer")})
	<-blocked
	// Flood: from another goroutine, bursts handed back while the
	// instance's Tx ring backs up behind its wedged holder. What SendBurst
	// did not take stays with its caller, which releases it.
	flooded := make(chan uint64)
	bufs := make([]*pktbuf.Buf, total)
	for i := range bufs {
		bufs[i] = frame("flood")
	}
	go func() {
		var sent uint64
		for i := 0; i < total; i += burst {
			b := bufs[i : i+burst]
			n := inst.SendBurst(b)
			sent += uint64(n)
			m.Pool().ReleaseBulk(b[n:])
		}
		flooded <- sent
	}()
	sent := <-flooded
	if m.TxDrops() == 0 || m.TxDrops() != total-sent {
		t.Fatalf("tx-overflow drops %d, want %d (the part SendBurst did not take)", m.TxDrops(), total-sent)
	}
	unwedge()

	// Conservation: every frame handed back either egressed or is
	// accounted in a drop counter, and all buffers come home.
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
	if !idle.tx.Enqueue(left) {
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

// gatedNF registers service 1 on port 1 with a handler that wedges on the
// descriptors whose Seq has a gate, until the test opens it, then sends
// each descriptor to port 9, whose sink records the Seq in arrival order.
type gatedNF struct {
	m       *Manager
	entered map[uint64]chan struct{}
	gate    map[uint64]chan struct{}
	opened  map[uint64]func()

	mu  sync.Mutex
	out []uint64
}

func newGatedNF(t *testing.T, m *Manager, seqs ...uint64) *gatedNF {
	t.Helper()
	g := &gatedNF{m: m, entered: map[uint64]chan struct{}{},
		gate: map[uint64]chan struct{}{}, opened: map[uint64]func(){}}
	for _, s := range seqs {
		g.entered[s], g.gate[s] = make(chan struct{}), make(chan struct{})
		g.opened[s] = sync.OnceFunc(func() { close(g.gate[s]) })
		t.Cleanup(g.opened[s]) // before a Stop registered earlier, which waits the wedge out
	}
	m.RegisterPort(9, func(_ []byte, meta pktbuf.Meta) {
		g.mu.Lock()
		g.out = append(g.out, meta.Seq)
		g.mu.Unlock()
	})
	if _, err := m.Register(1, "gated", func(b *pktbuf.Buf) bool {
		if gate, ok := g.gate[b.Meta.Seq]; ok {
			close(g.entered[b.Meta.Seq])
			<-gate
		}
		b.Meta.Action, b.Meta.Port = pktbuf.ActionToPort, 9
		return true
	}); err != nil {
		t.Fatal(err)
	}
	m.BindPortNF(1, 1)
	return g
}

// inject sends the descriptor with sequence number seq of the test's one
// flow.
func (g *gatedNF) inject(seq uint64) error {
	return g.m.Inject(1, []byte("pkt"), pktbuf.Meta{Seq: seq, RSS: 1})
}

func (g *gatedNF) egressed() []uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]uint64(nil), g.out...)
}

// TestInPlaceRunHandsLaterArrivalsToDrainer: an Inject that finds the NF
// idle runs its own descriptor in place and nothing else. What another
// producer queued while its handler was blocked goes to a drainer, in
// order, and the drainer is gone once the ring is empty.
func TestInPlaceRunHandsLaterArrivalsToDrainer(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	const n = 100
	m := NewManager(Config{PoolSize: 256, PoolPrefix: "t"})
	t.Cleanup(m.Stop) // after the gates open, or Stop waits on a wedged handler
	reg := metrics.NewRegistry()
	m.ExportMetrics(reg, "onvm")
	g := newGatedNF(t, m, 0, 1)
	first := make(chan error, 1)
	go func() { first <- g.inject(0) }()
	<-g.entered[0]
	for seq := uint64(1); seq <= n; seq++ {
		if err := g.inject(seq); err != nil {
			t.Fatal(err)
		}
	}
	g.opened[0]()
	// The drainer wedges on descriptor 1: had the first Inject run the
	// queue itself, it would wedge there too.
	<-g.entered[1]
	select {
	case err := <-first:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("the first Inject ran descriptors queued after its own")
	}
	snap := reg.Snapshot().Counters
	if snap["onvm.served_inline"] != 1 || snap["onvm.handoffs"] != 1 {
		t.Fatalf("served_inline %d, handoffs %d; want 1, 1", snap["onvm.served_inline"], snap["onvm.handoffs"])
	}
	g.opened[1]()
	waitFor(t, func() bool { return reg.Snapshot().Counters["onvm.served_queued"] == n }, "the drainer running the queue")
	waitFor(t, func() bool { return len(g.egressed()) == n+1 }, "every descriptor out")
	for i, seq := range g.egressed() {
		if seq != uint64(i) {
			t.Fatalf("egress order %v, want 0..%d", g.egressed(), n)
		}
	}
	if got := reg.Snapshot().Counters["onvm.served_inline"]; got != 1 {
		t.Fatalf("served_inline = %d, want 1", got)
	}
	waitFor(t, func() bool { return m.Pool().Avail() == 256 }, "buffer return")
}

// TestStopWaitsOutDrainer: Stop issued while a drainer runs waits for it.
// The drainer finishes the burst in hand and releases the rest of the
// queue, counted in onvm.dropped, and every buffer is back in the pool.
func TestStopWaitsOutDrainer(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	const n = 3 * drainBatch
	m := NewManager(Config{PoolSize: 256, PoolPrefix: "t"})
	reg := metrics.NewRegistry()
	m.ExportMetrics(reg, "onvm")
	g := newGatedNF(t, m, 0, 1)
	first := make(chan error, 1)
	go func() { first <- g.inject(0) }()
	<-g.entered[0]
	for seq := uint64(1); seq <= n; seq++ {
		if err := g.inject(seq); err != nil {
			t.Fatal(err)
		}
	}
	g.opened[0]()
	<-g.entered[1] // a drainer is running the queue
	select {
	case err := <-first:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("the first Inject ran descriptors queued after its own")
	}
	stopped := make(chan struct{})
	go func() {
		m.Stop()
		close(stopped)
	}()
	select {
	case <-stopped:
		t.Fatal("Stop returned while a drainer was still running")
	case <-time.After(20 * time.Millisecond):
	}
	g.opened[1]()
	<-stopped
	if avail := m.Pool().Avail(); avail != 256 {
		t.Fatalf("pool avail after Stop = %d, want 256", avail)
	}
	out, dropped := uint64(len(g.egressed())), reg.Snapshot().Counters["onvm.dropped"]
	if out+dropped != n+1 {
		t.Fatalf("egressed %d + dropped %d, want %d", out, dropped, n+1)
	}
	if out > 1+drainBatch {
		t.Fatalf("%d descriptors egressed: the drainer kept running the queue after Stop", out)
	}
}
