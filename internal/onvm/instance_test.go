package onvm

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"l25gc/internal/metrics"
	"l25gc/internal/pktbuf"
	"l25gc/internal/testutil"
)

// TestInjectAndSendBurstInterleaved is the one-flag rule's property test:
// two Inject producers and two SendBurst producers on one instance, in
// rounds. In each round every producer sends one descriptor, after a
// random number of yields, so descriptors arrive on either ring while a
// holder is letting go; the round ends when all four are out, and nothing
// is sent until then. Each descriptor is handled once, each producer's in
// the order it sent them; the handler and the sink never run for two
// holders at once; and none is stranded: a descriptor published on either
// ring while its holder lets go is taken by the holder's last look, a
// drainer or its own producer, since no later traffic comes to dislodge
// it.
func TestInjectAndSendBurstInterleaved(t *testing.T) {
	const producers = 4 // even: Inject, odd: SendBurst
	rounds := 20000
	if testutil.RaceEnabled {
		rounds = 4000
	}
	m := NewManager(Config{PoolSize: 64, PoolPrefix: "t"})
	defer m.Stop()
	var holders, overlaps atomic.Int32
	enter := func() {
		if holders.Add(1) != 1 {
			overlaps.Add(1)
		}
	}
	leave := func() { holders.Add(-1) }
	var out [producers]chan uint64
	for p := range out {
		out[p] = make(chan uint64, 1)
	}
	m.RegisterPort(9, func(_ []byte, meta pktbuf.Meta) {
		enter()
		defer leave()
		out[meta.TEID] <- meta.Seq
	})
	var handled atomic.Uint64
	inst, err := m.Register(1, "mix", func(b *pktbuf.Buf) bool {
		enter()
		defer leave()
		handled.Add(1)
		b.Meta.Action, b.Meta.Port = pktbuf.ActionToPort, 9
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	m.BindPortNF(1, 1)
	send := func(p int, seq uint64) bool {
		meta := pktbuf.Meta{Seq: seq, TEID: uint32(p), RSS: 1}
		if p%2 == 0 {
			return m.Inject(1, []byte("rx"), meta) == nil
		}
		b, err := m.Pool().Get()
		if err != nil {
			return false
		}
		b.SetData([]byte("tx"))
		b.Meta = meta
		b.Meta.Action, b.Meta.Port = pktbuf.ActionToPort, 9
		if inst.SendBurst([]*pktbuf.Buf{b}) != 1 {
			b.Release()
			return false
		}
		return true
	}
	var start [producers]chan uint64
	done := make(chan error, producers)
	for p := 0; p < producers; p++ {
		start[p] = make(chan uint64)
		go func(p int) {
			timer := time.NewTimer(time.Hour)
			timer.Stop()
			gap := uint64(p)*2654435761 + 1
			for seq := range start[p] {
				gap = gap*6364136223846793005 + 1442695040888963407
				for spin := gap >> 58; spin > 0; spin-- { // 0-63 yields
					runtime.Gosched()
				}
				for !send(p, seq) { // pool momentarily empty
					runtime.Gosched()
				}
				timer.Reset(time.Second)
				select {
				case got := <-out[p]:
					if got != seq {
						done <- fmt.Errorf("producer %d: descriptor %d came out as %d", p, seq, got)
						continue
					}
				case <-timer.C:
					done <- fmt.Errorf("producer %d: descriptor %d not out within 1 s: stranded on a ring", p, seq)
					continue
				}
				if !timer.Stop() {
					<-timer.C // fired after the descriptor came out
				}
				done <- nil
			}
		}(p)
	}
	defer func() {
		for p := range start {
			close(start[p])
		}
	}()
	for seq := uint64(1); seq <= uint64(rounds); seq++ {
		for p := range start {
			start[p] <- seq
		}
		for range start {
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		}
	}
	if n := overlaps.Load(); n != 0 {
		t.Fatalf("%d times a handler or sink ran while another holder's did", n)
	}
	if want := uint64(producers / 2 * rounds); handled.Load() != want {
		t.Fatalf("handler ran %d times, want %d: once per injected descriptor", handled.Load(), want)
	}
	waitFor(t, func() bool { return m.Pool().Avail() == 64 }, "buffer return")
}

// TestInjectThatOnlyLookedStartsNoDrainer: an Inject that finds the
// instance held queues its descriptor, looks once more, and returns,
// starting no drainer of its own, however many do so: the holder starts
// one drainer when it lets go, and that one runs them all, in order. An
// Inject that takes the flag and finds a backlog runs it, its own
// descriptor last, and with nothing arriving meanwhile starts none either.
func TestInjectThatOnlyLookedStartsNoDrainer(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	const queued, backlog = 20, 10
	m := NewManager(Config{PoolSize: 256, PoolPrefix: "t"})
	t.Cleanup(m.Stop) // after the gate opens, or Stop waits on a wedged handler
	reg := metrics.NewRegistry()
	m.ExportMetrics(reg, "onvm")
	g := newGatedNF(t, m, 0)
	counters := func() (handoffs, inline, served uint64) {
		c := reg.Snapshot().Counters
		return c["onvm.handoffs"], c["onvm.served_inline"], c["onvm.served_queued"]
	}
	first := make(chan error, 1)
	go func() { first <- g.inject(0) }()
	<-g.entered[0] // the first Inject holds the instance, wedged in its handler
	for seq := uint64(1); seq <= queued; seq++ {
		if err := g.inject(seq); err != nil {
			t.Fatal(err)
		}
	}
	if h, _, q := counters(); h != 0 || q != 0 {
		t.Fatalf("handoffs %d, served_queued %d after %d Injects only looked; want 0, 0", h, q, queued)
	}
	g.opened[0]()
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return len(g.egressed()) == queued+1 && m.inflight.Load() == 0 },
		"the holder's drainer running the queue and exiting")
	if h, in, _ := counters(); h != 1 || in != 1 {
		t.Fatalf("handoffs %d, served_inline %d; want 1 (the holder's), 1", h, in)
	}

	// A backlog on an instance nobody holds, as a holder leaves it when a
	// producer's descriptor lands after its last look and before the
	// producer's own try for the flag.
	inst := m.tabs.Load().service(1).instances[0]
	for seq := uint64(queued + 1); seq <= queued+backlog; seq++ {
		b, err := m.Pool().Get()
		if err != nil {
			t.Fatal(err)
		}
		b.SetData([]byte("pkt"))
		b.Meta = pktbuf.Meta{Seq: seq, RSS: 1}
		if !inst.rx.Enqueue(b) {
			t.Fatal("rx enqueue failed")
		}
	}
	if err := g.inject(queued + backlog + 1); err != nil {
		t.Fatal(err)
	}
	if got := len(g.egressed()); got != queued+backlog+2 {
		t.Fatalf("%d descriptors out when the backlog finder returned, want %d", got, queued+backlog+2)
	}
	for i, seq := range g.egressed() {
		if seq != uint64(i) {
			t.Fatalf("egress order %v, want 0..%d", g.egressed(), queued+backlog+1)
		}
	}
	if h, in, q := counters(); h != 1 || in != 1 || q != queued+backlog+1 {
		t.Fatalf("handoffs %d, served_inline %d, served_queued %d; want 1, 1, %d", h, in, q, queued+backlog+1)
	}
	waitFor(t, func() bool { return m.Pool().Avail() == 256 }, "buffer return")
}

// TestOwnerCacheConservation runs mixed traffic through a chain of two NFs
// — lone and contended Injects, SendBurst handbacks, drops, and descriptors
// an NF keeps and releases later from another goroutine — so buffers move
// between the instances' caches and the shared ring both ways. Once the
// traffic is quiet the pool's lifetime counts agree with what it holds,
// gets - puts == Size - Avail, with and without buffers still out, and
// after Stop every buffer is free again: Avail == Size.
func TestOwnerCacheConservation(t *testing.T) {
	const size, producers, perProducer = 512, 3, 3000
	m := NewManager(Config{PoolSize: size, PoolPrefix: "t"})
	reg := metrics.NewRegistry()
	m.ExportMetrics(reg, "onvm")
	var out atomic.Uint64
	m.RegisterPort(9, func([]byte, pktbuf.Meta) { out.Add(1) })
	kept := make(chan *pktbuf.Buf, perProducer*producers)
	m.Register(1, "first", func(b *pktbuf.Buf) bool {
		switch b.Meta.Seq % 8 {
		case 0:
			kept <- b // released later, elsewhere
			return false
		case 1:
			b.Meta.Action = pktbuf.ActionDrop
		default:
			b.Meta.Action, b.Meta.Dst = pktbuf.ActionToNF, 2
		}
		return true
	})
	second, _ := m.Register(2, "second", func(b *pktbuf.Buf) bool {
		b.Meta.Action, b.Meta.Port = pktbuf.ActionToPort, 9
		return true
	})
	m.BindPortNF(1, 1)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				meta := pktbuf.Meta{Seq: uint64(i), TEID: uint32(p)}
				if i%5 == 4 {
					if b, err := m.Pool().Get(); err == nil {
						b.Meta.Action, b.Meta.Port = pktbuf.ActionToPort, 9
						if second.SendBurst([]*pktbuf.Buf{b}) == 0 {
							b.Release()
						}
					}
					continue
				}
				for m.Inject(1, []byte("mixed"), meta) != nil {
					runtime.Gosched()
				}
			}
		}(p)
	}
	// An Inject that only queued returns before its descriptor is handled,
	// so a drainer can still be sending to kept after the producers are
	// done: the releaser runs until the pool is quiet, which needs every
	// kept buffer back.
	var released sync.WaitGroup
	quiet := make(chan struct{})
	released.Add(1)
	go func() {
		defer released.Done()
		for {
			select {
			case b := <-kept:
				b.Release()
			case <-quiet:
				return
			}
		}
	}()
	wg.Wait()
	check := func(out int) {
		t.Helper()
		gets, puts := m.Pool().Stats()
		avail := m.Pool().Avail()
		if int(gets-puts) != size-avail || avail != size-out {
			t.Fatalf("gets %d - puts %d = %d, Size - Avail = %d - %d; want equal, with %d out",
				gets, puts, int(gets-puts), size, avail, out)
		}
	}
	waitFor(t, func() bool { return reg.Snapshot().Counters["onvm.pool.in_use"] == 0 }, "quiet pool")
	close(quiet)
	released.Wait()
	check(0)
	held, err := m.Pool().Get()
	if err != nil {
		t.Fatal(err)
	}
	check(1)
	held.Release()
	m.Stop()
	check(0)
	if avail := m.Pool().Avail(); avail != size {
		t.Fatalf("pool avail after Stop = %d, want %d", avail, size)
	}
	if out.Load() == 0 {
		t.Fatal("no traffic reached the port")
	}
}
