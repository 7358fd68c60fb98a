package onvm

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"l25gc/internal/gtp"
	"l25gc/internal/pkt"
	"l25gc/internal/pktbuf"
	"l25gc/internal/testutil"
)

// udpFrame builds a plain IPv4/UDP packet as N6 carries it.
func udpFrame(t testing.TB, src, dst pkt.Addr, sport, dport uint16, payload []byte) []byte {
	t.Helper()
	b := make([]byte, pkt.IPv4MinLen+pkt.UDPLen+len(payload))
	n, err := pkt.BuildUDPv4(b, src, dst, sport, dport, 0, payload)
	if err != nil {
		t.Fatal(err)
	}
	return b[:n]
}

// gpdu wraps an inner packet in a G-PDU as N3 carries it.
func gpdu(t testing.TB, teid uint32, inner []byte) []byte {
	t.Helper()
	h := gtp.Header{MsgType: gtp.MsgGPDU, TEID: teid, HasQFI: true, QFI: 9, PDUType: 1}
	b := make([]byte, h.HeaderSize()+len(inner))
	n, err := h.Encode(b, len(inner))
	if err != nil {
		t.Fatal(err)
	}
	copy(b[n:], inner)
	return b
}

// TestRSSHashCoversFlowFieldsOnly is the regression test for the ingress
// hash reaching into the payload: two packets of one flow that differ in
// their first 40 payload bytes and in the UDP checksum must carry the same
// Meta.RSS (or the flow spreads over shards and loses its order), on N6
// and inside a tunnel on N3, while distinct flows still spread.
func TestRSSHashCoversFlowFieldsOnly(t *testing.T) {
	ue, dn := pkt.AddrFrom(10, 60, 0, 1), pkt.AddrFrom(8, 8, 8, 8)
	pa, pb := make([]byte, 64), make([]byte, 64)
	for i := 0; i < 40; i++ {
		pa[i], pb[i] = byte(i), byte(0xff-i)
	}
	a, b := udpFrame(t, dn, ue, 53, 40000, pa), udpFrame(t, dn, ue, 53, 40000, pb)
	csum := pkt.IPv4MinLen + 6
	if binary.BigEndian.Uint16(a[csum:]) == binary.BigEndian.Uint16(b[csum:]) {
		b[csum] ^= 0x5a // the builder left the checksum alone: make it differ
	}

	m := NewManager(Config{PoolSize: 64, PoolPrefix: "t", SwitchWorkers: 4})
	defer m.Stop()
	var rss [4]atomic.Uint64
	var seen atomic.Uint32
	if _, err := m.Register(1, "rss", func(buf *pktbuf.Buf) bool {
		rss[buf.Meta.Seq].Store(buf.Meta.RSS)
		seen.Add(1)
		buf.Meta.Action = pktbuf.ActionDrop
		return true
	}); err != nil {
		t.Fatal(err)
	}
	m.BindPortNF(1, 1)
	for i, frame := range [][]byte{a, b, gpdu(t, 0x1001, a), gpdu(t, 0x1001, b)} {
		if err := m.Inject(1, frame, pktbuf.Meta{Seq: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return seen.Load() == 4 }, "four frames at the NF")
	if rss[0].Load() != rss[1].Load() {
		t.Fatalf("N6: one flow, two hashes (%#x, %#x): payload or checksum bytes are hashed", rss[0].Load(), rss[1].Load())
	}
	if rss[2].Load() != rss[3].Load() {
		t.Fatalf("N3: one flow, two hashes (%#x, %#x): payload or checksum bytes are hashed", rss[2].Load(), rss[3].Load())
	}
	if rss[0].Load() == rss[2].Load() {
		t.Fatal("the tunnel ID does not enter the N3 hash")
	}

	// 64 flows differing in one flow field each way still spread.
	for _, tunnel := range []bool{false, true} {
		used := map[int]bool{}
		for f := 0; f < 64; f++ {
			frame := udpFrame(t, dn, pkt.AddrFrom(10, 60, 0, byte(f+1)), 53, 40000, pa)
			if tunnel {
				frame = gpdu(t, 0x2000+uint32(f), udpFrame(t, ue, dn, uint16(40000+f), 53, pa))
			}
			meta := pktbuf.Meta{RSS: rssHash(frame)}
			used[m.shards.ShardOf(flowKey(&meta))] = true
		}
		if len(used) < 3 {
			t.Fatalf("tunnel=%v: 64 flows use %d of 4 shards", tunnel, len(used))
		}
	}
	// Anything that is neither still hashes, by its leading bytes.
	if rssHash([]byte("not a packet")) == rssHash([]byte("nor is this")) {
		t.Fatal("fallback hash ignores the frame")
	}
	if rssHash(nil) != rssHash([]byte{}) {
		t.Fatal("empty frame")
	}
}

// wedge registers service sid and a port whose sink blocks on its first
// frame until the returned release function is called, and returns a
// function that injects that frame with meta from a goroutine of its own
// and waits for the sink to hold it: that goroutine then owns the frame's
// work shard and the wedge instance's rings.
func wedge(t *testing.T, m *Manager, sid ServiceID, port PortID) (hold func(meta pktbuf.Meta), release func()) {
	t.Helper()
	gate, held := make(chan struct{}), make(chan struct{})
	var once sync.Once
	m.RegisterPort(port, func([]byte, pktbuf.Meta) {
		once.Do(func() {
			close(held)
			<-gate
		})
	})
	if _, err := m.Register(sid, "wedge", func(b *pktbuf.Buf) bool {
		b.Meta.Action, b.Meta.Port = pktbuf.ActionToPort, port
		return true
	}); err != nil {
		t.Fatal(err)
	}
	m.BindPortNF(port, sid)
	hold = func(meta pktbuf.Meta) {
		t.Helper()
		go m.Inject(port, []byte("wedge"), meta)
		<-held
	}
	var released sync.Once
	release = func() { released.Do(func() { close(gate) }) }
	t.Cleanup(release) // before a Stop registered earlier, which waits the wedge out
	return hold, release
}

// TestBurstMixedDestinations drains one full Tx burst that mixes three
// destination services and a port: every descriptor reaches its
// destination, each destination sees its share in the order the NF emitted
// it, the counters add up and every buffer comes home.
func TestBurstMixedDestinations(t *testing.T) {
	m := NewManager(Config{PoolSize: 256, PoolPrefix: "t", SwitchWorkers: 1})
	t.Cleanup(m.Stop)
	const (
		fanSvc, outPort = 10, 9
		n               = drainBatch
	)
	var mu sync.Mutex
	got := map[int][]uint64{} // destination -> sequence numbers in arrival order
	record := func(dst int, seq uint64) {
		mu.Lock()
		got[dst] = append(got[dst], seq)
		mu.Unlock()
	}
	for dst := 11; dst <= 13; dst++ {
		dst := dst
		m.Register(ServiceID(dst), "leaf", func(b *pktbuf.Buf) bool {
			record(dst, b.Meta.Seq)
			b.Meta.Action = pktbuf.ActionDrop
			return true
		})
	}
	m.RegisterPort(outPort, func(_ []byte, meta pktbuf.Meta) { record(outPort, meta.Seq) })
	// Another caller is wedged in a sink holding the one work shard: the
	// fan NF's Tx ring is switched by SendBurst's caller all the same, all
	// n descriptors as one burst.
	hold, release := wedge(t, m, 20, 8)
	fan, err := m.Register(fanSvc, "fan", func(b *pktbuf.Buf) bool { return false })
	if err != nil {
		t.Fatal(err)
	}
	hold(pktbuf.Meta{})
	burst := make([]*pktbuf.Buf, n)
	for i := range burst {
		b, err := m.Pool().Get()
		if err != nil {
			t.Fatal(err)
		}
		b.SetData([]byte("x"))
		b.Meta.Seq = uint64(i + 1)
		if i%4 == 3 {
			b.Meta.Action, b.Meta.Port = pktbuf.ActionToPort, outPort
		} else {
			b.Meta.Action, b.Meta.Dst = pktbuf.ActionToNF, uint16(11+i%4)
		}
		burst[i] = b
	}
	sw0, _ := m.Stats()
	if sent := fan.SendBurst(burst); sent != n {
		t.Fatalf("SendBurst = %d, want %d", sent, n)
	}
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got[11])+len(got[12])+len(got[13])+len(got[outPort]) == n
	}, "every descriptor at its destination")
	for dst, seqs := range got {
		if len(seqs) != n/4 {
			t.Fatalf("destination %d got %d descriptors, want %d", dst, len(seqs), n/4)
		}
		for i := 1; i < len(seqs); i++ {
			if seqs[i] <= seqs[i-1] {
				t.Fatalf("destination %d out of order: %v", dst, seqs)
			}
		}
	}
	release()
	waitFor(t, func() bool { return m.Pool().Avail() == 256 }, "buffer return")
	sw, dropped := m.Stats()
	if sw-sw0 != 3*n/4 {
		t.Fatalf("switched %d descriptors to NFs, want %d", sw-sw0, 3*n/4)
	}
	if dropped != 3*n/4 { // the leaves' ActionDrop
		t.Fatalf("dropped = %d, want %d", dropped, 3*n/4)
	}
}

// TestRxRingFillsMidBurst delivers one burst into an Rx ring with room for
// part of it: the part that fits is switched, the rest is dropped and
// counted as ring overflow descriptor for descriptor, and nothing leaks.
func TestRxRingFillsMidBurst(t *testing.T) {
	m := NewManager(Config{PoolSize: 128, RingSize: 4, PoolPrefix: "t",
		SwitchWorkers: 2, BackpressureSpins: -1})
	t.Cleanup(m.Stop)
	const burst = 32
	entered, gate := make(chan struct{}), make(chan struct{})
	var once sync.Once
	var handled atomic.Uint64
	m.Register(1, "slow", func(b *pktbuf.Buf) bool {
		once.Do(func() {
			close(entered)
			<-gate
		})
		handled.Add(1)
		b.Meta.Action = pktbuf.ActionDrop
		return true
	})
	m.BindPortNF(1, 1)
	hold, release := wedge(t, m, 2, 8)
	shard0, shard1 := rssForShard(m, 0), rssForShard(m, 1)

	// A goroutine injects a primer on shard 0 and blocks in the NF's
	// handler: it owns the NF's Rx ring (capacity 4), empty again and
	// undrained from here on.
	go m.Inject(1, []byte("primer"), pktbuf.Meta{RSS: shard0})
	<-entered
	var opened sync.Once
	open := func() { opened.Do(func() { close(gate) }) }
	t.Cleanup(open)
	// Another goroutine wedges in a sink holding shard 1, so the burst
	// queues on that shard and is switched in one go when it lets go.
	hold(pktbuf.Meta{RSS: shard1})
	for i := 0; i < burst; i++ {
		if err := m.Inject(1, []byte("pkt"), pktbuf.Meta{RSS: shard1}); err != nil {
			t.Fatal(err)
		}
	}
	release()
	const injected = 1 + 1 + burst
	waitFor(t, func() bool { sw, dr := m.Stats(); return sw+dr == injected }, "switched + dropped == injected")
	if got := m.RingDrops().Load(); got != burst-4 {
		t.Fatalf("ring_overflow_drops = %d, want %d (the part of the burst that did not fit)", got, burst-4)
	}
	if sw, dr := m.Stats(); sw != 1+1+4 || dr != burst-4 {
		t.Fatalf("switched, dropped = %d, %d; want %d, %d", sw, dr, 1+1+4, burst-4)
	}
	if handled.Load() != 0 {
		t.Fatalf("%d descriptors handled past the wedged handler", handled.Load())
	}
	open()
	waitFor(t, func() bool { return handled.Load() == 1+4 }, "the delivered part handled")
	waitFor(t, func() bool { return m.Pool().Avail() == 128 }, "buffer return")
}

// TestSendBurstLargerThanTxRing hands an instance three Tx rings' worth of
// descriptors in one SendBurst, the way a session-buffer drain does: the
// call pushes back on the full ring instead of dropping, everything leaves
// in order, and the work shards stay empty throughout — the caller switches
// the Tx ring itself, no task per descriptor.
func TestSendBurstLargerThanTxRing(t *testing.T) {
	m := NewManager(Config{PoolSize: 4096, RingSize: 1024, PoolPrefix: "t", SwitchWorkers: 2})
	defer m.Stop()
	const n = 3000
	var out, misordered atomic.Uint64
	m.RegisterPort(9, func(_ []byte, meta pktbuf.Meta) {
		if meta.Seq != out.Load() {
			misordered.Add(1)
		}
		out.Add(1)
	})
	inst, err := m.Register(1, "drain", func(b *pktbuf.Buf) bool { return false })
	if err != nil {
		t.Fatal(err)
	}
	burst := make([]*pktbuf.Buf, n)
	for i := range burst {
		b, err := m.Pool().Get()
		if err != nil {
			t.Fatal(err)
		}
		b.SetData([]byte("parked"))
		b.Meta.Seq = uint64(i)
		b.Meta.Action, b.Meta.Port = pktbuf.ActionToPort, 9
		burst[i] = b
	}
	var maxDepth atomic.Int64
	stop, watched := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(watched)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if d := int64(m.shards.Len()); d > maxDepth.Load() {
				maxDepth.Store(d)
			}
			runtime.Gosched()
		}
	}()
	if sent := inst.SendBurst(burst); sent != n {
		t.Fatalf("SendBurst = %d, want %d", sent, n)
	}
	waitFor(t, func() bool { return out.Load() == n }, "every descriptor out")
	close(stop)
	<-watched
	if misordered.Load() != 0 {
		t.Fatalf("%d descriptors left out of order", misordered.Load())
	}
	if m.TxDrops() != 0 || inst.TxDrops() != 0 {
		t.Fatalf("tx drops %d/%d, want 0", m.TxDrops(), inst.TxDrops())
	}
	if d := maxDepth.Load(); d != 0 {
		t.Fatalf("work-shard depth reached %d during the drain, want 0", d)
	}
	waitFor(t, func() bool { return m.Pool().Avail() == 4096 }, "buffer return")
}

// TestStopDuringBurst stops the manager while producers flood a chain of
// two NFs: wherever each descriptor was — work shard, a worker's stage, an
// Rx or Tx ring, a handler — it is back in the pool when Stop returns.
func TestStopDuringBurst(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	m := NewManager(Config{PoolSize: 512, PoolPrefix: "t", SwitchWorkers: 2})
	var out atomic.Uint64
	m.RegisterPort(9, func([]byte, pktbuf.Meta) { out.Add(1) })
	m.Register(1, "first", func(b *pktbuf.Buf) bool {
		b.Meta.Action, b.Meta.Dst = pktbuf.ActionToNF, 2
		return true
	})
	m.Register(2, "second", func(b *pktbuf.Buf) bool {
		b.Meta.Action, b.Meta.Port = pktbuf.ActionToPort, 9
		return true
	})
	m.BindPortNF(1, 1)
	var wg sync.WaitGroup
	for p := 0; p < 3; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; ; i++ {
				err := m.Inject(1, []byte("flood"), pktbuf.Meta{TEID: uint32(p*64 + i%64)})
				if err == ErrStopped {
					return
				}
				if err != nil {
					runtime.Gosched()
				}
			}
		}(p)
	}
	waitFor(t, func() bool { return out.Load() > 2000 }, "traffic flowing")
	m.Stop()
	wg.Wait()
	if avail := m.Pool().Avail(); avail != 512 {
		t.Fatalf("pool avail after Stop = %d, want 512", avail)
	}
}

// TestLonePacketsNotStranded sends one packet at a time from each of four
// producers, with random gaps, through shard -> NF -> sink, and waits for
// each to come out. Every ring on the way is idle, being let go of, or
// owned by another producer when a descriptor arrives; one left in a ring
// whose owner had already looked for the last time stays there until the
// next packet dislodges it, which its producer never sends.
func TestLonePacketsNotStranded(t *testing.T) {
	const producers = 4
	packets := 100000
	if testutil.RaceEnabled {
		packets = 20000
	}
	m := NewManager(Config{PoolSize: 16, PoolPrefix: "t", SwitchWorkers: 2})
	defer m.Stop()
	var out [producers]chan uint64
	for p := range out {
		out[p] = make(chan uint64, 1)
	}
	m.RegisterPort(9, func(_ []byte, meta pktbuf.Meta) { out[meta.TEID] <- meta.Seq })
	m.Register(1, "fwd", func(b *pktbuf.Buf) bool {
		b.Meta.Action, b.Meta.Port = pktbuf.ActionToPort, 9
		return true
	})
	m.BindPortNF(1, 1)
	errs := make(chan error, producers)
	for p := 0; p < producers; p++ {
		go func(p int) {
			rng := rand.New(rand.NewSource(int64(p + 1)))
			timer := time.NewTimer(time.Hour)
			timer.Stop()
			for seq := uint64(1); seq <= uint64(packets/producers); seq++ {
				// Alternate flows so both shards see every producer.
				meta := pktbuf.Meta{Seq: seq, TEID: uint32(p), RSS: seq%7 + 1}
				for m.Inject(1, []byte("one"), meta) != nil { // pool momentarily empty
					runtime.Gosched()
				}
				timer.Reset(100 * time.Millisecond)
				select {
				case got := <-out[p]:
					if got != seq {
						errs <- fmt.Errorf("producer %d: packet %d came out as %d", p, seq, got)
						return
					}
				case <-timer.C:
					errs <- fmt.Errorf("producer %d: packet %d not out within 100 ms: stranded in a ring", p, seq)
					return
				}
				if !timer.Stop() {
					<-timer.C // fired after the packet arrived
				}
				switch gap := rng.Intn(64); {
				case gap < 24: // back to back: owners still letting go
				case gap < 63: // around the time they take to let go
					for spin := rng.Intn(200); spin > 0; spin-- {
						runtime.Gosched()
					}
				default: // long enough that every ring is idle
					time.Sleep(time.Duration(rng.Intn(50)) * time.Microsecond)
				}
			}
			errs <- nil
		}(p)
	}
	for p := 0; p < producers; p++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return m.Pool().Avail() == 16 }, "buffer return")
}

// TestSnapshotSeenWhileTrafficFlows registers a second instance, turns it
// into a canary and re-registers the egress port while a producer keeps
// the switch busy: the packet path picks every change up from the tables
// snapshot with no lock (the race detector watches the handoff) and
// nothing is dropped or left behind on the way.
func TestSnapshotSeenWhileTrafficFlows(t *testing.T) {
	m := NewManager(Config{PoolSize: 256, PoolPrefix: "t", SwitchWorkers: 2})
	defer m.Stop()
	var oldSink, newSink atomic.Uint64
	sink := func(count *atomic.Uint64) PortSink {
		return func([]byte, pktbuf.Meta) { count.Add(1) }
	}
	m.RegisterPort(9, sink(&oldSink))
	var stable, canary atomic.Uint64
	fwd := func(count *atomic.Uint64) Handler {
		return func(b *pktbuf.Buf) bool {
			count.Add(1)
			b.Meta.Action, b.Meta.Port = pktbuf.ActionToPort, 9
			return true
		}
	}
	m.Register(1, "v1", fwd(&stable))
	m.BindPortNF(1, 1)

	var sent atomic.Uint64
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for i := uint64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			meta := pktbuf.Meta{TEID: uint32(i % 32), RSS: (i%32)*0x9e3779b97f4a7c15 + 1}
			for m.Inject(1, []byte("pkt"), meta) != nil {
				runtime.Gosched()
			}
			sent.Add(1)
		}
	}()
	waitFor(t, func() bool { return stable.Load() > 1000 }, "traffic through the stable instance")
	if _, err := m.Register(1, "v2", fwd(&canary)); err != nil {
		t.Fatal(err)
	}
	if err := m.SetCanary(1, 50); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return canary.Load() > 1000 }, "traffic through the canary")
	m.RegisterPort(9, sink(&newSink))
	waitFor(t, func() bool { return newSink.Load() > 1000 }, "traffic through the new sink")
	close(stop)
	<-done
	waitFor(t, func() bool { return oldSink.Load()+newSink.Load() == sent.Load() }, "every frame out")
	if _, dropped := m.Stats(); dropped != m.extraDropped.Load() {
		// Inject failing on an empty pool counts a drop of its own; the
		// producer retried those.
		t.Fatalf("descriptors dropped inside the switch across the rollout: %d, %d at Inject", dropped, m.extraDropped.Load())
	}
	waitFor(t, func() bool { return m.Pool().Avail() == 256 }, "buffer return")
}

// TestCountersBatchedNotLost runs a fixed 10 000-packet script whose
// outcome per packet is known and checks every counter against the count
// the script implies: batching the updates must not change their sums.
func TestCountersBatchedNotLost(t *testing.T) {
	m := NewManager(Config{PoolSize: 4096, PoolPrefix: "t", SwitchWorkers: 2})
	defer m.Stop()
	const total = 10000
	var out, kept atomic.Uint64
	var parked [total / 5]atomic.Pointer[pktbuf.Buf]
	m.RegisterPort(9, func([]byte, pktbuf.Meta) { out.Add(1) })
	first, err := m.Register(1, "script", func(b *pktbuf.Buf) bool {
		switch b.Meta.Seq % 5 {
		case 0: // straight out
			b.Meta.Action, b.Meta.Port = pktbuf.ActionToPort, 9
		case 1: // dropped by the NF
			b.Meta.Action = pktbuf.ActionDrop
		case 2: // to a service nobody runs
			b.Meta.Action, b.Meta.Dst = pktbuf.ActionToNF, 99
		case 3: // through a second NF, then out
			b.Meta.Action, b.Meta.Dst = pktbuf.ActionToNF, 2
		default: // kept by the NF
			parked[b.Meta.Seq/5].Store(b)
			kept.Add(1)
			return false
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Register(2, "second", func(b *pktbuf.Buf) bool {
		b.Meta.Action, b.Meta.Port = pktbuf.ActionToPort, 9
		return true
	})
	m.BindPortNF(1, 1)
	const each = total / 5
	settled := func() uint64 { _, dr := m.Stats(); return out.Load() + dr + kept.Load() }
	for seq := uint64(0); seq < total; seq++ {
		// A window well inside the pool and the rings: no overflow drop
		// and no failed Inject enters the script.
		for seq-settled() >= 256 {
			runtime.Gosched()
		}
		if err := m.Inject(1, []byte("pkt"), pktbuf.Meta{Seq: seq, TEID: uint32(seq % 61)}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return settled() == total }, "script settled")
	sw, dr := m.Stats()
	if sw != total+each {
		t.Fatalf("switched = %d, want %d (every packet once, a fifth twice)", sw, total+each)
	}
	if dr != 2*each {
		t.Fatalf("dropped = %d, want %d (NF drops + unknown service)", dr, 2*each)
	}
	if out.Load() != 2*each || kept.Load() != each {
		t.Fatalf("out, kept = %d, %d; want %d, %d", out.Load(), kept.Load(), 2*each, each)
	}
	if m.RingDrops().Load() != 0 || m.TxDrops() != 0 {
		t.Fatalf("ring drops %d, tx drops %d; want 0, 0", m.RingDrops().Load(), m.TxDrops())
	}
	rx, tx := first.Stats()
	if rx != total || tx != total-each {
		t.Fatalf("instance rx, tx = %d, %d; want %d, %d", rx, tx, total, total-each)
	}
	if in := m.Pool().Size() - m.Pool().Avail(); in != each {
		t.Fatalf("%d buffers in use with %d kept by the NF", in, each)
	}
	for i := range parked {
		parked[i].Load().Release()
	}
	if m.Pool().Avail() != 4096 {
		t.Fatalf("pool avail = %d, want 4096", m.Pool().Avail())
	}
}

// TestHopAllocs is the allocation gate of the descriptor switch: one
// packet in, through an NF and out costs no allocation.
func TestHopAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	m := NewManager(Config{PoolSize: 64, PoolPrefix: "t"})
	defer m.Stop()
	done := make(chan struct{}, 1)
	m.Register(1, "fwd", func(b *pktbuf.Buf) bool {
		b.Meta.Action, b.Meta.Port = pktbuf.ActionToPort, 2
		return true
	})
	m.RegisterPort(2, func([]byte, pktbuf.Meta) { done <- struct{}{} })
	m.BindPortNF(1, 1)
	payload := make([]byte, 64)
	hop := func() {
		if err := m.Inject(1, payload, pktbuf.Meta{}); err != nil {
			t.Fatal(err)
		}
		<-done
	}
	for i := 0; i < 100; i++ {
		hop() // first use of each stage allocates it
	}
	if allocs := testing.AllocsPerRun(2000, hop); allocs != 0 {
		t.Fatalf("%v allocs per hop, want 0", allocs)
	}
}
