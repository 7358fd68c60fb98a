package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"l25gc/internal/gtp"
	"l25gc/internal/pkt"
	"l25gc/internal/ranue"
	"l25gc/internal/testutil"
)

// fastPathRig is a core in ModeL25GC with one registered UE holding one
// session, plus one prebuilt 64-byte-payload frame per direction.
type fastPathRig struct {
	c      *Core
	g      *ranue.GNB
	ue     *ranue.UE
	ul, dl []byte
}

func newFastPathRig(t *testing.T) *fastPathRig {
	t.Helper()
	c := startCore(t, ModeL25GC)
	g, err := ranue.NewGNB(1, pkt.AddrFrom(10, 100, 0, 10), c.N2Addr(), c)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	ue := fullAttach(t, c, g, "imsi-208930000000001")
	ctx, ok := c.UPFState.ByUEIP(ue.IP())
	if !ok {
		t.Fatal("no UPF session for the UE")
	}
	inner := make([]byte, pkt.IPv4MinLen+pkt.UDPLen+64)
	if _, err := pkt.BuildUDPv4(inner, ue.IP(), dnIP, 40000, 9000, 0, make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	h := gtp.Header{MsgType: gtp.MsgGPDU, TEID: ctx.LocalTEID, HasQFI: true, QFI: 9, PDUType: 1}
	ul := make([]byte, h.HeaderSize()+len(inner))
	n, err := h.Encode(ul, len(inner))
	if err != nil {
		t.Fatal(err)
	}
	copy(ul[n:], inner)
	dl := make([]byte, len(inner))
	if _, err := pkt.BuildUDPv4(dl, dnIP, ue.IP(), 9000, 40000, 0, make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	return &fastPathRig{c: c, g: g, ue: ue, ul: ul, dl: dl}
}

// TestFastPathAllocs is the allocation gate of the whole N3<->N6 path:
// between the copy into a packet buffer at Inject and the copy out that
// hands the sink a slice it owns, nothing allocates. So a delivered packet
// costs exactly one allocation — the copy out — in either direction.
func TestFastPathAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	r := newFastPathRig(t)
	var ulGot, dlGot atomic.Uint64
	r.c.SetN6Sink(func([]byte) { ulGot.Add(1) })
	r.ue.OnData = func([]byte) { dlGot.Add(1) }
	var sent uint64
	round := func(n int) {
		for i := 0; i < n; i++ {
			// At most 128 packets per direction in flight: no ring fills.
			for sent-ulGot.Load() >= 128 || sent-dlGot.Load() >= 128 {
				runtime.Gosched()
			}
			if err := r.c.SendUL(r.ul); err != nil {
				t.Fatal(err)
			}
			if err := r.c.InjectDL(r.dl); err != nil {
				t.Fatal(err)
			}
			sent++
		}
		for ulGot.Load() != sent || dlGot.Load() != sent {
			runtime.Gosched()
		}
	}
	round(2000) // warm up: stages, scratch slices, the runtime's own pools
	const packets = 20000
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	round(packets)
	runtime.ReadMemStats(&m1)
	perPacket := float64(m1.Mallocs-m0.Mallocs) / (2 * packets)
	t.Logf("%.4f allocations per delivered packet", perPacket)
	if perPacket < 0.99 || perPacket > 1.01 {
		t.Fatalf("%.4f allocations per delivered packet, want 1.00 ± 0.01 (the copy out and nothing else)", perPacket)
	}
}

// TestSinksSwapWhileDownlinkFlows re-attaches the gNB's sink and swaps the
// N6 sink from other goroutines, and replaces the UE's OnData hook from
// inside the hook, while packets flow both ways: the data path reads all
// three without a lock (under the race detector this is the test that
// they are published safely), every packet still reaches some generation
// of its sink, and a swap takes effect.
func TestSinksSwapWhileDownlinkFlows(t *testing.T) {
	r := newFastPathRig(t)
	const packets = 20000
	var dlA, dlB, ulA, ulB atomic.Uint64
	var hookA, hookB func([]byte)
	hookA = func([]byte) {
		if dlA.Add(1)%64 == 0 {
			r.ue.OnData = hookB // on the delivering goroutine: the next packet sees it
		}
	}
	hookB = func([]byte) {
		if dlB.Add(1)%64 == 0 {
			r.ue.OnData = hookA
		}
	}
	r.ue.OnData = hookA
	r.c.SetN6Sink(func([]byte) { ulA.Add(1) })

	gnbSink := (*r.c.gnbSinks.Load())[r.g.Addr]
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		sinks := [2]func([]byte){func([]byte) { ulA.Add(1) }, func([]byte) { ulB.Add(1) }}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			r.c.SetN6Sink(sinks[i%2])
			// A new generation of the same gNB sink, the way a gNB that
			// reconnects re-attaches under its address.
			if err := r.c.AttachGNB(r.g.Addr, func(frame []byte) { gnbSink(frame) }); err != nil {
				t.Error(err)
				return
			}
			runtime.Gosched()
		}
	}()
	for sent := uint64(1); sent <= packets; sent++ {
		for sent-(ulA.Load()+ulB.Load()) >= 128 || sent-(dlA.Load()+dlB.Load()) >= 128 {
			runtime.Gosched()
		}
		if err := r.c.SendUL(r.ul); err != nil {
			t.Fatal(err)
		}
		if err := r.c.InjectDL(r.dl); err != nil {
			t.Fatal(err)
		}
	}
	waitCond(t, func() bool {
		return ulA.Load()+ulB.Load() == packets && dlA.Load()+dlB.Load() == packets
	}, "every packet at a sink")
	close(stop)
	wg.Wait()
	if dlA.Load() == 0 || dlB.Load() == 0 {
		t.Fatalf("OnData swap never took effect: %d/%d", dlA.Load(), dlB.Load())
	}
	if ulA.Load() == 0 || ulB.Load() == 0 {
		t.Fatalf("N6 sink swap never took effect: %d/%d", ulA.Load(), ulB.Load())
	}
}
