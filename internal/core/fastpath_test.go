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

// fastPathRig is a shared-memory-mode core with one registered UE holding
// one session, plus one prebuilt 64-byte-payload frame per direction.
type fastPathRig struct {
	c      *Core
	g      *ranue.GNB
	ue     *ranue.UE
	ul, dl []byte
}

func newFastPathRig(t *testing.T, mode Mode) *fastPathRig {
	t.Helper()
	c := startCore(t, mode)
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
	inner := udpPacket(t, ue.IP(), dnIP, 40000, 9000, make([]byte, 64))
	h := gtp.Header{MsgType: gtp.MsgGPDU, TEID: ctx.LocalTEID, HasQFI: true, QFI: 9, PDUType: 1}
	ul := make([]byte, h.HeaderSize()+len(inner))
	n, err := h.Encode(ul, len(inner))
	if err != nil {
		t.Fatal(err)
	}
	copy(ul[n:], inner)
	dl := udpPacket(t, dnIP, ue.IP(), 9000, 40000, make([]byte, 64))
	return &fastPathRig{c: c, g: g, ue: ue, ul: ul, dl: dl}
}

// TestFastPathAllocs is the allocation gate of the whole N3<->N6 path, in
// both modes that run it: after the copy into a packet buffer at Inject
// nothing allocates — the switch, the UPF-U, the egress and the gNB's
// decapsulation all work on that buffer, and the sink borrows its bytes.
// A delivered packet costs 0 allocations in either direction. To find an
// offender, rerun with -memprofile mem.prof -memprofilerate 1 and read
// `go tool pprof -sample_index=alloc_objects -top`: anything with about
// 20 000 objects is on the packet path.
func TestFastPathAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, mode := range []Mode{ModeL25GC, ModeONVMUPF} {
		t.Run(mode.String(), func(t *testing.T) {
			r := newFastPathRig(t, mode)
			var got atomic.Uint64
			count := func([]byte) { got.Add(1) }
			r.c.SetN6Sink(count)
			r.ue.OnData = count
			var sent uint64
			round := func(inject func([]byte) error, frame []byte, n int) {
				for i := 0; i < n; i++ {
					// At most 128 packets in flight: no ring fills.
					for sent-got.Load() >= 128 {
						runtime.Gosched()
					}
					if err := inject(frame); err != nil {
						t.Fatal(err)
					}
					sent++
				}
				for got.Load() != sent {
					runtime.Gosched()
				}
			}
			const packets = 20000
			for _, dir := range []struct {
				name   string
				inject func([]byte) error
				frame  []byte
			}{{"uplink", r.c.SendUL, r.ul}, {"downlink", r.c.InjectDL, r.dl}} {
				round(dir.inject, dir.frame, 2000) // warm up: stages, scratch slices, the runtime's own pools
				var m0, m1 runtime.MemStats
				runtime.ReadMemStats(&m0)
				round(dir.inject, dir.frame, packets)
				runtime.ReadMemStats(&m1)
				perPacket := float64(m1.Mallocs-m0.Mallocs) / packets
				t.Logf("%s: %.4f allocations per delivered packet", dir.name, perPacket)
				if perPacket > 0.01 {
					t.Errorf("%s: %.4f allocations per delivered packet, want 0.00", dir.name, perPacket)
				}
			}
		})
	}
}

// TestSinksSwapWhileDownlinkFlows re-attaches the gNB's sink and swaps the
// N6 sink from other goroutines, and replaces the UE's OnData hook from
// inside the hook, while packets flow both ways: the data path reads all
// three without a lock (under the race detector this is the test that
// they are published safely), every packet still reaches some generation
// of its sink, and a swap takes effect.
func TestSinksSwapWhileDownlinkFlows(t *testing.T) {
	r := newFastPathRig(t, ModeL25GC)
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
		if sent%64 == 0 {
			// An idle chain runs on this goroutine, so with one P the
			// swapper gets the CPU only when this loop hands it over.
			runtime.Gosched()
		}
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
