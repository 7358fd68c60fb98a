package upf

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	gtp2 "l25gc/internal/gtp"
	"l25gc/internal/pfcp"
	"l25gc/internal/pkt"
	pktbuf2 "l25gc/internal/pktbuf"
	"l25gc/internal/rules"
)

// TestControlDataConcurrency is the A2 (UPF-C/UPF-U split) stress test:
// the fast path forwards continuously while the control plane churns rules
// on the same shared state. Nothing may crash, leak, or deliver to a torn
// rule set.
func TestControlDataConcurrency(t *testing.T) {
	st, c, u, pool := newUPF(t)
	er := mustEstablish(t, c, 100)
	teid := er.CreatedPDRs[0].TEID

	var stop atomic.Bool
	var wg sync.WaitGroup

	// Data plane: UL packets as fast as possible.
	var forwarded, dropped atomic.Uint64
	wg.Add(1)
	go func() {
		defer wg.Done()
		var scratch pkt.Parsed
		for !stop.Load() {
			b := ulPacket(t, pool, teid, 32)
			u.Process(b, &scratch)
			if b.Meta.Action == 2 { // ActionToPort
				forwarded.Add(1)
			} else {
				dropped.Add(1)
			}
			b.Release()
		}
	}()

	// Wait until the fast path is demonstrably running (one shared CPU:
	// the goroutine needs a scheduling slot before the churn starts).
	for forwarded.Load() == 0 {
		runtime.Gosched()
	}
	// Control plane: flip the DL FAR between buffer and forward, add and
	// remove an extra PDR, repeatedly.
	for i := 0; i < 100; i++ {
		runtime.Gosched()
		c.Handle(100, &pfcp.SessionModificationRequest{
			UpdateFARs: []*rules.FAR{{ID: 2, Action: rules.FARBuffer, DestInterface: rules.IfAccess}},
		})
		c.Handle(100, &pfcp.SessionModificationRequest{
			CreatePDRs: []*rules.PDR{{
				ID: 50, Precedence: 10,
				PDI:   rules.PDI{SourceInterface: rules.IfCore, UEIP: ueIP, HasUEIP: true},
				FARID: 2,
			}},
			UpdateFARs: []*rules.FAR{{ID: 2, Action: rules.FARForward, DestInterface: rules.IfAccess,
				HasOuterHeader: true, OuterTEID: uint32(0x7000 + i), OuterAddr: gnbIP}},
		})
		c.Handle(100, &pfcp.SessionModificationRequest{RemovePDRs: []uint32{50}})
	}
	stop.Store(true)
	wg.Wait()

	if forwarded.Load() == 0 {
		t.Fatal("fast path starved during control churn")
	}
	// No buffer leak: all pool buffers returned.
	func() []*SessCtx {
		ctx, _ := st.Session(100)
		return []*SessCtx{ctx}
	}()[0].drain()
	if pool.Avail() != pool.Size() {
		t.Fatalf("buffer leak: %d/%d", pool.Avail(), pool.Size())
	}
	t.Logf("forwarded %d, dropped %d during 300 rule updates", forwarded.Load(), dropped.Load())
}

// TestManySessions checks the UPF scales past the paper's two-user control
// plane limit (its data plane "supports as many users as resources allow").
func TestManySessions(t *testing.T) {
	st, c, u, _ := newUPF(t)
	pool2 := newBigPool(t)
	const n = 200
	teids := make([]uint32, n)
	ips := make([]pkt.Addr, n)
	for i := 0; i < n; i++ {
		ip := pkt.AddrFrom(10, 60, byte(i>>8), byte(i+1))
		ips[i] = ip
		req := establishReq(uint64(1000 + i))
		req.UEIP = ip
		for _, p := range req.CreatePDRs {
			p.PDI.UEIP = ip
		}
		resp, err := c.Handle(uint64(1000+i), req)
		if err != nil {
			t.Fatal(err)
		}
		er := resp.(*pfcp.SessionEstablishmentResponse)
		if er.Cause != pfcp.CauseAccepted {
			t.Fatalf("session %d rejected", i)
		}
		teids[i] = er.CreatedPDRs[0].TEID
	}
	if st.Sessions() != n {
		t.Fatalf("sessions = %d", st.Sessions())
	}
	// Every session forwards UL independently.
	var scratch pkt.Parsed
	for i := 0; i < n; i++ {
		b, err := pool2.Get()
		if err != nil {
			t.Fatal(err)
		}
		inner := make([]byte, 128)
		ln, _ := pkt.BuildUDPv4(inner, ips[i], dnIP, 1, 2, 0, nil)
		b.SetData(inner[:ln])
		if err := encapUL(b, teids[i]); err != nil {
			t.Fatal(err)
		}
		b.Meta.Uplink = true
		if !u.Process(b, &scratch) || b.Meta.Port != uint16(PortN6) {
			t.Fatalf("session %d did not forward", i)
		}
		b.Release()
	}
	if s := u.Stats(); s.ULForwarded != n {
		t.Fatalf("forwarded %d, want %d", s.ULForwarded, n)
	}
}

// helpers shared by the concurrency tests.

func newBigPool(t *testing.T) *pktbuf2.Pool {
	t.Helper()
	return pktbuf2.NewPool(512, "many")
}

func encapUL(b *pktbuf2.Buf, teid uint32) error {
	return gtp2.Encap(b, teid, 9, false)
}
