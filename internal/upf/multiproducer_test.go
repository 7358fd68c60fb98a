package upf

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"l25gc/internal/gtp"
	"l25gc/internal/onvm"
	"l25gc/internal/pfcp"
	"l25gc/internal/pkt"
	"l25gc/internal/pktbuf"
)

// TestMultiProducerUplinkPerFlowFIFO runs the full UL fast path — N3
// ingress, GTP decap, classification, N6 egress — from 4 producers into 3
// UPF-U instances and asserts per-flow FIFO order at the N6 sink. This is
// the end-to-end ordering invariant of the descriptor switch: flows
// interleave freely across producers and instances, but one flow's packets
// never pass each other.
func TestMultiProducerUplinkPerFlowFIFO(t *testing.T) {
	const (
		flows     = 32
		perFlow   = 150
		producers = 4
		upfSvc    = 1
	)
	st := NewState("ps", 0)
	c := NewUPFC(st, n3IP, nil)
	u := NewUPFU(st, c)
	// PoolSize below the NF ring capacity bounds in-flight descriptors so Rx
	// rings cannot overflow: every injected frame must reach the sink.
	mgr := onvm.NewManager(onvm.Config{PoolSize: 512, PoolPrefix: "t"})
	defer mgr.Stop()
	insts := make([]*onvm.Instance, 3)
	for i := range insts {
		inst, err := u.AttachONVM(mgr, upfSvc)
		if err != nil {
			t.Fatal(err)
		}
		insts[i] = inst
	}
	mgr.BindPortNF(uint16(PortN3), upfSvc)

	var last [flows]atomic.Uint64
	var reorders, received atomic.Uint64
	mgr.RegisterPort(uint16(PortN6), func(frame []byte, meta pktbuf.Meta) {
		f := meta.TEID // flow index stamped at injection; UL never rewrites it
		if f >= flows {
			t.Errorf("unexpected flow index %d at N6", f)
			return
		}
		if prev := last[f].Load(); meta.Seq <= prev {
			reorders.Add(1)
		}
		last[f].Store(meta.Seq)
		received.Add(1)
	})

	// One PFCP session per flow, each with its own UE IP and UPF-chosen TEID,
	// then one prebuilt UL GTP frame per flow.
	frames := make([][]byte, flows)
	for f := 0; f < flows; f++ {
		ip := pkt.AddrFrom(10, 61, byte(f>>8), byte(f+1))
		req := establishReq(uint64(5000 + f))
		req.UEIP = ip
		for _, p := range req.CreatePDRs {
			p.PDI.UEIP = ip
		}
		resp, err := c.Handle(uint64(5000+f), req)
		if err != nil {
			t.Fatal(err)
		}
		teid := resp.(*pfcp.SessionEstablishmentResponse).CreatedPDRs[0].TEID

		inner := make([]byte, 128)
		n, err := pkt.BuildUDPv4(inner, ip, dnIP, 40000, 9000, 0, make([]byte, 32))
		if err != nil {
			t.Fatal(err)
		}
		raw := make([]byte, 256)
		gh := gtp.Header{MsgType: gtp.MsgGPDU, TEID: teid, HasQFI: true, QFI: 9, PDUType: 1}
		hn, err := gh.Encode(raw, n)
		if err != nil {
			t.Fatal(err)
		}
		copy(raw[hn:], inner[:n])
		frames[f] = raw[:hn+n]
	}

	// producers goroutines each own flows/producers flows and inject their
	// packets in sequence order; flows from different producers interleave.
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for seq := uint64(1); seq <= perFlow; seq++ {
				for f := p; f < flows; f += producers {
					meta := pktbuf.Meta{
						Uplink: true,
						TEID:   uint32(f),
						RSS:    uint64(f)*0x9e3779b97f4a7c15 + 1,
						Seq:    seq,
					}
					for {
						if err := mgr.Inject(uint16(PortN3), frames[f], meta); err == nil {
							break
						}
						runtime.Gosched()
					}
				}
			}
		}(p)
	}
	wg.Wait()

	deadline := func(cond func() bool, what string) {
		t.Helper()
		until := time.Now().Add(2 * time.Second)
		for !cond() {
			if time.Now().After(until) {
				t.Fatalf("timeout waiting for %s", what)
			}
			time.Sleep(time.Millisecond)
		}
	}
	deadline(func() bool { return received.Load() == flows*perFlow }, "all frames at N6")
	if reorders.Load() != 0 {
		t.Fatalf("%d per-flow reorders across %d producers x 3 instances", reorders.Load(), producers)
	}
	for f := 0; f < flows; f++ {
		if last[f].Load() != perFlow {
			t.Fatalf("flow %d last seq = %d, want %d", f, last[f].Load(), perFlow)
		}
	}
	// All instances shared the load (flows spread by RSS across instances).
	for i, inst := range insts {
		if rx, _ := inst.Stats(); rx == 0 {
			t.Fatalf("instance %d received no traffic", i)
		}
	}
	if s := u.Stats(); s.ULForwarded != flows*perFlow {
		t.Fatalf("ULForwarded = %d, want %d (stats %+v)", s.ULForwarded, flows*perFlow, s)
	}
	deadline(func() bool { return mgr.Pool().Avail() == 512 }, "buffer return")
}
