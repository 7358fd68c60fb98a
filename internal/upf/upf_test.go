package upf

import (
	"sync/atomic"
	"testing"
	"time"

	"l25gc/internal/gtp"
	"l25gc/internal/onvm"
	"l25gc/internal/pfcp"
	"l25gc/internal/pkt"
	"l25gc/internal/pktbuf"
	"l25gc/internal/rules"
)

var (
	ueIP  = pkt.AddrFrom(10, 60, 0, 1)
	n3IP  = pkt.AddrFrom(10, 100, 0, 2)
	gnbIP = pkt.AddrFrom(10, 100, 0, 10)
	dnIP  = pkt.AddrFrom(8, 8, 8, 8)
)

// establishReq builds the canonical session establishment: UL PDR matching
// the UPF-chosen TEID, DL PDR matching the UE IP, forward FARs.
func establishReq(seid uint64) *pfcp.SessionEstablishmentRequest {
	return &pfcp.SessionEstablishmentRequest{
		NodeID: "smf", CPSEID: seid, UEIP: ueIP,
		CreatePDRs: []*rules.PDR{
			{
				ID: 1, Precedence: 32,
				PDI: rules.PDI{
					SourceInterface: rules.IfAccess,
					HasTEID:         true, TEID: 0, // CHOOSE: UPF allocates
					UEIP: ueIP, HasUEIP: true,
				},
				OuterHeaderRemoval: true, FARID: 1,
			},
			{
				ID: 2, Precedence: 32,
				PDI: rules.PDI{
					SourceInterface: rules.IfCore,
					UEIP:            ueIP, HasUEIP: true,
				},
				FARID: 2,
			},
		},
		CreateFARs: []*rules.FAR{
			{ID: 1, Action: rules.FARForward, DestInterface: rules.IfCore},
			{ID: 2, Action: rules.FARForward, DestInterface: rules.IfAccess,
				HasOuterHeader: true, OuterTEID: 0x5001, OuterAddr: gnbIP},
		},
	}
}

func newUPF(t *testing.T) (*State, *UPFC, *UPFU, *pktbuf.Pool) {
	t.Helper()
	st := NewState("ps", 0)
	c := NewUPFC(st, n3IP, nil)
	u := NewUPFU(st, c)
	pool := pktbuf.NewPool(256, "test")
	return st, c, u, pool
}

func mustEstablish(t *testing.T, c *UPFC, seid uint64) *pfcp.SessionEstablishmentResponse {
	t.Helper()
	resp, err := c.Handle(seid, establishReq(seid))
	if err != nil {
		t.Fatal(err)
	}
	er := resp.(*pfcp.SessionEstablishmentResponse)
	if er.Cause != pfcp.CauseAccepted {
		t.Fatalf("establish cause = %d", er.Cause)
	}
	if len(er.CreatedPDRs) != 1 || er.CreatedPDRs[0].TEID == 0 {
		t.Fatalf("expected a UPF-chosen F-TEID, got %+v", er.CreatedPDRs)
	}
	return er
}

// ulPacket builds a GTP-encapsulated UL frame in a fresh Buf.
func ulPacket(t *testing.T, pool *pktbuf.Pool, teid uint32, payload int) *pktbuf.Buf {
	t.Helper()
	b, err := pool.Get()
	if err != nil {
		t.Fatal(err)
	}
	inner := make([]byte, 128)
	n, err := pkt.BuildUDPv4(inner, ueIP, dnIP, 40000, 9000, 0, make([]byte, payload))
	if err != nil {
		t.Fatal(err)
	}
	b.SetData(inner[:n])
	if err := gtp.Encap(b, teid, 9, false); err != nil {
		t.Fatal(err)
	}
	b.Meta.Uplink = true
	return b
}

// dlPacket builds a plain IP DL frame.
func dlPacket(t *testing.T, pool *pktbuf.Pool, payload int) *pktbuf.Buf {
	t.Helper()
	b, err := pool.Get()
	if err != nil {
		t.Fatal(err)
	}
	raw := make([]byte, 256)
	n, err := pkt.BuildUDPv4(raw, dnIP, ueIP, 9000, 40000, 0, make([]byte, payload))
	if err != nil {
		t.Fatal(err)
	}
	b.SetData(raw[:n])
	b.Meta.Uplink = false
	return b
}

func TestEstablishAndUplinkForward(t *testing.T) {
	_, c, u, pool := newUPF(t)
	er := mustEstablish(t, c, 100)
	teid := er.CreatedPDRs[0].TEID

	b := ulPacket(t, pool, teid, 64)
	var scratch pkt.Parsed
	if !u.Process(b, &scratch) {
		t.Fatal("uplink should hand descriptor back")
	}
	if b.Meta.Action != pktbuf.ActionToPort || b.Meta.Port != uint16(PortN6) {
		t.Fatalf("meta = %+v, want forward to N6", b.Meta)
	}
	// GTP must be stripped: what egresses is the inner IP packet.
	if err := scratch.ParseIPv4(b.Bytes()); err != nil {
		t.Fatalf("egress not plain IP: %v", err)
	}
	if scratch.IP.Src != ueIP || scratch.IP.Dst != dnIP {
		t.Fatalf("inner addresses wrong: %v -> %v", scratch.IP.Src, scratch.IP.Dst)
	}
	if s := u.Stats(); s.ULForwarded != 1 {
		t.Fatalf("stats = %+v", s)
	}
	b.Release()
}

func TestUplinkUnknownTEIDDropped(t *testing.T) {
	_, c, u, pool := newUPF(t)
	mustEstablish(t, c, 100)
	b := ulPacket(t, pool, 0xdead, 64)
	var scratch pkt.Parsed
	if !u.Process(b, &scratch) {
		t.Fatal("should hand back for drop")
	}
	if b.Meta.Action != pktbuf.ActionDrop {
		t.Fatalf("action = %v, want drop", b.Meta.Action)
	}
	if s := u.Stats(); s.Misses != 1 {
		t.Fatalf("stats = %+v", s)
	}
	b.Release()
}

func TestDownlinkEncapsulates(t *testing.T) {
	_, c, u, pool := newUPF(t)
	mustEstablish(t, c, 100)
	b := dlPacket(t, pool, 64)
	var scratch pkt.Parsed
	if !u.Process(b, &scratch) {
		t.Fatal("downlink should hand back")
	}
	if b.Meta.Action != pktbuf.ActionToPort || b.Meta.Port != uint16(PortN3) {
		t.Fatalf("meta = %+v, want forward to N3", b.Meta)
	}
	// Egress must be GTP-encapsulated toward the gNB TEID.
	h, err := gtp.Decap(b)
	if err != nil {
		t.Fatal(err)
	}
	if h.TEID != 0x5001 || h.QFI != 9 || !h.HasQFI {
		t.Fatalf("outer header %+v", h)
	}
	b.Release()
}

func TestDownlinkUnknownUEDropped(t *testing.T) {
	_, c, u, pool := newUPF(t)
	mustEstablish(t, c, 100)
	b, _ := pool.Get()
	raw := make([]byte, 128)
	n, _ := pkt.BuildUDPv4(raw, dnIP, pkt.AddrFrom(10, 60, 0, 99), 1, 2, 0, nil)
	b.SetData(raw[:n])
	var scratch pkt.Parsed
	u.Process(b, &scratch)
	if b.Meta.Action != pktbuf.ActionDrop {
		t.Fatal("unknown UE should drop")
	}
	b.Release()
}

// TestSmartBufferingEpisode exercises §3.3: flip the DL FAR to
// buffer+notify (paging / handover start), observe parking and a single
// report, then flip to forward toward a *new* gNB TEID and observe ordered
// release with the new outer header.
func TestSmartBufferingEpisode(t *testing.T) {
	st, c, u, pool := newUPF(t)
	mustEstablish(t, c, 100)

	// Start buffering (handover preparation / UE idle).
	resp, err := c.Handle(100, &pfcp.SessionModificationRequest{
		UpdateFARs: []*rules.FAR{{
			ID: 2, Action: rules.FARBuffer | rules.FARNotifyCP,
			DestInterface: rules.IfAccess,
		}},
	})
	if err != nil || resp.(*pfcp.SessionModificationResponse).Cause != pfcp.CauseAccepted {
		t.Fatalf("modify: %v %+v", err, resp)
	}

	var scratch pkt.Parsed
	const n = 5
	for i := 0; i < n; i++ {
		b := dlPacket(t, pool, 10+i) // distinct sizes to check ordering
		if u.Process(b, &scratch) {
			t.Fatalf("packet %d should be parked", i)
		}
	}
	ctx, _ := st.Session(100)
	if s := ctx.Stats(); s.Buffered != n || s.QueueLen != n {
		t.Fatalf("session stats %+v", s)
	}

	// Collect drained packets via the emit hook.
	var released []*pktbuf.Buf
	u.SetEmit(func(burst []*pktbuf.Buf) int {
		released = append(released, burst...)
		return len(burst)
	}, pool)

	// Complete handover: forward to the target gNB with a new TEID.
	resp, err = c.Handle(100, &pfcp.SessionModificationRequest{
		UpdateFARs: []*rules.FAR{{
			ID: 2, Action: rules.FARForward, DestInterface: rules.IfAccess,
			HasOuterHeader: true, OuterTEID: 0x7777, OuterAddr: gnbIP,
		}},
	})
	if err != nil || resp.(*pfcp.SessionModificationResponse).Cause != pfcp.CauseAccepted {
		t.Fatalf("modify: %v %+v", err, resp)
	}
	if len(released) != n {
		t.Fatalf("released %d packets, want %d", len(released), n)
	}
	// In-order delivery with the *target* TEID.
	for i, b := range released {
		h, err := gtp.Decap(b)
		if err != nil {
			t.Fatal(err)
		}
		if h.TEID != 0x7777 {
			t.Fatalf("pkt %d: TEID %#x, want target 0x7777", i, h.TEID)
		}
		if err := scratch.ParseIPv4(b.Bytes()); err != nil {
			t.Fatal(err)
		}
		wantLen := pkt.IPv4MinLen + pkt.UDPLen + 10 + i
		if int(scratch.IP.TotalLen) != wantLen {
			t.Fatalf("pkt %d out of order: len %d want %d", i, scratch.IP.TotalLen, wantLen)
		}
		b.Release()
	}
	// After the episode, new DL packets flow immediately.
	b := dlPacket(t, pool, 64)
	if !u.Process(b, &scratch) {
		t.Fatal("post-drain packet should forward")
	}
	b.Release()
	if pool.Avail() != pool.Size() {
		t.Fatalf("buffer leak: %d/%d", pool.Avail(), pool.Size())
	}
}

func TestBufferCapDropsExcess(t *testing.T) {
	st := NewState("ps", 3)
	c := NewUPFC(st, n3IP, nil)
	u := NewUPFU(st, c)
	pool := pktbuf.NewPool(64, "t")
	mustEstablish(t, c, 100)
	c.Handle(100, &pfcp.SessionModificationRequest{
		UpdateFARs: []*rules.FAR{{ID: 2, Action: rules.FARBuffer, DestInterface: rules.IfAccess}},
	})
	var scratch pkt.Parsed
	for i := 0; i < 5; i++ {
		b := dlPacket(t, pool, 32)
		if u.Process(b, &scratch) {
			// Overflow packets come back as drops.
			if b.Meta.Action != pktbuf.ActionDrop {
				t.Fatalf("overflow action = %v", b.Meta.Action)
			}
			b.Release()
		}
	}
	ctx, _ := st.Session(100)
	s := ctx.Stats()
	if s.Buffered != 3 || s.BufferDropped != 2 {
		t.Fatalf("stats %+v, want 3 buffered / 2 dropped", s)
	}
}

func TestPagingReportSentOncePerEpisode(t *testing.T) {
	smfEP, upfEP := pfcp.NewMemPair(64)
	defer smfEP.Close()
	defer upfEP.Close()

	var reports atomic.Int32
	smfEP.SetHandler(func(seid uint64, req pfcp.Message) (pfcp.Message, error) {
		if _, ok := req.(*pfcp.SessionReportRequest); ok {
			reports.Add(1)
			return &pfcp.SessionReportResponse{Cause: pfcp.CauseAccepted}, nil
		}
		return nil, nil
	})

	st := NewState("ps", 0)
	c := NewUPFC(st, n3IP, upfEP)
	u := NewUPFU(st, c)
	pool := pktbuf.NewPool(64, "t")

	// Establish through the endpoint like a real SMF.
	resp, err := smfEP.Request(100, true, establishReq(100))
	if err != nil || resp.(*pfcp.SessionEstablishmentResponse).Cause != pfcp.CauseAccepted {
		t.Fatalf("establish via endpoint: %v", err)
	}
	smfEP.Request(100, true, &pfcp.SessionModificationRequest{
		UpdateFARs: []*rules.FAR{{
			ID: 2, Action: rules.FARBuffer | rules.FARNotifyCP, DestInterface: rules.IfAccess,
		}},
	})
	var scratch pkt.Parsed
	for i := 0; i < 4; i++ {
		b := dlPacket(t, pool, 32)
		u.Process(b, &scratch)
	}
	deadline := time.Now().Add(time.Second)
	for reports.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := reports.Load(); got != 1 {
		t.Fatalf("reports = %d, want exactly 1 per episode", got)
	}
}

func TestQERRateLimiting(t *testing.T) {
	st, _, _, pool := newUPF(t)
	_ = st
	stq := NewState("ps", 0)
	c := NewUPFC(stq, n3IP, nil)
	u := NewUPFU(stq, c)
	req := establishReq(200)
	req.CreateQERs = []*rules.QER{{ID: 9, QFI: 9, ULMbrKbps: 80, DLMbrKbps: 80, GateUL: true, GateDL: true}} // 80 kbit/s => 10 KB/s
	resp, err := c.Handle(200, req)
	if err != nil {
		t.Fatal(err)
	}
	teid := resp.(*pfcp.SessionEstablishmentResponse).CreatedPDRs[0].TEID

	// Freeze time so the bucket cannot refill: burst is 8000 bits = ~9
	// 100-byte packets.
	u.nowNano = func() int64 { return 1 }
	var scratch pkt.Parsed
	forwarded, dropped := 0, 0
	for i := 0; i < 30; i++ {
		b := ulPacket(t, pool, teid, 72) // ~100B inner IP
		u.Process(b, &scratch)
		if b.Meta.Action == pktbuf.ActionToPort {
			forwarded++
		} else {
			dropped++
		}
		b.Release()
	}
	if dropped == 0 || forwarded == 0 {
		t.Fatalf("MBR enforcement inactive: fwd=%d drop=%d", forwarded, dropped)
	}
	if s := u.Stats(); s.RateDropped != uint64(dropped) {
		t.Fatalf("stats %+v, dropped=%d", s, dropped)
	}
}

func TestSessionDeletionReleasesBuffers(t *testing.T) {
	st, c, u, pool := newUPF(t)
	mustEstablish(t, c, 100)
	c.Handle(100, &pfcp.SessionModificationRequest{
		UpdateFARs: []*rules.FAR{{ID: 2, Action: rules.FARBuffer, DestInterface: rules.IfAccess}},
	})
	var scratch pkt.Parsed
	for i := 0; i < 3; i++ {
		u.Process(dlPacket(t, pool, 16), &scratch)
	}
	if st.BufferDepth() != 3 || st.ParkedBytes() == 0 {
		t.Fatalf("expected 3 parked packets, have %d (%d bytes)", st.BufferDepth(), st.ParkedBytes())
	}
	c.Handle(100, &pfcp.SessionDeletionRequest{})
	if pool.Avail() != pool.Size() || st.ParkedBytes() != 0 {
		t.Fatalf("deletion leaked buffers: %d/%d, %d parked bytes", pool.Avail(), pool.Size(), st.ParkedBytes())
	}
	if st.Sessions() != 0 {
		t.Fatal("session not removed")
	}
	// Traffic for the deleted session now drops.
	b := dlPacket(t, pool, 16)
	u.Process(b, &scratch)
	if b.Meta.Action != pktbuf.ActionDrop {
		t.Fatal("deleted session should drop")
	}
	b.Release()
}

func TestDuplicateEstablishRejected(t *testing.T) {
	_, c, _, _ := newUPF(t)
	mustEstablish(t, c, 100)
	resp, _ := c.Handle(100, establishReq(100))
	if resp.(*pfcp.SessionEstablishmentResponse).Cause != pfcp.CauseRequestRejected {
		t.Fatal("duplicate SEID should be rejected")
	}
}

func TestModifyUnknownSession(t *testing.T) {
	_, c, _, _ := newUPF(t)
	resp, _ := c.Handle(999, &pfcp.SessionModificationRequest{})
	if resp.(*pfcp.SessionModificationResponse).Cause != pfcp.CauseSessionNotFound {
		t.Fatal("unknown session should report not-found")
	}
}

// TestONVMPipeline runs the full platform: inject GTP frames on N3, observe
// plain IP on N6, and vice versa.
func TestONVMPipeline(t *testing.T) {
	st := NewState("ps", 0)
	c := NewUPFC(st, n3IP, nil)
	u := NewUPFU(st, c)
	mgr := onvm.NewManager(onvm.Config{PoolSize: 512, PoolPrefix: "t"})
	defer mgr.Stop()

	const upfSvc = 1
	if _, err := u.AttachONVM(mgr, upfSvc); err != nil {
		t.Fatal(err)
	}
	mgr.BindPortNF(uint16(PortN3), upfSvc)
	mgr.BindPortNF(uint16(PortN6), upfSvc)

	var n3Out, n6Out atomic.Uint64
	mgr.RegisterPort(uint16(PortN3), func(frame []byte, meta pktbuf.Meta) { n3Out.Add(1) })
	mgr.RegisterPort(uint16(PortN6), func(frame []byte, meta pktbuf.Meta) { n6Out.Add(1) })

	er := mustEstablish(t, c, 100)
	teid := er.CreatedPDRs[0].TEID

	// UL: GTP frame arrives on N3.
	raw := make([]byte, 256)
	inner := make([]byte, 128)
	n, _ := pkt.BuildUDPv4(inner, ueIP, dnIP, 1000, 2000, 0, make([]byte, 32))
	// Manually assemble GTP header + inner.
	var gh gtp.Header
	gh.MsgType = gtp.MsgGPDU
	gh.TEID = teid
	gh.HasQFI = true
	gh.QFI = 9
	gh.PDUType = 1
	hn, _ := gh.Encode(raw, n)
	copy(raw[hn:], inner[:n])
	if err := mgr.Inject(uint16(PortN3), raw[:hn+n], pktbuf.Meta{Uplink: true}); err != nil {
		t.Fatal(err)
	}
	// DL: plain IP arrives on N6.
	dl := make([]byte, 256)
	dn, _ := pkt.BuildUDPv4(dl, dnIP, ueIP, 2000, 1000, 0, make([]byte, 32))
	if err := mgr.Inject(uint16(PortN6), dl[:dn], pktbuf.Meta{Uplink: false}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for (n3Out.Load() != 1 || n6Out.Load() != 1) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n3Out.Load() != 1 || n6Out.Load() != 1 {
		t.Fatalf("n3=%d n6=%d, want 1/1 (upfu stats %+v)", n3Out.Load(), n6Out.Load(), u.Stats())
	}
}

func BenchmarkUplinkFastPath(b *testing.B) {
	st := NewState("ps", 0)
	c := NewUPFC(st, n3IP, nil)
	u := NewUPFU(st, c)
	pool := pktbuf.NewPool(16, "bench")
	resp, _ := c.Handle(100, establishReq(100))
	teid := resp.(*pfcp.SessionEstablishmentResponse).CreatedPDRs[0].TEID

	inner := make([]byte, 128)
	n, _ := pkt.BuildUDPv4(inner, ueIP, dnIP, 1000, 2000, 0, make([]byte, 64))
	var scratch pkt.Parsed
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, _ := pool.Get()
		buf.SetData(inner[:n])
		gtp.Encap(buf, teid, 9, false)
		buf.Meta.Uplink = true
		u.Process(buf, &scratch)
		buf.Release()
	}
}

func BenchmarkDownlinkFastPath(b *testing.B) {
	st := NewState("ps", 0)
	c := NewUPFC(st, n3IP, nil)
	u := NewUPFU(st, c)
	pool := pktbuf.NewPool(16, "bench")
	c.Handle(100, establishReq(100))
	raw := make([]byte, 256)
	n, _ := pkt.BuildUDPv4(raw, dnIP, ueIP, 2000, 1000, 0, make([]byte, 64))
	var scratch pkt.Parsed
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, _ := pool.Get()
		buf.SetData(raw[:n])
		u.Process(buf, &scratch)
		buf.Release()
	}
}
