package kernelpath

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"l25gc/internal/faults"
	"l25gc/internal/gtp"
	"l25gc/internal/pfcp"
	"l25gc/internal/pkt"
	"l25gc/internal/rules"
	"l25gc/internal/upf"
)

var (
	ueIP  = pkt.AddrFrom(10, 60, 0, 1)
	n3IP  = pkt.AddrFrom(10, 100, 0, 2)
	gnbIP = pkt.AddrFrom(10, 100, 0, 10)
	dnIP  = pkt.AddrFrom(8, 8, 8, 8)
)

func establishReq(seid uint64) *pfcp.SessionEstablishmentRequest {
	return &pfcp.SessionEstablishmentRequest{
		NodeID: "smf", CPSEID: seid, UEIP: ueIP,
		CreatePDRs: []*rules.PDR{
			{ID: 1, Precedence: 32,
				PDI: rules.PDI{SourceInterface: rules.IfAccess, HasTEID: true,
					UEIP: ueIP, HasUEIP: true},
				OuterHeaderRemoval: true, FARID: 1},
			{ID: 2, Precedence: 32,
				PDI:   rules.PDI{SourceInterface: rules.IfCore, UEIP: ueIP, HasUEIP: true},
				FARID: 2},
		},
		CreateFARs: []*rules.FAR{
			{ID: 1, Action: rules.FARForward, DestInterface: rules.IfCore},
			{ID: 2, Action: rules.FARForward, DestInterface: rules.IfAccess,
				HasOuterHeader: true, OuterTEID: 0x5001, OuterAddr: gnbIP},
		},
	}
}

func setup(t *testing.T) (*KernelUPF, *upf.UPFC, uint32, *net.UDPConn, *net.UDPConn) {
	t.Helper()
	r := newRig(t, establishReq(100))
	return r.k, r.upfc, r.teid, r.gnb, r.dn
}

// rig is a kernel-path UPF with one session established by its request,
// a gNB socket and a DN socket.
type rig struct {
	k       *KernelUPF
	upfc    *upf.UPFC
	state   *upf.State
	teid    uint32
	gnb, dn *net.UDPConn
}

func newRig(t *testing.T, req *pfcp.SessionEstablishmentRequest) *rig {
	t.Helper()
	state := upf.NewState("ll", 0) // free5GC uses the linear-list lookup
	upfc := upf.NewUPFC(state, n3IP, nil)
	k, err := New(upf.NewUPFU(state, upfc))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { k.Close() })

	gnb, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { gnb.Close() })
	dn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dn.Close() })

	if err := k.RegisterGNB(gnbIP, gnb.LocalAddr().String()); err != nil {
		t.Fatal(err)
	}
	if err := k.SetDN(dn.LocalAddr().String()); err != nil {
		t.Fatal(err)
	}
	resp, err := upfc.Handle(req.CPSEID, req)
	if err != nil {
		t.Fatal(err)
	}
	teid := resp.(*pfcp.SessionEstablishmentResponse).CreatedPDRs[0].TEID
	return &rig{k: k, upfc: upfc, state: state, teid: teid, gnb: gnb, dn: dn}
}

func TestUplinkThroughKernelSockets(t *testing.T) {
	k, _, teid, gnb, dn := setup(t)

	inner := make([]byte, 256)
	n, _ := pkt.BuildUDPv4(inner, ueIP, dnIP, 1000, 2000, 0, []byte("uplink-payload"))
	frame := make([]byte, 512)
	hdr := gtp.Header{MsgType: gtp.MsgGPDU, TEID: teid, HasQFI: true, QFI: 9, PDUType: 1}
	hn, _ := hdr.Encode(frame, n)
	copy(frame[hn:], inner[:n])

	upfAddr, _ := net.ResolveUDPAddr("udp", k.N3Addr())
	if _, err := gnb.WriteToUDP(frame[:hn+n], upfAddr); err != nil {
		t.Fatal(err)
	}
	dn.SetReadDeadline(time.Now().Add(2 * time.Second))
	out := make([]byte, 2048)
	on, _, err := dn.ReadFromUDP(out)
	if err != nil {
		t.Fatalf("DN read: %v (stats: %v)", err, statsString(k))
	}
	var p pkt.Parsed
	if err := p.ParseIPv4(out[:on]); err != nil {
		t.Fatal(err)
	}
	if p.IP.Src != ueIP || p.IP.Dst != dnIP || string(p.Payload) != "uplink-payload" {
		t.Fatalf("unexpected DN packet %v -> %v %q", p.IP.Src, p.IP.Dst, p.Payload)
	}
}

func TestDownlinkThroughKernelSockets(t *testing.T) {
	k, _, _, gnb, dn := setup(t)

	raw := make([]byte, 256)
	n, _ := pkt.BuildUDPv4(raw, dnIP, ueIP, 2000, 1000, 0, []byte("downlink"))
	upfN6, _ := net.ResolveUDPAddr("udp", k.N6Addr())
	if _, err := dn.WriteToUDP(raw[:n], upfN6); err != nil {
		t.Fatal(err)
	}
	gnb.SetReadDeadline(time.Now().Add(2 * time.Second))
	out := make([]byte, 2048)
	on, _, err := gnb.ReadFromUDP(out)
	if err != nil {
		t.Fatalf("gNB read: %v", err)
	}
	var h gtp.Header
	inner, err := h.Decode(out[:on])
	if err != nil {
		t.Fatal(err)
	}
	if h.TEID != 0x5001 || h.QFI != 9 {
		t.Fatalf("outer header %+v", h)
	}
	var p pkt.Parsed
	if err := p.ParseIPv4(inner); err != nil {
		t.Fatal(err)
	}
	if string(p.Payload) != "downlink" {
		t.Fatalf("payload %q", p.Payload)
	}
}

func TestKernelPathBufferingAndDrain(t *testing.T) {
	k, upfc, _, gnb, dn := setup(t)

	// Flip DL FAR to buffer (handover starts).
	upfc.Handle(100, &pfcp.SessionModificationRequest{
		UpdateFARs: []*rules.FAR{{ID: 2, Action: rules.FARBuffer, DestInterface: rules.IfAccess}},
	})
	upfN6, _ := net.ResolveUDPAddr("udp", k.N6Addr())
	raw := make([]byte, 256)
	const npkts = 4
	for i := 0; i < npkts; i++ {
		n, _ := pkt.BuildUDPv4(raw, dnIP, ueIP, 2000, 1000, 0, []byte{byte(i)})
		dn.WriteToUDP(raw[:n], upfN6)
	}
	// Nothing must reach the gNB while buffering.
	gnb.SetReadDeadline(time.Now().Add(150 * time.Millisecond))
	tmp := make([]byte, 2048)
	if _, _, err := gnb.ReadFromUDP(tmp); err == nil {
		t.Fatal("packet leaked to gNB while buffering")
	}
	// Give the n6Loop a moment to park everything, then complete HO to a
	// new target TEID.
	time.Sleep(100 * time.Millisecond)
	upfc.Handle(100, &pfcp.SessionModificationRequest{
		UpdateFARs: []*rules.FAR{{ID: 2, Action: rules.FARForward, DestInterface: rules.IfAccess,
			HasOuterHeader: true, OuterTEID: 0x9999, OuterAddr: gnbIP}},
	})
	for i := 0; i < npkts; i++ {
		gnb.SetReadDeadline(time.Now().Add(2 * time.Second))
		on, _, err := gnb.ReadFromUDP(tmp)
		if err != nil {
			t.Fatalf("drained packet %d missing: %v", i, err)
		}
		var h gtp.Header
		inner, err := h.Decode(tmp[:on])
		if err != nil || h.TEID != 0x9999 {
			t.Fatalf("packet %d: hdr %+v err %v", i, h, err)
		}
		var p pkt.Parsed
		p.ParseIPv4(inner)
		if len(p.Payload) != 1 || p.Payload[0] != byte(i) {
			t.Fatalf("packet %d out of order: payload %v", i, p.Payload)
		}
	}
}

func statsString(k *KernelUPF) string {
	us := k.u.Stats()
	return fmt.Sprintf("upf %+v, socket-side dropped=%d", us, k.Dropped())
}

func TestInjectedLossOnN3IsCountedAndDeterministic(t *testing.T) {
	k, _, teid, gnb, dn := setup(t)
	// Drop the first two GTP-U frames arriving on N3; the third passes.
	inj := faults.New(11).
		Add(faults.Rule{Point: "upf.kern.n3.rx", Kind: faults.Drop, Count: 2})
	k.SetInjector(inj, "upf.kern")

	inner := make([]byte, 256)
	n, _ := pkt.BuildUDPv4(inner, ueIP, dnIP, 1000, 2000, 0, []byte("probe"))
	frame := make([]byte, 512)
	hdr := gtp.Header{MsgType: gtp.MsgGPDU, TEID: teid, HasQFI: true, QFI: 9, PDUType: 1}
	hn, _ := hdr.Encode(frame, n)
	copy(frame[hn:], inner[:n])
	upfAddr, _ := net.ResolveUDPAddr("udp", k.N3Addr())

	out := make([]byte, 2048)
	for i := 0; i < 3; i++ {
		if _, err := gnb.WriteToUDP(frame[:hn+n], upfAddr); err != nil {
			t.Fatal(err)
		}
		dn.SetReadDeadline(time.Now().Add(150 * time.Millisecond))
		_, _, err := dn.ReadFromUDP(out)
		if i < 2 && err == nil {
			t.Fatalf("frame %d should have been dropped by the injector", i)
		}
		if i == 2 && err != nil {
			t.Fatalf("frame after drop budget lost: %v (stats: %v)", err, statsString(k))
		}
	}
	if k.InjectedFaults() != 2 {
		t.Fatalf("injected faults = %d, want 2", k.InjectedFaults())
	}
	if got := inj.Count("upf.kern.n3.rx", faults.Drop); got != 2 {
		t.Fatalf("injector drop count = %d, want 2", got)
	}
}

func TestInjectedCorruptionDropsAtParser(t *testing.T) {
	k, _, teid, gnb, dn := setup(t)
	// Corrupt the first N3 frame in place: the fault is counted and the
	// path stays healthy for subsequent traffic.
	inj := faults.New(5).
		Add(faults.Rule{Point: "upf.kern.n3.rx", Kind: faults.Corrupt, Count: 1})
	k.SetInjector(inj, "upf.kern")

	inner := make([]byte, 256)
	n, _ := pkt.BuildUDPv4(inner, ueIP, dnIP, 1000, 2000, 0, []byte("x"))
	frame := make([]byte, 512)
	hdr := gtp.Header{MsgType: gtp.MsgGPDU, TEID: teid, HasQFI: true, QFI: 9, PDUType: 1}
	hn, _ := hdr.Encode(frame, n)
	copy(frame[hn:], inner[:n])
	upfAddr, _ := net.ResolveUDPAddr("udp", k.N3Addr())

	dropped0 := k.Dropped()
	if _, err := gnb.WriteToUDP(frame[:hn+n], upfAddr); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if k.Dropped() > dropped0 || k.InjectedFaults() > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if k.InjectedFaults() != 1 {
		t.Fatalf("injected faults = %d, want 1 corruption", k.InjectedFaults())
	}
	// The next, uncorrupted frame still flows end to end.
	if _, err := gnb.WriteToUDP(frame[:hn+n], upfAddr); err != nil {
		t.Fatal(err)
	}
	dn.SetReadDeadline(time.Now().Add(2 * time.Second))
	out := make([]byte, 2048)
	if _, _, err := dn.ReadFromUDP(out); err != nil {
		t.Fatalf("clean frame after corruption lost: %v (stats: %v)", err, statsString(k))
	}
}

// ulFrame builds a G-PDU on teid carrying a UE→DN UDP packet with payload.
func ulFrame(teid uint32, payload []byte) []byte {
	inner := make([]byte, 2048)
	n, _ := pkt.BuildUDPv4(inner, ueIP, dnIP, 1000, 2000, 0, payload)
	frame := make([]byte, 2048)
	hdr := gtp.Header{MsgType: gtp.MsgGPDU, TEID: teid, HasQFI: true, QFI: 9, PDUType: 1}
	hn, _ := hdr.Encode(frame, n)
	return frame[:hn+copy(frame[hn:], inner[:n])]
}

// waitFor polls cond for up to two seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// A QER's MBR binds in free5GC mode as in the shared-memory modes: 30
// back-to-back 100 B uplink packets overrun an 80 kbit/s bucket, whose
// 100 ms burst is 8 000 bits.
func TestKernelPathEnforcesMBR(t *testing.T) {
	req := establishReq(100)
	req.CreateQERs = []*rules.QER{{ID: 1, ULMbrKbps: 80, DLMbrKbps: 80}}
	r := newRig(t, req)
	frame := ulFrame(r.teid, make([]byte, 72)) // 20 + 8 + 72 = 100 B inner
	upfAddr, _ := net.ResolveUDPAddr("udp", r.k.N3Addr())
	const frames = 30
	for i := 0; i < frames; i++ {
		if _, err := r.gnb.WriteToUDP(frame, upfAddr); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "every frame handled", func() bool {
		us := r.k.u.Stats()
		return us.ULForwarded+us.RateDropped+us.Dropped+us.Misses == frames
	})
	out := make([]byte, 2048)
	got := 0
	for {
		r.dn.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
		if _, _, err := r.dn.ReadFromUDP(out); err != nil {
			break
		}
		got++
	}
	us := r.k.u.Stats()
	if us.RateDropped == 0 || got >= frames {
		t.Fatalf("MBR not enforced: %d of %d packets reached the DN (%s)", got, frames, statsString(r.k))
	}
	if uint64(got) != us.ULForwarded || us.ULForwarded+us.RateDropped != frames {
		t.Fatalf("%d packets reached the DN (%s)", got, statsString(r.k))
	}
}

// TestKernelPathBufferFlipRace flips FAR 2 between buffer and forward
// while downlink packets flow. A packet parks under the session's rules
// read lock, so a buffer→forward flip drains every packet parked before
// it. Once the last flip has returned, every packet sent reaches the gNB
// exactly once, those sent after the last flip in order and after all the
// others, and no session buffer holds a packet.
func TestKernelPathBufferFlipRace(t *testing.T) {
	r := newRig(t, establishReq(100))
	r.gnb.SetReadBuffer(4 << 20)
	const during, after, flips = 600, 50, 40

	var received atomic.Uint64
	order := make(chan uint32, during+after)
	go func() {
		buf := make([]byte, 2048)
		var p pkt.Parsed
		for {
			n, _, err := r.gnb.ReadFromUDP(buf)
			if err != nil {
				return
			}
			var h gtp.Header
			inner, err := h.Decode(buf[:n])
			if err != nil || p.ParseIPv4(inner) != nil || len(p.Payload) != 4 {
				t.Errorf("malformed frame at the gNB: %x", buf[:n])
				continue
			}
			select {
			case order <- binary.BigEndian.Uint32(p.Payload):
			default: // more than were sent: received says so
			}
			received.Add(1)
		}
	}()

	upfN6, _ := net.ResolveUDPAddr("udp", r.k.N6Addr())
	raw := make([]byte, 256)
	send := func(seq uint32) {
		var payload [4]byte
		binary.BigEndian.PutUint32(payload[:], seq)
		n, _ := pkt.BuildUDPv4(raw, dnIP, ueIP, 2000, 1000, 0, payload[:])
		if _, err := r.dn.WriteToUDP(raw[:n], upfN6); err != nil {
			t.Error(err)
		}
	}
	// Keep at most a window of packets in the sockets, so none is lost
	// to a full receive buffer: the rest were received or are parked.
	const window = 32
	pace := func(sent uint64) {
		for deadline := time.Now().Add(5 * time.Second); sent > received.Load()+uint64(r.state.BufferDepth())+window; {
			if time.Now().After(deadline) {
				t.Fatalf("%d sent, %d received, %d parked (%s)",
					sent, received.Load(), r.state.BufferDepth(), statsString(r.k))
			}
			time.Sleep(50 * time.Microsecond)
		}
	}

	flip := func(action rules.FARAction) {
		far := &rules.FAR{ID: 2, Action: action, DestInterface: rules.IfAccess}
		if action == rules.FARForward {
			far.HasOuterHeader, far.OuterTEID, far.OuterAddr = true, 0x5001, gnbIP
		}
		if _, err := r.upfc.Handle(100, &pfcp.SessionModificationRequest{UpdateFARs: []*rules.FAR{far}}); err != nil {
			t.Error(err)
		}
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < flips; i++ {
			flip(rules.FARBuffer)
			time.Sleep(200 * time.Microsecond)
			flip(rules.FARForward)
			time.Sleep(200 * time.Microsecond)
		}
	}()
	for seq := uint32(0); seq < during; seq++ {
		send(seq)
		pace(uint64(seq) + 1)
	}
	wg.Wait()
	for seq := uint32(during); seq < during+after; seq++ {
		send(seq)
	}
	waitFor(t, "every packet at the gNB", func() bool { return received.Load() >= during+after })

	if n := received.Load(); n != during+after {
		t.Fatalf("%d packets at the gNB, %d sent", n, during+after)
	}
	seen := make(map[uint32]bool)
	for i := 0; i < during+after; i++ {
		seq := <-order
		if seen[seq] || seq >= during+after {
			t.Fatalf("packet %d delivered twice or never sent", seq)
		}
		seen[seq] = true
		if i >= during && seq != uint32(i) {
			t.Fatalf("delivery %d is packet %d: packets sent after the last flip are out of order", i, seq)
		}
	}
	if d := r.state.BufferDepth(); d != 0 {
		t.Fatalf("%d packets still parked after the last forward flip", d)
	}
	if r.k.u.Stats().Buffered == 0 {
		t.Fatal("no packet was parked: the flips missed the traffic")
	}
}
