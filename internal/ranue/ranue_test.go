package ranue

import (
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"l25gc/internal/gtp"
	"l25gc/internal/ngap"
	"l25gc/internal/pkt"
)

// stubDP is a DataPlane capturing UL frames (copied: SendUL only borrows
// them) and exposing the DL sink.
type stubDP struct {
	ul    [][]byte
	sinks map[pkt.Addr]func([]byte)
}

func newStubDP() *stubDP { return &stubDP{sinks: make(map[pkt.Addr]func([]byte))} }

func (d *stubDP) SendUL(frame []byte) error {
	d.ul = append(d.ul, append([]byte(nil), frame...))
	return nil
}

func (d *stubDP) AttachGNB(addr pkt.Addr, sink func([]byte)) error {
	d.sinks[addr] = sink
	return nil
}

// fakeAMF accepts one N2 connection and answers NG setup.
func fakeAMF(t testing.TB) (addr string, got chan ngap.Message, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	got = make(chan ngap.Message, 32)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		conn := ngap.NewConn(c)
		for {
			m, err := conn.Recv()
			if err != nil {
				return
			}
			if _, ok := m.(*ngap.NGSetupRequest); ok {
				conn.Send(&ngap.NGSetupResponse{AmfName: "fake", Accepted: true})
			}
			got <- m
		}
	}()
	return ln.Addr().String(), got, func() { ln.Close() }
}

func TestGNBSetupAndULPath(t *testing.T) {
	addr, got, stop := fakeAMF(t)
	defer stop()
	dp := newStubDP()
	g, err := NewGNB(1, pkt.AddrFrom(10, 100, 0, 10), addr, dp)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	select {
	case m := <-got:
		if _, ok := m.(*ngap.NGSetupRequest); !ok {
			t.Fatalf("first message %T", m)
		}
	case <-time.After(time.Second):
		t.Fatal("NG setup never reached the AMF")
	}
	// The gNB's DL sink is attached under its address.
	if dp.sinks[g.Addr] == nil {
		t.Fatal("gNB did not attach its DL sink")
	}
	// UL encapsulation uses the attachment's UPF TEID.
	ue := NewUE("imsi-1", []byte("k"), nil)
	at := g.attach(ue)
	at.upfTEID = 0xabc
	at.active = true
	src, dst := pkt.AddrFrom(10, 60, 0, 1), pkt.AddrFrom(1, 1, 1, 1)
	for _, payload := range []string{"up", "a longer second packet through the same scratch frame"} {
		if err := g.sendUL(at, src, dst, 40000, 9000, []byte(payload)); err != nil {
			t.Fatal(err)
		}
	}
	if len(dp.ul) != 2 {
		t.Fatalf("UL frames = %d", len(dp.ul))
	}
	var h gtp.Header
	inner, err := h.Decode(dp.ul[0])
	if err != nil || h.TEID != 0xabc || h.PDUType != 1 {
		t.Fatalf("UL header %+v err %v", h, err)
	}
	var p pkt.Parsed
	if err := p.ParseIPv4(inner); err != nil || p.IP.Src != src || p.IP.Dst != dst ||
		p.UDP.SrcPort != 40000 || p.UDP.DstPort != 9000 || string(p.Payload) != "up" {
		t.Fatalf("UL inner packet %+v err %v", p, err)
	}
}

// discardDP is a DataPlane that drops UL frames and delivers none.
type discardDP struct{}

func (discardDP) SendUL([]byte) error                    { return nil }
func (discardDP) AttachGNB(pkt.Addr, func([]byte)) error { return nil }

// BenchmarkSendUplink is the UE -> gNB -> data plane UL edge: the packet
// is built behind its GTP-U header in a pooled scratch frame, 0 allocs/op.
func BenchmarkSendUplink(b *testing.B) {
	addr, _, stop := fakeAMF(b)
	defer stop()
	g, err := NewGNB(1, pkt.AddrFrom(10, 100, 0, 10), addr, discardDP{})
	if err != nil {
		b.Fatal(err)
	}
	defer g.Close()
	ue := NewUE("imsi-1", []byte("k"), nil)
	at := g.attach(ue)
	at.upfTEID, at.active = 0xabc, true
	ue.gnb, ue.at, ue.ueIP = g, at, pkt.AddrFrom(10, 60, 0, 1)
	dst, payload := pkt.AddrFrom(1, 1, 1, 1), make([]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ue.SendUplink(dst, 40000, 9000, payload); err != nil {
			b.Fatal(err)
		}
	}
}

func TestGNBSetupTimeout(t *testing.T) {
	// A listener that accepts but never answers: NG setup must time out.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, _ := ln.Accept()
		if c != nil {
			defer c.Close()
			time.Sleep(5 * time.Second)
		}
	}()
	start := time.Now()
	if _, err := NewGNB(1, pkt.AddrFrom(10, 0, 0, 1), ln.Addr().String(), newStubDP()); err == nil {
		t.Fatal("setup against a mute AMF must fail")
	}
	if time.Since(start) > 4*time.Second {
		t.Fatal("timeout took too long")
	}
}

func TestDLFrameDeliveryByTEID(t *testing.T) {
	addr, _, stop := fakeAMF(t)
	defer stop()
	dp := newStubDP()
	g, err := NewGNB(1, pkt.AddrFrom(10, 100, 0, 10), addr, dp)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	ue := NewUE("imsi-1", []byte("k"), nil)
	at := g.attach(ue)
	setup := &ngap.PDUSessionResourceSetupRequest{RanUeID: at.ranUeID, AmfUeID: 7, UpfTEID: 0xabc}
	g.handleResourceSetup(setup)
	first := at.dlTEID

	gotData := make(chan []byte, 1)
	ue.OnData = func(p []byte) { gotData <- append([]byte(nil), p...) } // p is lent, not given

	frame := make([]byte, 64)
	deliver := func(teid uint32) {
		h := gtp.Header{MsgType: gtp.MsgGPDU, TEID: teid}
		n, _ := h.Encode(frame, 4)
		copy(frame[n:], "data")
		dp.sinks[g.Addr](frame[:n+4])
	}
	deliver(first)
	select {
	case d := <-gotData:
		if string(d) != "data" {
			t.Fatalf("payload %q", d)
		}
	case <-time.After(time.Second):
		t.Fatal("DL frame not delivered to UE")
	}
	// A repeated setup replaces the tunnel: the old TEID is unbound, and
	// frames for it or any other unknown TEID are ignored (no panic, no
	// delivery).
	g.handleResourceSetup(setup)
	if at.dlTEID == first {
		t.Fatal("repeated setup kept the DL TEID")
	}
	for _, teid := range []uint32{first, at.dlTEID + 0x99, 0} {
		deliver(teid)
	}
	select {
	case <-gotData:
		t.Fatal("frame for unknown TEID delivered")
	case <-time.After(50 * time.Millisecond):
	}
	deliver(at.dlTEID)
	select {
	case <-gotData:
	case <-time.After(time.Second):
		t.Fatal("DL frame not delivered on the replacement tunnel")
	}
}

// BenchmarkHandleDLFrame is the data plane -> gNB -> UE DL edge with 1024
// tunnels: decap in place and one lock-free TEID lookup per frame, 0
// allocs/op. Run it with -cpu 1,2: on the switch two workers deliver
// concurrently, and a UE's frames all come from one of them.
func BenchmarkHandleDLFrame(b *testing.B) {
	addr, _, stop := fakeAMF(b)
	defer stop()
	g, err := NewGNB(1, pkt.AddrFrom(10, 100, 0, 10), addr, discardDP{})
	if err != nil {
		b.Fatal(err)
	}
	defer g.Close()
	const ues = 1024
	for i := uint32(1); i <= ues; i++ {
		ue := NewUE("imsi", nil, nil)
		ue.OnData = func([]byte) {}
		g.byDlTEID.Store(i, ue)
	}
	var workers atomic.Uint32
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		frame := make([]byte, 128)
		h := gtp.Header{MsgType: gtp.MsgGPDU, HasQFI: true, QFI: 9}
		procs := uint32(runtime.GOMAXPROCS(0))
		n := uint32(workers.Add(1)-1) % procs
		for pb.Next() {
			n += procs
			h.TEID = 1 + n%ues
			hn, _ := h.Encode(frame, 92)
			g.handleDLFrame(frame[:hn+92])
		}
	})
}

func TestUEParseIPv4(t *testing.T) {
	if a, err := parseIPv4("10.60.0.1"); err != nil || a != pkt.AddrFrom(10, 60, 0, 1) {
		t.Fatalf("got %v %v", a, err)
	}
	for _, bad := range []string{"", "1.2.3", "a.b.c.d", "1.2.3.999"} {
		if _, err := parseIPv4(bad); err == nil {
			t.Fatalf("parseIPv4(%q) should fail", bad)
		}
	}
}
