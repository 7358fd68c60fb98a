package upf

import (
	"bytes"
	"sync/atomic"
	"testing"
	"time"

	"l25gc/internal/gtp"
	"l25gc/internal/onvm"
	"l25gc/internal/pfcp"
	"l25gc/internal/pkt"
	"l25gc/internal/pktbuf"
	"l25gc/internal/rules"
	"l25gc/internal/testutil"
)

// burstUPF is a UPF with a few sessions for the burst tests: session k
// (k = 0..n-1) has CP SEID 100+k and UE address 10.60.1.k+1, and a QER if
// mbrKbps gives it a rate.
type burstUPF struct {
	st    *State
	c     *UPFC
	u     *UPFU
	pool  *pktbuf.Pool
	teids []uint32
	ips   []pkt.Addr
}

func newBurstUPF(t testing.TB, sessions int, mbrKbps func(k int) uint64) *burstUPF {
	t.Helper()
	st := NewState("ps", 0)
	c := NewUPFC(st, n3IP, nil)
	p := &burstUPF{st: st, c: c, u: NewUPFU(st, c), pool: pktbuf.NewPool(2048, "burst")}
	for k := 0; k < sessions; k++ {
		ip := pkt.AddrFrom(10, 60, 1, byte(k+1))
		req := establishReq(uint64(100 + k))
		req.UEIP = ip
		for _, pdr := range req.CreatePDRs {
			pdr.PDI.UEIP = ip
		}
		if mbrKbps != nil && mbrKbps(k) > 0 {
			req.CreateQERs = []*rules.QER{{ID: 9, QFI: 9, ULMbrKbps: mbrKbps(k), DLMbrKbps: mbrKbps(k), GateUL: true, GateDL: true}}
		}
		resp, err := c.Handle(uint64(100+k), req)
		if err != nil {
			t.Fatal(err)
		}
		p.teids = append(p.teids, resp.(*pfcp.SessionEstablishmentResponse).CreatedPDRs[0].TEID)
		p.ips = append(p.ips, ip)
	}
	return p
}

// ul and dl build one packet of session k in a fresh Buf.
func (p *burstUPF) ul(t testing.TB, k, payload int) *pktbuf.Buf {
	t.Helper()
	b, err := p.pool.Get()
	if err != nil {
		t.Fatal(err)
	}
	inner := make([]byte, 256)
	n, err := pkt.BuildUDPv4(inner, p.ips[k], dnIP, 40000, 9000, 0, make([]byte, payload))
	if err != nil {
		t.Fatal(err)
	}
	b.SetData(inner[:n])
	if err := gtp.Encap(b, p.teids[k], 9, false); err != nil {
		t.Fatal(err)
	}
	b.Meta.Uplink = true
	return b
}

func (p *burstUPF) dl(t testing.TB, k, payload int) *pktbuf.Buf {
	t.Helper()
	b, err := p.pool.Get()
	if err != nil {
		t.Fatal(err)
	}
	raw := make([]byte, 256)
	n, err := pkt.BuildUDPv4(raw, dnIP, p.ips[k], 9000, 40000, 0, make([]byte, payload))
	if err != nil {
		t.Fatal(err)
	}
	b.SetData(raw[:n])
	return b
}

// TestUnlimitedSessionReadsNoClock is the regression test for the token
// bucket that cost a mutex and a clock read per packet before finding it
// had no rate: a session without a QER reads the clock never, one with a
// QER at most once per burst, whichever way the packets arrive.
func TestUnlimitedSessionReadsNoClock(t *testing.T) {
	// Session 1: 80 Mbit/s, whose 100 ms burst allowance (1 MB) outlasts
	// the test on a frozen clock.
	p := newBurstUPF(t, 2, func(k int) uint64 { return uint64(k) * 80000 })
	var reads int
	p.u.nowNano = func() int64 { reads++; return 1 }
	parsed, sc := new(pkt.Parsed), new(scratch)
	run := func(k, packets, burst int) (fwd int) {
		bufs := make([]*pktbuf.Buf, 0, burst)
		for sent := 0; sent < packets; sent += len(bufs) {
			bufs = bufs[:0]
			for i := 0; i < burst && sent+i < packets; i++ {
				if (sent+i)%2 == 0 {
					bufs = append(bufs, p.ul(t, k, 72))
				} else {
					bufs = append(bufs, p.dl(t, k, 72))
				}
			}
			if n := p.u.processBurst(bufs, parsed, sc); n != len(bufs) {
				t.Fatalf("burst handed %d of %d descriptors back", n, len(bufs))
			}
			for _, b := range bufs {
				if b.Meta.Action == pktbuf.ActionToPort {
					fwd++
				}
				b.Release()
			}
		}
		return fwd
	}
	if fwd := run(0, 1000, 50); fwd != 1000 || reads != 0 {
		t.Fatalf("no QER: %d of 1000 forwarded, %d clock reads; want 1000, 0", fwd, reads)
	}
	var one pkt.Parsed
	for i := 0; i < 1000; i++ {
		b := p.ul(t, 0, 72)
		p.u.Process(b, &one)
		b.Release()
	}
	if reads != 0 {
		t.Fatalf("no QER, one packet at a time: %d clock reads, want 0", reads)
	}
	if fwd := run(1, 1000, 50); fwd != 1000 || reads < 1 || reads > 1000/50 {
		t.Fatalf("QER: %d of 1000 forwarded, %d clock reads; want 1000 and 1..%d (one per burst)", fwd, reads, 1000/50)
	}
	// A burst mixing both kinds of session still reads it once.
	reads = 0
	mixed := []*pktbuf.Buf{p.ul(t, 0, 72), p.ul(t, 1, 72), p.dl(t, 0, 72), p.dl(t, 1, 72), p.ul(t, 1, 72)}
	p.u.processBurst(mixed, parsed, sc)
	for _, b := range mixed {
		b.Release()
	}
	if reads != 1 {
		t.Fatalf("mixed burst: %d clock reads, want 1", reads)
	}
}

// script is a fixed packet sequence exercising every fast-path outcome:
// forwarded both ways on three sessions (one rate limited), a miss on an
// unknown tunnel and on an unknown address, a malformed frame each way,
// and a session that buffers.
func (p *burstUPF) script(t testing.TB, i int) *pktbuf.Buf {
	switch k := i % 3; i % 16 {
	case 11:
		b := p.ul(t, k, 40)
		b.SetData(b.Bytes()[:5]) // truncated GTP header
		b.Meta.Uplink = true
		return b
	case 12:
		b := p.dl(t, k, 40)
		b.SetData(b.Bytes()[:12]) // truncated IP header
		return b
	case 13: // tunnel nobody owns
		b := p.ul(t, k, 40)
		raw := append([]byte(nil), b.Bytes()...)
		raw[4], raw[5], raw[6], raw[7] = 0xde, 0xad, 0xbe, 0xef
		b.SetData(raw)
		b.Meta.Uplink = true
		return b
	case 14: // address nobody owns
		b := p.dl(t, k, 40)
		raw := append([]byte(nil), b.Bytes()...)
		raw[16], raw[17] = 172, 16
		b.SetData(raw)
		return b
	case 15: // session 3 buffers its downlink
		return p.dl(t, 3, 40)
	default:
		if i%2 == 0 {
			return p.ul(t, k, 40+i%50)
		}
		return p.dl(t, k, 40+i%50)
	}
}

// TestBurstCountersMatchPerPacket runs one 10 000-packet script through two
// identical UPFs — one packet at a time on the first, in bursts of
// changing size on the second — and requires the same outcome for every
// packet and the same value in every counter: batching the updates must
// not lose or move any.
func TestBurstCountersMatchPerPacket(t *testing.T) {
	const total = 10000
	// Session 2: 2 Mbit/s, a 25 KB allowance the script exhausts.
	mbr := func(k int) uint64 {
		if k == 2 {
			return 2000
		}
		return 0
	}
	ref, got := newBurstUPF(t, 4, mbr), newBurstUPF(t, 4, mbr)
	for _, p := range []*burstUPF{ref, got} {
		p.u.nowNano = func() int64 { return 1 } // frozen: the limited session runs dry
		p.c.Handle(103, &pfcp.SessionModificationRequest{
			UpdateFARs: []*rules.FAR{{ID: 2, Action: rules.FARBuffer, DestInterface: rules.IfAccess}},
		})
	}
	type outcome struct {
		back   bool
		action pktbuf.Action
		port   uint16
		frame  []byte
	}
	var want []outcome
	var one pkt.Parsed
	for i := 0; i < total; i++ {
		b := ref.script(t, i)
		back := ref.u.Process(b, &one)
		want = append(want, outcome{back, b.Meta.Action, b.Meta.Port, append([]byte(nil), b.Bytes()...)})
		if back {
			b.Release()
		}
	}
	parsed, sc := new(pkt.Parsed), new(scratch)
	for i, size := 0, 1; i < total; size = size%64 + 1 {
		var bufs, all []*pktbuf.Buf
		for j := i; j < i+size && j < total; j++ {
			bufs = append(bufs, got.script(t, j))
		}
		all = append(all, bufs...)
		back := bufs[:got.u.processBurst(bufs, parsed, sc)]
		for j, b := range all {
			w := want[i+j]
			handed := len(back) > 0 && back[0] == b
			if handed {
				back = back[1:]
			}
			if handed != w.back {
				t.Fatalf("packet %d: handed back = %v, one at a time %v", i+j, handed, w.back)
			}
			if handed && (b.Meta.Action != w.action || b.Meta.Port != w.port || !bytes.Equal(b.Bytes(), w.frame)) {
				t.Fatalf("packet %d: action %v port %d, one at a time %v port %d (or the frame differs)",
					i+j, b.Meta.Action, b.Meta.Port, w.action, w.port)
			}
			if handed {
				b.Release()
			}
		}
		if len(back) != 0 {
			t.Fatalf("burst at %d: handed-back descriptors out of order", i)
		}
		i += len(all)
	}
	if r, g := ref.u.Stats(), got.u.Stats(); r != g {
		t.Fatalf("UPF-U counters differ:\n one at a time %+v\n in bursts      %+v", r, g)
	}
	s := ref.u.Stats()
	if s.ULForwarded == 0 || s.DLForwarded == 0 || s.Buffered == 0 || s.Dropped == 0 || s.Misses == 0 || s.RateDropped == 0 {
		t.Fatalf("the script misses an outcome: %+v", s)
	}
	for k := 0; k < 4; k++ {
		rc, _ := ref.st.Session(uint64(100 + k))
		gc, _ := got.st.Session(uint64(100 + k))
		if r, g := rc.Stats(), gc.Stats(); r != g {
			t.Fatalf("session %d counters differ:\n one at a time %+v\n in bursts      %+v", k, r, g)
		}
	}
	for _, p := range []*burstUPF{ref, got} {
		p.st.Reset()
		if p.pool.Avail() != p.pool.Size() {
			t.Fatalf("%d buffers leaked", p.pool.Size()-p.pool.Avail())
		}
	}
}

// TestDrainSessionBurst is the regression test for the drain that sent one
// descriptor, one notification and one work-shard task per parked packet
// and lost, uncounted, whatever found the Tx ring full: a full session
// buffer — three times the Tx ring — leaves N3 complete, in order and
// toward the new tunnel, with no tx drop.
func TestDrainSessionBurst(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	st := NewState("ps", 0)
	c := NewUPFC(st, n3IP, nil)
	u := NewUPFU(st, c)
	mgr := onvm.NewManager(onvm.Config{PoolSize: 4096, PoolPrefix: "t"})
	defer mgr.Stop()
	const upfSvc = 1
	if _, err := u.AttachONVM(mgr, upfSvc); err != nil {
		t.Fatal(err)
	}
	mgr.BindPortNF(uint16(PortN6), upfSvc)
	var out, misordered atomic.Uint64
	mgr.RegisterPort(uint16(PortN3), func(frame []byte, meta pktbuf.Meta) {
		var h gtp.Header
		var p pkt.Parsed
		inner, err := h.Decode(frame)
		if err != nil || h.TEID != 0x7777 || p.ParseIPv4(inner) != nil ||
			int(p.IP.TotalLen) != pkt.IPv4MinLen+pkt.UDPLen+int(out.Load()%1000) {
			misordered.Add(1)
		}
		out.Add(1)
	})
	mustEstablish(t, c, 100)
	c.Handle(100, &pfcp.SessionModificationRequest{
		UpdateFARs: []*rules.FAR{{ID: 2, Action: rules.FARBuffer, DestInterface: rules.IfAccess}},
	})
	ctx, _ := st.Session(100)
	raw := make([]byte, 1100)
	for i := 0; i < DefaultBufferCap; i++ {
		// Stay inside the UPF-U's Rx ring on the way in.
		waitUntil(t, func() bool { return i-ctx.Stats().QueueLen < 512 }, "the session buffer to follow")
		n, err := pkt.BuildUDPv4(raw, dnIP, ueIP, 9000, 40000, 0, make([]byte, i%1000))
		if err != nil {
			t.Fatal(err)
		}
		if err := mgr.Inject(uint16(PortN6), raw[:n], pktbuf.Meta{}); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, func() bool { return ctx.Stats().QueueLen == DefaultBufferCap }, "the session buffer full")
	if resp, err := c.Handle(100, &pfcp.SessionModificationRequest{
		UpdateFARs: []*rules.FAR{{ID: 2, Action: rules.FARForward, DestInterface: rules.IfAccess,
			HasOuterHeader: true, OuterTEID: 0x7777, OuterAddr: gnbIP}},
	}); err != nil || resp.(*pfcp.SessionModificationResponse).Cause != pfcp.CauseAccepted {
		t.Fatalf("modify: %v %+v", err, resp)
	}
	waitUntil(t, func() bool { return out.Load()+mgr.TxDrops() >= DefaultBufferCap }, "every parked packet out of N3")
	if mgr.TxDrops() != 0 {
		t.Fatalf("tx_drops = %d, want 0: the drain must push back, not drop", mgr.TxDrops())
	}
	if misordered.Load() != 0 {
		t.Fatalf("%d packets left N3 out of order or toward the wrong tunnel", misordered.Load())
	}
	if s := ctx.Stats(); s.Released != DefaultBufferCap || s.DLPkts != DefaultBufferCap {
		t.Fatalf("session stats %+v", s)
	}
	waitUntil(t, func() bool { return mgr.Pool().Avail() == 4096 }, "buffer return")
}

func waitUntil(t *testing.T, cond func() bool, what string) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
	}
}

// benchProcess measures UPFU.Process on 64-byte packets of one session,
// restoring each buffer (untimed work is negligible next to the fast path:
// one copy of a prebuilt frame).
func benchProcess(b *testing.B, uplink bool) {
	p := newBurstUPF(b, 16, nil)
	proto := p.dl(b, 0, 64)
	if uplink {
		proto = p.ul(b, 0, 64)
	}
	frame := append([]byte(nil), proto.Bytes()...)
	var scratch pkt.Parsed
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		proto.SetData(frame)
		proto.Meta = pktbuf.Meta{Uplink: uplink}
		p.u.Process(proto, &scratch)
	}
	b.StopTimer()
	if proto.Meta.Action != pktbuf.ActionToPort {
		b.Fatalf("packet left the fast path: %v", proto.Meta.Action)
	}
	proto.Release()
}

func BenchmarkUPFUProcessUL64(b *testing.B) { benchProcess(b, true) }
func BenchmarkUPFUProcessDL64(b *testing.B) { benchProcess(b, false) }

// TestProcessAllocs is the allocation gate of the UPF-U fast path, one
// packet at a time and in bursts, both directions: none.
func TestProcessAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	p := newBurstUPF(t, 16, nil)
	ul, dl := p.ul(t, 0, 64), p.dl(t, 1, 64)
	ulFrame, dlFrame := append([]byte(nil), ul.Bytes()...), append([]byte(nil), dl.Bytes()...)
	reset := func() {
		ul.SetData(ulFrame)
		ul.Meta = pktbuf.Meta{Uplink: true}
		dl.SetData(dlFrame)
		dl.Meta = pktbuf.Meta{}
	}
	var one pkt.Parsed
	if allocs := testing.AllocsPerRun(1000, func() {
		reset()
		p.u.Process(ul, &one)
		p.u.Process(dl, &one)
	}); allocs != 0 {
		t.Fatalf("Process: %v allocs per UL+DL pair, want 0", allocs)
	}
	parsed, sc := new(pkt.Parsed), new(scratch)
	burst := make([]*pktbuf.Buf, 2)
	if allocs := testing.AllocsPerRun(1000, func() {
		reset()
		burst[0], burst[1] = ul, dl
		if p.u.processBurst(burst, parsed, sc) != 2 {
			t.Fatal("burst not handed back")
		}
	}); allocs != 0 {
		t.Fatalf("processBurst: %v allocs per burst, want 0", allocs)
	}
	ul.Release()
	dl.Release()
}
