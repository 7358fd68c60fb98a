package upf

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"l25gc/internal/gtp"
	"l25gc/internal/pfcp"
	"l25gc/internal/pkt"
	"l25gc/internal/pktbuf"
	"l25gc/internal/rules"
	"l25gc/internal/testutil"
)

// cachedUPF is a burstUPF driven the way an attached UPF-U instance is:
// one caller, one parse state, one flow cache.
type cachedUPF struct {
	*burstUPF
	parsed *pkt.Parsed
	sc     *scratch
}

func newCachedUPF(t testing.TB, sessions int) *cachedUPF {
	t.Helper()
	return &cachedUPF{burstUPF: newBurstUPF(t, sessions, nil),
		parsed: new(pkt.Parsed), sc: &scratch{flows: new(flowCache)}}
}

// fate sends b through the fast path as a burst of one and says what
// became of it. It releases b unless a session buffer kept it.
func (p *cachedUPF) fate(b *pktbuf.Buf) string {
	if p.u.processBurst([]*pktbuf.Buf{b}, p.parsed, p.sc) == 0 {
		return "parked"
	}
	defer b.Release()
	switch {
	case b.Meta.Action != pktbuf.ActionToPort:
		return "dropped"
	case b.Meta.Uplink:
		return "to N6"
	}
	return fmt.Sprintf("to %#x@%v", b.Meta.TEID, pkt.Addr(b.Meta.OuterIP))
}

func (p *cachedUPF) want(t *testing.T, b *pktbuf.Buf, want string) {
	t.Helper()
	if got := p.fate(b); got != want {
		t.Fatalf("packet went %s, want %s", got, want)
	}
}

// modify sends a session modification and requires it accepted.
func (p *burstUPF) modify(t testing.TB, seid uint64, req *pfcp.SessionModificationRequest) {
	t.Helper()
	resp, err := p.c.Handle(seid, req)
	if err != nil || resp.(*pfcp.SessionModificationResponse).Cause != pfcp.CauseAccepted {
		t.Fatalf("modify %d: %v %+v", seid, err, resp)
	}
}

// establish installs a session and requires it accepted.
func (p *burstUPF) establish(t testing.TB, req *pfcp.SessionEstablishmentRequest) {
	t.Helper()
	resp, err := p.c.Handle(req.CPSEID, req)
	if err != nil || resp.(*pfcp.SessionEstablishmentResponse).Cause != pfcp.CauseAccepted {
		t.Fatalf("establish %d: %v %+v", req.CPSEID, err, resp)
	}
}

func dlFAR(teid uint32, action rules.FARAction) *rules.FAR {
	return &rules.FAR{ID: 2, Action: action, DestInterface: rules.IfAccess,
		HasOuterHeader: true, OuterTEID: teid, OuterAddr: gnbIP}
}

// checkNoLeak requires every pool buffer back.
func (p *burstUPF) checkNoLeak(t *testing.T) {
	t.Helper()
	if p.pool.Avail() != p.pool.Size() {
		t.Fatalf("%d buffers leaked", p.pool.Size()-p.pool.Avail())
	}
}

var atGNB = "@" + gnbIP.String()

// TestFlowCachePagingFlip: a repeat flow is served from the cache, and a
// FAR that starts buffering (the UE went idle) and then forwards again
// (paged, reconnected) is seen by the next packet each time.
func TestFlowCachePagingFlip(t *testing.T) {
	p := newCachedUPF(t, 1)
	p.want(t, p.dl(t, 0, 40), "to 0x5001"+atGNB)
	misses := p.u.flowMisses.Load()
	p.want(t, p.dl(t, 0, 40), "to 0x5001"+atGNB)
	if got := p.u.flowMisses.Load(); got != misses {
		t.Fatalf("a repeat flow missed the cache: flow_misses %d -> %d", misses, got)
	}
	p.modify(t, 100, &pfcp.SessionModificationRequest{UpdateFARs: []*rules.FAR{
		{ID: 2, Action: rules.FARBuffer | rules.FARNotifyCP, DestInterface: rules.IfAccess}}})
	p.want(t, p.dl(t, 0, 40), "parked")
	p.want(t, p.dl(t, 0, 40), "parked")
	p.modify(t, 100, &pfcp.SessionModificationRequest{UpdateFARs: []*rules.FAR{dlFAR(0x6001, rules.FARForward)}})
	p.want(t, p.dl(t, 0, 40), "to 0x6001"+atGNB)
	ctx, _ := p.st.Session(100)
	if s := ctx.Stats(); s.Buffered != 2 || s.Released != 2 || s.QueueLen != 0 {
		t.Fatalf("session stats %+v, want 2 parked and released", s)
	}
	p.checkNoLeak(t)
}

// TestFlowCachePagingFlipRace: downlink packets from several callers,
// each with its own flow cache, race FAR 2's flips between buffer and
// forward. A packet parks under its session's rules read lock, so each
// buffer→forward flip drains every packet parked before it: once the
// last flip has returned, nothing is parked, no parked byte is charged,
// and every packet sent has left exactly once, straight or drained.
func TestFlowCachePagingFlipRace(t *testing.T) {
	const senders, perSender = 4, 500
	p := newCachedUPF(t, 1)
	var mu sync.Mutex
	seen := make([]int, senders*perSender)
	var stray atomic.Uint64
	// note counts a descriptor handed back or drained, and releases it.
	note := func(b *pktbuf.Buf) {
		defer b.Release()
		var parsed pkt.Parsed
		if _, err := gtp.Decap(b); err != nil || b.Meta.Action != pktbuf.ActionToPort ||
			parsed.ParseIPv4(b.Bytes()) != nil || len(parsed.Payload) != 4 {
			stray.Add(1)
			return
		}
		mu.Lock()
		seen[binary.BigEndian.Uint32(parsed.Payload)]++
		mu.Unlock()
	}
	p.u.SetEmit(func(burst []*pktbuf.Buf) int {
		for _, b := range burst {
			note(b)
		}
		return len(burst)
	}, p.pool)

	var running atomic.Int32
	running.Store(senders)
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			defer running.Add(-1)
			parsed, sc := new(pkt.Parsed), &scratch{flows: new(flowCache)}
			raw := make([]byte, 64)
			var seq [4]byte
			for i := 0; i < perSender; i++ {
				binary.BigEndian.PutUint32(seq[:], uint32(s*perSender+i))
				n, err := pkt.BuildUDPv4(raw, dnIP, p.ips[0], uint16(9000+s), 40000, 0, seq[:])
				b, gerr := p.pool.Get()
				if err != nil || gerr != nil {
					t.Errorf("sender %d: %v %v", s, err, gerr)
					return
				}
				b.SetData(raw[:n])
				if p.u.processBurst([]*pktbuf.Buf{b}, parsed, sc) == 1 {
					note(b)
				}
				if i%8 == 0 {
					runtime.Gosched()
				}
			}
		}(s)
	}
	flips := 0
	for ; running.Load() > 0 || flips < 20; flips++ {
		p.modify(t, 100, &pfcp.SessionModificationRequest{UpdateFARs: []*rules.FAR{dlFAR(0x5001, rules.FARBuffer)}})
		runtime.Gosched()
		p.modify(t, 100, &pfcp.SessionModificationRequest{UpdateFARs: []*rules.FAR{dlFAR(0x5001, rules.FARForward)}})
		runtime.Gosched()
	}
	wg.Wait()

	ctx, _ := p.st.Session(100)
	if d, b := p.st.BufferDepth(), p.st.ParkedBytes(); d != 0 || b != 0 {
		t.Fatalf("after the last flip: %d packets (%d bytes) stranded in the session buffer", d, b)
	}
	for seq, n := range seen {
		if n != 1 {
			t.Fatalf("packet %d left %d times, want once", seq, n)
		}
	}
	if s := ctx.Stats(); stray.Load() != 0 || s.Buffered != s.Released || s.BufferDropped != 0 {
		t.Fatalf("%d stray descriptors; session %+v", stray.Load(), s)
	}
	t.Logf("%d flips, %d packets parked and drained", flips, ctx.Stats().Released)
	p.checkNoLeak(t)
}

// TestFlowCacheHandoverRetarget: a FAR pointed at another gNB's tunnel is
// used by the next downlink packet; the uplink flow keeps forwarding.
func TestFlowCacheHandoverRetarget(t *testing.T) {
	p := newCachedUPF(t, 1)
	for i := 0; i < 2; i++ {
		p.want(t, p.dl(t, 0, 40), "to 0x5001"+atGNB)
		p.want(t, p.ul(t, 0, 40), "to N6")
	}
	target := pkt.AddrFrom(10, 100, 0, 11)
	p.modify(t, 100, &pfcp.SessionModificationRequest{UpdateFARs: []*rules.FAR{
		{ID: 2, Action: rules.FARForward, DestInterface: rules.IfAccess,
			HasOuterHeader: true, OuterTEID: 0x7001, OuterAddr: target}}})
	p.want(t, p.dl(t, 0, 40), "to 0x7001@"+target.String())
	p.want(t, p.ul(t, 0, 40), "to N6")
	p.checkNoLeak(t)
}

// TestFlowCachePDRAddRemove: a higher-priority PDR added to a cached flow
// takes it over with the next packet, and removing it gives it back.
func TestFlowCachePDRAddRemove(t *testing.T) {
	p := newCachedUPF(t, 1)
	p.want(t, p.dl(t, 0, 40), "to 0x5001"+atGNB)
	p.want(t, p.dl(t, 0, 40), "to 0x5001"+atGNB)
	far := dlFAR(0x8001, rules.FARForward)
	far.ID = 3
	p.modify(t, 100, &pfcp.SessionModificationRequest{
		CreateFARs: []*rules.FAR{far},
		CreatePDRs: []*rules.PDR{{ID: 20, Precedence: 5, FARID: 3, PDI: rules.PDI{
			SourceInterface: rules.IfCore, UEIP: p.ips[0], HasUEIP: true, HasSDF: true,
			SDF: rules.SDFFilter{SrcPorts: rules.AnyPort, DstPorts: rules.PortRange{Lo: 40000, Hi: 40000},
				Protocol: pkt.ProtoUDP}}}},
	})
	p.want(t, p.dl(t, 0, 40), "to 0x8001"+atGNB)
	p.want(t, p.dl(t, 0, 40), "to 0x8001"+atGNB)
	p.modify(t, 100, &pfcp.SessionModificationRequest{RemovePDRs: []uint32{20}})
	p.want(t, p.dl(t, 0, 40), "to 0x5001"+atGNB)
	p.checkNoLeak(t)
}

// TestFlowCacheQERInstall: a QER installed on a session whose flows are
// cached rate-limits the next packet.
func TestFlowCacheQERInstall(t *testing.T) {
	p := newCachedUPF(t, 1)
	p.u.nowNano = func() int64 { return 1 } // frozen: the bucket never refills
	p.want(t, p.dl(t, 0, 40), "to 0x5001"+atGNB)
	p.want(t, p.dl(t, 0, 40), "to 0x5001"+atGNB)
	ctx, _ := p.st.Session(100)
	ctx.UpdateRules(func() {
		ctx.Sess.QERs[9] = &rules.QER{ID: 9, QFI: 9, DLMbrKbps: 1, GateUL: true, GateDL: true}
		ctx.setMBR(0, 1) // 1 kbit/s: a 100-bit allowance, less than one packet
	})
	p.want(t, p.dl(t, 0, 40), "dropped")
	if s := p.u.Stats(); s.RateDropped != 1 {
		t.Fatalf("rate_dropped = %d, want 1", s.RateDropped)
	}
	p.want(t, p.ul(t, 0, 40), "to N6") // no uplink rate
	p.checkNoLeak(t)
}

// TestFlowCacheDeleteThenReuse: once a session is deleted its cached flows
// miss, and a new session that takes over its UE address and (pinned) its
// TEID gets their packets under its own rules.
func TestFlowCacheDeleteThenReuse(t *testing.T) {
	p := newCachedUPF(t, 1)
	for i := 0; i < 2; i++ {
		p.want(t, p.ul(t, 0, 40), "to N6")
		p.want(t, p.dl(t, 0, 40), "to 0x5001"+atGNB)
	}
	if resp, err := p.c.Handle(100, &pfcp.SessionDeletionRequest{}); err != nil ||
		resp.(*pfcp.SessionDeletionResponse).Cause != pfcp.CauseAccepted {
		t.Fatalf("delete: %v %+v", err, resp)
	}
	misses := p.u.Stats().Misses
	p.want(t, p.ul(t, 0, 40), "dropped")
	p.want(t, p.dl(t, 0, 40), "dropped")
	if got := p.u.Stats().Misses - misses; got != 2 {
		t.Fatalf("%d misses after the delete, want 2", got)
	}
	req := establishReq(200)
	req.UEIP = p.ips[0]
	for _, pdr := range req.CreatePDRs {
		pdr.PDI.UEIP = p.ips[0]
	}
	req.CreatePDRs[0].PDI.TEID = p.teids[0]
	req.CreateFARs[1].OuterTEID = 0x9001
	p.establish(t, req)
	p.want(t, p.ul(t, 0, 40), "to N6")
	p.want(t, p.dl(t, 0, 40), "to 0x9001"+atGNB)
	if ctx, _ := p.st.Session(200); ctx.Stats().ULPkts != 1 || ctx.Stats().DLPkts != 1 {
		t.Fatalf("new session counted %+v, want one packet each way", ctx.Stats())
	}
	p.checkNoLeak(t)
}

// TestFlowCacheUEAddressTakeover: a second session established with a live
// session's UE address takes its downlink, cached flows included.
func TestFlowCacheUEAddressTakeover(t *testing.T) {
	p := newCachedUPF(t, 1)
	p.want(t, p.dl(t, 0, 40), "to 0x5001"+atGNB)
	p.want(t, p.dl(t, 0, 40), "to 0x5001"+atGNB)
	req := establishReq(200)
	req.UEIP = p.ips[0]
	for _, pdr := range req.CreatePDRs {
		pdr.PDI.UEIP = p.ips[0]
	}
	req.CreateFARs[1].OuterTEID = 0x9001
	p.establish(t, req)
	p.want(t, p.dl(t, 0, 40), "to 0x9001"+atGNB)
	p.checkNoLeak(t)
}

// TestFlowCacheTEIDTakeover: a second session bound (pinned) to a live
// session's uplink TEID takes that tunnel's packets, cached flows
// included; here its uplink FAR drops them.
func TestFlowCacheTEIDTakeover(t *testing.T) {
	p := newCachedUPF(t, 1)
	p.want(t, p.ul(t, 0, 40), "to N6")
	p.want(t, p.ul(t, 0, 40), "to N6")
	other := pkt.AddrFrom(10, 60, 9, 9)
	req := establishReq(200)
	req.UEIP = other
	req.CreatePDRs[0].PDI.TEID, req.CreatePDRs[0].PDI.HasUEIP = p.teids[0], false
	req.CreatePDRs[1].PDI.UEIP = other
	req.CreateFARs[0].Action = rules.FARDrop
	p.establish(t, req)
	p.want(t, p.ul(t, 0, 40), "dropped")
	if a, _ := p.st.Session(100); a.Stats().ULPkts != 2 {
		t.Fatalf("the first session counted %d uplink packets, want the 2 before the takeover", a.Stats().ULPkts)
	}
	p.checkNoLeak(t)
}

// TestFlowCacheReset: after Reset every cached flow misses.
func TestFlowCacheReset(t *testing.T) {
	p := newCachedUPF(t, 1)
	p.want(t, p.dl(t, 0, 40), "to 0x5001"+atGNB)
	p.want(t, p.dl(t, 0, 40), "to 0x5001"+atGNB)
	p.st.Reset()
	p.want(t, p.dl(t, 0, 40), "dropped")
	if s := p.u.Stats(); s.Misses != 1 {
		t.Fatalf("misses = %d, want 1", s.Misses)
	}
	p.checkNoLeak(t)
}

// TestFlowCacheSharedSet: two flows of one session whose keys fall in the
// same set, each with its own PDR, both hit once each has missed once, and
// each gets its own flow's FAR. Past its four ways the set evicts the
// entry filled longest ago, and that flow still gets its FAR, the long way.
func TestFlowCacheSharedSet(t *testing.T) {
	p := newCachedUPF(t, 1)
	key := func(sport uint16) pkt.FlowKey {
		return pkt.FlowKey{Tuple: pkt.FiveTuple{Src: dnIP, Dst: p.ips[0], SrcPort: sport, DstPort: 40000,
			Protocol: pkt.ProtoUDP}}
	}
	// Source ports of flowWays+1 flows whose keys share one set, A's first.
	ka := key(9000)
	ports := []uint16{9000}
	for port := uint16(1); len(ports) <= flowWays; port++ {
		if port == 0 {
			t.Fatal("too few source ports share flow A's set")
		}
		if kb := key(port); port != ports[0] && p.sc.flows.set(&kb) == p.sc.flows.set(&ka) {
			ports = append(ports, port)
		}
	}
	portA, portB := ports[0], ports[1]
	far := dlFAR(0x8001, rules.FARForward)
	far.ID = 3
	p.modify(t, 100, &pfcp.SessionModificationRequest{
		CreateFARs: []*rules.FAR{far},
		CreatePDRs: []*rules.PDR{{ID: 20, Precedence: 5, FARID: 3, PDI: rules.PDI{
			SourceInterface: rules.IfCore, UEIP: p.ips[0], HasUEIP: true, HasSDF: true,
			SDF: rules.SDFFilter{SrcPorts: rules.PortRange{Lo: portB, Hi: portB}, DstPorts: rules.AnyPort,
				Protocol: pkt.ProtoUDP}}}},
	})
	fates := map[uint16]string{portB: "to 0x8001" + atGNB}
	send := func(port uint16) {
		t.Helper()
		want, ok := fates[port]
		if !ok {
			want = "to 0x5001" + atGNB
		}
		p.want(t, p.dlFrom(t, 0, port, 40), want)
	}
	misses := func() uint64 { return p.u.flowMisses.Load() }
	base := misses()
	const turns = 8
	for i := 0; i < turns; i++ {
		send(portA)
		send(portB)
	}
	if got := misses() - base; got != 2 {
		t.Fatalf("flow_misses %d over %d turns, want 2: two flows of one set evict each other", got, turns)
	}
	// Fill the set, then one flow more: it evicts A, the oldest.
	for _, port := range ports[2:] {
		send(port)
	}
	if got := misses() - base; got != uint64(len(ports)) {
		t.Fatalf("flow_misses %d, want %d: one per flow", got, len(ports))
	}
	for _, port := range ports[1:] {
		send(port)
	}
	if got := misses() - base; got != uint64(len(ports)) {
		t.Fatalf("flow_misses %d, want %d: the set's newest four hit", got, len(ports))
	}
	send(portA)
	if got := misses() - base; got != uint64(len(ports))+1 {
		t.Fatalf("flow_misses %d, want %d: the evicted flow misses", got, len(ports)+1)
	}
	p.checkNoLeak(t)
}

// TestFlowCacheConcurrentModify: UPF-C retargets a session's downlink FAR
// round after round while UPF-U forwards its packets from the cache. Every
// packet leaves toward the tunnel of a round that had started when it
// finished, and none toward one older than the last round whose modify had
// returned when it started. Run under the race detector, it also checks
// that an installed FAR is never written in place: the fast path reads a
// cached one with no lock.
func TestFlowCacheConcurrentModify(t *testing.T) {
	p := newCachedUPF(t, 1)
	const rounds = 300
	teidOf := func(round uint32) uint32 { return 0x10000 + round }
	p.modify(t, 100, &pfcp.SessionModificationRequest{UpdateFARs: []*rules.FAR{dlFAR(teidOf(0), rules.FARForward)}})
	frame := func() []byte {
		b := p.dl(t, 0, 40)
		defer b.Release()
		return append([]byte(nil), b.Bytes()...)
	}()
	var started, returned, checked atomic.Uint32
	var stop atomic.Bool
	defer stop.Store(true) // on a failed modify too
	done := make(chan error, 1)
	go func() {
		var pkts int
		for !stop.Load() {
			lo := returned.Load()
			b, err := p.pool.Get()
			if err != nil {
				done <- err
				return
			}
			b.SetData(frame)
			p.u.processBurst([]*pktbuf.Buf{b}, p.parsed, p.sc)
			hi := started.Load()
			action, teid := b.Meta.Action, b.Meta.TEID
			b.Release()
			if action != pktbuf.ActionToPort || teid < teidOf(lo) || teid > teidOf(hi) {
				done <- fmt.Errorf("packet %d went toward %#x (action %v) with rounds %d..%d live", pkts, teid, action, lo, hi)
				return
			}
			checked.Store(lo)
			pkts++
		}
		done <- nil
	}()
	for r := uint32(1); r <= rounds; r++ {
		started.Store(r)
		p.modify(t, 100, &pfcp.SessionModificationRequest{UpdateFARs: []*rules.FAR{dlFAR(teidOf(r), rules.FARForward)}})
		returned.Store(r)
		// Let at least one packet start after this round's modify returned.
		for checked.Load() < r && !stop.Load() {
			select {
			case err := <-done:
				t.Fatal(err)
			default:
				runtime.Gosched()
			}
		}
	}
	stop.Store(true)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	p.checkNoLeak(t)
}

// TestFlowCacheGenerations: establishment gives each session a generation
// of its own, never 0, and every later rule write or deletion moves it.
func TestFlowCacheGenerations(t *testing.T) {
	p := newBurstUPF(t, 3, nil)
	seen := map[uint64]bool{0: true}
	gen := func(seid uint64) uint64 {
		ctx, _ := p.st.Session(seid)
		return ctx.rulesGen.Load()
	}
	for k := uint64(0); k < 3; k++ {
		g := gen(100 + k)
		if seen[g] {
			t.Fatalf("session %d has generation %d, zero or another session's", 100+k, g)
		}
		seen[g] = true
	}
	before := gen(100)
	p.modify(t, 100, &pfcp.SessionModificationRequest{UpdateFARs: []*rules.FAR{dlFAR(0x6001, rules.FARForward)}})
	if after := gen(100); after <= before {
		t.Fatalf("modify left the generation at %d (was %d)", after, before)
	}
	ctx, _ := p.st.Session(101)
	before = ctx.rulesGen.Load()
	if _, err := p.st.DeleteSession(101); err != nil {
		t.Fatal(err)
	}
	if after := ctx.rulesGen.Load(); after <= before {
		t.Fatalf("delete left the generation at %d (was %d)", after, before)
	}
}

// TestInstalledRulesAreNeverWrittenInPlace pins the invariant the flow
// cache stands on: UPF-C installs copies and replaces them whole, so a PDR
// or FAR that a cache entry points at keeps its values after a modify
// replaces it, and after the caller reuses its request.
func TestInstalledRulesAreNeverWrittenInPlace(t *testing.T) {
	p := newBurstUPF(t, 1, nil)
	ctx, _ := p.st.Session(100)
	ctx.rulesMu.RLock()
	far, pdrs := ctx.Sess.FAR(2), append([]*rules.PDR(nil), ctx.Sess.PDRs...)
	ctx.rulesMu.RUnlock()
	farWas := *far
	var pdrsWere []rules.PDR
	for _, pdr := range pdrs {
		pdrsWere = append(pdrsWere, *pdr)
	}
	upd := dlFAR(0x6001, rules.FARForward)
	pdrUpd := pdrsWere[1]
	pdrUpd.Precedence = 7
	p.modify(t, 100, &pfcp.SessionModificationRequest{
		UpdateFARs: []*rules.FAR{upd}, UpdatePDRs: []*rules.PDR{&pdrUpd}})
	upd.OuterTEID, pdrUpd.Precedence = 0xdead, 9 // the caller reuses its request
	if *far != farWas {
		t.Fatalf("installed FAR written in place: %+v, was %+v", *far, farWas)
	}
	for i, pdr := range pdrs {
		if *pdr != pdrsWere[i] {
			t.Fatalf("installed PDR %d written in place: %+v, was %+v", pdr.ID, *pdr, pdrsWere[i])
		}
	}
	ctx.rulesMu.RLock()
	defer ctx.rulesMu.RUnlock()
	if f := ctx.Sess.FAR(2); f == far || f.OuterTEID != 0x6001 {
		t.Fatalf("FAR 2 after modify: %+v (same object: %v)", *f, f == far)
	}
}

// flowBench is a UPF shaped like the dp1400_flows workload: 256 sessions of
// 8 PDRs each — establishReq's two plus six SDF port-range rules of higher
// priority that match none of the packets, alternating DL and UL — and one
// 64-byte frame per flow, uplink and downlink of each session in turn.
func flowBench(t testing.TB) (*burstUPF, [][]byte) {
	const sessions = 256
	p := newBurstUPF(t, sessions, nil)
	var frames [][]byte
	for k := 0; k < sessions; k++ {
		var extra []*rules.PDR
		for j := 0; j < 6; j++ {
			lo := uint16(50_000 + 100*j)
			pdr := &rules.PDR{ID: uint32(10 + j), Precedence: uint32(10 + j), PDI: rules.PDI{
				UEIP: p.ips[k], HasUEIP: true, HasSDF: true,
				SDF: rules.SDFFilter{SrcPorts: rules.AnyPort, DstPorts: rules.PortRange{Lo: lo, Hi: lo + 99},
					Protocol: pkt.ProtoUDP}}}
			if j%2 == 0 {
				pdr.PDI.SourceInterface, pdr.FARID = rules.IfCore, 2
			} else {
				pdr.PDI.SourceInterface, pdr.FARID = rules.IfAccess, 1
				pdr.PDI.HasTEID, pdr.PDI.TEID, pdr.OuterHeaderRemoval = true, p.teids[k], true
			}
			extra = append(extra, pdr)
		}
		p.modify(t, uint64(100+k), &pfcp.SessionModificationRequest{CreatePDRs: extra})
		for _, b := range []*pktbuf.Buf{p.ul(t, k, 64), p.dl(t, k, 64)} {
			frames = append(frames, append([]byte(nil), b.Bytes()...))
			b.Release()
		}
	}
	return p, frames
}

// flowBenchRun returns a function that sends the next frame through an
// attached UPF-U instance's handler, as a burst of one; with miss set, it
// moves the frame's session to a new rules generation first, so every
// packet takes the long path.
func flowBenchRun(t testing.TB, p *burstUPF, frames [][]byte, miss bool) func() {
	h := p.u.burstHandler(func() {})
	ctxs := make([]*SessCtx, len(frames)/2)
	for k := range ctxs {
		ctxs[k], _ = p.st.Session(uint64(100 + k))
	}
	buf, err := p.pool.Get()
	if err != nil {
		t.Fatal(err)
	}
	one := []*pktbuf.Buf{buf}
	next := 0
	return func() {
		if miss {
			ctxs[next/2].bumpGen()
		}
		buf.SetData(frames[next])
		buf.Meta = pktbuf.Meta{Uplink: next%2 == 0}
		if h(one) != 1 || buf.Meta.Action != pktbuf.ActionToPort {
			t.Fatalf("frame %d not forwarded: %v", next, buf.Meta.Action)
		}
		next = (next + 1) % len(frames)
	}
}

// BenchmarkUPFUBurst measures one packet through an attached UPF-U
// instance's handler on the flowBench UPF, each packet of the next of its
// 512 flows: served by the flow cache (hit), or after its session's rules
// generation moved (miss: index, read lock, classifier, FAR map, and the
// bump itself). flow_misses/op is the share of packets that took the long
// path.
func BenchmarkUPFUBurst(b *testing.B) {
	p, frames := flowBench(b)
	for _, miss := range []bool{false, true} {
		name := "hit"
		if miss {
			name = "miss"
		}
		b.Run(name, func(b *testing.B) {
			run := flowBenchRun(b, p, frames, miss)
			for range frames {
				run() // fill the cache
			}
			b.ReportAllocs()
			misses := p.u.flowMisses.Load()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
			b.ReportMetric(float64(p.u.flowMisses.Load()-misses)/float64(b.N), "flow_misses/op")
		})
	}
}

// TestFlowCacheAllocs is the allocation gate of the cached fast path: a
// packet allocates nothing whether the cache serves it or the long path
// refills its slot.
func TestFlowCacheAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	p, frames := flowBench(t)
	for _, miss := range []bool{false, true} {
		run := flowBenchRun(t, p, frames, miss)
		if allocs := testing.AllocsPerRun(2*len(frames), run); allocs != 0 {
			t.Fatalf("miss=%v: %v allocs per packet, want 0", miss, allocs)
		}
	}
}
