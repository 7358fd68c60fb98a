package upf

import (
	"encoding/binary"
	"runtime"
	"sync/atomic"
	"time"

	"l25gc/internal/gtp"
	"l25gc/internal/metrics"
	"l25gc/internal/onvm"
	"l25gc/internal/pkt"
	"l25gc/internal/pktbuf"
	"l25gc/internal/ring"
	"l25gc/internal/rules"
	"l25gc/internal/trace"
)

// Port assignments on the NFV platform.
const (
	PortN3 onvm.PortID = 1 // toward gNB
	PortN6 onvm.PortID = 2 // toward data network
)

// UStats is a snapshot of UPF-U counters.
type UStats struct {
	ULForwarded uint64
	DLForwarded uint64
	Buffered    uint64
	Dropped     uint64
	Misses      uint64 // no session / no matching PDR
	RateDropped uint64 // QER MBR enforcement
}

// UPFU is the UPF fast path: session resolution by TEID (UL) or UE IP
// (DL), PDR classification, QER enforcement and FAR execution.
type UPFU struct {
	state *State
	upfc  *UPFC

	// emit is where drained packets go; installed when the UPF-U attaches
	// to a platform. Atomic: canary instances re-install it while drains
	// may be running.
	emit atomic.Pointer[emitPath]

	nowNano func() int64
	tracec  atomic.Pointer[trace.Track]

	ulFwd, dlFwd atomic.Uint64
	buffered     atomic.Uint64
	dropped      atomic.Uint64
	misses       atomic.Uint64
	rateDropped  atomic.Uint64
	flowMisses   atomic.Uint64 // added once per burst: a hit pays no shared atomic
	// parkDropped counts packets a session buffer refused (its cap or the
	// parked-bytes budget) and parked packets a drain found no buffer for.
	parkDropped atomic.Uint64
}

// emitPath is the egress of drained packets: send takes a burst in order
// and returns how many descriptors it accepted, and pool is where the
// buffers the packets are rebuilt in come from.
type emitPath struct {
	send func([]*pktbuf.Buf) int
	pool *pktbuf.Pool
}

// NewUPFU creates the fast path over shared state. upfc may be nil when no
// control plane is attached (pure forwarding benchmarks).
func NewUPFU(state *State, upfc *UPFC) *UPFU {
	u := &UPFU{state: state, upfc: upfc, nowNano: func() int64 { return time.Now().UnixNano() }}
	if upfc != nil {
		upfc.OnDrain(u.DrainSession)
	}
	return u
}

// SetEmit installs the egress used when draining session buffers: parked
// packets are rebuilt in buffers from pool, and send takes a burst of them
// in order and returns how many descriptors it accepted; the rest stay
// with the caller. A burst can hold descriptors the fast path dropped
// (Meta.Action not ActionToPort), which send must release.
func (u *UPFU) SetEmit(send func(burst []*pktbuf.Buf) int, pool *pktbuf.Pool) {
	u.emit.Store(&emitPath{send: send, pool: pool})
}

// SetTracer installs a trace track for fast-path stage spans
// ("upf.classify", "upf.buffer"); nil disables tracing.
func (u *UPFU) SetTracer(tk *trace.Track) { u.tracec.Store(tk) }

// ExportMetrics registers the fast-path counters under prefix.
func (u *UPFU) ExportMetrics(reg *metrics.Registry, prefix string) {
	reg.RegisterGauge(prefix+".ul_fwd", u.ulFwd.Load)
	reg.RegisterGauge(prefix+".dl_fwd", u.dlFwd.Load)
	reg.RegisterGauge(prefix+".buffered", u.buffered.Load)
	reg.RegisterGauge(prefix+".dropped", u.dropped.Load)
	reg.RegisterGauge(prefix+".misses", u.misses.Load)
	reg.RegisterGauge(prefix+".rate_dropped", u.rateDropped.Load)
	reg.RegisterGauge(prefix+".flow_misses", u.flowMisses.Load)
	reg.RegisterGauge(prefix+".park_dropped", u.parkDropped.Load)
}

// Stats returns the counter snapshot.
func (u *UPFU) Stats() UStats {
	return UStats{
		ULForwarded: u.ulFwd.Load(), DLForwarded: u.dlFwd.Load(),
		Buffered: u.buffered.Load(), Dropped: u.dropped.Load(),
		Misses: u.misses.Load(), RateDropped: u.rateDropped.Load(),
	}
}

// scratch is what one fast-path caller keeps from burst to burst beside
// its pkt.Parsed. One goroutine at a time. (The Parsed is passed on its
// own: it goes through the classifier interface, which the compiler takes
// for an escape of everything stored with it.)
type scratch struct {
	// flows is the caller's flow cache; nil for a caller that keeps none
	// (Process), which resolves every packet the long way.
	flows *flowCache
	// paged is set when the burst started a paging report, which its
	// caller should let run once it is done with the burst.
	paged bool
}

// flowSlots is the size of a flow cache: a power of two. 4096 slots of
// one 64-byte entry each is 256 KiB per UPF-U instance, eight slots per
// flow key of 256 bidirectional sessions.
const flowSlots = 1 << 12

// flowWays is how many slots of a flow cache a key may occupy: the slots
// of one set.
const flowWays = 4

// flowCache is a 4-way set-associative, exact-match cache from a packet's
// flow key to what the long path resolved it to. It belongs to the holder
// of one UPF-U instance, so it is read and written without a lock. A set
// keeps its entries newest first and evicts the oldest: with 512 keys over
// 1024 sets, keys that share a set all stay, where one slot per key made
// every sharer miss every time under round-robin traffic.
//
// The key decides the session: an uplink key carries the G-PDU's TEID, a
// downlink key the UE address. An entry is valid while its session's
// rules generation still reads gen (DESIGN §11, "The flow cache").
type flowCache [flowSlots / flowWays]flowSet

// flowSet is the slots one key may occupy.
type flowSet [flowWays]flowEntry

// flowEntry is one slot of a flowCache.
type flowEntry struct {
	key     pkt.FlowKey
	ctx     *SessCtx
	gen     uint64
	pdr     *rules.PDR
	far     *rules.FAR
	limited bool // the key's direction has an MBR
}

// set returns the set k belongs to.
func (c *flowCache) set(k *pkt.FlowKey) *flowSet {
	t := &k.Tuple
	a := uint64(binary.BigEndian.Uint32(t.Src[:]))<<32 | uint64(binary.BigEndian.Uint32(t.Dst[:]))
	b := uint64(t.SrcPort)<<48 | uint64(t.DstPort)<<32 | uint64(k.TEID)
	x := uint64(t.Protocol)<<16 | uint64(k.TOS)<<8
	if k.FromAccess {
		x |= 1
	}
	h := ring.Fmix64(a*0x9e3779b97f4a7c15 ^ b*0xc2b2ae3d27d4eb4f ^ x)
	return &c[h&(uint64(len(c))-1)]
}

// find returns the entry of the set keyed k, nil if there is none.
func (s *flowSet) find(k *pkt.FlowKey) *flowEntry {
	for i := range s {
		if s[i].key == *k {
			return &s[i]
		}
	}
	return nil
}

// insert puts f first in the set, evicting the oldest entry, and returns
// its slot.
func (s *flowSet) insert(f *flowEntry) *flowEntry {
	copy(s[1:], s[:flowWays-1])
	s[0] = *f
	return &s[0]
}

// current reports whether e holds its key's resolution under its session's
// current rules. A slot never filled has no session. An entry can outlive
// its session, but its generation moved when the session went and is never
// handed out again.
func (e *flowEntry) current() bool {
	return e.ctx != nil && e.ctx.rulesGen.Load() == e.gen
}

// Process runs the fast path on one packet buffer: a burst of one, with no
// flow cache. p is the caller's reusable parse state (one per goroutine,
// zero allocation); its embedded key is the classifier key, so none is
// built per packet. The return value reports whether the descriptor was
// handed back with Meta set (true) or taken: its packet parked in a
// session buffer and the descriptor released (false). A packet that
// starts a paging report yields to the report before Process returns.
func (u *UPFU) Process(buf *pktbuf.Buf, p *pkt.Parsed) bool {
	one := [1]*pktbuf.Buf{buf}
	var sc scratch
	back := u.processBurst(one[:], p, &sc) == 1
	if sc.paged {
		runtime.Gosched()
	}
	return back
}

// processBurst runs the fast path on a burst of descriptors, in order. It
// moves the descriptors it hands back (Meta set) to the front of burst and
// returns how many there are; the others it took, their packets parked.
// The forwarded counters are added once per run of one session's packets,
// the flow-cache misses once per burst.
func (u *UPFU) processBurst(burst []*pktbuf.Buf, p *pkt.Parsed, sc *scratch) int {
	tk := u.tracec.Load()
	b := burstState{clock: burstClock{read: u.nowNano}}
	out := 0
	for _, buf := range burst {
		if u.handle(buf, p, sc, tk, &b) {
			burst[out] = buf
			out++
		}
	}
	u.flushRun(&b)
	if b.flowMisses > 0 {
		u.flowMisses.Add(b.flowMisses)
	}
	return out
}

// burstState is what processBurst carries from one descriptor to the next.
type burstState struct {
	clock burstClock
	// run is the session of the last forwarded packets, ul and dl how many
	// went each way, not yet added to the counters.
	run        *SessCtx
	ul, dl     uint64
	flowMisses uint64
}

// flushRun adds the pending run's forwarded counts to the counters.
func (u *UPFU) flushRun(b *burstState) {
	if b.ul > 0 {
		b.run.ulPkts.Add(b.ul)
		u.ulFwd.Add(b.ul)
	}
	if b.dl > 0 {
		b.run.dlPkts.Add(b.dl)
		u.dlFwd.Add(b.dl)
	}
	b.ul, b.dl = 0, 0
}

// burstClock reads the clock at most once per burst, and only if a
// rate-limited session turns up in it.
type burstClock struct {
	read func() int64 // nil once nano holds the reading
	nano int64
}

func (c *burstClock) now() int64 {
	if c.read != nil {
		c.nano, c.read = c.read(), nil
	}
	return c.nano
}

// handle runs the fast path on one descriptor: reads its flow key
// (stripping the GTP-U header of an uplink one), resolves the key to a
// session, PDR and FAR — from the flow cache on a hit, the long way on a
// miss — and applies the FAR. It reports whether the descriptor goes back
// to the caller (Meta set) or was taken, its packet parked.
func (u *UPFU) handle(buf *pktbuf.Buf, p *pkt.Parsed, sc *scratch, tk *trace.Track, b *burstState) bool {
	ul := buf.Meta.Uplink
	var teid uint32
	if ul {
		hdr, err := gtp.Decap(buf)
		if err != nil || hdr.MsgType != gtp.MsgGPDU {
			u.drop(buf)
			return true
		}
		teid = hdr.TEID
	}
	cls := tk.Start("upf.classify")
	if err := p.ParseIPv4(buf.Bytes()); err != nil {
		cls.End()
		if ul && u.state.indexed(&pkt.FlowKey{TEID: teid, FromAccess: true}) == nil {
			u.miss(buf) // a tunnel nobody owns, whatever it carries
		} else {
			u.drop(buf)
		}
		return true
	}
	p.TEID, p.FromAccess = teid, ul
	var set *flowSet
	var e *flowEntry
	if sc.flows != nil {
		set = sc.flows.set(&p.FlowKey)
		e = set.find(&p.FlowKey)
	}
	if e == nil || !e.current() {
		b.flowMisses++
		var f flowEntry
		if parked, back := u.resolve(buf, p, sc, tk, cls, &f); parked {
			return back
		}
		if f.ctx == nil {
			cls.End()
			u.miss(buf)
			return true
		}
		// Cached unless no PDR matched, or the key's index entry moved
		// while it was resolved: the move's generation bump may have come
		// before resolve read the generation. A stale entry of the key is
		// refilled in place.
		switch {
		case set == nil || f.pdr == nil || u.state.indexed(&p.FlowKey) != f.ctx:
			e = &f
		case e == nil:
			e = set.insert(&f)
		default:
			*e = f
		}
	}
	cls.End()
	ctx, pdr, far := e.ctx, e.pdr, e.far
	switch {
	case pdr == nil:
		u.miss(buf)
	case far == nil || far.Action&rules.FARForward == 0:
		u.drop(buf)
	case e.limited && !ctx.allow(ul, buf.Len()*8, &b.clock):
		u.rateDropped.Add(1)
		buf.Meta.Action = pktbuf.ActionDrop
	case ul:
		// OuterHeaderRemoval already happened via Decap; forward plain IP
		// to N6.
		buf.Meta.Action = pktbuf.ActionToPort
		buf.Meta.Port = uint16(PortN6)
		u.count(b, ctx, true)
	case u.encapTo(buf, pdr, far) != nil:
		u.drop(buf)
	default:
		u.count(b, ctx, false)
	}
	return true
}

// count adds one forwarded packet of ctx to the pending run, flushing the
// run of another session first.
func (u *UPFU) count(b *burstState, ctx *SessCtx, ul bool) {
	if b.run != ctx {
		u.flushRun(b)
		b.run = ctx
	}
	if ul {
		b.ul++
	} else {
		b.dl++
	}
}

// resolve is the flow cache's miss path: the session from the index, then,
// under the session's rules read lock, its rules generation, PDR (the
// classifier), FAR and MBR flag, filled into f. A downlink packet whose FAR
// buffers is parked here, under the read lock, so UPF-C's buffer→forward
// flip — which drains the session buffer after taking the write side —
// follows every park it could otherwise strand; resolve then ends the
// classify span cls, reports parked, and back says whether the descriptor
// goes back to the caller. Such a flow is never cached: each of its
// packets comes back here.
func (u *UPFU) resolve(buf *pktbuf.Buf, p *pkt.Parsed, sc *scratch, tk *trace.Track, cls trace.Span,
	f *flowEntry) (parked, back bool) {
	ctx := u.state.indexed(&p.FlowKey)
	if ctx == nil {
		return false, false
	}
	ul := p.FromAccess
	ctx.rulesMu.RLock()
	defer ctx.rulesMu.RUnlock()
	*f = flowEntry{key: p.FlowKey, ctx: ctx, gen: ctx.rulesGen.Load(), limited: ctx.dlLimited}
	if ul {
		f.limited = ctx.ulLimited
	}
	if f.pdr = ctx.Cls.Lookup(&p.FlowKey); f.pdr != nil {
		f.far = ctx.Sess.FAR(f.pdr.FARID)
	}
	if ul || f.far == nil || f.far.Action&rules.FARBuffer == 0 {
		return false, false
	}
	cls.End()
	return true, u.park(ctx, buf, f.pdr, f.far, sc, tk)
}

// park copies a downlink packet whose FAR buffers into its session
// buffer, releasing the descriptor, and starts the paging report on an
// episode's first packet. It reports whether the descriptor goes back to
// the caller: dropped, the buffer being full or the budget spent. The
// caller holds the rules read lock.
func (u *UPFU) park(ctx *SessCtx, buf *pktbuf.Buf, pdr *rules.PDR, far *rules.FAR, sc *scratch, tk *trace.Track) bool {
	sp := tk.Start("upf.buffer")
	stored, first := ctx.park(buf.Bytes())
	sp.End()
	if first && far.Action&rules.FARNotifyCP != 0 && u.upfc != nil {
		// Fire the paging trigger off the fast path.
		go u.upfc.ReportDL(ctx, pdr.ID)
		sc.paged = true
	}
	if stored {
		u.buffered.Add(1)
		buf.Release()
		return false
	}
	u.parkDropped.Add(1)
	u.drop(buf)
	return true
}

// encapTo applies the FAR's outer header creation and targets N3.
func (u *UPFU) encapTo(buf *pktbuf.Buf, pdr *rules.PDR, far *rules.FAR) error {
	if far.HasOuterHeader {
		qfi := uint8(9)
		if pdr.PDI.HasQFI {
			qfi = pdr.PDI.QFI
		}
		if err := gtp.Encap(buf, far.OuterTEID, qfi, true); err != nil {
			return err
		}
		buf.Meta.TEID = far.OuterTEID
		buf.Meta.OuterIP = far.OuterAddr
	}
	buf.Meta.Action = pktbuf.ActionToPort
	buf.Meta.Port = uint16(PortN3)
	return nil
}

// drainBurst is how many parked packets a drain holds in pool buffers at
// a time.
const drainBurst = 64

// DrainSession releases a session's parked packets in order. Installed as
// UPF-C's drain hook. It detaches the session buffer, then rebuilds its
// packets drainBurst at a time in buffers from the emit path's pool, runs
// each such burst through the fast path, with no flow cache, as Process
// does, and emits it before building the next: a drain holds at most
// drainBurst buffers of its own, however many packets were parked. Each
// packet gets the PDR, FAR and QER decision and the counters of any other
// downlink packet, toward the session's *current* FAR target (the target
// gNB after a handover), and a FAR that buffers again parks it again.
// Whatever comes back, dropped descriptors included, goes to the emit
// function, which pushes back on a full ring rather than dropping and
// releases what is not headed for a port. Packets the pool has no buffer
// for, or that find no emit path installed, are dropped and counted.
func (u *UPFU) DrainSession(ctx *SessCtx) {
	q := ctx.drain()
	e := u.emit.Load()
	var p pkt.Parsed
	var sc scratch
	var burst [drainBurst]*pktbuf.Buf
	for e != nil && q.n > 0 {
		k := 0
		for k < len(burst) && q.n > 0 {
			b, err := e.pool.Get()
			if err != nil {
				break
			}
			if b.SetData(q.pop()) != nil { // too long to leave headroom
				b.Release()
				u.dropParked(ctx, 1)
				continue
			}
			burst[k] = b
			k++
		}
		if k == 0 {
			break // the pool is empty
		}
		out := burst[:u.processBurst(burst[:k], &p, &sc)]
		for _, b := range out[e.send(out):] {
			b.Release()
		}
	}
	u.dropParked(ctx, q.n)
}

// dropParked counts n parked packets of ctx a drain could not send.
func (u *UPFU) dropParked(ctx *SessCtx, n int) {
	if n > 0 {
		u.parkDropped.Add(uint64(n))
		u.dropped.Add(uint64(n))
		ctx.bufDroppedPkts.Add(uint64(n))
	}
}

func (u *UPFU) drop(buf *pktbuf.Buf) {
	u.dropped.Add(1)
	buf.Meta.Action = pktbuf.ActionDrop
}

func (u *UPFU) miss(buf *pktbuf.Buf) {
	u.misses.Add(1)
	buf.Meta.Action = pktbuf.ActionDrop
}

// AttachONVM registers the UPF-U as an NF on the platform under service
// sid, wiring the emit path through the instance's SendBurst.
func (u *UPFU) AttachONVM(m *onvm.Manager, sid onvm.ServiceID) (*onvm.Instance, error) {
	// The report goroutine waits in this P's run-next slot, and the caller
	// running the fast path does not park: it hands the report the CPU
	// once it has let go of every instance.
	inst, err := m.RegisterBurst(sid, "upf-u", u.burstHandler(m.RequestYield))
	if err != nil {
		return nil, err
	}
	u.SetEmit(inst.SendBurst, m.Pool())
	return inst, nil
}

// burstHandler returns the handler of one UPF-U instance, with its own
// parse state, scratch and flow cache: the instance's holder is the
// handler's only caller at any time. yield is called after a burst
// that started a paging report.
func (u *UPFU) burstHandler(yield func()) onvm.BurstHandler {
	p, sc := new(pkt.Parsed), &scratch{flows: new(flowCache)}
	return func(burst []*pktbuf.Buf) int {
		n := u.processBurst(burst, p, sc)
		if sc.paged {
			sc.paged = false
			yield()
		}
		return n
	}
}
