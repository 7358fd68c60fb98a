package upf

import (
	"runtime"
	"sync/atomic"
	"time"

	"l25gc/internal/gtp"
	"l25gc/internal/metrics"
	"l25gc/internal/onvm"
	"l25gc/internal/pkt"
	"l25gc/internal/pktbuf"
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

	// emit re-injects a burst of drained packets into the egress path and
	// returns how many it took; installed when the UPF-U attaches to a
	// platform. Atomic: canary instances re-install it while drains may be
	// running.
	emit atomic.Pointer[func([]*pktbuf.Buf) int]

	nowNano func() int64
	tracec  atomic.Pointer[trace.Track]

	ulFwd, dlFwd atomic.Uint64
	buffered     atomic.Uint64
	dropped      atomic.Uint64
	misses       atomic.Uint64
	rateDropped  atomic.Uint64
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

// SetEmit installs the egress function used when draining session buffers:
// it takes a burst in order and returns how many descriptors it accepted;
// the rest stay with the caller.
func (u *UPFU) SetEmit(fn func(burst []*pktbuf.Buf) int) { u.emit.Store(&fn) }

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
}

// Stats returns the counter snapshot.
func (u *UPFU) Stats() UStats {
	return UStats{
		ULForwarded: u.ulFwd.Load(), DLForwarded: u.dlFwd.Load(),
		Buffered: u.buffered.Load(), Dropped: u.dropped.Load(),
		Misses: u.misses.Load(), RateDropped: u.rateDropped.Load(),
	}
}

// sessKey is what one descriptor's session is looked up by.
type sessKey struct {
	kind uint8 // keyNone, keyTEID or keyUEIP
	teid uint32
	ip   pkt.Addr
}

const (
	keyNone uint8 = iota // malformed: no key could be read
	keyTEID              // uplink: the G-PDU's tunnel endpoint
	keyUEIP              // downlink: the packet's destination address
)

// scratch is what one fast-path caller keeps from burst to burst beside
// its pkt.Parsed: per descriptor of the burst in hand, the session key and
// the session it resolved to. One goroutine at a time. (The Parsed is
// passed on its own: it goes through the classifier interface, which the
// compiler takes for an escape of everything stored with it.)
type scratch struct {
	keys []sessKey
	ctxs []*SessCtx
	// paged is set when the burst started a paging report, which its
	// caller should let run once it is done with the burst.
	paged bool
}

// Process runs the fast path on one packet buffer: a burst of one. p is
// the caller's reusable parse state (one per goroutine, zero allocation);
// its embedded key is the classifier key, so none is built per packet.
// The return value reports whether the descriptor was handed back with
// Meta set (true) or ownership was retained — parked in a session buffer
// (false). A packet that starts a paging report yields to the report
// before Process returns.
func (u *UPFU) Process(buf *pktbuf.Buf, p *pkt.Parsed) bool {
	one := [1]*pktbuf.Buf{buf}
	var key [1]sessKey
	var ctx [1]*SessCtx
	sc := scratch{keys: key[:], ctxs: ctx[:]}
	back := u.processBurst(one[:], p, &sc) == 1
	if sc.paged {
		runtime.Gosched()
	}
	return back
}

// processBurst runs the fast path on a burst of descriptors, in order. It
// moves the descriptors it hands back (Meta set) to the front of burst and
// returns how many there are; the others were parked in session buffers.
//
// Three passes. The first reads every descriptor's session key (stripping
// the GTP-U header of uplink ones). The second resolves the keys under one
// read lock of the session tables, a run of equal keys with one map
// lookup, and lets go of the lock: nothing below runs under it. The third
// classifies and forwards, a run of descriptors of one session at a time.
func (u *UPFU) processBurst(burst []*pktbuf.Buf, p *pkt.Parsed, sc *scratch) int {
	n := len(burst)
	if cap(sc.keys) < n {
		sc.keys, sc.ctxs = make([]sessKey, n), make([]*SessCtx, n)
	}
	keys, ctxs := sc.keys[:n], sc.ctxs[:n]
	for i, b := range burst {
		keys[i] = sessKey{}
		if b.Meta.Uplink {
			if hdr, err := gtp.Decap(b); err == nil && hdr.MsgType == gtp.MsgGPDU {
				keys[i] = sessKey{kind: keyTEID, teid: hdr.TEID}
			}
		} else if ip := b.Bytes(); len(ip) >= pkt.IPv4MinLen {
			keys[i] = sessKey{kind: keyUEIP, ip: pkt.Addr(ip[16:20])}
		}
	}
	u.state.resolve(keys, ctxs)

	tk := u.tracec.Load()
	clock := burstClock{read: u.nowNano}
	out := 0
	for i := 0; i < n; {
		ctx := ctxs[i]
		j := i + 1
		for j < n && ctxs[j] == ctx {
			j++
		}
		if ctx == nil {
			for k := i; k < j; k++ {
				u.noSession(burst[k], keys[k].kind, p)
				burst[out] = burst[k]
				out++
			}
		} else {
			out = u.forwardRun(ctx, burst, sc, i, j, out, p, tk, &clock)
		}
		i = j
	}
	return out
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

// noSession disposes of a descriptor that resolved to no session: dropped
// if it is malformed, a miss otherwise.
func (u *UPFU) noSession(buf *pktbuf.Buf, kind uint8, p *pkt.Parsed) {
	buf.Meta.Action = pktbuf.ActionDrop
	if kind == keyNone || (kind == keyUEIP && p.ParseIPv4(buf.Bytes()) != nil) {
		u.dropped.Add(1)
	} else {
		u.misses.Add(1)
	}
}

// forwardRun classifies and forwards burst[i:j], all of session ctx, under
// one hold of the session's rules read lock, compacting the descriptors it
// hands back to burst[out:] and returning the new out. The forwarded
// counters are added once for the run.
func (u *UPFU) forwardRun(ctx *SessCtx, burst []*pktbuf.Buf, sc *scratch, i, j, out int,
	p *pkt.Parsed, tk *trace.Track, clock *burstClock) int {
	var ulN, dlN uint64
	keys := sc.keys
	ctx.rulesMu.RLock()
	for k := i; k < j; k++ {
		buf := burst[k]
		ul := keys[k].kind == keyTEID
		cls := tk.Start("upf.classify")
		var pdr *rules.PDR
		var far *rules.FAR
		err := p.ParseIPv4(buf.Bytes())
		if err == nil {
			p.TEID, p.FromAccess = keys[k].teid, ul
			if pdr = ctx.Cls.Lookup(&p.FlowKey); pdr != nil {
				far = ctx.Sess.FAR(pdr.FARID)
			}
		}
		cls.End()
		switch {
		case err != nil:
			u.drop(buf)
		case pdr == nil:
			u.miss(buf)
		case far == nil:
			u.drop(buf)
		case !ul && far.Action&rules.FARBuffer != 0:
			sp := tk.Start("upf.buffer")
			stored, first := ctx.Park(buf)
			sp.End()
			if first && far.Action&rules.FARNotifyCP != 0 && u.upfc != nil {
				// Fire the paging trigger off the fast path.
				go u.upfc.ReportDL(ctx, pdr.ID)
				sc.paged = true
			}
			if stored {
				u.buffered.Add(1)
				continue // ownership retained by the session buffer
			}
			u.drop(buf)
		case far.Action&rules.FARForward == 0:
			u.drop(buf)
		case !ctx.allow(ul, buf.Len()*8, clock):
			u.rateDropped.Add(1)
			buf.Meta.Action = pktbuf.ActionDrop
		case ul:
			// OuterHeaderRemoval already happened via Decap; forward plain
			// IP to N6.
			buf.Meta.Action = pktbuf.ActionToPort
			buf.Meta.Port = uint16(PortN6)
			ulN++
		case u.encapTo(buf, pdr, far) != nil:
			u.drop(buf)
		default:
			dlN++
		}
		burst[out] = buf
		out++
	}
	ctx.rulesMu.RUnlock()
	if ulN > 0 {
		ctx.ulPkts.Add(ulN)
		u.ulFwd.Add(ulN)
	}
	if dlN > 0 {
		ctx.dlPkts.Add(dlN)
		u.dlFwd.Add(dlN)
	}
	return out
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

// DrainSession releases a session's parked packets in order through the
// emit path, encapsulating each toward the session's *current* FAR target
// (the target gNB after a handover). Installed as UPF-C's drain hook. The
// whole queue goes to the emit function as one burst, which pushes back
// on a full ring rather than dropping.
func (u *UPFU) DrainSession(ctx *SessCtx) {
	parked := ctx.Drain()
	emitp := u.emit.Load()
	var p pkt.Parsed
	out := parked[:0]
	for _, b := range parked {
		if emitp != nil && p.ParseIPv4(b.Bytes()) == nil {
			p.TEID, p.FromAccess = 0, false
			pdr, far := ctx.Match(&p.FlowKey)
			if pdr != nil && far != nil && far.Action&rules.FARForward != 0 && u.encapTo(b, pdr, far) == nil {
				out = append(out, b)
				continue
			}
		}
		b.Release()
	}
	if len(out) == 0 {
		return
	}
	ctx.dlPkts.Add(uint64(len(out)))
	u.dlFwd.Add(uint64(len(out)))
	for _, b := range out[(*emitp)(out):] {
		b.Release()
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
// sid, wiring the emit path through the instance's Tx ring.
func (u *UPFU) AttachONVM(m *onvm.Manager, sid onvm.ServiceID) (*onvm.Instance, error) {
	// One parse state and scratch per instance: the owner of the
	// instance's Rx ring is the handler's only caller at any time.
	p, sc := new(pkt.Parsed), new(scratch)
	inst, err := m.RegisterBurst(sid, "upf-u", func(burst []*pktbuf.Buf) int {
		n := u.processBurst(burst, p, sc)
		if sc.paged {
			// The report goroutine waits in this P's run-next slot, and
			// the caller running the fast path does not park: it hands
			// the report the CPU once it has let go of every ring.
			sc.paged = false
			m.RequestYield()
		}
		return n
	})
	if err != nil {
		return nil, err
	}
	u.SetEmit(inst.SendBurst)
	return inst, nil
}
