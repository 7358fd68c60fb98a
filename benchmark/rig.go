package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"l25gc/internal/core"
	"l25gc/internal/metrics"
	"l25gc/internal/nf/udr"
	"l25gc/internal/pfcp"
	"l25gc/internal/pkt"
	"l25gc/internal/ranue"
	"l25gc/internal/rules"
	"l25gc/internal/trace"
)

var (
	dnAddr   = pkt.AddrFrom(1, 1, 1, 1)
	gnbAddrs = [2]pkt.Addr{pkt.AddrFrom(10, 100, 0, 10), pkt.AddrFrom(10, 100, 0, 11)}
	simK     = []byte("0123456789abcdef")
	simOpc   = []byte("fedcba9876543210")
)

const (
	uePort = 40000
	dnPort = 9000
	// Subscriber index ranges: standing sessions and the event population
	// are disjoint, so the packet stream never shares a UE with an event.
	standingBase = 1
	sleeperIdx   = 50_001
	eventBase    = 100_001

	// parked is how many DL packets sit in the sleeper's session buffer
	// for the whole run (the UPF's default buffer holds 3000).
	parked = 2048
)

func supi(idx int) string { return fmt.Sprintf("imsi-20893%010d", idx) }

func newUE(idx int) *ranue.UE { return ranue.NewUE(supi(idx), simK, simOpc) }

func subscribers(standing int) []udr.Subscriber {
	subs := make([]udr.Subscriber, 0, standing+eventPopulation)
	add := func(idx int) {
		subs = append(subs, udr.Subscriber{
			Supi: supi(idx), K: simK, Opc: simOpc, Dnn: "internet", Sst: 1,
		})
	}
	for i := 0; i < standing; i++ {
		add(standingBase + i)
	}
	add(sleeperIdx)
	for i := 0; i < eventPopulation; i++ {
		add(eventBase + i)
	}
	return subs
}

// standingSession is one packet-stream endpoint: an established PDU
// session that stays put for the whole run.
type standingSession struct {
	ue   *ranue.UE
	ip   pkt.Addr
	teid uint32 // UPF-side UL tunnel
	seid uint64
}

// rig is one in-process core with its RAN side and standing sessions,
// driven only through the public surface the issue lists.
type rig struct {
	wl       *workload
	core     *core.Core
	reg      *metrics.Registry
	gnbs     [2]*ranue.GNB
	standing []standingSession

	// sleeper is an idle UE whose session buffer holds `parked` DL packets
	// from set-up to quiesce. It is the paper's smart buffering at rest,
	// checked for in-order release at the end of every run. It also keeps
	// the packet pool's free ring away from its full mark: the ring is
	// exactly as large as the pool, and at that mark a Release can meet
	// the slot of a Get descheduled half-way and panic with a false
	// "free ring overflow". With 2048 buffers out, that takes 2048
	// releases inside one such stall instead of a handful. (Seen in one
	// cp_churn run in ten before the sleeper existed.)
	sleeper     *ranue.UE
	sleeperNext atomic.Uint32 // next parked sequence number expected
	sleeperBad  atomic.Uint32 // parked packets released damaged or out of order
}

// setupRig is the timed set-up: core.New, two gNBs, standing sessions,
// extra PDRs. tr is nil on every timed run.
func setupRig(wl *workload, tr *trace.Tracer) (*rig, error) {
	r := &rig{wl: wl, reg: metrics.NewRegistry()}
	c, err := core.New(core.Config{
		Mode:        core.ModeL25GC,
		NFShards:    runtime.GOMAXPROCS(0),
		Subscribers: subscribers(wl.Flows),
		Overload:    wl.Overload,
		// The registry is passive (gauge readers over the components'
		// own atomics), and the only public route to the onvm and pool
		// counters, so every workload carries one.
		Metrics: r.reg,
		Tracer:  tr,
	})
	if err != nil {
		return nil, fmt.Errorf("core.New: %w", err)
	}
	r.core = c
	for i := range r.gnbs {
		g, err := ranue.NewGNB(uint32(i+1), gnbAddrs[i], c.N2Addr(), c)
		if err != nil {
			r.close()
			return nil, fmt.Errorf("gNB %d: %w", i+1, err)
		}
		r.gnbs[i] = g
	}
	r.standing = make([]standingSession, wl.Flows)
	for i := range r.standing {
		ue := newUE(standingBase + i)
		if _, err := ue.Register(r.gnbs[i%2]); err != nil {
			r.close()
			return nil, fmt.Errorf("standing %d register: %w", i, err)
		}
		if _, err := ue.EstablishSession(5, "internet"); err != nil {
			r.close()
			return nil, fmt.Errorf("standing %d session: %w", i, err)
		}
		ctx, ok := c.UPFState.ByUEIP(ue.IP())
		if !ok {
			r.close()
			return nil, fmt.Errorf("standing %d: no UPF session for %v", i, ue.IP())
		}
		s := standingSession{ue: ue, ip: ue.IP(), teid: ctx.LocalTEID, seid: ctx.Sess.SEID}
		if wl.ExtraPDRs > 0 {
			resp, err := c.UPFC.Handle(s.seid, &pfcp.SessionModificationRequest{
				CreatePDRs: extraPDRs(s.ip, s.teid, wl.ExtraPDRs),
			})
			if mr, _ := resp.(*pfcp.SessionModificationResponse); err != nil || mr == nil || mr.Cause != pfcp.CauseAccepted {
				r.close()
				return nil, fmt.Errorf("standing %d extra PDRs: %v %v", i, resp, err)
			}
		}
		r.standing[i] = s
	}
	if err := r.parkSleeper(); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// A parked packet's payload: parkMagic, zero padding, then its sequence
// number at offSeq, clear of the 64 bytes the ingress flow hash covers
// (see pktgen.go), so the sleeper's packets are one flow on one shard.
var parkMagic = []byte("l25b-park")

const parkLen = offSeq + 4

// parkSleeper attaches the sleeper, sends it idle and fills its session
// buffer. The first parked packet makes the UPF report and the AMF page;
// the page waits in the UE until wakeSleeper answers it.
func (r *rig) parkSleeper() error {
	ue := newUE(sleeperIdx)
	ue.OnData = func(ip []byte) {
		pay := ip[min(ipUDPLen, len(ip)):]
		if len(pay) != parkLen || !bytes.HasPrefix(pay, parkMagic) {
			r.sleeperBad.Add(1)
			return
		}
		if seq := binary.BigEndian.Uint32(pay[offSeq:]); seq != r.sleeperNext.Load() {
			r.sleeperBad.Add(1)
			r.sleeperNext.Store(seq)
		}
		r.sleeperNext.Add(1)
	}
	if _, err := ue.Register(r.gnbs[0]); err != nil {
		return fmt.Errorf("sleeper register: %w", err)
	}
	if _, err := ue.EstablishSession(5, "internet"); err != nil {
		return fmt.Errorf("sleeper session: %w", err)
	}
	if err := ue.GoIdle(); err != nil {
		return fmt.Errorf("sleeper idle: %w", err)
	}
	r.sleeper = ue
	pay := make([]byte, parkLen)
	copy(pay, parkMagic)
	buf := make([]byte, ipUDPLen+len(pay))
	for seq := 0; seq < parked; seq++ {
		binary.BigEndian.PutUint32(pay[offSeq:], uint32(seq))
		n, err := pkt.BuildUDPv4(buf, dnAddr, ue.IP(), dnPort, uePort, 0, pay)
		if err != nil {
			return err
		}
		clearUDPChecksum(buf) // it follows the sequence number, and the flow hash covers it
		for r.core.InjectDL(buf[:n]) != nil {
			runtime.Gosched()
		}
		// In step with the buffer, so no ring on the way can overflow.
		if seq%256 == 255 && !waitFor(time.Second, func() bool { return r.core.UPFState.BufferDepth() > seq }) {
			break
		}
	}
	if !waitFor(time.Second, func() bool { return r.core.UPFState.BufferDepth() == parked }) {
		return fmt.Errorf("sleeper: %d of %d packets parked", r.core.UPFState.BufferDepth(), parked)
	}
	return nil
}

// wakeSleeper answers the page and checks that every parked packet comes
// out, in order.
func (r *rig) wakeSleeper() []string {
	if _, err := r.sleeper.AwaitPagingAndReconnect(time.Second); err != nil {
		return []string{fmt.Sprintf("sleeper reconnect: %v", err)}
	}
	var bad []string
	if !waitFor(2*time.Second, func() bool { return r.sleeperNext.Load() == parked }) {
		bad = append(bad, fmt.Sprintf("%d of %d parked packets released after paging", r.sleeperNext.Load(), parked))
	}
	if n := r.sleeperBad.Load(); n > 0 {
		bad = append(bad, fmt.Sprintf("%d parked packets released damaged or out of order", n))
	}
	return bad
}

// extraPDRs builds n higher-priority SDF port-range rules, alternating
// DL and UL, none of which matches the benchmark's own ports: the lookup
// must consider and reject them before the session's default rule wins.
func extraPDRs(ueIP pkt.Addr, teid uint32, n int) []*rules.PDR {
	out := make([]*rules.PDR, 0, n)
	for k := 0; k < n; k++ {
		lo := uint16(50_000 + 100*k)
		p := &rules.PDR{
			ID: uint32(10 + k), Precedence: uint32(10 + k),
			PDI: rules.PDI{
				UEIP: ueIP, HasUEIP: true,
				HasSDF: true,
				SDF: rules.SDFFilter{
					ID:       uint32(k + 1),
					SrcPorts: rules.AnyPort,
					DstPorts: rules.PortRange{Lo: lo, Hi: lo + 99},
					Protocol: pkt.ProtoUDP,
				},
			},
		}
		if k%2 == 0 {
			p.PDI.SourceInterface = rules.IfCore
			p.FARID = 2
		} else {
			p.PDI.SourceInterface = rules.IfAccess
			p.PDI.HasTEID, p.PDI.TEID = true, teid
			p.OuterHeaderRemoval = true
			p.FARID = 1
		}
		out = append(out, p)
	}
	return out
}

// close tears the rig down: gNBs first (their N2 readers exit on close),
// then the core.
func (r *rig) close() {
	for _, g := range r.gnbs {
		if g != nil {
			g.Close()
		}
	}
	if r.core != nil {
		r.core.Stop()
	}
}

// invariants checks the state a quiesced rig must be in, once the sleeper
// is awake: only the standing sessions and the sleeper's installed, SMF
// and UPF agreeing on the SEID set, every packet buffer back in the pool.
func (r *rig) invariants() []string {
	var bad []string
	if n, want := r.core.UPFState.Sessions(), len(r.standing)+1; n != want {
		bad = append(bad, fmt.Sprintf("UPF holds %d sessions, want %d (standing + sleeper)", n, want))
	}
	if a, b := r.core.SMF.SEIDs(), r.core.UPFState.SEIDs(); !slices.Equal(a, b) {
		bad = append(bad, fmt.Sprintf("SMF SEIDs %v != UPF SEIDs %v", a, b))
	}
	if n := r.reg.Snapshot().Counters["onvm.pool.in_use"]; n != 0 {
		bad = append(bad, fmt.Sprintf("%d packet buffers still in use", n))
	}
	return bad
}

// waitFor polls cond until it holds or d passes: yielding for the first
// 2 ms (so a short wait is not rounded up to a sleep), napping after.
func waitFor(d time.Duration, cond func() bool) bool {
	start := time.Now()
	for {
		if cond() {
			return true
		}
		switch el := time.Since(start); {
		case el > d:
			return false
		case el < 2*time.Millisecond:
			runtime.Gosched()
		default:
			time.Sleep(200 * time.Microsecond)
		}
	}
}
