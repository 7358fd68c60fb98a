package main

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"sync/atomic"
	"time"

	"l25gc/internal/gtp"
	"l25gc/internal/pkt"
)

// Payload layout (inner UDP payload, PktSize bytes). The per-packet
// fields sit at offset 40 and beyond on purpose: the platform's ingress
// flow hash covers the first 64 bytes of the frame (outer GTP + inner
// IP/UDP + the head of the payload), so anything that varies per packet
// must stay out of that range or one flow would spread across switch
// shards and lose its FIFO order.
const (
	offMagic = 0  // 4 bytes
	offFlow  = 4  // uint16
	offDir   = 6  // 0 = UL, 1 = DL
	offSeq   = 40 // uint64, per (flow, dir)
	offStamp = 48 // int64 ns since generator epoch; 0 = not sampled
	offTail  = 56
	minSize  = offTail

	ipUDPLen = pkt.IPv4MinLen + pkt.UDPLen
)

var magic = [4]byte{'L', '2', '5', 'B'}

const (
	dirUL = 0
	dirDL = 1
)

// Phases of a run, read by the sinks to keep warm-up samples out.
const (
	phaseWarm int32 = iota
	phaseMeasure
	phaseDone
)

// flowTx is the generator's side of one flow: a prebuilt frame per
// direction, patched in place before each injection (Inject copies).
type flowTx struct {
	frame [2][]byte // UL: GTP-U G-PDU; DL: plain IPv4/UDP
	pay   [2]int    // payload offset inside frame
	seq   [2]uint64
}

// flowRx is the sink's side: the next expected sequence number per
// direction. One flow's frames always arrive from one switch worker, in
// order, so each entry has a single writer.
type flowRx struct {
	next [2]uint64
	tmpl []byte   // payload template for byte-exact verification
	ip   pkt.Addr // the UE address the inner header must carry
}

// pktStream is the packet half of a workload: generator plus verifying
// sinks.
type pktStream struct {
	wl    *workload
	tx    []flowTx
	rx    []flowRx
	order []int // seeded flow order
	epoch time.Time

	sendUL func([]byte) error
	sendDL func([]byte) error

	phase atomic.Int32

	sent      [2]atomic.Uint64 // single writer: the generator
	delivered [2]atomic.Uint64
	reordered atomic.Uint64 // arrived behind a later packet of its flow
	corrupt   atomic.Uint64 // failed byte-exact verification
	foreign   atomic.Uint64 // not a benchmark packet at all

	retries atomic.Uint64    // injections refused and retried
	stalls  atomic.Uint64    // closed-loop windows re-credited after 100 ms
	credit  [2]atomic.Uint64 // packets written off by stall recovery

	// A generator whose in-flight window is full parks on room; the sinks
	// signal it once a direction drains to wakeAt.
	wakeAt  int
	waiting atomic.Bool
	room    chan struct{}

	owd    []int64 // one-way delays of sampled packets, ns
	owdN   atomic.Int64
	late   []int64 // open loop: how late each burst left, ns
	lateN  int
	stopCh chan struct{}
	done   chan struct{}
}

func newPktStream(wl *workload, order []int, sessions []standingSession,
	sendUL, sendDL func([]byte) error) *pktStream {
	ps := &pktStream{
		wl: wl, order: order, epoch: time.Now(),
		sendUL: sendUL, sendDL: sendDL,
		tx:     make([]flowTx, len(sessions)),
		rx:     make([]flowRx, len(sessions)),
		owd:    make([]int64, 1<<19),
		late:   make([]int64, 1<<19),
		stopCh: make(chan struct{}),
		done:   make(chan struct{}),
		room:   make(chan struct{}, 1),
		wakeAt: window / 2,
	}
	if !wl.closedLoop() {
		// Low enough that a woken generator has room for a whole burst.
		ps.wakeAt = min(openWindow/2, openWindow-wl.Burst)
	}
	for i, s := range sessions {
		tmpl := payloadTemplate(wl.PktSize, i)
		ps.rx[i] = flowRx{tmpl: tmpl, ip: s.ip}
		ps.tx[i] = buildFrames(tmpl, s)
	}
	return ps
}

func payloadTemplate(size, flow int) []byte {
	if size < minSize {
		panic("payload too small for the benchmark header")
	}
	p := make([]byte, size)
	for i := range p {
		p[i] = byte(i*31 + flow*7 + 1)
	}
	copy(p[offMagic:], magic[:])
	binary.BigEndian.PutUint16(p[offFlow:], uint16(flow))
	for i := offSeq; i < offTail; i++ {
		p[i] = 0
	}
	return p
}

func buildFrames(tmpl []byte, s standingSession) flowTx {
	var f flowTx
	inner := make([]byte, ipUDPLen+len(tmpl))
	// Uplink: UE -> DN inside a G-PDU with the PDU Session Container.
	tmpl[offDir] = dirUL
	n, err := pkt.BuildUDPv4(inner, s.ip, dnAddr, uePort, dnPort, 0, tmpl)
	if err != nil {
		panic(err)
	}
	clearUDPChecksum(inner)
	h := gtp.Header{MsgType: gtp.MsgGPDU, TEID: s.teid, HasQFI: true, QFI: 9, PDUType: 1}
	ul := make([]byte, h.HeaderSize()+n)
	hn, err := h.Encode(ul, n)
	if err != nil {
		panic(err)
	}
	copy(ul[hn:], inner[:n])
	f.frame[dirUL], f.pay[dirUL] = ul, hn+ipUDPLen
	// Downlink: DN -> UE, plain IP into N6.
	tmpl[offDir] = dirDL
	dl := make([]byte, ipUDPLen+len(tmpl))
	if _, err := pkt.BuildUDPv4(dl, dnAddr, s.ip, dnPort, uePort, 0, tmpl); err != nil {
		panic(err)
	}
	clearUDPChecksum(dl)
	f.frame[dirDL], f.pay[dirDL] = dl, ipUDPLen
	tmpl[offDir] = 0
	return f
}

// clearUDPChecksum zeroes the UDP checksum (legal over IPv4: "not
// computed"), since the payload is patched per packet after the build.
func clearUDPChecksum(ip []byte) {
	ip[pkt.IPv4MinLen+6], ip[pkt.IPv4MinLen+7] = 0, 0
}

// --- sinks ---

// n6Sink receives every uplink packet leaving toward the data network.
func (ps *pktStream) n6Sink(ip []byte) { ps.receive(dirUL, -1, ip) }

// ueSink returns the OnData hook of standing session `flow`.
func (ps *pktStream) ueSink(flow int) func([]byte) {
	return func(ip []byte) { ps.receive(dirDL, flow, ip) }
}

// receive verifies one delivered packet: length, inner addresses and
// ports, payload bytes, and per-flow FIFO order. wantFlow is the flow the
// delivery point implies (-1 when it implies none).
func (ps *pktStream) receive(dir, wantFlow int, ip []byte) {
	size := ps.wl.PktSize
	if len(ip) != ipUDPLen+size || ip[0] != 0x45 || ip[9] != pkt.ProtoUDP ||
		!bytes.Equal(ip[ipUDPLen+offMagic:ipUDPLen+offMagic+4], magic[:]) {
		ps.foreign.Add(1)
		return
	}
	pay := ip[ipUDPLen:]
	flow := int(binary.BigEndian.Uint16(pay[offFlow:]))
	if flow >= len(ps.rx) || (wantFlow >= 0 && flow != wantFlow) || int(pay[offDir]) != dir {
		ps.corrupt.Add(1)
		return
	}
	rx := &ps.rx[flow]
	var src, dst pkt.Addr
	copy(src[:], ip[12:16])
	copy(dst[:], ip[16:20])
	sport := binary.BigEndian.Uint16(ip[20:])
	dport := binary.BigEndian.Uint16(ip[22:])
	okHdr := src == rx.ip && dst == dnAddr && sport == uePort && dport == dnPort
	if dir == dirDL {
		okHdr = src == dnAddr && dst == rx.ip && sport == dnPort && dport == uePort
	}
	if !okHdr ||
		!bytes.Equal(pay[offDir+1:offSeq], rx.tmpl[offDir+1:offSeq]) ||
		!bytes.Equal(pay[offTail:], rx.tmpl[offTail:]) {
		ps.corrupt.Add(1)
		return
	}
	seq := binary.BigEndian.Uint64(pay[offSeq:])
	switch {
	case seq == rx.next[dir]:
		rx.next[dir]++
	case seq > rx.next[dir]:
		rx.next[dir] = seq + 1 // the gap shows up as offered - delivered
	default:
		ps.reordered.Add(1)
	}
	if stamp := int64(binary.BigEndian.Uint64(pay[offStamp:])); stamp != 0 &&
		ps.phase.Load() == phaseMeasure {
		if i := ps.owdN.Add(1) - 1; int(i) < len(ps.owd) {
			ps.owd[i] = int64(time.Since(ps.epoch)) - stamp
		}
	}
	ps.delivered[dir].Add(1)
	if ps.waiting.Load() && ps.inflight(dir) <= ps.wakeAt {
		select {
		case ps.room <- struct{}{}:
		default:
		}
	}
}

// --- generator ---

// send injects the next packet of (flow, dir), stamping it with `stamp`
// when it is a sampled one. A refused injection (ring or pool full) is
// retried after yielding, so offered counts only accepted packets.
func (ps *pktStream) send(flow, dir int, stamp int64) bool {
	f := &ps.tx[flow]
	p := f.frame[dir][f.pay[dir]:]
	seq := f.seq[dir]
	binary.BigEndian.PutUint64(p[offSeq:], seq)
	if seq%sampleEvery != 0 {
		stamp = 0
	}
	binary.BigEndian.PutUint64(p[offStamp:], uint64(stamp))
	inject := ps.sendUL
	if dir == dirDL {
		inject = ps.sendDL
	}
	for inject(f.frame[dir]) != nil {
		ps.retries.Add(1)
		select {
		case <-ps.stopCh:
			return false
		default:
		}
		runtime.Gosched()
	}
	f.seq[dir] = seq + 1
	ps.sent[dir].Add(1)
	return true
}

func (ps *pktStream) stopped() bool {
	select {
	case <-ps.stopCh:
		return true
	default:
		return false
	}
}

// run drives the stream until stop() is called.
func (ps *pktStream) run() {
	defer close(ps.done)
	if ps.wl.closedLoop() {
		ps.runClosed()
	} else {
		ps.runOpen()
	}
}

func (ps *pktStream) stop() {
	close(ps.stopCh)
	<-ps.done
}

// stallAfter is how long a full in-flight window may see no delivery
// before its packets are written off and the window re-credited.
const stallAfter = 100 * time.Millisecond

// openWindow bounds an open-loop stream's packets in flight per direction.
// The schedule alone does not: a generator that lost its CPU for 10 ms owes
// 2000 packets at 200k pps and would pour them all into the core at once,
// past the 2048 slots of an NF's Rx ring, which then drops. That happened
// in one run out of a few on a shared host and in none of the others, so
// the loss counted how often a neighbour stole the CPU. With both
// directions together held under half that ring, catching up is paced by
// delivery and nothing is dropped; packets held back keep their due time
// as send stamp, so the hold shows as one-way delay and in gen.late_p99_us.
const openWindow = 512

func (ps *pktStream) inflight(dir int) int {
	return int(ps.sent[dir].Load() - ps.delivered[dir].Load() - ps.credit[dir].Load())
}

// runClosed keeps up to `window` packets in flight per direction, sending
// Burst consecutive packets of one flow at a time. With both windows full
// it blocks until a sink reports room, the way a client waits for replies.
// It neither sleeps nor spins: a generator that spun on Gosched here kept
// re-entering the run queue ahead of the control plane's goroutines and
// inflated every event latency tenfold (registration p50 2.7 ms against
// 0.23 ms), measuring the generator rather than the core.
func (ps *pktStream) runClosed() {
	var cursor [2]int
	burst := ps.wl.Burst
	stall := time.NewTimer(stallAfter)
	defer stall.Stop()
	for !ps.stopped() {
		progressed := false
		for dir := 0; dir < 2; dir++ {
			if ps.inflight(dir)+burst > window {
				continue
			}
			flow := ps.order[cursor[dir]%len(ps.order)]
			cursor[dir]++
			now := int64(time.Since(ps.epoch))
			for i := 0; i < burst; i++ {
				if !ps.send(flow, dir, now) {
					return
				}
			}
			progressed = true
		}
		if progressed {
			continue
		}
		ps.awaitRoom(stall, func() bool {
			return ps.inflight(dirUL) > ps.wakeAt && ps.inflight(dirDL) > ps.wakeAt
		})
	}
}

// awaitRoom parks the generator while full() holds, until a sink reports
// room, the stream is stopped, or nothing at all has been delivered for
// stallAfter; then the packets in flight are written off as lost and their
// window re-credited, so a run with real loss ends instead of hanging.
func (ps *pktStream) awaitRoom(stall *time.Timer, full func() bool) {
	// Announce the wait, then look again: a sink that drained below the
	// mark just before saw no waiter.
	ps.waiting.Store(true)
	defer ps.waiting.Store(false)
	if !full() {
		return
	}
	before := ps.delivered[0].Load() + ps.delivered[1].Load()
	if !stall.Stop() {
		select {
		case <-stall.C: // fired during an earlier wait that room ended
		default:
		}
	}
	stall.Reset(stallAfter)
	select {
	case <-ps.room:
	case <-ps.stopCh:
	case <-stall.C:
		if ps.delivered[0].Load()+ps.delivered[1].Load() == before {
			for dir := 0; dir < 2; dir++ {
				ps.credit[dir].Store(ps.sent[dir].Load() - ps.delivered[dir].Load())
			}
			ps.stalls.Add(1)
		}
	}
}

// dueAt is when burst k of an open-loop stream is due, relative to the
// stream's start: k bursts of `burst` packets at `rate` packets/s. Integer
// arithmetic, so the schedule does not drift.
func dueAt(k int64, burst, rate int) time.Duration {
	return time.Duration(k * int64(burst) * int64(time.Second) / int64(rate))
}

// runOpen sends bursts on a fixed schedule, holding one back only while
// openWindow packets of its direction are in flight, and records how late
// each burst left.
//
// Gaps under a millisecond are spun out without yielding, after one yield
// right behind the burst: that yield lets the switch worker the injections
// just woke run at once, and not yielding again keeps the spin out of the
// run queue, where it would otherwise cut in ahead of the control plane's
// goroutines thousands of times per gap. Each packet is stamped with its
// burst's due time, so a stall shows as delay on the packets it held back.
//
// Gaps of a millisecond or more are slept. A timer wakes tens of
// microseconds to milliseconds late on busy cores, which is the runtime's
// timer under the CPU load this workload creates on purpose, not the
// core's forwarding; stamped from the due time, that lateness was all the
// one-way delay measured (p50 32 to 100 us between identical runs). So a
// sleeping generator stamps the time the burst actually leaves, and its
// lateness is reported on its own (gen.late_p99_us).
func (ps *pktStream) runOpen() {
	burst, rate := ps.wl.Burst, ps.wl.RatePPS
	sleepy := dueAt(1, burst, rate) >= time.Millisecond
	start := time.Now()
	base := start.Sub(ps.epoch)
	stall := time.NewTimer(stallAfter)
	defer stall.Stop()
	for k := int64(0); !ps.stopped(); k++ {
		due := dueAt(k, burst, rate)
		dir := int(k % 2)
		for {
			wait := due - time.Since(start)
			if wait <= 0 {
				break
			}
			if sleepy {
				time.Sleep(wait)
			}
		}
		for ps.inflight(dir)+burst > openWindow && !ps.stopped() {
			ps.awaitRoom(stall, func() bool { return ps.inflight(dir) > ps.wakeAt })
		}
		if ps.phase.Load() == phaseMeasure && ps.lateN < len(ps.late) {
			ps.late[ps.lateN] = int64(time.Since(start) - due)
			ps.lateN++
		}
		flow := ps.order[int(k/2)%len(ps.order)]
		stamp := int64(base + due)
		if sleepy {
			stamp = int64(time.Since(ps.epoch))
		}
		if stamp == 0 {
			stamp = 1
		}
		for i := 0; i < burst; i++ {
			if !ps.send(flow, dir, stamp) {
				return
			}
		}
		if !sleepy {
			runtime.Gosched()
		}
	}
}

// outstanding is every packet offered and not yet delivered.
func (ps *pktStream) outstanding() int64 {
	var n int64
	for dir := 0; dir < 2; dir++ {
		n += int64(ps.sent[dir].Load() - ps.delivered[dir].Load())
	}
	return n
}

// nullRate runs the generator against sinks that accept and discard, for
// `d`: the generator's own ceiling, which must sit well above any rate it
// is used to measure.
func nullRate(wl *workload, d time.Duration) float64 {
	sess := make([]standingSession, wl.Flows)
	order := make([]int, wl.Flows)
	for i := range sess {
		sess[i] = standingSession{ip: pkt.AddrFrom(10, 60, byte(i>>8), byte(i)), teid: uint32(i + 1)}
		order[i] = i
	}
	closed := *wl
	closed.RatePPS = 0
	closed.Burst = min(wl.Burst, window)
	var ps *pktStream
	ps = newPktStream(&closed, order, sess,
		func([]byte) error { ps.delivered[dirUL].Add(1); return nil },
		func([]byte) error { ps.delivered[dirDL].Add(1); return nil })
	start := time.Now()
	go ps.run()
	time.Sleep(d)
	ps.stop()
	el := time.Since(start)
	return float64(ps.sent[0].Load()+ps.sent[1].Load()) / el.Seconds()
}
