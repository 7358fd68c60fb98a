package pfcp

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"l25gc/internal/faults"
	"l25gc/internal/metrics"
	"l25gc/internal/shm"
	"l25gc/internal/trace"
)

// Handler processes an incoming PFCP request and returns the response.
type Handler func(seid uint64, req Message) (Message, error)

// Endpoint is one side of an N4 association. The two implementations give
// the paper's comparison: UDPEndpoint serializes to TLV and crosses the
// kernel (free5GC), MemEndpoint passes message structs through a
// shared-memory mailbox (L²5GC).
type Endpoint interface {
	// Request sends req and blocks until the matching response arrives,
	// retransmitting per the endpoint's RetryConfig (T1/N1) until the
	// retry budget is exhausted.
	Request(seid uint64, hasSEID bool, req Message) (Message, error)
	// SetHandler installs the request handler (must be set before traffic).
	SetHandler(h Handler)
	// SetRetry installs the request retransmission profile.
	SetRetry(cfg RetryConfig)
	// SetInjector threads a fault injector through the endpoint; points
	// are named prefix+".tx" and prefix+".rx".
	SetInjector(inj *faults.Injector, prefix string)
	// SetTracer installs a trace track; nil disables tracing. The UDP
	// transport emits encode/syscall/decode stage spans the shm transport
	// does not have — that asymmetry is the paper's N4 argument.
	SetTracer(tk *trace.Track)
	// ExportMetrics registers the endpoint's counters (".retransmits",
	// ".timeouts") under prefix.
	ExportMetrics(reg *metrics.Registry, prefix string)
	// Close releases the endpoint.
	Close() error
}

// DefaultTimeout is the default initial response timer (3GPP N4 T1).
const DefaultTimeout = 3 * time.Second

// injectorConf groups an installed fault injector with its point names so
// endpoints can swap it in atomically while their read loops run.
type injectorConf struct {
	inj *faults.Injector
	tx  faults.Point
	rx  faults.Point
}

// msgSpan opens a root span named prefix + the message type's name; with
// tracing off it builds no name.
func msgSpan(tk *trace.Track, prefix string, msgType uint8) trace.Span {
	if tk == nil {
		return trace.Span{}
	}
	return tk.Start(prefix + MsgName(msgType))
}

// endpoint is what the two transports share: the settings every Endpoint
// accepts, and the request side — sequence numbers, the table of pending
// calls, the T1/N1 loop and its counters.
type endpoint struct {
	handler atomic.Pointer[Handler]
	seq     atomic.Uint32
	retry   atomic.Pointer[RetryConfig]
	faultc  atomic.Pointer[injectorConf]
	tracec  atomic.Pointer[trace.Track]
	calls   *shm.Calls[Message]

	retransmits atomic.Uint64
	timeouts    atomic.Uint64

	done chan struct{} // closed by Close: every parked Request aborts
}

func newEndpoint() endpoint {
	return endpoint{calls: shm.NewCalls[Message](), done: make(chan struct{})}
}

// SetHandler implements Endpoint.
func (e *endpoint) SetHandler(h Handler) { e.handler.Store(&h) }

// SetRetry implements Endpoint.
func (e *endpoint) SetRetry(cfg RetryConfig) {
	cfg = cfg.norm()
	e.retry.Store(&cfg)
}

// SetInjector implements Endpoint. On the shm transport corruption does
// not apply (descriptors carry struct pointers, not wire bytes);
// drop/delay/duplicate/reorder do.
func (e *endpoint) SetInjector(inj *faults.Injector, prefix string) {
	e.faultc.Store(&injectorConf{
		inj: inj,
		tx:  faults.Point(prefix + ".tx"),
		rx:  faults.Point(prefix + ".rx"),
	})
}

// SetTracer implements Endpoint. The shm transport emits no
// encode/syscall/decode spans — descriptors cross by pointer — so traced
// breakdowns show those stages only on the kernel path. Its "pfcp.tx.shm"
// covers the ring pass and, when the request is served inline, the peer's
// "pfcp.handle.*" with it; "pfcp.wait" appears only when the requester
// actually parked.
func (e *endpoint) SetTracer(tk *trace.Track) { e.tracec.Store(tk) }

// ExportMetrics implements Endpoint.
func (e *endpoint) ExportMetrics(reg *metrics.Registry, prefix string) {
	reg.RegisterGauge(prefix+".retransmits", e.retransmits.Load)
	reg.RegisterGauge(prefix+".timeouts", e.timeouts.Load)
}

// Stats reports request retransmissions and per-attempt timeouts.
func (e *endpoint) Stats() (retransmits, timeouts uint64) {
	return e.retransmits.Load(), e.timeouts.Load()
}

// PendingRequests reports the number of in-flight request waiters
// (diagnostics; abandoned requests must not linger here).
func (e *endpoint) PendingRequests() int { return e.calls.Len() }

// roundTrip is Request once the transport has built what it sends: it
// transmits with send and waits T1 for the response, retransmitting with
// the same sequence number up to N1 times with backoff. The pending call
// is removed on every exit path. The response is looked for before the
// wait: on the shm transport an idle peer's handler has run inside send,
// and the requester neither parks nor arms a timer. T1 bounds what is
// queued, dropped or delayed; a handler that blocks while being served
// inline blocks the call past it.
func (e *endpoint) roundTrip(root trace.Span, seq uint32, txSpan string, req Message, send func() error) (Message, error) {
	w := e.calls.Begin(seq)
	defer e.calls.End(seq, w)
	cfg := DefaultRetry()
	if c := e.retry.Load(); c != nil {
		cfg = *c
	}
	t1 := cfg.T1
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			e.retransmits.Add(1)
			root.Event("pfcp.retransmit")
		}
		tx := root.Child(txSpan)
		err := send()
		tx.End()
		if err != nil {
			return nil, err
		}
		if resp, ok := w.Poll(); ok {
			return resp, nil
		}
		wait := root.Child("pfcp.wait")
		resp, err := w.Wait(t1, e.done)
		wait.End()
		switch err {
		case nil:
			return resp, nil
		case shm.ErrClosed:
			return nil, net.ErrClosed
		}
		e.timeouts.Add(1)
		if attempt >= cfg.N1 {
			return nil, fmt.Errorf("pfcp: request %d timed out after %d attempts",
				req.PFCPType(), attempt+1)
		}
		t1 = cfg.next(t1)
	}
}

// --- UDP endpoint (kernel path / free5GC baseline) ---

// UDPEndpoint speaks PFCP over a kernel UDP socket.
type UDPEndpoint struct {
	endpoint
	conn *net.UDPConn
	peer atomic.Pointer[net.UDPAddr]

	respCache *respCache[[]byte]
	// reqs carries inbound *requests* from the read loop to one dispatch
	// goroutine, so the read loop — which also completes pending Request
	// waiters — never runs a handler and never blocks on one. Without
	// this split the association head-of-line deadlocks: an NF that
	// issues a synchronous Request while holding its supervisor unit lock
	// can only make progress once the response is delivered, but if the
	// peer's unsolicited request (e.g. a Session Report racing a
	// modification) arrived first, a single-threaded read loop is stuck
	// in that handler's ingress tap waiting for the very same lock, and
	// the response sits behind it unread until the retry budget burns
	// out. Requests still run strictly in arrival order. A request that
	// finds the channel full is dropped like a datagram lost in flight:
	// the peer's T1/N1 retransmits it, and the response cache answers it
	// if it was already served.
	reqs    chan udpRequest
	stopped chan struct{} // closed when the dispatch goroutine exits

	closed atomic.Bool
}

// requestBacklog bounds the inbound requests waiting for dispatch: as many
// as the request ring of the shm transport a core builds holds, which
// serves the same N4 association in L²5GC mode.
const requestBacklog = 1024

// udpRequest is one parsed inbound request awaiting serial dispatch.
type udpRequest struct {
	hdr  Header
	msg  Message
	from *net.UDPAddr
}

// NewUDPEndpoint listens on addr ("127.0.0.1:0" for an ephemeral port).
func NewUDPEndpoint(addr string) (*UDPEndpoint, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	conn, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, err
	}
	e := &UDPEndpoint{endpoint: newEndpoint(), conn: conn, respCache: newRespCache[[]byte](),
		reqs: make(chan udpRequest, requestBacklog), stopped: make(chan struct{})}
	go e.dispatch()
	go e.readLoop()
	return e, nil
}

// Addr returns the endpoint's bound address.
func (e *UDPEndpoint) Addr() string { return e.conn.LocalAddr().String() }

// Connect sets the peer address for outgoing requests.
func (e *UDPEndpoint) Connect(addr string) error {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return err
	}
	e.peer.Store(ua)
	return nil
}

// send transmits wire to the peer through the injector, if any. The
// injector receives a private copy so an injected corruption cannot taint
// later retransmissions of the same request.
func (e *UDPEndpoint) send(wire []byte, to *net.UDPAddr) error {
	fc := e.faultc.Load()
	if fc == nil {
		_, err := e.conn.WriteToUDP(wire, to)
		return err
	}
	return fc.inj.Transmit(fc.tx, append([]byte(nil), wire...), func(b []byte) error {
		_, err := e.conn.WriteToUDP(b, to)
		return err
	})
}

// Request implements Endpoint.
func (e *UDPEndpoint) Request(seid uint64, hasSEID bool, req Message) (Message, error) {
	peer := e.peer.Load()
	if peer == nil {
		return nil, fmt.Errorf("pfcp: no peer configured")
	}
	seq := e.seq.Add(1) & 0xffffff
	root := msgSpan(e.tracec.Load(), "pfcp.request.", req.PFCPType())
	defer root.End()
	enc := root.Child("pfcp.encode")
	wire := Marshal(req, seid, hasSEID, seq)
	enc.End()
	return e.roundTrip(root, seq, "pfcp.tx.syscall", req, func() error { return e.send(wire, peer) })
}

func (e *UDPEndpoint) readLoop() {
	buf := make([]byte, 64*1024)
	for {
		n, from, err := e.conn.ReadFromUDP(buf)
		if err != nil {
			return
		}
		fc := e.faultc.Load()
		if fc == nil {
			e.handleDatagram(buf[:n], from)
			continue
		}
		// The injector may defer processing (delay/reorder), so it gets a
		// private copy of the datagram; handleDatagram is safe to run from
		// injector timer goroutines.
		fc.inj.Transmit(fc.rx, append([]byte(nil), buf[:n]...), func(b []byte) error {
			e.handleDatagram(b, from)
			return nil
		})
	}
}

// handleDatagram dispatches one received PFCP message: responses complete
// pending requests inline — the read path must never wait on a handler —
// while requests are handed to the dispatch goroutine. Safe to run from
// injector timer goroutines, after Close too: nothing runs what is queued
// then.
func (e *UDPEndpoint) handleDatagram(data []byte, from *net.UDPAddr) {
	tk := e.tracec.Load()
	dec := tk.Start("pfcp.rx.decode")
	hdr, msg, err := Parse(data)
	dec.End()
	if err != nil {
		return
	}
	if isResponse(hdr.MsgType) {
		e.calls.Complete(hdr.Seq, msg) // false: duplicate, or nobody waits any more
		return
	}
	select {
	case e.reqs <- udpRequest{hdr: hdr, msg: msg, from: from}:
	default: // full: lost, as in flight
	}
}

// dispatch runs inbound requests in arrival order until Close. Requests
// still queued then are dropped — the peer's retransmission covers them —
// rather than dispatched into handlers whose endpoint is tearing down.
func (e *UDPEndpoint) dispatch() {
	defer close(e.stopped)
	for {
		select {
		case <-e.done:
			return
		case r := <-e.reqs:
			select {
			case <-e.done: // both were ready: Close wins
				return
			default:
			}
			e.handleRequest(r)
		}
	}
}

// handleRequest runs one inbound request on the dispatch goroutine, with
// retransmissions (same sequence number) answered from the response
// cache instead of re-running non-idempotent handlers.
func (e *UDPEndpoint) handleRequest(r udpRequest) {
	if cached, ok := e.respCache.get(r.hdr.Seq); ok {
		e.send(cached, r.from)
		return
	}
	hp := e.handler.Load()
	if hp == nil {
		return
	}
	tk := e.tracec.Load()
	hs := msgSpan(tk, "pfcp.handle.", r.hdr.MsgType)
	resp, err := (*hp)(r.hdr.SEID, r.msg)
	hs.End()
	if err != nil || resp == nil {
		return
	}
	enc := tk.Start("pfcp.resp.encode")
	wire := Marshal(resp, r.hdr.SEID, r.hdr.HasSEID, r.hdr.Seq)
	enc.End()
	e.respCache.put(r.hdr.Seq, wire)
	tx := tk.Start("pfcp.tx.syscall")
	e.send(wire, r.from)
	tx.End()
}

// Close implements Endpoint: it cancels every in-flight Request waiter
// (their retransmit timers stop via the done channel) and waits for the
// dispatch goroutine — the handler in flight, if any — so no queued
// handler runs after Close returns.
func (e *UDPEndpoint) Close() error {
	if e.closed.CompareAndSwap(false, true) {
		close(e.done)
		err := e.conn.Close()
		<-e.stopped
		return err
	}
	return nil
}

func isResponse(t uint8) bool {
	switch t {
	case MsgHeartbeatResponse, MsgAssociationSetupResponse,
		MsgSessionSetAuditResp,
		MsgSessionEstablishmentResp, MsgSessionModificationResp,
		MsgSessionDeletionResp, MsgSessionReportResp:
		return true
	}
	return false
}

// --- shared-memory endpoint (L²5GC path) ---

// memFrame is the descriptor passed between the endpoints: the message
// struct travels by pointer, never serialized.
type memFrame struct {
	seid   uint64
	seq    uint32
	isResp bool
	msg    Message
}

// MemEndpoint speaks PFCP with its peer in the same process. Requests
// reach it through a shared-memory ring (shm.Mailbox) that its handler is
// attached to and that has no goroutine of its own: a requester that finds
// the ring idle runs the handler itself, one that finds it busy queues
// behind the goroutine draining it. Responses never enter a ring — the
// responder completes the requester's pending call directly — so a
// response cannot wait behind a request whose handler is blocked (the
// head-of-line deadlock UDPEndpoint.reqs's comment describes).
type MemEndpoint struct {
	endpoint
	peer *MemEndpoint
	in   *shm.Mailbox[memFrame] // requests from peer, consumed by handleRequest

	respCache *respCache[memFrame]
	closeOnce sync.Once
}

// NewMemPair creates two connected shared-memory endpoints (SMF side, UPF
// side). ringSize bounds queued request descriptors per direction.
func NewMemPair(ringSize int) (*MemEndpoint, *MemEndpoint) {
	mk := func() *MemEndpoint {
		e := &MemEndpoint{endpoint: newEndpoint(), respCache: newRespCache[memFrame]()}
		e.in = shm.NewMailbox(ringSize, e.handleRequest)
		return e
	}
	a, b := mk(), mk()
	a.peer, b.peer = b, a
	return a, b
}

// ExportMetrics implements Endpoint. Besides the requester-side
// retransmission counters, served_inline counts the requests this
// endpoint's handler ran for on the requester's own goroutine,
// served_queued those it ran for on another requester's.
func (e *MemEndpoint) ExportMetrics(reg *metrics.Registry, prefix string) {
	e.endpoint.ExportMetrics(reg, prefix)
	reg.RegisterGauge(prefix+".served_inline", e.in.ServedInline)
	reg.RegisterGauge(prefix+".served_queued", e.in.ServedQueued)
}

// send passes one frame through the tx fault point to the peer.
func (e *MemEndpoint) send(f memFrame) error {
	fc := e.faultc.Load()
	if fc == nil {
		return e.peer.receive(f)
	}
	return fc.inj.Transmit(fc.tx, nil, func([]byte) error { return e.peer.receive(f) })
}

// receive takes one frame from the peer through the rx fault point: a
// response completes the pending request (a duplicate finds the slot
// taken, a late one finds nobody); a request enters the ring, which
// serializes it behind whatever is being handled, whichever goroutine
// brought it — the requester, or an injector timer for a delayed frame.
func (e *MemEndpoint) receive(f memFrame) error {
	fc := e.faultc.Load()
	if fc == nil {
		return e.deliver(f)
	}
	return fc.inj.Transmit(fc.rx, nil, func([]byte) error { return e.deliver(f) })
}

func (e *MemEndpoint) deliver(f memFrame) error {
	if f.isResp {
		e.calls.Complete(f.seq, f.msg)
		return nil
	}
	return e.in.Send(f)
}

// Request implements Endpoint.
func (e *MemEndpoint) Request(seid uint64, hasSEID bool, req Message) (Message, error) {
	seq := e.seq.Add(1)
	frame := memFrame{seid: seid, seq: seq, msg: req}
	root := msgSpan(e.tracec.Load(), "pfcp.request.", req.PFCPType())
	defer root.End()
	return e.roundTrip(root, seq, "pfcp.tx.shm", req, func() error { return e.send(frame) })
}

// handleRequest runs one inbound request, deduplicating retransmissions
// through the response cache. The ring serializes it: one request at a
// time, in arrival order.
func (e *MemEndpoint) handleRequest(f memFrame) {
	if cached, ok := e.respCache.get(f.seq); ok {
		e.send(cached)
		return
	}
	hp := e.handler.Load()
	if hp == nil {
		return
	}
	hs := msgSpan(e.tracec.Load(), "pfcp.handle.", f.msg.PFCPType())
	resp, err := (*hp)(f.seid, f.msg)
	hs.End()
	if err != nil || resp == nil {
		return
	}
	rf := memFrame{seid: f.seid, seq: f.seq, isResp: true, msg: resp}
	e.respCache.put(f.seq, rf)
	e.send(rf)
}

// Close implements Endpoint: every parked Request aborts via done at once,
// and the inbound ring closes — requests still queued on it are discarded
// (the peer's retransmission covers them, as for a datagram lost in
// flight) and no handler starts afterwards. A handler already running
// finishes on its requester's goroutine, which returns when it does.
func (e *MemEndpoint) Close() error {
	e.closeOnce.Do(func() {
		close(e.done)
		e.in.Close()
	})
	return nil
}
