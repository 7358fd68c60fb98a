package supervisor

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"l25gc/internal/codec"
	"l25gc/internal/faults"
	"l25gc/internal/metrics"
	"l25gc/internal/pfcp"
	"l25gc/internal/pkt"
	"l25gc/internal/pktbuf"
	"l25gc/internal/resilience"
	"l25gc/internal/sbi"
	"l25gc/internal/trace"
	"l25gc/internal/upf"
)

// --- framing ---
//
// A control-plane unit's packet log carries a mix of interface traffic —
// NGAP from gNBs, SBI from peer NFs, N4 reports from the UPF — so every
// logged frame is self-describing: a one-byte kind tag followed by the
// interface-specific body. Replay dispatches on the tag, re-entering the
// same code paths the live traffic took.

// Frame kinds.
const (
	FrameSBI  byte = 1 // [kind][2B op][8B reqID][codec payload]
	FrameNGAP byte = 2 // [kind][4B gnbID][ngap wire]
	FrameN4   byte = 3 // [kind][pfcp wire]
)

// SBI requests carry a request ID that gives the receiving instance
// exactly-once semantics across failover — a request replayed from the
// log and then retried by the caller (who saw ErrUnitDown) hits the
// dedup cache instead of executing twice, the same idea as the PFCP
// responder's sequence-number dedup.

const sbiFrameHdr = 1 + 2 + 8

// EncodeSBIFrame frames one SBI request for the packet log.
func EncodeSBIFrame(op sbi.OpID, reqID uint64, req codec.Message) ([]byte, error) {
	payload, err := codec.JSON{}.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("supervisor: encode %s: %w", op.Name(), err)
	}
	b := make([]byte, sbiFrameHdr+len(payload))
	b[0] = FrameSBI
	binary.BigEndian.PutUint16(b[1:3], uint16(op))
	binary.BigEndian.PutUint64(b[3:11], reqID)
	copy(b[sbiFrameHdr:], payload)
	return b, nil
}

// DecodeSBIFrame reverses EncodeSBIFrame, allocating the op's request
// model for the payload.
func DecodeSBIFrame(data []byte) (sbi.OpID, uint64, codec.Message, error) {
	if len(data) < sbiFrameHdr || data[0] != FrameSBI {
		return 0, 0, nil, fmt.Errorf("supervisor: bad sbi frame (%d bytes)", len(data))
	}
	op := sbi.OpID(binary.BigEndian.Uint16(data[1:3]))
	reqID := binary.BigEndian.Uint64(data[3:11])
	req := op.NewRequest()
	if req == nil {
		return 0, 0, nil, fmt.Errorf("%w: %d", sbi.ErrBadOp, op)
	}
	if err := (codec.JSON{}.Unmarshal(data[sbiFrameHdr:], req)); err != nil {
		return 0, 0, nil, fmt.Errorf("supervisor: decode %s: %w", op.Name(), err)
	}
	return op, reqID, req, nil
}

// sbiResult caches one request's outcome for dedup.
type sbiResult struct {
	resp codec.Message
	err  error
}

// SBIInstance adapts a control-plane NF (its sbi.Handler plus its
// Snapshotter) to the supervisor's Instance interface. Deliver decodes
// the framed request, consults the per-instance dedup cache, and invokes
// the handler; handler-level errors are cached and reported to the
// retrying caller, not treated as delivery failures (replay continues
// past them, mirroring the original execution).
type SBIInstance struct {
	snap resilience.Snapshotter
	h    sbi.Handler

	mu   sync.Mutex
	seen map[uint64]sbiResult

	closer func() error
}

// NewSBIInstance wraps handler+snapshotter as a supervised instance.
// closer, when non-nil, is invoked once the generation is retired.
func NewSBIInstance(snap resilience.Snapshotter, h sbi.Handler, closer func() error) *SBIInstance {
	return &SBIInstance{snap: snap, h: h, seen: make(map[uint64]sbiResult), closer: closer}
}

// Snapshot implements resilience.Snapshotter.
func (i *SBIInstance) Snapshot() ([]byte, error) { return i.snap.Snapshot() }

// Restore implements resilience.Snapshotter.
func (i *SBIInstance) Restore(b []byte) error { return i.snap.Restore(b) }

// Deliver implements Instance for framed SBI requests.
//
//l25gc:replay
func (i *SBIInstance) Deliver(_ resilience.Class, _ uint64, data []byte) error {
	op, reqID, req, err := DecodeSBIFrame(data)
	if err != nil {
		return err
	}
	i.mu.Lock()
	if _, dup := i.seen[reqID]; dup {
		i.mu.Unlock()
		return nil
	}
	i.mu.Unlock()
	resp, herr := i.h(op, req)
	i.mu.Lock()
	i.seen[reqID] = sbiResult{resp: resp, err: herr}
	i.mu.Unlock()
	return nil
}

// sbiResponder is implemented by instances that can answer framed SBI
// requests (SBIInstance and the composite NF instances built on it);
// Unit.Conn requires it.
type sbiResponder interface {
	Instance
	Result(reqID uint64) (sbiResult, bool)
}

// Result returns the cached outcome for reqID.
func (i *SBIInstance) Result(reqID uint64) (sbiResult, bool) {
	i.mu.Lock()
	defer i.mu.Unlock()
	r, ok := i.seen[reqID]
	return r, ok
}

// Close implements Closer.
func (i *SBIInstance) Close() error {
	if i.closer != nil {
		return i.closer()
	}
	return nil
}

// --- unit SBI conn ---

// unitConn is a consumer-side sbi.Conn that routes requests through the
// unit's packet log. When the active instance is down the request is
// already logged: the conn waits for the supervisor to finish recovery
// and retries the identical frame — if replay already applied it, the
// promoted instance's dedup cache answers without re-executing. This is
// how in-flight SBI requests complete across an NF crash instead of
// erroring back to the UE.
type unitConn struct {
	u *Unit
}

// Conn returns an sbi.Conn over the unit. The unit's instances must be
// SBIInstance (control-plane units); Invoke panics otherwise.
func (u *Unit) Conn() sbi.Conn { return &unitConn{u: u} }

// nextReqID hands out unit-unique request IDs.
func (u *Unit) nextReqID() uint64 { return u.reqID.Add(1) }

// Invoke implements sbi.Conn. It admits nothing: a core publishes the
// conn behind the NF's SBI admission gate, which sheds work before it is
// stamped into the packet log, so replay only re-executes admitted
// requests.
func (c *unitConn) Invoke(op sbi.OpID, req codec.Message) (codec.Message, error) {
	reqID := c.u.nextReqID()
	frame, err := EncodeSBIFrame(op, reqID, req)
	if err != nil {
		return nil, err
	}
	for attempt := 0; attempt < 4; attempt++ {
		c.u.mu.Lock()
		rec := c.u.recoveries.Load()
		inst, ok := c.u.active.(sbiResponder)
		if !ok {
			c.u.mu.Unlock()
			panic("supervisor: Conn on a unit whose instances cannot answer SBI")
		}
		_, derr := c.u.ingressLocked(resilience.ULControl, frame, nil)
		c.u.mu.Unlock()
		if derr == nil {
			if r, ok := inst.Result(reqID); ok {
				return r.resp, r.err
			}
			return nil, fmt.Errorf("supervisor: %s: no result cached for request %d",
				c.u.cfg.Name, reqID)
		}
		// The unit is down (or the frame was dropped); the request is in
		// the log. Wait out the recovery and retry the same frame against
		// the promoted instance — dedup makes the retry exactly-once.
		if err := c.u.AwaitRecovery(rec+1, 5*time.Second); err != nil {
			return nil, fmt.Errorf("supervisor: %s: request %d: %v",
				c.u.cfg.Name, reqID, err)
		}
	}
	return nil, fmt.Errorf("supervisor: %s: request %d failed across repeated recoveries",
		c.u.cfg.Name, reqID)
}

// Close implements sbi.Conn (the unit owns instance lifecycles).
func (c *unitConn) Close() error { return nil }

// EncodeNGAPFrame frames one inbound NGAP message for the packet log,
// preserving the originating RAN node identity for replay.
func EncodeNGAPFrame(gnbID uint32, wire []byte) []byte {
	b := make([]byte, 5+len(wire))
	b[0] = FrameNGAP
	binary.BigEndian.PutUint32(b[1:5], gnbID)
	copy(b[5:], wire)
	return b
}

// DecodeNGAPFrame reverses EncodeNGAPFrame.
func DecodeNGAPFrame(data []byte) (uint32, []byte, error) {
	if len(data) < 5 || data[0] != FrameNGAP {
		return 0, nil, fmt.Errorf("supervisor: bad ngap frame (%d bytes)", len(data))
	}
	return binary.BigEndian.Uint32(data[1:5]), data[5:], nil
}

// EncodeN4Frame frames one inbound N4 (PFCP) request for the packet log.
func EncodeN4Frame(wire []byte) []byte {
	b := make([]byte, 1+len(wire))
	b[0] = FrameN4
	copy(b[1:], wire)
	return b
}

// DecodeN4Frame reverses EncodeN4Frame.
func DecodeN4Frame(data []byte) ([]byte, error) {
	if len(data) < 1 || data[0] != FrameN4 {
		return nil, fmt.Errorf("supervisor: bad n4 frame (%d bytes)", len(data))
	}
	return data[1:], nil
}

// --- unit N4 endpoint ---

// n4Endpoint adapts a supervised UPF unit to the SMF side of
// pfcp.Endpoint: every N4 request is stamped through the unit's packet
// log before the active generation's PFCP handler runs, so session
// state is rebuildable by replay. On ErrUnitDown the request is already
// logged; the endpoint waits out the recovery and retries — PFCP
// session management is upsert-shaped (establish/modify by SEID), so a
// request applied by replay and then retried converges to the same
// rules, mirroring the real protocol's retransmission semantics.
type n4Endpoint struct {
	u *Unit
}

// N4 returns a pfcp.Endpoint over the unit. The unit's instances must
// be UPFInstance; Request panics otherwise.
func (u *Unit) N4() pfcp.Endpoint { return &n4Endpoint{u: u} }

// Request implements pfcp.Endpoint.
func (e *n4Endpoint) Request(seid uint64, hasSEID bool, req pfcp.Message) (pfcp.Message, error) {
	wire := pfcp.Marshal(req, seid, hasSEID, 0)
	for attempt := 0; attempt < 4; attempt++ {
		e.u.mu.Lock()
		rec := e.u.recoveries.Load()
		inst, ok := e.u.active.(*UPFInstance)
		if !ok {
			e.u.mu.Unlock()
			panic("supervisor: N4 on a unit whose instances are not UPFs")
		}
		var (
			resp pfcp.Message
			herr error
		)
		_, derr := e.u.ingressLocked(resilience.DLControl, wire, func() error {
			// Handler-level rejections travel back to the SMF as the
			// response path, not as delivery failures.
			resp, herr = inst.upfc.Handle(seid, req)
			return nil
		})
		e.u.mu.Unlock()
		if derr == nil {
			return resp, herr
		}
		if err := e.u.AwaitRecovery(rec+1, 5*time.Second); err != nil {
			return nil, fmt.Errorf("supervisor: %s: N4 request: %v", e.u.cfg.Name, err)
		}
	}
	return nil, fmt.Errorf("supervisor: %s: N4 request failed across repeated recoveries", e.u.cfg.Name)
}

// SetHandler implements pfcp.Endpoint. Session reports (UPF->SMF)
// travel the instances' own endpoints, not this adapter; the handler is
// accepted and ignored.
func (e *n4Endpoint) SetHandler(pfcp.Handler) {}

// SetRetry implements pfcp.Endpoint (recovery-retry replaces T1/N1).
func (e *n4Endpoint) SetRetry(pfcp.RetryConfig) {}

// SetInjector implements pfcp.Endpoint (faults apply at unit ingress).
func (e *n4Endpoint) SetInjector(*faults.Injector, string) {}

// SetTracer implements pfcp.Endpoint.
func (e *n4Endpoint) SetTracer(*trace.Track) {}

// ExportMetrics implements pfcp.Endpoint.
func (e *n4Endpoint) ExportMetrics(*metrics.Registry, string) {}

// Close implements pfcp.Endpoint (the unit owns instance lifecycles).
func (e *n4Endpoint) Close() error { return nil }

// --- UPF instance ---

// UPFInstance is one generation of a supervised UPF: its own session
// state, control handler, and fast path. Control-class deliveries are
// PFCP session management; data-class deliveries run the GTP fast path.
// Snapshot/Restore reuse the resilience.UPFSnapshotter wire format, so a
// promoted generation is rebuilt by replaying the establishment stream.
type UPFInstance struct {
	state *upf.State
	upfc  *upf.UPFC
	upfu  *upf.UPFU
	pool  *pktbuf.Pool
	snap  *resilience.UPFSnapshotter

	forwarded atomic.Uint64
}

// NewUPFInstance builds a fresh UPF generation anchored at n3.
func NewUPFInstance(n3 pkt.Addr) *UPFInstance {
	st := upf.NewState("ps", 0)
	c := upf.NewUPFC(st, n3, nil)
	u := &UPFInstance{
		state: st,
		upfc:  c,
		upfu:  upf.NewUPFU(st, c),
		pool:  pktbuf.NewPool(4096, "supervised-upf"),
		snap:  resilience.NewUPFSnapshotter(st, n3),
	}
	u.upfu.SetEmit(u.emit, u.pool)
	return u
}

// emit is the UPF-U's egress for a session buffer released by a
// buffer→forward flip: the same fate as a packet Deliver runs through the
// fast path, counted if it reached the egress port, then released.
func (u *UPFInstance) emit(burst []*pktbuf.Buf) int {
	for _, b := range burst {
		u.egress(b)
	}
	return len(burst)
}

// egress counts a descriptor the fast path handed back if it is headed for
// a port, and releases it.
func (u *UPFInstance) egress(b *pktbuf.Buf) {
	if b.Meta.Action == pktbuf.ActionToPort {
		u.forwarded.Add(1)
	}
	b.Release()
}

// State exposes the generation's session state for assertions.
func (u *UPFInstance) State() *upf.State { return u.state }

// Forwarded reports fast-path packets that reached the egress port.
func (u *UPFInstance) Forwarded() uint64 { return u.forwarded.Load() }

// Snapshot implements resilience.Snapshotter.
func (u *UPFInstance) Snapshot() ([]byte, error) { return u.snap.Snapshot() }

// Restore implements resilience.Snapshotter.
func (u *UPFInstance) Restore(b []byte) error { return u.snap.Restore(b) }

// Deliver implements Instance: PFCP for control classes, the GTP fast
// path for data classes.
//
//l25gc:replay
func (u *UPFInstance) Deliver(class resilience.Class, _ uint64, data []byte) error {
	switch class {
	case resilience.ULControl, resilience.DLControl:
		hdr, msg, err := pfcp.Parse(data)
		if err != nil {
			return err
		}
		seid := hdr.SEID
		if m, ok := msg.(*pfcp.SessionEstablishmentRequest); ok {
			seid = m.CPSEID
		}
		_, err = u.upfc.Handle(seid, msg)
		return err
	default:
		buf, err := u.pool.Get()
		if err != nil {
			return err
		}
		if err := buf.SetData(data); err != nil {
			buf.Release()
			return err
		}
		buf.Meta.Uplink = class == resilience.ULData
		var scratch pkt.Parsed
		if u.upfu.Process(buf, &scratch) {
			u.egress(buf)
		}
		return nil
	}
}
