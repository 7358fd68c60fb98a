package supervisor

import (
	"encoding/binary"
	"errors"
	"fmt"
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

// --- logged calls ---

// call stamps frame through the packet log and applies it to the active
// generation through apply, under the unit lock, so apply reads any
// result from the generation that applied the frame. When the unit is
// down (or the frame was dropped) the frame is already in the log: call
// waits out the recovery and retries the same frame against the promoted
// generation, which either replay already brought up to date or applies
// it now. Up to four attempts.
func (u *Unit) call(class resilience.Class, frame []byte, apply func(active Instance, ctr uint64) error) error {
	for attempt := 0; attempt < 4; attempt++ {
		u.mu.Lock()
		rec := u.recoveries.Load()
		active := u.active
		_, err := u.ingressLocked(class, frame, func(ctr uint64) error { return apply(active, ctr) })
		u.mu.Unlock()
		if err == nil {
			return nil
		}
		if err := u.AwaitRecovery(rec+1, 5*time.Second); err != nil {
			return err
		}
	}
	return errors.New("failed across repeated recoveries")
}

// unitConn is a consumer-side sbi.Conn that routes requests through the
// unit's packet log with Unit.call. A request applied by replay and then
// retried is answered from the promoted generation's dedup cache without
// re-executing. This is how in-flight SBI requests complete across an NF
// crash instead of erroring back to the UE.
type unitConn struct {
	u *Unit
}

// Conn returns an sbi.Conn over the unit. The unit's instances must
// answer framed SBI requests (AMFInstance, SMFInstance); Invoke panics
// otherwise.
func (u *Unit) Conn() sbi.Conn { return &unitConn{u: u} }

// Invoke implements sbi.Conn. It admits nothing: a core publishes the
// conn behind the NF's SBI admission gate, which sheds work before it is
// stamped into the packet log, so replay only re-executes admitted
// requests.
func (c *unitConn) Invoke(op sbi.OpID, req codec.Message) (codec.Message, error) {
	reqID := c.u.reqID.Add(1)
	frame, err := EncodeSBIFrame(op, reqID, req)
	if err != nil {
		return nil, err
	}
	var r sbiResult
	err = c.u.call(resilience.ULControl, frame, func(active Instance, ctr uint64) error {
		if err := active.Deliver(resilience.ULControl, ctr, frame); err != nil {
			return err
		}
		var ok bool
		if r, ok = active.(sbiResponder).Result(reqID); !ok {
			r.err = fmt.Errorf("supervisor: %s: no result cached for request %d", c.u.cfg.Name, reqID)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("supervisor: %s: request %d: %v", c.u.cfg.Name, reqID, err)
	}
	return r.resp, r.err
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
// pfcp.Endpoint: every N4 request goes through Unit.call, stamped into
// the unit's packet log before the active generation's PFCP handler runs,
// so session state is rebuildable by replay. PFCP session management is
// upsert-shaped (establish/modify by SEID), so a request applied by replay
// and then retried converges to the same rules, mirroring the real
// protocol's retransmission semantics.
type n4Endpoint struct {
	u *Unit
}

// N4 returns a pfcp.Endpoint over the unit. The unit's instances must
// be UPFInstance; Request panics otherwise.
func (u *Unit) N4() pfcp.Endpoint { return &n4Endpoint{u: u} }

// Request implements pfcp.Endpoint.
func (e *n4Endpoint) Request(seid uint64, hasSEID bool, req pfcp.Message) (pfcp.Message, error) {
	wire := pfcp.Marshal(req, seid, hasSEID, 0)
	var (
		resp pfcp.Message
		herr error
	)
	err := e.u.call(resilience.DLControl, wire, func(active Instance, _ uint64) error {
		// Handler-level rejections travel back to the SMF as the
		// response path, not as delivery failures.
		resp, herr = active.(*UPFInstance).upfc.Handle(seid, req)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("supervisor: %s: N4 request: %v", e.u.cfg.Name, err)
	}
	return resp, herr
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
