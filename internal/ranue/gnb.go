// Package ranue is the custom UE & RAN simulator of §5.1.1: gNBs speak
// NGAP to the AMF over a message-framed stream (the SCTP substitute) and
// GTP-U to the UPF through the core's data-plane surface; UEs run the
// client side of the four control events — registration, PDU session
// establishment, N2 handover, and paging — with timing hooks for the
// evaluation harness. The radio channel itself is not modelled, exactly
// as in the paper's simulator.
package ranue

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"l25gc/internal/gtp"
	"l25gc/internal/ngap"
	"l25gc/internal/pkt"
)

// DataPlane is the core's N3 surface as seen by a gNB. Frames are lent in
// both directions: SendUL has copied what it needs of frame when it
// returns, and sink may use its frame only until it returns.
type DataPlane interface {
	SendUL(frame []byte) error
	AttachGNB(addr pkt.Addr, sink func(frame []byte)) error
}

// attachment is one UE's RAN-side state at a gNB.
type attachment struct {
	ue      *UE
	ranUeID uint64
	amfUeID uint64
	dlTEID  uint32 // gNB-allocated DL tunnel
	upfTEID uint32 // UPF UL tunnel
	active  bool
}

// GNB is one simulated base station.
type GNB struct {
	ID   uint32
	Addr pkt.Addr

	conn *ngap.Conn
	dp   DataPlane

	// mu belongs to the N2 side, which edits the maps. The DL data path
	// takes no lock: its one lookup per frame is in byDlTEID, a sync.Map
	// (DL TEID -> *UE) whose reads are lock-free and whose writes touch
	// one entry.
	mu        sync.Mutex
	byRanUeID map[uint64]*attachment
	byAmfUeID map[uint64]*attachment
	byDlTEID  sync.Map
	camped    map[*UE]struct{} // idle/connected UEs in this cell (paging targets)

	nextRanUeID atomic.Uint64
	nextTEID    atomic.Uint32

	setupDone chan struct{}
	closed    atomic.Bool
	wg        sync.WaitGroup

	// BufferCap bounds DL packets parked at this gNB during a 3GPP-style
	// handover (the limited base-station buffer of Challenge 2). Only used
	// by experiments that emulate source-gNB buffering.
	BufferCap int
}

// NewGNB connects a gNB to the AMF (n2Addr) and the data plane.
func NewGNB(id uint32, addr pkt.Addr, n2Addr string, dp DataPlane) (*GNB, error) {
	conn, err := ngap.Dial(n2Addr)
	if err != nil {
		return nil, err
	}
	g := &GNB{
		ID: id, Addr: addr, conn: conn, dp: dp,
		byRanUeID: make(map[uint64]*attachment),
		byAmfUeID: make(map[uint64]*attachment),
		camped:    make(map[*UE]struct{}),
		setupDone: make(chan struct{}),
		BufferCap: 1300, // ~2MB of MTU packets (paper §2.3)
	}
	g.nextTEID.Store(uint32(id) << 16)
	if err := dp.AttachGNB(addr, g.handleDLFrame); err != nil {
		conn.Close()
		return nil, err
	}
	g.wg.Add(1)
	go g.n2Loop()
	if err := conn.Send(&ngap.NGSetupRequest{GnbID: id, GnbName: fmt.Sprintf("gnb-%d", id), Tac: 1}); err != nil {
		conn.Close()
		return nil, err
	}
	if !await(g.setupDone, 3*time.Second) {
		conn.Close()
		return nil, fmt.Errorf("ranue: NG setup timed out")
	}
	return g, nil
}

// Close tears the gNB down.
func (g *GNB) Close() error {
	if !g.closed.CompareAndSwap(false, true) {
		return nil
	}
	g.conn.Close()
	g.wg.Wait()
	return nil
}

func (g *GNB) attach(ue *UE) *attachment {
	at := &attachment{ue: ue, ranUeID: g.nextRanUeID.Add(1)}
	g.mu.Lock()
	g.byRanUeID[at.ranUeID] = at
	g.camped[ue] = struct{}{}
	g.mu.Unlock()
	return at
}

func (g *GNB) byRan(id uint64) *attachment {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.byRanUeID[id]
}

// bindAmfUeID records the AMF-assigned UE ID on an attachment and
// returns its UE, all under the lock: the UE pointer is nil while a
// handover-target attachment awaits the UE's arrival, and amfUeID is
// written concurrently with completeArrival.
func (g *GNB) bindAmfUeID(ranUeID, amfUeID uint64) *UE {
	g.mu.Lock()
	defer g.mu.Unlock()
	at := g.byRanUeID[ranUeID]
	if at == nil {
		return nil
	}
	at.amfUeID = amfUeID
	g.byAmfUeID[amfUeID] = at
	return at.ue
}

// n2Loop dispatches NGAP messages from the AMF.
func (g *GNB) n2Loop() {
	defer g.wg.Done()
	for {
		msg, err := g.conn.Recv()
		if err != nil {
			return
		}
		switch m := msg.(type) {
		case *ngap.NGSetupResponse:
			select {
			case <-g.setupDone:
			default:
				close(g.setupDone)
			}
		case *ngap.DownlinkNASTransport:
			if ue := g.bindAmfUeID(m.RanUeID, m.AmfUeID); ue != nil {
				ue.deliverNAS(m.NasPdu)
			}
		case *ngap.InitialContextSetupRequest:
			if ue := g.bindAmfUeID(m.RanUeID, m.AmfUeID); ue != nil {
				g.conn.Send(&ngap.InitialContextSetupResponse{RanUeID: m.RanUeID, AmfUeID: m.AmfUeID})
				ue.deliverNAS(m.NasPdu)
			}
		case *ngap.PDUSessionResourceSetupRequest:
			g.handleResourceSetup(m)
		case *ngap.Paging:
			g.mu.Lock()
			ues := make([]*UE, 0, len(g.camped))
			for ue := range g.camped {
				ues = append(ues, ue)
			}
			g.mu.Unlock()
			for _, ue := range ues {
				ue.deliverPaging(m.Guti)
			}
		case *ngap.HandoverRequest:
			g.handleHandoverRequest(m)
		case *ngap.HandoverCommand:
			g.mu.Lock()
			var ue *UE
			if at := g.byRanUeID[m.RanUeID]; at != nil {
				ue = at.ue
			}
			g.mu.Unlock()
			if ue != nil {
				ue.deliverHandoverCommand(m.TargetGnbID)
			}
		case *ngap.UEContextReleaseCommand:
			g.mu.Lock()
			var ue *UE
			if at := g.byRanUeID[m.RanUeID]; at != nil {
				delete(g.byRanUeID, m.RanUeID)
				delete(g.byAmfUeID, at.amfUeID)
				g.byDlTEID.Delete(at.dlTEID)
				// The UE stays camped on the cell for paging; it only
				// leaves the camped set when it hands over away (uncamp).
				// at.ue is nil when a release races a handover arrival
				// (the attachment is pre-created, the UE binds later).
				ue = at.ue
			}
			g.mu.Unlock()
			g.conn.Send(&ngap.UEContextReleaseComplete{RanUeID: m.RanUeID})
			if ue != nil {
				ue.deliverRelease()
			}
		}
	}
}

// handleResourceSetup installs the N3 tunnel for a session and answers
// with the gNB-chosen DL TEID.
func (g *GNB) handleResourceSetup(m *ngap.PDUSessionResourceSetupRequest) {
	at := g.byRan(m.RanUeID)
	if at == nil {
		return
	}
	at.amfUeID = m.AmfUeID
	at.upfTEID = m.UpfTEID
	at.active = true
	g.mu.Lock()
	g.byAmfUeID[m.AmfUeID] = at
	g.byDlTEID.Delete(at.dlTEID) // a repeated setup replaces the tunnel
	at.dlTEID = g.nextTEID.Add(1)
	if at.ue != nil {
		g.byDlTEID.Store(at.dlTEID, at.ue)
	}
	g.mu.Unlock()
	g.conn.Send(&ngap.PDUSessionResourceSetupResponse{
		RanUeID: m.RanUeID, PduSessionID: m.PduSessionID,
		GnbTEID: at.dlTEID, GnbAddr: g.Addr.String(),
	})
	if len(m.NasPdu) > 0 {
		at.ue.deliverNAS(m.NasPdu)
	}
}

// handleHandoverRequest admits a UE handed over from another gNB.
func (g *GNB) handleHandoverRequest(m *ngap.HandoverRequest) {
	// The UE object is found when it arrives (completeArrival, which also
	// enters the DL tunnel into byDlTEID); pre-create the attachment.
	at := &attachment{
		ranUeID: g.nextRanUeID.Add(1),
		amfUeID: m.AmfUeID,
		upfTEID: m.UpfTEID,
		dlTEID:  g.nextTEID.Add(1),
	}
	g.mu.Lock()
	g.byRanUeID[at.ranUeID] = at
	g.byAmfUeID[m.AmfUeID] = at
	g.mu.Unlock()
	g.conn.Send(&ngap.HandoverRequestAck{
		AmfUeID: m.AmfUeID, NewRanUeID: at.ranUeID,
		GnbTEID: at.dlTEID, GnbAddr: g.Addr.String(),
	})
}

// completeArrival binds an arriving UE to its pre-created attachment and
// notifies the AMF (HandoverNotify).
func (g *GNB) completeArrival(ue *UE, amfUeID uint64) (*attachment, error) {
	g.mu.Lock()
	at := g.byAmfUeID[amfUeID]
	if at != nil {
		at.ue = ue
		at.active = true
		g.camped[ue] = struct{}{}
		g.byDlTEID.Store(at.dlTEID, ue)
	}
	g.mu.Unlock()
	if at == nil {
		return nil, fmt.Errorf("ranue: no handover context at gNB %d", g.ID)
	}
	return at, g.conn.Send(&ngap.HandoverNotify{AmfUeID: amfUeID, RanUeID: at.ranUeID})
}

// detach drops a never-completed attachment (a rejected registration):
// the RAN-side IDs are released so a storm of shed-and-retried attaches
// does not accumulate state at the gNB.
func (g *GNB) detach(at *attachment) {
	g.mu.Lock()
	delete(g.byRanUeID, at.ranUeID)
	if g.byAmfUeID[at.amfUeID] == at {
		delete(g.byAmfUeID, at.amfUeID)
	}
	g.byDlTEID.Delete(at.dlTEID)
	g.mu.Unlock()
}

// uncamp removes a UE from this cell's paging set (it moved away).
func (g *GNB) uncamp(ue *UE) {
	g.mu.Lock()
	delete(g.camped, ue)
	g.mu.Unlock()
}

// handleDLFrame decapsulates a DL GTP frame and delivers the inner IP
// packet to the owning UE. The frame is borrowed from the data plane for
// the duration of the call: it is decapsulated in place and the UE is
// lent the inner packet as a sub-slice of it, uncopied.
func (g *GNB) handleDLFrame(frame []byte) {
	var h gtp.Header
	inner, err := h.Decode(frame)
	if err != nil || h.MsgType != gtp.MsgGPDU {
		return
	}
	if ue, ok := g.byDlTEID.Load(h.TEID); ok {
		ue.(*UE).deliverData(inner)
	}
}

// ulScratch holds the frames sendUL builds UL packets in.
var ulScratch = sync.Pool{New: func() any { return new([]byte) }}

// sendUL builds one UL IP/UDP packet for an attachment behind its GTP-U
// header and transmits it. The frame is a pooled scratch slice: the data
// plane has copied it by the time SendUL returns.
func (g *GNB) sendUL(at *attachment, src, dst pkt.Addr, sport, dport uint16, payload []byte) error {
	h := gtp.Header{MsgType: gtp.MsgGPDU, TEID: at.upfTEID, HasQFI: true, QFI: 9, PDUType: 1}
	hn := h.HeaderSize()
	need := hn + pkt.IPv4MinLen + pkt.UDPLen + len(payload)
	bp := ulScratch.Get().(*[]byte)
	defer ulScratch.Put(bp)
	if cap(*bp) < need {
		*bp = make([]byte, need)
	}
	frame := (*bp)[:need]
	n, err := pkt.BuildUDPv4(frame[hn:], src, dst, sport, dport, 0, payload)
	if err != nil {
		return err
	}
	if _, err := h.Encode(frame, n); err != nil {
		return err
	}
	return g.dp.SendUL(frame[:hn+n])
}
