package ranue

import (
	"fmt"
	"sync"
	"time"

	"l25gc/internal/nas"
	"l25gc/internal/nf/udm"
	"l25gc/internal/ngap"
	"l25gc/internal/pkt"
)

// EventTimes records the control-event completion times a UE measured,
// the quantities plotted in Fig. 8.
type EventTimes struct {
	Registration time.Duration
	Session      time.Duration
	Handover     time.Duration
	Paging       time.Duration
}

// UE is one simulated device.
type UE struct {
	Supi string
	K    []byte
	Opc  []byte

	mu   sync.RWMutex // shared by the DL data path (one read of OnData per packet)
	gnb  *GNB
	at   *attachment
	guti string
	ueIP pkt.Addr
	idle bool

	pduSessionID uint32

	nasIn     chan nas.Message
	pagingIn  chan string
	hoCmdIn   chan uint32
	releaseIn chan struct{}

	// OnData receives decapsulated DL IP packets while connected. It
	// borrows the slice — a piece of the data plane's packet buffer, valid
	// until the hook returns — and copies what it keeps. The delivering
	// goroutine reads the field under a shared hold of the UE's lock, which
	// orders the read after any UE call (SendUplink, ...) made since the
	// field was set: set it before traffic flows, or from inside the hook.
	OnData func(ipPkt []byte)

	Times EventTimes
}

// ueTimeout bounds every control-plane wait.
const ueTimeout = 5 * time.Second

// NewUE creates a UE with its SIM credentials.
func NewUE(supi string, k, opc []byte) *UE {
	return &UE{
		Supi: supi, K: k, Opc: opc,
		nasIn:     make(chan nas.Message, 16),
		pagingIn:  make(chan string, 4),
		hoCmdIn:   make(chan uint32, 4),
		releaseIn: make(chan struct{}, 4),
	}
}

// delivery hooks called from the gNB's N2 loop.

func (u *UE) deliverNAS(pdu []byte) {
	m, err := nas.Unmarshal(pdu)
	if err != nil {
		return
	}
	select {
	case u.nasIn <- m:
	default:
	}
}

func (u *UE) deliverPaging(guti string) {
	u.mu.Lock()
	mine := guti == u.guti
	u.mu.Unlock()
	if mine {
		select {
		case u.pagingIn <- guti:
		default:
		}
	}
}

func (u *UE) deliverHandoverCommand(target uint32) {
	select {
	case u.hoCmdIn <- target:
	default:
	}
}

func (u *UE) deliverRelease() {
	select {
	case u.releaseIn <- struct{}{}:
	default:
	}
}

// deliverData lends the UE a DL packet for the duration of its hook.
func (u *UE) deliverData(ipPkt []byte) {
	u.mu.RLock()
	fn := u.OnData
	u.mu.RUnlock()
	if fn != nil {
		fn(ipPkt)
	}
}

// await waits up to d for a value on ch. The timer is stopped on return:
// under go 1.22 an un-stopped time.After timer stays on the heap until it
// fires, and a churning UE population parks seconds' worth of them.
func await[T any](ch <-chan T, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ch:
		return true
	case <-t.C:
		return false
	}
}

func (u *UE) waitNAS(want nas.MsgType) (nas.Message, error) {
	deadline := time.NewTimer(ueTimeout)
	defer deadline.Stop()
	for {
		select {
		case m := <-u.nasIn:
			if m.NASType() == want {
				return m, nil
			}
			// A reject with a backoff timer is congestion pushback, not a
			// protocol error: surface it typed so callers can wait it out.
			if be := backoffFromNAS(m); be != nil {
				return nil, be
			}
			// Out-of-order NAS for this simple UE is a protocol error.
			return nil, fmt.Errorf("ranue: expected NAS %d, got %d", want, m.NASType())
		case <-deadline.C:
			return nil, fmt.Errorf("ranue: timed out waiting for NAS %d", want)
		}
	}
}

// Register attaches the UE at gNB g and runs the full 3GPP registration:
// identification, 5G-AKA, security mode, registration accept. It returns
// the event completion time (a Fig. 8 quantity).
func (u *UE) Register(g *GNB) (time.Duration, error) {
	start := time.Now()
	at := g.attach(u)
	u.mu.Lock()
	u.gnb = g
	u.at = at
	u.mu.Unlock()

	pdu, _ := nas.Marshal(&nas.RegistrationRequest{Suci: u.Supi, Capabilities: 0xf})
	if err := g.conn.Send(&ngap.InitialUEMessage{RanUeID: at.ranUeID, NasPdu: pdu}); err != nil {
		return 0, err
	}
	m, err := u.waitNAS(nas.MsgAuthenticationRequest)
	if err != nil {
		// A shed registration must not leave RAN-side state behind: the
		// UE re-attaches from scratch after its backoff.
		if _, rejected := AsBackoff(err); rejected {
			g.detach(at)
			g.uncamp(u)
		}
		return 0, err
	}
	auth := m.(*nas.AuthenticationRequest)
	res := udm.DeriveRes(u.K, auth.Rand)
	pdu, _ = nas.Marshal(&nas.AuthenticationResponse{ResStar: res})
	if err := g.conn.Send(&ngap.UplinkNASTransport{RanUeID: at.ranUeID, AmfUeID: at.amfUeID, NasPdu: pdu}); err != nil {
		return 0, err
	}
	if _, err := u.waitNAS(nas.MsgSecurityModeCommand); err != nil {
		return 0, err
	}
	pdu, _ = nas.Marshal(&nas.SecurityModeComplete{IMEISV: "imeisv-" + u.Supi})
	if err := g.conn.Send(&ngap.UplinkNASTransport{RanUeID: at.ranUeID, AmfUeID: at.amfUeID, NasPdu: pdu}); err != nil {
		return 0, err
	}
	m, err = u.waitNAS(nas.MsgRegistrationAccept)
	if err != nil {
		return 0, err
	}
	acc := m.(*nas.RegistrationAccept)
	u.mu.Lock()
	u.guti = acc.Guti
	u.mu.Unlock()
	pdu, _ = nas.Marshal(&nas.RegistrationComplete{Ack: true})
	if err := g.conn.Send(&ngap.UplinkNASTransport{RanUeID: at.ranUeID, AmfUeID: at.amfUeID, NasPdu: pdu}); err != nil {
		return 0, err
	}
	u.Times.Registration = time.Since(start)
	return u.Times.Registration, nil
}

// EstablishSession runs the PDU session request event and returns its
// completion time. The session is usable when this returns: the gNB
// tunnel is installed and the UPF's DL path is activated.
func (u *UE) EstablishSession(pduSessionID uint32, dnn string) (time.Duration, error) {
	u.mu.Lock()
	g, at := u.gnb, u.at
	u.mu.Unlock()
	if g == nil {
		return 0, fmt.Errorf("ranue: UE not registered")
	}
	start := time.Now()
	u.pduSessionID = pduSessionID
	pdu, _ := nas.Marshal(&nas.PDUSessionEstablishmentRequest{PduSessionID: pduSessionID, Dnn: dnn, SscMode: 1})
	if err := g.conn.Send(&ngap.UplinkNASTransport{RanUeID: at.ranUeID, AmfUeID: at.amfUeID, NasPdu: pdu}); err != nil {
		return 0, err
	}
	m, err := u.waitNAS(nas.MsgPDUSessionEstablishmentAccept)
	if err != nil {
		return 0, err
	}
	acc := m.(*nas.PDUSessionEstablishmentAccept)
	ip, err := parseIPv4(acc.UeIPv4)
	if err != nil {
		return 0, err
	}
	u.mu.Lock()
	u.ueIP = ip
	u.mu.Unlock()
	u.Times.Session = time.Since(start)
	return u.Times.Session, nil
}

// IP returns the UE's session address.
func (u *UE) IP() pkt.Addr {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.ueIP
}

// Guti returns the temporary identity assigned at registration.
func (u *UE) Guti() string {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.guti
}

// SendUplink transmits one application payload to dst over the session.
func (u *UE) SendUplink(dst pkt.Addr, sport, dport uint16, payload []byte) error {
	u.mu.Lock()
	g, at, ip := u.gnb, u.at, u.ueIP
	u.mu.Unlock()
	if g == nil || at == nil || !at.active {
		return fmt.Errorf("ranue: no active session")
	}
	return g.sendUL(at, ip, dst, sport, dport, payload)
}

// GoIdle releases the RAN connection (idle-active transition, battery
// saving): the gNB asks the AMF to release, the SMF arms UPF buffering.
func (u *UE) GoIdle() error {
	u.mu.Lock()
	g, at := u.gnb, u.at
	u.mu.Unlock()
	if g == nil || at == nil {
		return fmt.Errorf("ranue: not attached")
	}
	if err := g.conn.Send(&ngap.UEContextReleaseRequest{
		RanUeID: at.ranUeID, AmfUeID: at.amfUeID, Cause: "user-inactivity",
	}); err != nil {
		return err
	}
	if !await(u.releaseIn, ueTimeout) {
		return fmt.Errorf("ranue: release timed out")
	}
	u.mu.Lock()
	u.idle = true
	u.at.active = false
	u.mu.Unlock()
	return nil
}

// AwaitPagingAndReconnect blocks until the network pages the UE, then runs
// the service-request procedure (idle->active). It returns the paging
// event time: from paging reception to the session being active again.
func (u *UE) AwaitPagingAndReconnect(timeout time.Duration) (time.Duration, error) {
	if !await(u.pagingIn, timeout) {
		return 0, fmt.Errorf("ranue: no paging within %v", timeout)
	}
	start := time.Now()
	u.mu.Lock()
	g := u.gnb
	u.mu.Unlock()
	// Re-attach at the gNB with a fresh RAN UE ID.
	at := g.attach(u)
	u.mu.Lock()
	u.at = at
	u.mu.Unlock()
	pdu, _ := nas.Marshal(&nas.ServiceRequest{Guti: u.Guti(), PduSessionID: u.pduSessionID})
	if err := g.conn.Send(&ngap.InitialUEMessage{RanUeID: at.ranUeID, NasPdu: pdu}); err != nil {
		return 0, err
	}
	if _, err := u.waitNAS(nas.MsgServiceAccept); err != nil {
		return 0, err
	}
	u.mu.Lock()
	u.idle = false
	u.mu.Unlock()
	u.Times.Paging = time.Since(start)
	return u.Times.Paging, nil
}

// Handover runs the N2 handover to the target gNB and returns the event
// completion time: from HandoverRequired to the UE active at the target
// with the UPF path switched (release of the source context).
func (u *UE) Handover(target *GNB) (time.Duration, error) {
	u.mu.Lock()
	src, at := u.gnb, u.at
	u.mu.Unlock()
	if src == nil || at == nil {
		return 0, fmt.Errorf("ranue: not attached")
	}
	start := time.Now()
	if err := src.conn.Send(&ngap.HandoverRequired{
		RanUeID: at.ranUeID, AmfUeID: at.amfUeID,
		TargetGnbID: target.ID, Cause: "radio-quality",
	}); err != nil {
		return 0, err
	}
	if !await(u.hoCmdIn, ueTimeout) {
		return 0, fmt.Errorf("ranue: handover command timed out")
	}
	// UE detaches from the source cell and synchronizes with the target
	// (mmWave beam alignment, 1-10 ms per [39]; not modelled, as in the
	// paper's simulator).
	newAt, err := target.completeArrival(u, at.amfUeID)
	if err != nil {
		return 0, err
	}
	u.mu.Lock()
	u.gnb = target
	u.at = newAt
	u.mu.Unlock()
	src.uncamp(u)
	// The handover is complete for the UE once the source context is
	// released — which the AMF orders only after the UPF path switch.
	if !await(u.releaseIn, ueTimeout) {
		return 0, fmt.Errorf("ranue: source release timed out")
	}
	u.Times.Handover = time.Since(start)
	return u.Times.Handover, nil
}

// Deregister detaches the UE from the network: the AMF releases the SM
// context (tearing the UPF session down) and orders the gNB context
// release. The UE is unusable afterwards until a fresh Register.
func (u *UE) Deregister() error {
	u.mu.Lock()
	g, at := u.gnb, u.at
	u.mu.Unlock()
	if g == nil || at == nil {
		return fmt.Errorf("ranue: not attached")
	}
	pdu, _ := nas.Marshal(&nas.DeregistrationRequest{Guti: u.Guti()})
	if err := g.conn.Send(&ngap.UplinkNASTransport{RanUeID: at.ranUeID, AmfUeID: at.amfUeID, NasPdu: pdu}); err != nil {
		return err
	}
	if !await(u.releaseIn, ueTimeout) {
		return fmt.Errorf("ranue: deregistration release timed out")
	}
	g.uncamp(u)
	u.mu.Lock()
	u.gnb, u.at = nil, nil
	u.guti = ""
	u.mu.Unlock()
	return nil
}

func parseIPv4(s string) (pkt.Addr, error) {
	var a pkt.Addr
	var b [4]int
	if _, err := fmt.Sscanf(s, "%d.%d.%d.%d", &b[0], &b[1], &b[2], &b[3]); err != nil {
		return a, fmt.Errorf("ranue: bad IPv4 %q: %w", s, err)
	}
	for i, v := range b {
		if v < 0 || v > 255 {
			return a, fmt.Errorf("ranue: bad IPv4 %q", s)
		}
		a[i] = byte(v)
	}
	return a, nil
}
