package upf

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"l25gc/internal/overload"
	"l25gc/internal/pfcp"
	"l25gc/internal/pkt"
	"l25gc/internal/rules"
)

// UPFC is the UPF control-plane component: it terminates the N4 (PFCP)
// association and translates session management messages into the shared
// session state that UPF-U forwards from.
type UPFC struct {
	state *State
	n3IP  pkt.Addr // local N3 address advertised in F-TEIDs
	ep    pfcp.Endpoint

	drain atomic.Pointer[func(*SessCtx)] // buffer-release hook installed by UPF-U

	ctrl atomic.Pointer[overload.Controller]
	// clock supplies monotonic elapsed time for the establishment-latency
	// samples fed to the overload controller (injectable; same idiom as
	// UPFU.nowNano).
	clock func() time.Duration

	// recoveryTS is this UPF incarnation's recovery timestamp, advertised
	// in heartbeat and association responses; a restarted UPF advertises a
	// new value so the SMF knows its session table is empty.
	recoveryTS atomic.Uint32
	// peerNodeID/peerTS track the CP function that last associated, so a
	// restarted SMF (new RecoveryTimestamp) is visible in metrics.
	assocMu    sync.Mutex
	peerNodeID string
	peerTS     uint32
	assocs     atomic.Uint64
}

// SetOverload installs (or, with nil, removes) the admission controller
// throttling N4 session establishment: shed establishments answer with
// CauseCongestion instead of growing the session table unboundedly.
// Deletions and modifications are never throttled (the drain invariant).
func (c *UPFC) SetOverload(ctrl *overload.Controller) {
	if ctrl == nil {
		c.ctrl.Store(nil)
		return
	}
	c.ctrl.Store(ctrl)
}

// NewUPFC creates the control part over the shared state. ep is the N4
// endpoint toward the SMF (UDP in free5GC mode, shared memory in L²5GC
// mode); it may be nil for tests that drive the handler directly.
func NewUPFC(state *State, n3IP pkt.Addr, ep pfcp.Endpoint) *UPFC {
	c := &UPFC{state: state, n3IP: n3IP, ep: ep}
	base := time.Now()
	c.clock = func() time.Duration { return time.Since(base) }
	c.recoveryTS.Store(1)
	if ep != nil {
		ep.SetHandler(c.Handle)
	}
	return c
}

// SetRecoveryTimestamp installs this incarnation's recovery timestamp
// (deterministic harnesses inject epoch numbers; a UPF restart bumps it).
func (c *UPFC) SetRecoveryTimestamp(ts uint32) { c.recoveryTS.Store(ts) }

// RecoveryTimestamp returns the advertised recovery timestamp.
func (c *UPFC) RecoveryTimestamp() uint32 { return c.recoveryTS.Load() }

// PeerNodeID returns the Node ID of the last CP function that associated.
func (c *UPFC) PeerNodeID() string {
	c.assocMu.Lock()
	defer c.assocMu.Unlock()
	return c.peerNodeID
}

// SetClock replaces the monotonic clock behind overload latency samples
// (simulated-time harnesses inject theirs before traffic starts).
func (c *UPFC) SetClock(clock func() time.Duration) { c.clock = clock }

// OnDrain installs the hook invoked when a session's buffer must be
// released (FAR flipped from buffer to forward), replacing any earlier
// one: the UPF-U over this UPF-C installs its DrainSession here.
func (c *UPFC) OnDrain(fn func(*SessCtx)) { c.drain.Store(&fn) }

// ReportDL sends a PFCP Session Report (DL data notification) toward the
// SMF; this is the paging trigger. Called by UPF-U on the first buffered
// packet of an episode.
func (c *UPFC) ReportDL(ctx *SessCtx, pdrID uint32) error {
	if c.ep == nil {
		return nil
	}
	_, err := c.ep.Request(ctx.Sess.SEID, true, &pfcp.SessionReportRequest{
		ReportType: pfcp.ReportDLDR,
		PDRID:      pdrID,
	})
	return err
}

// Handle is the PFCP request handler (installed on the N4 endpoint).
func (c *UPFC) Handle(seid uint64, req pfcp.Message) (pfcp.Message, error) {
	switch m := req.(type) {
	case *pfcp.HeartbeatRequest:
		// Answer with our OWN recovery timestamp (TS 29.244 §6.2.2): the
		// requester compares it against the value it saw at setup to
		// detect a UPF restart. Echoing the requester's timestamp (the
		// old behaviour) made restarts invisible.
		return &pfcp.HeartbeatResponse{RecoveryTimestamp: c.recoveryTS.Load()}, nil
	case *pfcp.AssociationSetupRequest:
		c.assocMu.Lock()
		c.peerNodeID = m.NodeID
		c.peerTS = m.RecoveryTimestamp
		c.assocMu.Unlock()
		c.assocs.Add(1)
		return &pfcp.AssociationSetupResponse{
			NodeID:            "upf.l25gc",
			Cause:             pfcp.CauseAccepted,
			RecoveryTimestamp: c.recoveryTS.Load(),
		}, nil
	case *pfcp.SessionSetAuditRequest:
		// Post-heal reconciliation: report every SEID we hold, sorted, so
		// the SMF can diff its table against ours deterministically.
		return &pfcp.SessionSetAuditResponse{
			Cause: pfcp.CauseAccepted,
			SEIDs: c.state.SEIDs(),
		}, nil
	case *pfcp.SessionEstablishmentRequest:
		if ctrl := c.ctrl.Load(); ctrl != nil {
			if !ctrl.Admit(overload.ClassSession) {
				return &pfcp.SessionEstablishmentResponse{Cause: pfcp.CauseCongestion}, nil
			}
			start := c.clock()
			resp, err := c.establish(m)
			ctrl.Observe(c.clock() - start)
			ctrl.Release(overload.ClassSession)
			return resp, err
		}
		return c.establish(m)
	case *pfcp.SessionModificationRequest:
		return c.modify(seid, m)
	case *pfcp.SessionDeletionRequest:
		return c.delete(seid)
	default:
		return nil, fmt.Errorf("upfc: unsupported message type %d", req.PFCPType())
	}
}

func (c *UPFC) establish(m *pfcp.SessionEstablishmentRequest) (pfcp.Message, error) {
	ctx, err := c.state.CreateSession(m.CPSEID, m.UEIP)
	if err != nil {
		return &pfcp.SessionEstablishmentResponse{Cause: pfcp.CauseRequestRejected}, nil
	}
	resp := &pfcp.SessionEstablishmentResponse{Cause: pfcp.CauseAccepted, UPSEID: ctx.UPSEID}
	// Every rule is installed as a copy that nothing writes afterwards, so
	// a flow-cache entry may keep pointing at one it resolved to (DESIGN
	// §11, "The flow cache"); the generation bump tells it to stop.
	ctx.rulesMu.Lock()
	defer ctx.rulesMu.Unlock()
	ctx.bumpGen()
	for _, far := range m.CreateFARs {
		f := *far
		ctx.Sess.FARs[f.ID] = &f
	}
	for _, qer := range m.CreateQERs {
		q := *qer
		ctx.Sess.QERs[q.ID] = &q
		ctx.setMBR(q.ULMbrKbps, q.DLMbrKbps)
	}
	for _, bar := range m.CreateBARs {
		b := *bar
		ctx.Sess.BARs[b.ID] = &b
		if b.SuggestedPkts > 0 {
			ctx.mu.Lock()
			ctx.bufCap = int(b.SuggestedPkts)
			ctx.mu.Unlock()
		}
	}
	for _, pdr := range m.CreatePDRs {
		p := *pdr
		if p.PDI.HasTEID && p.PDI.TEID == 0 {
			// CHOOSE flag: the UPF allocates the F-TEID and reports it.
			p.PDI.TEID = c.state.AllocTEID()
			p.PDI.TEIDAddr = c.n3IP
			resp.CreatedPDRs = append(resp.CreatedPDRs, pfcp.CreatedPDR{
				PDRID: p.ID, TEID: p.PDI.TEID, Addr: c.n3IP,
			})
		}
		if p.PDI.HasTEID {
			ctx.LocalTEID = p.PDI.TEID
			c.state.BindTEID(p.PDI.TEID, ctx)
		}
		ctx.Sess.AddPDR(&p)
		ctx.Cls.Insert(&p)
	}
	return resp, nil
}

func (c *UPFC) modify(seid uint64, m *pfcp.SessionModificationRequest) (pfcp.Message, error) {
	ctx, ok := c.state.Session(seid)
	if !ok {
		return &pfcp.SessionModificationResponse{Cause: pfcp.CauseSessionNotFound}, nil
	}
	resp := &pfcp.SessionModificationResponse{Cause: pfcp.CauseAccepted}
	ctx.rulesMu.Lock()
	ctx.bumpGen()
	var startedForwarding bool
	apply := func(far *rules.FAR) {
		f := *far
		old := ctx.Sess.FARs[f.ID]
		ctx.Sess.FARs[f.ID] = &f
		// Detect the buffer->forward flip that releases parked packets.
		if old != nil && old.Action&rules.FARBuffer != 0 && f.Action&rules.FARForward != 0 {
			startedForwarding = true
		}
	}
	for _, far := range m.CreateFARs {
		apply(far)
	}
	for _, far := range m.UpdateFARs {
		apply(far)
	}
	for _, pdr := range m.CreatePDRs {
		p := *pdr
		if p.PDI.HasTEID && p.PDI.TEID == 0 {
			p.PDI.TEID = c.state.AllocTEID()
			p.PDI.TEIDAddr = c.n3IP
			resp.CreatedPDRs = append(resp.CreatedPDRs, pfcp.CreatedPDR{
				PDRID: p.ID, TEID: p.PDI.TEID, Addr: c.n3IP,
			})
		}
		if p.PDI.HasTEID {
			c.state.BindTEID(p.PDI.TEID, ctx)
		}
		ctx.Sess.AddPDR(&p)
		ctx.Cls.Insert(&p)
	}
	for _, pdr := range m.UpdatePDRs {
		p := *pdr
		if p.PDI.HasTEID {
			c.state.BindTEID(p.PDI.TEID, ctx)
		}
		ctx.Sess.AddPDR(&p)
		ctx.Cls.Insert(&p)
	}
	for _, id := range m.RemovePDRs {
		ctx.Sess.RemovePDR(id)
		ctx.Cls.Remove(id)
	}
	for _, id := range m.RemoveFARs {
		delete(ctx.Sess.FARs, id)
	}
	ctx.rulesMu.Unlock()
	if fn := c.drain.Load(); startedForwarding && fn != nil {
		(*fn)(ctx)
	}
	return resp, nil
}

func (c *UPFC) delete(seid uint64) (pfcp.Message, error) {
	ctx, err := c.state.DeleteSession(seid)
	if err != nil {
		return &pfcp.SessionDeletionResponse{Cause: pfcp.CauseSessionNotFound}, nil
	}
	// Discard anything still parked.
	ctx.close()
	return &pfcp.SessionDeletionResponse{Cause: pfcp.CauseAccepted}, nil
}
