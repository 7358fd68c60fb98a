// Package smf implements the Session Management Function: PDU session
// lifecycle (create / modify / release), the N4 interface toward the UPF,
// session policy retrieval from the PCF, and the paging trigger path
// (UPF Session Report -> SMF -> AMF N1N2 transfer).
//
// The SMF is where L²5GC's smart buffering (§3.3) is provisioned: on
// handover preparation it piggybacks the buffer-action FAR update on the
// PFCP message that handles the tunnel change, and on completion it flips
// the FAR to forward toward the target gNB — no extra message exchanges.
package smf

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"l25gc/internal/codec"
	"l25gc/internal/nfid"
	"l25gc/internal/overload"
	"l25gc/internal/pfcp"
	"l25gc/internal/pkt"
	"l25gc/internal/rules"
	"l25gc/internal/sbi"
	"l25gc/internal/trace"
)

// Rule IDs used in the canonical two-PDR session layout.
const (
	pdrUL = 1
	pdrDL = 2
	farUL = 1
	farDL = 2
	qerID = 1
	barID = 1
)

// smContext is one PDU session's control state.
type smContext struct {
	mu sync.Mutex

	ref          string
	supi         string
	pduSessionID uint32
	seid         uint64
	ueIP         pkt.Addr
	upfTEID      uint32 // UL tunnel at the UPF
	upfAddr      string
	gnbTEID      uint32 // current DL tunnel at the serving gNB
	gnbAddr      pkt.Addr
	qfi          uint8
	buffering    bool
	idle         bool
	mbrUL        uint64 // policy MBRs retained so reconciliation can
	mbrDL        uint64 // rebuild the QER without a fresh PCF round trip
	// released makes teardown idempotent: two concurrent releases can
	// both fetch the context before either removes it from the indexes,
	// and only the first may journal the deletion and free the UE IP.
	released bool
}

// Config parameterizes the SMF.
type Config struct {
	NodeID     string
	UPFN3IP    pkt.Addr // UPF N3 address advertised to gNBs
	UEPoolBase pkt.Addr // first UE address (e.g. 10.60.0.1)
	BufferPkts uint16   // suggested UPF buffering (BAR)
	Shards     int      // session-table shards (0 or 1: unsharded)
}

// SMF is the session management NF.
type SMF struct {
	cfg Config

	udm sbi.Conn
	pcf sbi.Conn
	amf func() sbi.Conn // lazy: AMF may start after the SMF
	n4  pfcp.Endpoint

	// Sharded session tables and striped allocators (see shard.go).
	sessShards []*sessShard
	refShards  []*refShard
	ipa        *ipAlloc
	seidAlloc  *nfid.Alloc

	tracec atomic.Pointer[trace.Track]
	n4tap  atomic.Pointer[N4Tap]
	ctrl   atomic.Pointer[overload.Controller]
	// clock supplies monotonic elapsed time for latency samples fed to
	// the overload controller; injectable so replayed session creation
	// observes the same durations the live run did.
	clock func() time.Duration

	// assoc is the N4 association toward the UPF (nil when the
	// deployment runs without the association layer). While it reports
	// Down the SMF operates in degraded mode: see assoc.go.
	assoc atomic.Pointer[pfcp.Association]
	// journal holds intents deferred while the association is down,
	// replayed in sequence order by reconcile. Guarded by jmu, persisted
	// in the resilience snapshot.
	jmu        sync.Mutex
	journal    []journalEntry
	journalSeq uint64
	// pendingAssoc carries an association snapshot restored before
	// SetAssociation ran (supervised spawn order), applied at attach.
	// Guarded by pamu.
	pamu         sync.Mutex
	pendingAssoc *pfcp.AssocSnapshot

	rejectedDown atomic.Uint64
	lastRec      atomic.Pointer[ReconcileStats]
}

// SetOverload installs the SMF's overload controller. The SMF does NOT
// gate admission here — that happens at the transport boundary
// (overload.WrapSBI in front of the producer handler, plain or supervised)
// so supervisor replay never re-runs an admission decision. The controller is used for
// latency feedback and for the Retry-After advice attached when the UPF
// answers N4 establishment with CauseCongestion.
func (s *SMF) SetOverload(c *overload.Controller) {
	if c == nil {
		s.ctrl.Store(nil)
		return
	}
	s.ctrl.Store(c)
}

// New creates an SMF. amf is resolved lazily on first paging trigger.
func New(cfg Config, udm, pcf sbi.Conn, n4 pfcp.Endpoint, amf func() sbi.Conn) *SMF {
	if cfg.BufferPkts == 0 {
		cfg.BufferPkts = 3000
	}
	shards := cfg.Shards
	if shards < 1 {
		shards = 1
	}
	s := &SMF{
		cfg: cfg, udm: udm, pcf: pcf, amf: amf, n4: n4,
		sessShards: newSessShards(shards),
		refShards:  newRefShards(shards),
		ipa:        newIPAlloc(cfg.UEPoolBase.Uint32()),
		seidAlloc:  nfid.New(0x100, shards),
	}
	base := time.Now()
	s.clock = func() time.Duration { return time.Since(base) }
	if n4 != nil {
		n4.SetHandler(s.tappedN4)
	}
	return s
}

// SetTracer installs a trace track for session-procedure spans
// (smf.sm_context.*, smf.n4.report); nil disables tracing.
func (s *SMF) SetTracer(tk *trace.Track) { s.tracec.Store(tk) }

// SetClock replaces the monotonic clock behind overload latency samples
// (simulated-time harnesses inject theirs before traffic starts).
func (s *SMF) SetClock(clock func() time.Duration) { s.clock = clock }

// handleN4 processes PFCP requests originated by the UPF (session
// reports: the paging trigger).
func (s *SMF) handleN4(seid uint64, req pfcp.Message) (pfcp.Message, error) {
	sp := s.tracec.Load().Start("smf.n4.report")
	defer sp.End()
	rep, ok := req.(*pfcp.SessionReportRequest)
	if !ok {
		return nil, fmt.Errorf("smf: unexpected N4 request type %d", req.PFCPType())
	}
	ctx := s.sessionBySEID(seid)
	if ctx == nil {
		return &pfcp.SessionReportResponse{Cause: pfcp.CauseSessionNotFound}, nil
	}
	if rep.ReportType&pfcp.ReportDLDR != 0 {
		// Downlink data for an idle UE: ask the AMF to page it. The
		// transfer runs async so the report response is not delayed.
		go func() {
			conn := s.amf()
			if conn == nil {
				return
			}
			conn.Invoke(sbi.OpN1N2MessageTransfer, &sbi.N1N2MessageTransferRequest{
				Supi: ctx.supi, PduSessionID: ctx.pduSessionID,
			})
		}()
	}
	return &pfcp.SessionReportResponse{Cause: pfcp.CauseAccepted}, nil
}

// Handle implements sbi.Handler for Nsmf_PDUSession.
//
//l25gc:replay
func (s *SMF) Handle(op sbi.OpID, req codec.Message) (codec.Message, error) {
	switch op {
	case sbi.OpPostSmContexts:
		return s.createSmContext(req.(*sbi.SmContextCreateRequest))
	case sbi.OpUpdateSmContext:
		return s.updateSmContext(req.(*sbi.SmContextUpdateRequest))
	case sbi.OpReleaseSmContext:
		return s.releaseSmContext(req.(*sbi.SmContextReleaseRequest))
	default:
		return nil, fmt.Errorf("smf: unsupported operation %s", op.Name())
	}
}

func (s *SMF) createSmContext(r *sbi.SmContextCreateRequest) (codec.Message, error) {
	sp := s.tracec.Load().Start("smf.sm_context.create")
	defer sp.End()
	if ctrl := s.ctrl.Load(); ctrl != nil {
		start := s.clock()
		defer func() { ctrl.Observe(s.clock() - start) }()
	}
	// Degraded mode: while the N4 association is down, new establishments
	// are rejected up front with the same Retry-After pushback the
	// CauseCongestion path uses — the UE backs off instead of burning a
	// full PFCP retry budget against a partitioned UPF.
	if err := s.rejectIfAssocDown(); err != nil {
		return nil, err
	}
	// Subscription and policy lookups (SBI round trips the paper counts in
	// the session establishment event).
	if _, err := s.udm.Invoke(sbi.OpGetSMSubscriptionData, &sbi.SubscriptionDataRequest{Supi: r.Supi, Dnn: r.Dnn}); err != nil {
		return nil, fmt.Errorf("smf: SM subscription: %w", err)
	}
	polResp, err := s.pcf.Invoke(sbi.OpSMPolicyCreate, &sbi.SMPolicyCreateRequest{
		Supi: r.Supi, PduSessionID: r.PduSessionID, Dnn: r.Dnn, Sst: r.Sst, Sd: r.Sd,
	})
	if err != nil {
		return nil, fmt.Errorf("smf: SM policy: %w", err)
	}
	pol := polResp.(*sbi.SMPolicyCreateResponse)

	ueIP32 := s.ipa.alloc()
	ueIP := pkt.AddrFromUint32(ueIP32)
	// SEIDs stripe by SUPI so one subscriber's sessions share a stripe and
	// a storm of distinct subscribers never contends on one counter.
	seid := s.seidAlloc.Next(nfid.StrHash(r.Supi))
	qfi := uint8(pol.Default5QI)

	ctx := &smContext{
		ref:  fmt.Sprintf("smctx-%s-%d", r.Supi, r.PduSessionID),
		supi: r.Supi, pduSessionID: r.PduSessionID,
		seid: seid, ueIP: ueIP, qfi: qfi,
		mbrUL: pol.MbrUL, mbrDL: pol.MbrDL,
	}

	est := s.buildEstablishment(ctx, 0, // TEID 0: UPF chooses
		s.dlFAR(ctx, r.GnbTunnelAddr, r.GnbTunnelTEID))
	resp, err := s.n4.Request(seid, true, est)
	if err != nil {
		// Transport failure: the UPF may or may not hold the half-created
		// session, so the address parks on pendingFree until a post-heal
		// reconciliation has purged any orphan.
		s.ipa.release(ueIP32, true)
		return nil, fmt.Errorf("smf: N4 establishment: %w", err)
	}
	er, ok := resp.(*pfcp.SessionEstablishmentResponse)
	if ok && er.Cause == pfcp.CauseCongestion {
		// The UPF definitively rejected — the address is immediately
		// reusable (same for the rejection path below).
		s.ipa.release(ueIP32, false)
		// N4 throttling: translate the UPF's congestion cause into SBI
		// pushback so the AMF (and the UE behind it) backs off instead
		// of hammering a saturated user plane.
		ra := 200 * time.Millisecond
		if ctrl := s.ctrl.Load(); ctrl != nil {
			ra = ctrl.Backoff(overload.ClassSession)
		}
		return nil, &sbi.StatusError{
			Code: sbi.StatusServiceUnavailable, RetryAfter: ra,
			Reason: "smf: UPF in congestion",
		}
	}
	if !ok || er.Cause != pfcp.CauseAccepted {
		s.ipa.release(ueIP32, false)
		return nil, fmt.Errorf("smf: UPF rejected session (cause %v)", er)
	}
	for _, c := range er.CreatedPDRs {
		if c.PDRID == pdrUL {
			ctx.upfTEID = c.TEID
			ctx.upfAddr = c.Addr.String()
		}
	}

	s.insertSession(ctx)

	return &sbi.SmContextCreateResponse{
		SmContextRef: ctx.ref, Status: 201,
		UeIPv4: ueIP.String(), UpfTEID: ctx.upfTEID, UpfAddr: ctx.upfAddr,
	}, nil
}

// buildEstablishment renders the canonical two-PDR session layout for ctx
// as a PFCP establishment request. teid 0 lets the UPF choose the UL
// F-TEID (initial creation); a non-zero teid pins the previously
// allocated value, which is how post-heal reconciliation rebuilds a
// session without changing the data-plane tunnel the gNB is using.
func (s *SMF) buildEstablishment(ctx *smContext, teid uint32, dl *rules.FAR) *pfcp.SessionEstablishmentRequest {
	return &pfcp.SessionEstablishmentRequest{
		NodeID: s.cfg.NodeID, CPSEID: ctx.seid, UEIP: ctx.ueIP,
		CreatePDRs: []*rules.PDR{
			{
				ID: pdrUL, Precedence: 32,
				PDI: rules.PDI{
					SourceInterface: rules.IfAccess,
					HasTEID:         true, TEID: teid,
					UEIP: ctx.ueIP, HasUEIP: true,
					QFI: ctx.qfi, HasQFI: true,
				},
				OuterHeaderRemoval: true, FARID: farUL, QERID: qerID,
			},
			{
				ID: pdrDL, Precedence: 32,
				PDI: rules.PDI{
					SourceInterface: rules.IfCore,
					UEIP:            ctx.ueIP, HasUEIP: true,
					QFI: ctx.qfi, HasQFI: true,
				},
				FARID: farDL, QERID: qerID, BARID: barID,
			},
		},
		CreateFARs: []*rules.FAR{
			{ID: farUL, Action: rules.FARForward, DestInterface: rules.IfCore},
			dl,
		},
		CreateQERs: []*rules.QER{{
			ID: qerID, QFI: ctx.qfi,
			ULMbrKbps: ctx.mbrUL, DLMbrKbps: ctx.mbrDL,
			GateUL: true, GateDL: true,
		}},
		CreateBARs: []*rules.BAR{{ID: barID, SuggestedPkts: s.cfg.BufferPkts}},
	}
}

// dlFAR builds the initial DL forwarding rule: forward when the gNB tunnel
// is already known, otherwise buffer until the RAN-side setup completes.
func (s *SMF) dlFAR(ctx *smContext, gnbAddr string, gnbTEID uint32) *rules.FAR {
	if gnbTEID != 0 && gnbAddr != "" {
		ctx.gnbTEID = gnbTEID
		ctx.gnbAddr = parseAddr(gnbAddr)
		return &rules.FAR{
			ID: farDL, Action: rules.FARForward, DestInterface: rules.IfAccess,
			HasOuterHeader: true, OuterTEID: gnbTEID, OuterAddr: ctx.gnbAddr,
		}
	}
	ctx.buffering = true
	return &rules.FAR{ID: farDL, Action: rules.FARBuffer, DestInterface: rules.IfAccess}
}

func (s *SMF) updateSmContext(r *sbi.SmContextUpdateRequest) (codec.Message, error) {
	sp := s.tracec.Load().Start("smf.sm_context.update")
	defer sp.End()
	ctx := s.sessionByRef(r.SmContextRef)
	if ctx == nil {
		return nil, fmt.Errorf("smf: unknown SM context %q", r.SmContextRef)
	}
	ctx.mu.Lock()
	defer ctx.mu.Unlock()

	mod := &pfcp.SessionModificationRequest{}
	resp := &sbi.SmContextUpdateResponse{Status: 200}

	switch {
	case r.Release:
		return s.releaseLocked(ctx)
	case r.UpCnxState == "DEACTIVATED":
		// UE went idle: buffer + notify (paging trigger armed).
		ctx.idle = true
		ctx.buffering = true
		mod.UpdateFARs = []*rules.FAR{{
			ID: farDL, Action: rules.FARBuffer | rules.FARNotifyCP,
			DestInterface: rules.IfAccess,
		}}
	case r.UpCnxState == "ACTIVATED":
		// Idle->active (service request): forward to the (possibly new)
		// gNB tunnel; the UPF drains buffered packets in order.
		if r.TargetGnbTEID != 0 {
			ctx.gnbTEID = r.TargetGnbTEID
			ctx.gnbAddr = parseAddr(r.TargetGnbAddr)
		}
		ctx.idle = false
		ctx.buffering = false
		mod.UpdateFARs = []*rules.FAR{{
			ID: farDL, Action: rules.FARForward, DestInterface: rules.IfAccess,
			HasOuterHeader: true, OuterTEID: ctx.gnbTEID, OuterAddr: ctx.gnbAddr,
		}}
	case r.HoState == "PREPARING":
		// Smart buffering: the buffer-action FAR update is piggybacked on
		// the handover-preparation PFCP exchange (§3.3) — no dedicated
		// buffering message.
		if r.DataForwarding {
			ctx.buffering = true
			mod.UpdateFARs = []*rules.FAR{{
				ID: farDL, Action: rules.FARBuffer, DestInterface: rules.IfAccess,
			}}
		}
		resp.HoState = "PREPARED"
	case r.HoState == "COMPLETED":
		if r.TargetGnbTEID != 0 {
			ctx.gnbTEID = r.TargetGnbTEID
			ctx.gnbAddr = parseAddr(r.TargetGnbAddr)
		}
		ctx.buffering = false
		mod.UpdateFARs = []*rules.FAR{{
			ID: farDL, Action: rules.FARForward, DestInterface: rules.IfAccess,
			HasOuterHeader: true, OuterTEID: ctx.gnbTEID, OuterAddr: ctx.gnbAddr,
		}}
		resp.HoState = "COMPLETED"
	default:
		return nil, fmt.Errorf("smf: unsupported update %+v", r)
	}

	if len(mod.UpdateFARs) > 0 || len(mod.UpdatePDRs) > 0 {
		if s.assocDown() {
			// Degraded mode: the context above already reflects the new
			// FAR state; journal a sync intent and let reconciliation
			// push it to the UPF after the heal instead of blocking the
			// control procedure on a dead path.
			s.journalIntent(ctx.seid, intentSync)
			return resp, nil
		}
		//l25gc:allow nomutexhold ctx.mu is a per-session leaf lock held across N4 on purpose: it orders FAR updates toward the UPF during handover
		n4resp, err := s.n4.Request(ctx.seid, true, mod)
		if err != nil {
			return nil, fmt.Errorf("smf: N4 modification: %w", err)
		}
		if mr, ok := n4resp.(*pfcp.SessionModificationResponse); !ok || mr.Cause != pfcp.CauseAccepted {
			return nil, fmt.Errorf("smf: UPF rejected modification")
		}
	}
	return resp, nil
}

func (s *SMF) releaseSmContext(r *sbi.SmContextReleaseRequest) (codec.Message, error) {
	sp := s.tracec.Load().Start("smf.sm_context.release")
	defer sp.End()
	ctx := s.sessionByRef(r.SmContextRef)
	if ctx == nil {
		return &sbi.SmContextReleaseResponse{Status: 404}, nil
	}
	ctx.mu.Lock()
	defer ctx.mu.Unlock()
	resp, err := s.releaseLocked(ctx)
	if err != nil {
		return nil, err
	}
	return &sbi.SmContextReleaseResponse{Status: resp.(*sbi.SmContextUpdateResponse).Status}, nil
}

func (s *SMF) releaseLocked(ctx *smContext) (codec.Message, error) {
	if ctx.released {
		// A concurrent release already tore this context down.
		return &sbi.SmContextUpdateResponse{Status: 200}, nil
	}
	down := s.assocDown()
	if down {
		// Degraded mode: drop the context now (the UE is gone either
		// way) and journal the UPF-side deletion for post-heal replay.
		s.journalIntent(ctx.seid, intentDelete)
	} else {
		if _, err := s.n4.Request(ctx.seid, true, &pfcp.SessionDeletionRequest{}); err != nil {
			return nil, fmt.Errorf("smf: N4 deletion: %w", err)
		}
	}
	ctx.released = true
	s.removeSession(ctx)
	// Reclaim the UE address: immediately reusable when the UPF confirmed
	// the deletion, deferred until post-heal replay when it was journaled.
	s.ipa.release(ctx.ueIP.Uint32(), down)
	return &sbi.SmContextUpdateResponse{Status: 200}, nil
}

// Sessions reports the number of active SM contexts.
func (s *SMF) Sessions() int {
	n := 0
	for _, sh := range s.refShards {
		sh.mu.Lock()
		n += len(sh.byRef)
		sh.mu.Unlock()
	}
	return n
}

// SEIDs returns the CP SEIDs of every active SM context in ascending
// order — the SMF half of the divergence check reconciliation tests run
// against upf.State.SEIDs().
func (s *SMF) SEIDs() []uint64 {
	ctxs := s.allSessions()
	out := make([]uint64, len(ctxs))
	for i, c := range ctxs {
		out[i] = c.seid
	}
	return out
}

// parseAddr converts dotted-quad text into an Addr (zero on error).
func parseAddr(s string) pkt.Addr {
	var a pkt.Addr
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return a
	}
	for i, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil || v < 0 || v > 255 {
			return pkt.Addr{}
		}
		a[i] = byte(v)
	}
	return a
}
