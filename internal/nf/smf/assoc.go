package smf

import (
	"fmt"
	"sort"
	"time"

	"l25gc/internal/overload"
	"l25gc/internal/pfcp"
	"l25gc/internal/rules"
	"l25gc/internal/sbi"
)

// Degraded-mode operation and post-heal reconciliation (the SMF half of
// the PFCP association layer; the transport state machine itself lives in
// pfcp.Association).
//
// While the association is Down:
//   - established sessions keep forwarding — the UPF's session table is
//     untouched by a control partition;
//   - new establishments are rejected with SBI 503 + Retry-After (the
//     same pushback surface the overload controller uses), so UEs back
//     off instead of timing out against a dead path;
//   - deletions and FAR-affecting modifications update local context
//     state immediately and append an intent to the journal.
//
// On heal, pfcp.Association calls Reconcile BEFORE flipping Up:
//  1. audit     — SessionSetAudit asks the UPF for its sorted SEID list;
//  2. purge     — UPF sessions the SMF no longer tracks are deleted
//     (ascending SEID order, deterministic);
//  3. rebuild   — SMF sessions the UPF lost (e.g. it restarted) are
//     re-established with their ORIGINAL UL TEID, so the gNB-facing
//     tunnel survives the rebuild;
//  4. replay    — journaled intents run in sequence order (deletes
//     tolerate SessionNotFound: the purge may have won the race).
//
// The journal and the association snapshot ride the SMF resilience
// snapshot, so a standby promoted mid-partition wakes up knowing the path
// is down and still holding the deferred intents.

// intentKind classifies a journaled degraded-mode operation.
type intentKind string

const (
	// intentDelete: the session was released while the path was down;
	// the UPF-side deletion is still owed.
	intentDelete intentKind = "delete"
	// intentSync: the session's FAR state changed while the path was
	// down; the UPF must be brought to the context's CURRENT state (the
	// journal stores no payload — state is read at replay time, so
	// multiple syncs naturally coalesce).
	intentSync intentKind = "sync"
)

// journalEntry is one pending intent, ordered by Seq.
type journalEntry struct {
	Seq  uint64     `json:"seq"`
	SEID uint64     `json:"seid"`
	Kind intentKind `json:"kind"`
}

// ReconcileStats summarizes one post-heal reconciliation pass.
type ReconcileStats struct {
	Audited  int           // SEIDs the UPF reported
	Rebuilt  int           // sessions re-established at the UPF
	Purged   int           // orphan UPF sessions deleted
	Replayed int           // journaled intents applied
	Duration time.Duration // wall time of the pass (SMF clock)
}

// SetAssociation attaches the N4 association state machine. The caller
// wires cfg.OnUp to s.Reconcile and owns Start/Stop; the SMF uses the
// handle for degraded-mode gating and snapshot persistence. An
// association snapshot restored before this call is applied now.
func (s *SMF) SetAssociation(a *pfcp.Association) {
	s.assoc.Store(a)
	s.pamu.Lock()
	pending := s.pendingAssoc
	s.pendingAssoc = nil
	s.pamu.Unlock()
	if a != nil && pending != nil {
		a.Restore(*pending)
	}
}

// Association returns the attached association handle (nil if none).
func (s *SMF) Association() *pfcp.Association { return s.assoc.Load() }

// assocDown reports whether the N4 path is currently declared down.
func (s *SMF) assocDown() bool {
	a := s.assoc.Load()
	return a != nil && a.State() == pfcp.AssocDown
}

// rejectIfAssocDown turns a down association into SBI pushback for new
// session establishment, mirroring the CauseCongestion translation.
func (s *SMF) rejectIfAssocDown() error {
	if !s.assocDown() {
		return nil
	}
	s.rejectedDown.Add(1)
	ra := 200 * time.Millisecond
	if ctrl := s.ctrl.Load(); ctrl != nil {
		ra = ctrl.Backoff(overload.ClassSession)
	}
	return &sbi.StatusError{
		Code: sbi.StatusServiceUnavailable, RetryAfter: ra,
		Reason: "smf: N4 association down",
	}
}

// journalIntent appends (or upgrades) the pending intent for seid. A
// delete overrides any prior sync — the session is going away, its FAR
// state no longer matters; a sync against an already-journaled SEID is a
// no-op because sync payloads are read from context state at replay time.
func (s *SMF) journalIntent(seid uint64, kind intentKind) {
	s.jmu.Lock()
	defer s.jmu.Unlock()
	for i := range s.journal {
		if s.journal[i].SEID == seid {
			if kind == intentDelete {
				s.journal[i].Kind = intentDelete
			}
			return
		}
	}
	s.journalSeq++
	s.journal = append(s.journal, journalEntry{Seq: s.journalSeq, SEID: seid, Kind: kind})
}

// JournalLen reports the number of pending intents (tests, bench).
func (s *SMF) JournalLen() int {
	s.jmu.Lock()
	defer s.jmu.Unlock()
	return len(s.journal)
}

// RejectedWhileDown reports establishments refused in degraded mode.
func (s *SMF) RejectedWhileDown() uint64 { return s.rejectedDown.Load() }

// LastReconcile returns the stats of the most recent reconciliation pass
// (nil if none has run).
func (s *SMF) LastReconcile() *ReconcileStats { return s.lastRec.Load() }

// dlFARFromState renders ctx's current DL forwarding decision as a FAR —
// the replay payload for sync intents and the DL rule for rebuilds.
// Caller holds ctx.mu.
func dlFARFromState(ctx *smContext) *rules.FAR {
	if ctx.buffering {
		action := rules.FARBuffer
		if ctx.idle {
			action |= rules.FARNotifyCP // paging trigger stays armed
		}
		return &rules.FAR{ID: farDL, Action: action, DestInterface: rules.IfAccess}
	}
	return &rules.FAR{
		ID: farDL, Action: rules.FARForward, DestInterface: rules.IfAccess,
		HasOuterHeader: true, OuterTEID: ctx.gnbTEID, OuterAddr: ctx.gnbAddr,
	}
}

// Reconcile is the post-heal session audit, wired as the association's
// OnUp hook: it runs after a successful AssociationSetup exchange and
// must complete before the association is advertised Up. peerRestarted
// is true when the UPF answered with a changed RecoveryTimestamp (its
// table is a fresh incarnation's — typically empty). Any error leaves
// the association Down; the next Tick retries setup + reconcile whole.
func (s *SMF) Reconcile(peerRestarted bool) error {
	start := s.clock()

	resp, err := s.n4.Request(0, false, &pfcp.SessionSetAuditRequest{NodeID: s.cfg.NodeID})
	if err != nil {
		return fmt.Errorf("smf: reconcile audit: %w", err)
	}
	ar, ok := resp.(*pfcp.SessionSetAuditResponse)
	if !ok || ar.Cause != pfcp.CauseAccepted {
		return fmt.Errorf("smf: reconcile audit rejected (%T)", resp)
	}
	upfHas := make(map[uint64]bool, len(ar.SEIDs))
	for _, seid := range ar.SEIDs {
		upfHas[seid] = true
	}

	// Stable view of our table and journal. New establishments cannot
	// race in (the association is still Down, so createSmContext rejects)
	// and intents journaled after this point keep their entries: only the
	// sequence numbers captured here are cleared at the end. Shards are
	// visited in index order and the result is SEID-sorted, so the pass
	// is deterministic.
	ours := s.allSessions()
	s.jmu.Lock()
	intents := append([]journalEntry(nil), s.journal...)
	s.jmu.Unlock()
	sort.Slice(intents, func(i, j int) bool { return intents[i].Seq < intents[j].Seq })

	// Addresses parked while the path was down become reusable only once
	// this pass has replayed the deletions that still referenced them at
	// the UPF (and purged any half-created orphans). Capture them now; on
	// failure they park again and the retried pass re-captures them.
	pendingIPs := s.ipa.takePending()
	reconciled := false
	defer func() {
		if reconciled {
			s.ipa.freeAll(pendingIPs)
		} else {
			s.ipa.retainPending(pendingIPs)
		}
	}()
	pendingDelete := make(map[uint64]bool)
	for _, in := range intents {
		if in.Kind == intentDelete {
			pendingDelete[in.SEID] = true
		}
	}

	stats := ReconcileStats{Audited: len(ar.SEIDs)}

	// 1) Purge orphans: sessions the UPF holds that we no longer track —
	// unless a journaled delete already owns that SEID (step 3 will send
	// it). ar.SEIDs is sorted by the UPF, so the pass is deterministic.
	orphans := make([]uint64, 0)
	for _, seid := range ar.SEIDs {
		if s.sessionBySEID(seid) == nil && !pendingDelete[seid] {
			orphans = append(orphans, seid)
		}
	}
	for _, seid := range orphans {
		if _, err := s.n4.Request(seid, true, &pfcp.SessionDeletionRequest{}); err != nil {
			return fmt.Errorf("smf: reconcile purge %#x: %w", seid, err)
		}
		stats.Purged++
	}

	// 2) Rebuild missing: sessions we track that the UPF lost. The UL
	// F-TEID is pinned to its original value so the gNB's uplink tunnel
	// and any DL forwarding state keep working without RAN signalling.
	for _, ctx := range ours {
		if !peerRestarted && upfHas[ctx.seid] {
			continue
		}
		if peerRestarted && upfHas[ctx.seid] {
			// A fresh UPF incarnation answering with our SEID means a
			// stale binding from before the restart epoch; rebuild over it.
			if _, err := s.n4.Request(ctx.seid, true, &pfcp.SessionDeletionRequest{}); err != nil {
				return fmt.Errorf("smf: reconcile stale purge %#x: %w", ctx.seid, err)
			}
		}
		ctx.mu.Lock()
		est := s.buildEstablishment(ctx, ctx.upfTEID, dlFARFromState(ctx))
		ctx.mu.Unlock()
		r, err := s.n4.Request(ctx.seid, true, est)
		if err != nil {
			return fmt.Errorf("smf: reconcile rebuild %#x: %w", ctx.seid, err)
		}
		if er, ok := r.(*pfcp.SessionEstablishmentResponse); !ok || er.Cause != pfcp.CauseAccepted {
			return fmt.Errorf("smf: reconcile rebuild %#x rejected", ctx.seid)
		}
		stats.Rebuilt++
	}

	// 3) Replay journaled intents in sequence order.
	var maxSeq uint64
	for _, in := range intents {
		maxSeq = in.Seq
		switch in.Kind {
		case intentDelete:
			r, err := s.n4.Request(in.SEID, true, &pfcp.SessionDeletionRequest{})
			if err != nil {
				return fmt.Errorf("smf: reconcile delete %#x: %w", in.SEID, err)
			}
			// SessionNotFound is fine: the UPF lost it in the restart or
			// the orphan purge got there first.
			if dr, ok := r.(*pfcp.SessionDeletionResponse); ok &&
				dr.Cause != pfcp.CauseAccepted && dr.Cause != pfcp.CauseSessionNotFound {
				return fmt.Errorf("smf: reconcile delete %#x rejected", in.SEID)
			}
		case intentSync:
			ctx := s.sessionBySEID(in.SEID)
			if ctx == nil {
				break // released after journaling; deletion handled above
			}
			ctx.mu.Lock()
			mod := &pfcp.SessionModificationRequest{UpdateFARs: []*rules.FAR{dlFARFromState(ctx)}}
			ctx.mu.Unlock()
			r, err := s.n4.Request(in.SEID, true, mod)
			if err != nil {
				return fmt.Errorf("smf: reconcile sync %#x: %w", in.SEID, err)
			}
			if mr, ok := r.(*pfcp.SessionModificationResponse); !ok || mr.Cause != pfcp.CauseAccepted {
				return fmt.Errorf("smf: reconcile sync %#x rejected", in.SEID)
			}
		}
		stats.Replayed++
	}

	// Clear only what we replayed; intents journaled mid-reconcile stay.
	s.jmu.Lock()
	kept := s.journal[:0]
	for _, in := range s.journal {
		if in.Seq > maxSeq {
			kept = append(kept, in)
		}
	}
	s.journal = kept
	s.jmu.Unlock()

	stats.Duration = s.clock() - start
	s.lastRec.Store(&stats)
	reconciled = true
	return nil
}
