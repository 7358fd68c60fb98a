package pfcp

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"l25gc/internal/faults"
	"l25gc/internal/testutil"
)

// fakeUPF is a minimal association responder: it answers setup and
// heartbeat with its own (mutable) recovery timestamp, the behaviour
// upf.UPFC implements for real (which pfcp cannot import).
type fakeUPF struct {
	ts    atomic.Uint32
	seids func() []uint64
}

func (f *fakeUPF) handler() Handler {
	return func(seid uint64, req Message) (Message, error) {
		switch req.(type) {
		case *HeartbeatRequest:
			return &HeartbeatResponse{RecoveryTimestamp: f.ts.Load()}, nil
		case *AssociationSetupRequest:
			return &AssociationSetupResponse{
				NodeID: "upf.test", Cause: CauseAccepted,
				RecoveryTimestamp: f.ts.Load(),
			}, nil
		case *SessionSetAuditRequest:
			var s []uint64
			if f.seids != nil {
				s = f.seids()
			}
			return &SessionSetAuditResponse{Cause: CauseAccepted, SEIDs: s}, nil
		}
		return nil, nil
	}
}

// assocPair wires an Association over a mem pair against a fakeUPF with
// a chaos-fast retry profile.
func assocPair(t *testing.T, cfg AssocConfig) (*Association, *MemEndpoint, *fakeUPF, *faults.Injector) {
	t.Helper()
	smf, upf := NewMemPair(64)
	t.Cleanup(func() { smf.Close(); upf.Close() })
	f := &fakeUPF{}
	f.ts.Store(1)
	upf.SetHandler(f.handler())
	smf.SetRetry(RetryConfig{T1: 20 * time.Millisecond, N1: 1, Backoff: 1})
	inj := faults.New(11)
	smf.SetInjector(inj, "pfcp.smf")
	upf.SetInjector(inj, "pfcp.upf")
	cfg.NodeID = "smf.test"
	if cfg.RecoveryTimestamp == 0 {
		cfg.RecoveryTimestamp = 7
	}
	a := NewAssociation(smf, cfg)
	return a, smf, f, inj
}

func TestAssociationSetupThenHeartbeats(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	a, _, _, _ := assocPair(t, AssocConfig{MissThreshold: 2})
	if a.State() != AssocIdle {
		t.Fatalf("initial state %v", a.State())
	}
	if err := a.Setup(); err != nil {
		t.Fatalf("setup: %v", err)
	}
	if a.State() != AssocUp || a.PeerNodeID() != "upf.test" {
		t.Fatalf("state %v peer %q after setup", a.State(), a.PeerNodeID())
	}
	for i := 0; i < 3; i++ {
		a.Tick()
	}
	if c := a.Counters(); c.HeartbeatOK != 3 || c.HeartbeatMiss != 0 {
		t.Fatalf("counters %+v", c)
	}
	if a.State() != AssocUp {
		t.Fatalf("state %v after healthy heartbeats", a.State())
	}
}

func TestAssociationMissThresholdDeclaresDown(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	var downReason atomic.Value
	a, _, _, inj := assocPair(t, AssocConfig{
		MissThreshold: 2,
		OnDown:        func(r string) { downReason.Store(r) },
	})
	if err := a.Setup(); err != nil {
		t.Fatalf("setup: %v", err)
	}
	inj.Partition("pfcp.smf")

	a.Tick() // miss 1
	if a.State() != AssocUp || a.Misses() != 1 {
		t.Fatalf("state %v misses %d after first miss", a.State(), a.Misses())
	}
	a.Tick() // miss 2 -> threshold
	if a.State() != AssocDown {
		t.Fatalf("state %v after threshold misses", a.State())
	}
	if r, _ := downReason.Load().(string); r != "heartbeat-timeout" {
		t.Fatalf("down reason %q", r)
	}
	if c := a.Counters(); c.Downs != 1 || c.HeartbeatMiss != 2 {
		t.Fatalf("counters %+v", c)
	}
	if a.LastDetectLatency() <= 0 {
		t.Fatal("detect latency not recorded")
	}

	// Heal: the next Tick probes with a fresh setup and brings it up.
	inj.Heal("pfcp.smf")
	a.Tick()
	if a.State() != AssocUp {
		t.Fatalf("state %v after heal+probe", a.State())
	}
	if c := a.Counters(); c.Ups != 2 { // initial setup + post-heal probe
		t.Fatalf("ups = %d", c.Ups)
	}
}

// TestAssociationLateHeartbeatResponseDoesNotFlap is the no-flap
// invariant: a heartbeat response that arrives AFTER the path was
// declared down must not bring the association back up — only a fresh
// AssociationSetup (with reconciliation) may.
func TestAssociationLateHeartbeatResponseDoesNotFlap(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	a, smf, _, inj := assocPair(t, AssocConfig{MissThreshold: 1})
	smf.SetRetry(RetryConfig{T1: 30 * time.Millisecond, N1: 0, Backoff: 1})
	if err := a.Setup(); err != nil {
		t.Fatalf("setup: %v", err)
	}
	// Delay the UPF's responses far beyond the retry budget: the
	// heartbeat request is handled, but its response lands only after the
	// path has been declared down.
	inj.Add(faults.Rule{Point: "pfcp.upf.tx", Kind: faults.Delay, Delay: 150 * time.Millisecond, Count: 1})

	a.Tick() // times out at ~30ms -> down (threshold 1)
	if a.State() != AssocDown {
		t.Fatalf("state %v after timed-out heartbeat", a.State())
	}
	ups := a.Counters().Ups
	time.Sleep(250 * time.Millisecond) // late response arrives and must be ignored
	if a.State() != AssocDown {
		t.Fatal("late heartbeat response flapped the association up")
	}
	if a.Counters().Ups != ups {
		t.Fatal("up transition recorded without a fresh setup")
	}
	// A fresh setup is the only way back up.
	if err := a.Setup(); err != nil {
		t.Fatalf("fresh setup: %v", err)
	}
	if a.State() != AssocUp {
		t.Fatalf("state %v after fresh setup", a.State())
	}
}

// TestAssociationHeartbeatRetransmitDedup drives a heartbeat whose first
// transmission is dropped: the T1/N1 machinery must recover it, the
// responder must answer the retransmission from its dedup cache, and the
// association must record a single clean exchange (no miss).
func TestAssociationHeartbeatRetransmitDedup(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	smf, upf := NewMemPair(64)
	t.Cleanup(func() { smf.Close(); upf.Close() })
	f := &fakeUPF{}
	f.ts.Store(1)
	var calls atomic.Int32
	inner := f.handler()
	upf.SetHandler(func(seid uint64, req Message) (Message, error) {
		if _, ok := req.(*HeartbeatRequest); ok {
			calls.Add(1)
		}
		return inner(seid, req)
	})
	smf.SetRetry(RetryConfig{T1: 25 * time.Millisecond, N1: 3, Backoff: 1})
	// Drop the first heartbeat REQUEST frame, then the first heartbeat
	// RESPONSE frame: the first recovery is a straight retransmission,
	// the second must be answered from the responder's dedup cache
	// without re-running the handler.
	inj := faults.New(13).
		Add(faults.Rule{Point: "pfcp.smf.tx", Kind: faults.Drop, Count: 1, After: 1}).
		Add(faults.Rule{Point: "pfcp.upf.tx", Kind: faults.Drop, Count: 1, After: 1})
	smf.SetInjector(inj, "pfcp.smf")
	upf.SetInjector(inj, "pfcp.upf")

	a := NewAssociation(smf, AssocConfig{NodeID: "smf.test", RecoveryTimestamp: 7, MissThreshold: 2})
	if err := a.Setup(); err != nil {
		t.Fatalf("setup: %v", err)
	}
	a.Tick() // dropped request -> retransmit
	a.Tick() // dropped response -> retransmit answered from cache
	if c := a.Counters(); c.HeartbeatOK != 2 || c.HeartbeatMiss != 0 {
		t.Fatalf("counters %+v; retransmission did not recover the exchanges", c)
	}
	if calls.Load() != 2 {
		t.Fatalf("heartbeat handler ran %d times, want 2 (dedup must absorb the retransmit)", calls.Load())
	}
	if rtx, _ := smf.Stats(); rtx < 2 {
		t.Fatalf("retransmits = %d, want >= 2", rtx)
	}
}

func TestAssociationPeerRestartDetection(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	var reasons []string
	var restartedAtSetup atomic.Bool
	a, _, f, _ := assocPair(t, AssocConfig{
		MissThreshold: 2,
		OnDown:        func(r string) { reasons = append(reasons, r) },
		OnUp: func(restarted bool) error {
			restartedAtSetup.Store(restarted)
			return nil
		},
	})
	if err := a.Setup(); err != nil {
		t.Fatalf("setup: %v", err)
	}
	if restartedAtSetup.Load() {
		t.Fatal("first setup must not report a restart")
	}
	a.Tick()
	if a.State() != AssocUp {
		t.Fatalf("state %v", a.State())
	}

	f.ts.Store(2) // UPF "restarts": new incarnation, new timestamp
	a.Tick()
	if a.State() != AssocDown {
		t.Fatalf("state %v; changed RecoveryTimestamp must down the association", a.State())
	}
	if len(reasons) != 1 || reasons[0] != "peer-restart" {
		t.Fatalf("down reasons %v", reasons)
	}
	a.Tick() // probe: fresh setup against the new incarnation
	if a.State() != AssocUp {
		t.Fatalf("state %v after re-setup", a.State())
	}
	if !restartedAtSetup.Load() {
		t.Fatal("OnUp must see peerRestarted=true after a restart-triggered down")
	}
	if c := a.Counters(); c.PeerRestarts != 1 {
		t.Fatalf("restarts = %d", c.PeerRestarts)
	}
}

func TestAssociationOnUpErrorKeepsDown(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	fail := atomic.Bool{}
	fail.Store(true)
	a, _, _, _ := assocPair(t, AssocConfig{
		MissThreshold: 1,
		OnUp: func(bool) error {
			if fail.Load() {
				return errFakeReconcile
			}
			return nil
		},
	})
	if err := a.Setup(); err == nil {
		t.Fatal("setup must surface the reconcile error")
	}
	if a.State() != AssocIdle {
		t.Fatalf("state %v; failed reconcile must not advertise Up", a.State())
	}
	fail.Store(false)
	a.Tick() // retries the whole setup+reconcile
	if a.State() != AssocUp {
		t.Fatalf("state %v after reconcile recovered", a.State())
	}
}

var errFakeReconcile = &fakeError{"reconcile backlog"}

type fakeError struct{ s string }

func (e *fakeError) Error() string { return e.s }

func TestAssociationSnapshotRestore(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	a, _, _, inj := assocPair(t, AssocConfig{MissThreshold: 1})
	if err := a.Setup(); err != nil {
		t.Fatalf("setup: %v", err)
	}
	inj.Partition("pfcp.smf")
	a.Tick()
	if a.State() != AssocDown {
		t.Fatalf("state %v", a.State())
	}
	snap := a.Snapshot()

	b, _, _, _ := assocPair(t, AssocConfig{MissThreshold: 1})
	b.Restore(snap)
	if b.State() != AssocDown || b.PeerNodeID() != "upf.test" {
		t.Fatalf("restored state %v peer %q", b.State(), b.PeerNodeID())
	}
	// The restored incarnation recovers exactly like the original would:
	// probe setup (its own injector is unpartitioned).
	b.Tick()
	if b.State() != AssocUp {
		t.Fatalf("restored assoc state %v after probe", b.State())
	}
}

func TestAssociationStartStopTicker(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	a, _, _, _ := assocPair(t, AssocConfig{
		MissThreshold:     2,
		HeartbeatInterval: 5 * time.Millisecond,
	})
	if err := a.Setup(); err != nil {
		t.Fatalf("setup: %v", err)
	}
	a.Start()
	a.Start() // idempotent
	deadline := time.Now().Add(2 * time.Second)
	for a.Counters().HeartbeatOK < 3 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if a.Counters().HeartbeatOK < 3 {
		t.Fatal("ticker did not drive heartbeats")
	}
	a.Stop()
	a.Stop() // idempotent
}

// TestEndpointCloseLifecycle pins what Close means on the shm transport,
// which has no goroutine to join: the requester side's Close cancels every
// parked Request at once (hour-long T1 or not), the responder side's Close
// returns without waiting for a handler in flight and discards what is
// queued behind it, no handler starts afterwards, the caller inside the
// blocked handler returns when the handler does, and nothing is left
// running (the leak check).
func TestEndpointCloseLifecycle(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	smf, upf := NewMemPair(256)
	block, entered := make(chan struct{}), make(chan struct{})
	var handled atomic.Int32
	upf.SetHandler(func(seid uint64, req Message) (Message, error) {
		if handled.Add(1) == 1 {
			close(entered)
			<-block
		}
		return &HeartbeatResponse{RecoveryTimestamp: 5}, nil
	})
	smf.SetRetry(RetryConfig{T1: time.Hour, N1: 0, Backoff: 1})

	// One request is served inline and sits in the handler; seven more
	// queue behind it and park.
	type result struct {
		resp Message
		err  error
	}
	request := func(out chan<- result) {
		resp, err := smf.Request(0, false, &HeartbeatRequest{})
		out <- result{resp, err}
	}
	inHandler, parked := make(chan result, 1), make(chan result, 7)
	go request(inHandler)
	<-entered
	for i := 0; i < 7; i++ {
		go request(parked)
	}
	for deadline := time.Now().Add(2 * time.Second); upf.in.Len() < 7; {
		if time.Now().After(deadline) {
			t.Fatalf("%d of 7 requests queued behind the blocked handler", upf.in.Len())
		}
		time.Sleep(time.Millisecond)
	}

	smf.Close()
	for i := 0; i < 7; i++ {
		select {
		case r := <-parked:
			if r.err == nil {
				t.Fatal("parked Request survived endpoint Close")
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("Close cancelled %d of 7 parked Requests", i)
		}
	}
	select {
	case r := <-inHandler:
		t.Fatalf("Request returned (%v, %v) while its handler is still blocked", r.resp, r.err)
	default:
	}

	upf.Close() // returns with the handler still in flight
	close(block)
	select {
	case r := <-inHandler:
		// The handler ran to completion and answered its own caller.
		if r.err != nil || r.resp.(*HeartbeatResponse).RecoveryTimestamp != 5 {
			t.Fatalf("caller inside the handler got (%v, %v)", r.resp, r.err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("caller inside the blocked handler never returned")
	}
	if n := handled.Load(); n != 1 {
		t.Fatalf("%d handlers ran; Close must discard still-queued requests", n)
	}
	if _, err := smf.Request(0, false, &HeartbeatRequest{}); err == nil {
		t.Fatal("Request succeeded against a closed peer")
	}
	if n := handled.Load(); n != 1 {
		t.Fatalf("a handler started after Close returned (%d ran)", n)
	}
	if n := smf.PendingRequests(); n != 0 {
		t.Fatalf("pending table leaked %d entries", n)
	}
}

// TestMemResponseBypassesBlockedReport is the head-of-line scenario, on
// both transports: the requester holds a lock (its supervisor unit's)
// across Request while the peer's unsolicited report, already being
// handled, waits for that very lock. The response must not queue behind
// the report — on UDP, the read loop must not be the goroutine running the
// report's handler: the request completes without a T1 expiry, and the
// report once the lock is free.
func TestMemResponseBypassesBlockedReport(t *testing.T) {
	type statsEndpoint interface {
		Endpoint
		Stats() (retransmits, timeouts uint64)
	}
	for _, tc := range []struct {
		name string
		pair func(t *testing.T) (smf, upf statsEndpoint)
	}{
		{"mem", func(t *testing.T) (statsEndpoint, statsEndpoint) {
			smf, upf := NewMemPair(64)
			t.Cleanup(func() { smf.Close(); upf.Close() })
			return smf, upf
		}},
		{"udp", func(t *testing.T) (statsEndpoint, statsEndpoint) {
			smf, upf := udpPair(t)
			if err := upf.Connect(smf.Addr()); err != nil {
				t.Fatal(err)
			}
			return smf, upf
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			testutil.CheckGoroutineLeaks(t)
			smf, upf := tc.pair(t)
			upf.SetHandler(echoHandler(t))
			var unit sync.Mutex
			reportEntered := make(chan struct{})
			smf.SetHandler(func(seid uint64, req Message) (Message, error) {
				close(reportEntered)
				unit.Lock()
				defer unit.Unlock()
				return &SessionReportResponse{Cause: CauseAccepted}, nil
			})
			smf.SetRetry(RetryConfig{T1: 500 * time.Millisecond, N1: 0, Backoff: 1})

			unit.Lock()
			report := make(chan error, 1)
			go func() {
				_, err := upf.Request(1, true, &SessionReportRequest{ReportType: ReportDLDR, PDRID: 2})
				report <- err
			}()
			<-reportEntered
			resp, err := smf.Request(1, true, &SessionModificationRequest{})
			unit.Unlock()
			if err != nil {
				t.Fatalf("modification behind a blocked report: %v", err)
			}
			if resp.(*SessionModificationResponse).Cause != CauseAccepted {
				t.Fatalf("got %+v", resp)
			}
			if rtx, timeouts := smf.Stats(); rtx != 0 || timeouts != 0 {
				t.Fatalf("retransmits = %d, timeouts = %d; the response waited behind the report", rtx, timeouts)
			}
			if err := <-report; err != nil {
				t.Fatalf("report: %v", err)
			}
		})
	}
}

// TestMemDelayedSendLateError is the regression test for the send that
// returned an error variable its delayed delivery wrote later, from an
// injector timer (a data race under -race): a request delayed toward a
// closed peer fails at delivery, after Request has moved on, and only
// times out.
func TestMemDelayedSendLateError(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	smf, upf := NewMemPair(8)
	defer smf.Close()
	inj := faults.New(5).Add(faults.Rule{Point: "pfcp.smf.tx", Kind: faults.Delay, Delay: 5 * time.Millisecond})
	smf.SetInjector(inj, "pfcp.smf")
	smf.SetRetry(RetryConfig{T1: 50 * time.Millisecond, N1: 0, Backoff: 1})
	upf.Close()
	if _, err := smf.Request(0, false, &HeartbeatRequest{}); err == nil {
		t.Fatal("Request to a closed peer succeeded")
	}
	if n := inj.Count("pfcp.smf.tx", faults.Delay); n != 1 {
		t.Fatalf("%d sends delayed, want 1", n)
	}
}

func TestUDPEndpointCloseJoinsWorker(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	smf, upf := udpPair(t)
	upf.SetHandler(echoHandler(t))
	smf.SetRetry(fastRetry())
	if _, err := smf.Request(0, false, &HeartbeatRequest{RecoveryTimestamp: 3}); err != nil {
		t.Fatalf("request: %v", err)
	}
	// Explicit double-close: idempotent, and the cleanup close is a no-op.
	if err := smf.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	smf.Close()
	upf.Close()
}
