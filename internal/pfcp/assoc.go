package pfcp

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"l25gc/internal/trace"
)

// AssocState is the PFCP association lifecycle state toward one peer.
type AssocState uint8

const (
	// AssocIdle: no AssociationSetup has succeeded yet; sessions must not
	// be established toward the peer.
	AssocIdle AssocState = iota
	// AssocUp: setup succeeded and heartbeats are being answered.
	AssocUp
	// AssocDown: the path failed (heartbeat miss threshold reached, peer
	// restart detected, or a probe setup failed). Established sessions
	// keep forwarding on the data plane; control procedures toward the
	// peer run in degraded mode until a fresh setup + reconcile succeeds.
	AssocDown
)

// String renders the state for logs/metrics attributes.
func (s AssocState) String() string {
	switch s {
	case AssocIdle:
		return "idle"
	case AssocUp:
		return "up"
	case AssocDown:
		return "down"
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// AssocConfig parameterizes an Association. Zero values get defaults from
// DefaultAssocConfig.
type AssocConfig struct {
	// NodeID identifies this end in AssociationSetup (TS 29.244 Node ID).
	NodeID string
	// RecoveryTimestamp is this end's own recovery timestamp, advertised
	// in setup and heartbeat requests. A peer that sees it change knows
	// every session toward us is stale.
	RecoveryTimestamp uint32
	// HeartbeatInterval is the live-mode probe cadence for Start(). Zero
	// means no ticker goroutine: the owner drives Tick() explicitly
	// (deterministic chaos tests, supervised replay).
	HeartbeatInterval time.Duration
	// MissThreshold is the number of consecutive failed heartbeat
	// exchanges (each already carrying the endpoint's full T1/N1
	// retransmission budget) before the path is declared down. Default 2.
	MissThreshold int
	// OnDown fires once per Up→Down transition with the reason
	// ("heartbeat-timeout" or "peer-restart"). Used for the telemetry
	// flight-dump trigger and degraded-mode entry.
	OnDown func(reason string)
	// OnUp runs after a successful AssociationSetup exchange but BEFORE
	// the state flips to Up; peerRestarted reports whether the peer's
	// RecoveryTimestamp changed since we last saw it (its session table
	// is empty/stale). This is where the SMF reconciles: if OnUp returns
	// an error the association stays Down and the next Tick retries the
	// whole setup+reconcile, so a half-reconciled state is never
	// advertised as Up.
	OnUp func(peerRestarted bool) error
	// Clock supplies monotonic elapsed time for detect-latency
	// accounting; defaults to time.Since of construction time.
	Clock func() time.Duration
}

// DefaultAssocConfig fills zero fields.
func DefaultAssocConfig(c AssocConfig) AssocConfig {
	if c.NodeID == "" {
		c.NodeID = "smf.l25gc"
	}
	if c.MissThreshold <= 0 {
		c.MissThreshold = 2
	}
	if c.Clock == nil {
		base := time.Now()
		c.Clock = func() time.Duration { return time.Since(base) }
	}
	return c
}

// Association is the requester-side PFCP association state machine: it
// owns setup, periodic heartbeats, miss-threshold path-down detection and
// peer-restart detection toward one peer over an Endpoint. All transport
// I/O rides the endpoint's existing T1/N1 retransmission machinery.
//
// Down→Up transitions happen ONLY through a fresh successful
// AssociationSetup (plus OnUp reconcile): a heartbeat response that
// arrives after the path was declared down must not flap the association
// back up, because the two ends may have diverged while partitioned.
type Association struct {
	ep  Endpoint
	cfg AssocConfig

	// tickBusy serializes Tick/Setup without holding a mutex across the
	// blocking Request call (a heartbeat can block for the full retry
	// budget; state readers must not wait behind it).
	tickBusy atomic.Bool

	mu            sync.Mutex
	state         AssocState
	peerNodeID    string
	peerTS        uint32
	peerRestarted bool // restart seen while down; consumed by next OnUp
	misses        int
	firstMissAt   time.Duration
	lastDownAt    time.Duration
	lastDetect    time.Duration // firstMiss→down latency of the last down

	tracec atomic.Pointer[trace.Track]

	heartbeatsOK   atomic.Uint64
	heartbeatsMiss atomic.Uint64
	downs          atomic.Uint64
	ups            atomic.Uint64
	restarts       atomic.Uint64
	setupFails     atomic.Uint64

	tickerMu   sync.Mutex
	tickerStop chan struct{}
	tickerDone chan struct{}
}

// NewAssociation wraps ep with an association state machine. The caller
// still owns ep (handler, retry profile, Close).
func NewAssociation(ep Endpoint, cfg AssocConfig) *Association {
	return &Association{ep: ep, cfg: DefaultAssocConfig(cfg)}
}

// SetTracer installs the track used for assoc transition events.
func (a *Association) SetTracer(tk *trace.Track) { a.tracec.Store(tk) }

// State returns the current association state.
func (a *Association) State() AssocState {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.state
}

// PeerNodeID returns the Node ID the peer advertised at last setup.
func (a *Association) PeerNodeID() string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.peerNodeID
}

// Misses returns the current consecutive heartbeat-failure count (tests).
func (a *Association) Misses() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.misses
}

// LastDetectLatency reports first-miss→declared-down latency of the most
// recent down transition (zero if never down, or down was not miss-driven).
func (a *Association) LastDetectLatency() time.Duration {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.lastDetect
}

// AssocCounters is a point-in-time read of the lifetime counters, for
// callers that register gauges indirectly (supervised deployments spawn
// one Association per SMF generation but register metric names once).
type AssocCounters struct {
	HeartbeatOK, HeartbeatMiss, Downs, Ups, PeerRestarts, SetupFails uint64
}

// Counters reads the lifetime counters.
func (a *Association) Counters() AssocCounters {
	return AssocCounters{
		HeartbeatOK:   a.heartbeatsOK.Load(),
		HeartbeatMiss: a.heartbeatsMiss.Load(),
		Downs:         a.downs.Load(),
		Ups:           a.ups.Load(),
		PeerRestarts:  a.restarts.Load(),
		SetupFails:    a.setupFails.Load(),
	}
}

// Tick advances the state machine one step: Up → one heartbeat exchange;
// Idle/Down → one setup (probe) attempt. Concurrent Ticks are coalesced —
// if one is already in flight the call is a no-op, so a slow heartbeat
// (burning its full retry budget) never stacks callers.
func (a *Association) Tick() {
	if !a.tickBusy.CompareAndSwap(false, true) {
		return
	}
	defer a.tickBusy.Store(false)
	switch a.State() {
	case AssocUp:
		a.heartbeat()
	default:
		a.setupLocked()
	}
}

// Setup drives an AssociationSetup exchange (plus OnUp reconcile) and, on
// success, flips the association Up. It shares the Tick coalescing guard;
// a concurrent Tick makes it return an in-progress error.
func (a *Association) Setup() error {
	if !a.tickBusy.CompareAndSwap(false, true) {
		return fmt.Errorf("pfcp: association setup already in progress")
	}
	defer a.tickBusy.Store(false)
	return a.setupLocked()
}

// setupLocked runs the setup exchange; callers hold the tickBusy guard.
func (a *Association) setupLocked() error {
	resp, err := a.ep.Request(0, false, &AssociationSetupRequest{
		NodeID:            a.cfg.NodeID,
		RecoveryTimestamp: a.cfg.RecoveryTimestamp,
	})
	if err != nil {
		a.setupFails.Add(1)
		return err
	}
	ar, ok := resp.(*AssociationSetupResponse)
	if !ok {
		a.setupFails.Add(1)
		return fmt.Errorf("pfcp: unexpected association setup response %T", resp)
	}
	if ar.Cause != CauseAccepted {
		a.setupFails.Add(1)
		return fmt.Errorf("pfcp: association setup rejected, cause %d", ar.Cause)
	}

	a.mu.Lock()
	restarted := a.peerRestarted ||
		(a.peerTS != 0 && ar.RecoveryTimestamp != a.peerTS)
	firstSetup := a.state == AssocIdle && a.peerTS == 0
	a.mu.Unlock()
	if firstSetup {
		restarted = false
	}

	// Reconcile BEFORE advertising Up: an OnUp error keeps the state Down
	// so a later Tick retries setup+reconcile from scratch.
	if a.cfg.OnUp != nil {
		if err := a.cfg.OnUp(restarted); err != nil {
			return fmt.Errorf("pfcp: association reconcile: %w", err)
		}
	}

	a.mu.Lock()
	wasDown := a.state != AssocUp
	a.state = AssocUp
	a.peerNodeID = ar.NodeID
	a.peerTS = ar.RecoveryTimestamp
	a.peerRestarted = false
	a.misses = 0
	a.firstMissAt = 0
	a.mu.Unlock()
	if wasDown {
		a.ups.Add(1)
		a.tracec.Load().Event("pfcp.assoc.up", "peer", ar.NodeID)
	}
	return nil
}

// heartbeat runs one heartbeat exchange and applies miss-threshold and
// peer-restart detection to the outcome.
func (a *Association) heartbeat() {
	resp, err := a.ep.Request(0, false, &HeartbeatRequest{
		RecoveryTimestamp: a.cfg.RecoveryTimestamp,
	})
	if err != nil {
		a.heartbeatsMiss.Add(1)
		a.mu.Lock()
		if a.state != AssocUp { // already down via another path
			a.mu.Unlock()
			return
		}
		a.misses++
		if a.misses == 1 {
			a.firstMissAt = a.cfg.Clock()
		}
		trip := a.misses >= a.cfg.MissThreshold
		a.mu.Unlock()
		if trip {
			a.markDown("heartbeat-timeout")
		}
		return
	}
	hr, ok := resp.(*HeartbeatResponse)
	if !ok {
		return
	}
	a.mu.Lock()
	if a.state != AssocUp {
		// A response landing after the path was declared down must not
		// flap the association back up — only a fresh setup+reconcile may.
		a.mu.Unlock()
		return
	}
	if a.peerTS != 0 && hr.RecoveryTimestamp != a.peerTS {
		a.peerRestarted = true
		a.mu.Unlock()
		a.restarts.Add(1)
		a.markDown("peer-restart")
		return
	}
	a.misses = 0
	a.firstMissAt = 0
	a.mu.Unlock()
	a.heartbeatsOK.Add(1)
}

// markDown performs the Up→Down transition (idempotent) and fires OnDown.
func (a *Association) markDown(reason string) {
	a.mu.Lock()
	if a.state == AssocDown {
		a.mu.Unlock()
		return
	}
	a.state = AssocDown
	now := a.cfg.Clock()
	a.lastDownAt = now
	if a.firstMissAt > 0 {
		a.lastDetect = now - a.firstMissAt
	} else {
		a.lastDetect = 0
	}
	a.misses = 0
	a.firstMissAt = 0
	a.mu.Unlock()
	a.downs.Add(1)
	a.tracec.Load().Event("pfcp.assoc.down", "reason", reason)
	if a.cfg.OnDown != nil {
		a.cfg.OnDown(reason)
	}
}

// MarkDown lets the owner force the association down (e.g. the SMF seeing
// a session-level request fail hard while heartbeats are still in flight).
func (a *Association) MarkDown(reason string) { a.markDown(reason) }

// AssocSnapshot is the deterministic serializable view of the association
// carried in the SMF resilience snapshot, so a standby promoted during a
// partition knows the path is down and which peer epoch it last saw.
type AssocSnapshot struct {
	State         uint8  `json:"state"`
	PeerNodeID    string `json:"peer_node_id,omitempty"`
	PeerTS        uint32 `json:"peer_ts,omitempty"`
	PeerRestarted bool   `json:"peer_restarted,omitempty"`
}

// Snapshot captures the replicable association state.
func (a *Association) Snapshot() AssocSnapshot {
	a.mu.Lock()
	defer a.mu.Unlock()
	return AssocSnapshot{
		State:         uint8(a.state),
		PeerNodeID:    a.peerNodeID,
		PeerTS:        a.peerTS,
		PeerRestarted: a.peerRestarted,
	}
}

// Restore installs a snapshot taken by Snapshot. Transient counters
// (misses, detect latencies) restart from zero on the new incarnation.
func (a *Association) Restore(s AssocSnapshot) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.state = AssocState(s.State)
	a.peerNodeID = s.PeerNodeID
	a.peerTS = s.PeerTS
	a.peerRestarted = s.PeerRestarted
	a.misses = 0
	a.firstMissAt = 0
}

// Start launches the live-mode ticker goroutine driving Tick every
// HeartbeatInterval. No-op if the interval is zero (manual Tick mode) or
// a ticker is already running. In a supervised deployment only the active
// SMF generation Starts its association; standbys stay in manual mode.
func (a *Association) Start() {
	if a.cfg.HeartbeatInterval <= 0 {
		return
	}
	a.tickerMu.Lock()
	defer a.tickerMu.Unlock()
	if a.tickerStop != nil {
		return
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	a.tickerStop, a.tickerDone = stop, done
	go func() {
		defer close(done)
		t := time.NewTicker(a.cfg.HeartbeatInterval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				a.Tick()
			}
		}
	}()
}

// Stop halts the ticker goroutine (if running) and waits for it to exit.
// The association state itself is preserved; Start may be called again.
func (a *Association) Stop() {
	a.tickerMu.Lock()
	stop, done := a.tickerStop, a.tickerDone
	a.tickerStop, a.tickerDone = nil, nil
	a.tickerMu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}
