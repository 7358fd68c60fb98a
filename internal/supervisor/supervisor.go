// Package supervisor closes the §3.5 resiliency loop: where
// internal/resilience provides the mechanisms (checkpoints, frozen
// replicas, the counter-stamped packet log, the heartbeat detector) and
// the examples scripted a single failover by hand, the Supervisor is the
// lifecycle orchestrator that keeps NF units protected continuously.
//
// Each registered unit runs one active instance (generation g0) and one
// frozen standby (g1). Every inbound message is stamped through the
// unit's packet-log counter before it is applied; checkpoints (every
// CheckpointEvery applied messages, or on request) synchronize the active
// state into the standby's replica and release the covered log prefix
// (bounding replay memory). When the detector
// declares the active instance dead — from heartbeat loss or an
// internal/faults crash/freeze — the supervisor promotes the standby
// (restore checkpoint, replay the log tail in counter order), spins up
// and resyncs a fresh standby, and re-arms detection on the promoted
// generation. The loop is closed: a second, third, n-th crash is
// survived the same way, which is what distinguishes the supervisor from
// the hand-scripted failover it replaces.
package supervisor

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"l25gc/internal/faults"
	"l25gc/internal/metrics"
	"l25gc/internal/overload"
	"l25gc/internal/resilience"
	"l25gc/internal/trace"
)

// Instance is one running copy of an NF as the supervisor manages it:
// its state can be checkpointed and restored (Snapshotter), and its
// inbound messages can be applied — live delivery and post-failover
// replay use the same entry point, so replayed traffic exercises exactly
// the code the original traffic did.
type Instance interface {
	resilience.Snapshotter
	// Deliver applies one counter-stamped inbound message.
	Deliver(class resilience.Class, counter uint64, data []byte) error
}

// Closer is optionally implemented by instances holding external
// resources (listeners, endpoints); the supervisor closes retired
// generations after promotion.
type Closer interface{ Close() error }

// ErrUnitDown reports a delivery rejected because the active instance is
// crashed or frozen. The message is already in the packet log and will be
// recovered by replay; callers with request/response semantics should
// retry after recovery (Conn does this automatically).
var ErrUnitDown = errors.New("supervisor: active instance down")

// ErrNoStandby reports a failover with no spawned standby to promote.
var ErrNoStandby = errors.New("supervisor: no standby to promote")

// The failure detector probes the active generation every probeInterval
// and declares it dead after probeMisses consecutive failed probes.
const (
	probeInterval = 200 * time.Microsecond
	probeMisses   = 3
)

// UnitConfig parameterizes one supervised NF unit.
type UnitConfig struct {
	// Name of the unit ("upf", "amf", "smf"); generations are named
	// Name+".g0", ".g1", ... in the injector's crash registry.
	Name string
	// Spawn creates a fresh instance for generation gen. It is called for
	// the initial primary (gen 0), the initial standby (gen 1), and every
	// re-protection standby after a promotion.
	Spawn func(u *Unit, gen int) (Instance, error)
	// Injector, when set, supplies crash/freeze semantics: deliveries run
	// through the active generation's ".ingress" point and the liveness
	// probe is Injector.AliveProbe(target).
	Injector *faults.Injector
	// Probe overrides the liveness probe (used without an injector). It
	// receives the current active target name.
	Probe func(target string) bool
	// CheckpointEvery triggers an automatic checkpoint after this many
	// applied messages (0 = checkpoints are explicit: Unit.Checkpoint).
	CheckpointEvery int
	// OnPromote, when set, runs once at registration with the initial
	// primary and again after every completed failover with the promoted
	// instance (after the replacement standby has spawned). Instances
	// whose generations share an external ingress binding — e.g. SMFs on
	// one N4 endpoint — re-claim it here so inbound traffic reaches live
	// state instead of the frozen standby.
	OnPromote func(active Instance)
	// Overload, when set, is the NF's admission controller: it is forced
	// to drain-only for the duration of promote→replay→resync, bounding
	// recovery time. The admission gate itself sits in front of the unit
	// conn (overload.WrapSBI), not in the supervisor.
	Overload *overload.Controller
}

// RecoveryStats reports the measurements of one completed failover.
type RecoveryStats struct {
	Gen      int           // generation that was promoted
	Detect   time.Duration // probe start -> failure declared
	Restore  time.Duration // promote + replay: checkpoint restored, log tail re-applied
	Downtime time.Duration // Detect + Restore + standby resync (ingress is held until re-protected)
	Replayed int           // messages replayed from the log
	Errors   int           // replay deliveries that returned errors
}

// Unit is one supervised NF: an active instance, a frozen standby, the
// packet log in front of both, and the armed detector.
type Unit struct {
	cfg UnitConfig
	sup *Supervisor

	log *resilience.PacketLogger
	det *resilience.Detector

	mu         sync.Mutex
	active     Instance
	gen        int
	standby    Instance
	standbyGen int
	replica    *resilience.LocalReplica
	applied    uint64 // highest counter reflected in active state
	sinceCkpt  int
	nextSpawn  int

	detMu  sync.Mutex
	closed bool

	recoveries atomic.Uint64
	lost       atomic.Uint64
	reqID      atomic.Uint64
	lastMu     sync.Mutex
	last       RecoveryStats

	detectHist   *metrics.Histogram
	downtimeHist *metrics.Histogram
}

// Config parameterizes the Supervisor.
type Config struct {
	// Tracer, when non-nil, receives recovery spans on a "supervisor"
	// track (supervisor.failover with promote/replay/resync children).
	Tracer *trace.Tracer
	// Metrics, when non-nil, receives per-unit recovery gauges and
	// detection/downtime histograms under "supervisor.<unit>.*".
	Metrics *metrics.Registry
	// Clock, when non-nil, supplies monotonic elapsed time for downtime
	// and SBI latency measurement; nil defaults to the process monotonic
	// clock. The chaos suite injects a deterministic clock here so the
	// measured figures are a function of the schedule, not the host.
	Clock func() time.Duration
	// Sleep, when non-nil, implements injected ingress delays and
	// recovery polling; nil defaults to time.Sleep.
	Sleep func(time.Duration)
	// OnRecovery, when non-nil, is called after every completed failover
	// with the promoted unit's name and measurements. The telemetry
	// pipeline hangs its flight-recorder dump trigger here; the hook runs
	// on the failover goroutine with no unit lock held.
	OnRecovery func(unit string, stats RecoveryStats)
}

// Supervisor orchestrates failure resiliency across registered units.
type Supervisor struct {
	track      *trace.Track
	reg        *metrics.Registry
	clock      func() time.Duration
	sleep      func(time.Duration)
	onRecovery func(unit string, stats RecoveryStats)

	mu    sync.Mutex
	units map[string]*Unit
}

// New creates a supervisor.
func New(cfg Config) *Supervisor {
	clock, sleep := cfg.Clock, cfg.Sleep
	if clock == nil {
		base := time.Now()                                       //l25gc:allow determinism default clock base, read once at construction
		clock = func() time.Duration { return time.Since(base) } //l25gc:allow determinism default monotonic clock; chaos runs inject Config.Clock
	}
	if sleep == nil {
		sleep = time.Sleep
	}
	return &Supervisor{
		track:      trace.NewTrack(cfg.Tracer, "supervisor"),
		reg:        cfg.Metrics,
		clock:      clock,
		sleep:      sleep,
		onRecovery: cfg.OnRecovery,
		units:      make(map[string]*Unit),
	}
}

// Register spawns the unit's primary (g0) and standby (g1), ships the
// initial checkpoint so the standby is promotable from the first instant,
// and arms the failure detector on the primary.
func (s *Supervisor) Register(cfg UnitConfig) (*Unit, error) {
	if cfg.Name == "" || cfg.Spawn == nil {
		return nil, errors.New("supervisor: unit needs Name and Spawn")
	}
	u := &Unit{
		cfg:          cfg,
		sup:          s,
		log:          resilience.NewPacketLogger(0),
		detectHist:   metrics.NewHistogram(),
		downtimeHist: metrics.NewHistogram(),
	}
	primary, err := cfg.Spawn(u, 0)
	if err != nil {
		return nil, fmt.Errorf("supervisor: spawn %s.g0: %w", cfg.Name, err)
	}
	standby, err := cfg.Spawn(u, 1)
	if err != nil {
		return nil, fmt.Errorf("supervisor: spawn %s.g1: %w", cfg.Name, err)
	}
	u.active, u.gen = primary, 0
	u.standby, u.standbyGen = standby, 1
	u.replica = resilience.NewLocalReplica(standby)
	u.nextSpawn = 2
	if err := u.Checkpoint(); err != nil {
		return nil, fmt.Errorf("supervisor: initial checkpoint for %s: %w", cfg.Name, err)
	}
	if cfg.OnPromote != nil {
		cfg.OnPromote(primary)
	}

	probe := func() bool { return u.probeActive() }
	u.det = &resilience.Detector{
		Probe:     probe,
		Interval:  probeInterval,
		Misses:    probeMisses,
		OnFailure: func(dt time.Duration) { u.failover(dt) },
	}
	u.det.Start()

	s.mu.Lock()
	s.units[cfg.Name] = u
	s.mu.Unlock()
	s.exportMetrics(u)
	return u, nil
}

// exportMetrics registers the unit's recovery observables.
func (s *Supervisor) exportMetrics(u *Unit) {
	if s.reg == nil {
		return
	}
	p := "supervisor." + u.cfg.Name
	s.reg.RegisterGauge(p+".recoveries", u.recoveries.Load)
	s.reg.RegisterGauge(p+".lost_deliveries", u.lost.Load)
	s.reg.RegisterGauge(p+".replay_depth", func() uint64 {
		u.lastMu.Lock()
		defer u.lastMu.Unlock()
		return uint64(u.last.Replayed)
	})
	s.reg.RegisterHistogram(p+".detect", u.detectHist)
	s.reg.RegisterHistogram(p+".downtime", u.downtimeHist)
	// Continuous-telemetry levels: the active generation number (steps on
	// every promote) and the packet-log depth across classes (bounded by
	// ReleaseUpTo; unbounded growth means checkpoints stopped landing).
	s.reg.RegisterGauge(p+".generation", func() uint64 { return uint64(u.Gen()) })
	s.reg.RegisterGauge(p+".log_depth", func() uint64 {
		var total int
		for _, d := range u.log.Depth() {
			total += d
		}
		return uint64(total)
	})
}

// Unit returns a registered unit by name (nil if absent).
func (s *Supervisor) Unit(name string) *Unit {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.units[name]
}

// Stop disarms every detector. Units stay queryable; no further automatic
// recovery happens.
func (s *Supervisor) Stop() {
	for _, u := range s.sortedUnits() {
		u.disarm()
	}
}

// Close stops the supervisor and closes every unit (Unit.Close).
func (s *Supervisor) Close() {
	s.Stop()
	for _, u := range s.sortedUnits() {
		u.Close()
	}
}

// sortedUnits returns the registered units in name order.
func (s *Supervisor) sortedUnits() []*Unit {
	s.mu.Lock()
	defer s.mu.Unlock()
	units := make([]*Unit, 0, len(s.units))
	for _, u := range s.units {
		units = append(units, u)
	}
	sort.Slice(units, func(i, j int) bool { return units[i].cfg.Name < units[j].cfg.Name })
	return units
}

// disarm stops the unit's detector for good: a failover in flight does
// not re-arm it.
func (u *Unit) disarm() {
	u.detMu.Lock()
	u.closed = true
	u.detMu.Unlock()
	u.det.Stop()
}

// Close disarms the unit and closes its live instances (active and
// standby) that hold external resources. An embedder that owns the units'
// lifecycles (core.Core) closes each one where it would close the plain
// NF: an AMF before the SMF connection its in-flight procedures still use.
func (u *Unit) Close() {
	u.disarm()
	u.mu.Lock()
	insts := []Instance{u.active, u.standby}
	u.mu.Unlock()
	for _, in := range insts {
		if c, ok := in.(Closer); ok {
			c.Close()
		}
	}
}

// --- unit: ingress, checkpoints ---

// Target returns the active generation's crash-registry name.
func (u *Unit) Target() string {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.targetLocked(u.gen)
}

func (u *Unit) targetLocked(gen int) string {
	return u.cfg.Name + ".g" + strconv.Itoa(gen)
}

// Gen returns the active generation number.
func (u *Unit) Gen() int {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.gen
}

// Active returns the active instance (for state assertions in tests).
func (u *Unit) Active() Instance {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.active
}

// Logger exposes the unit's packet log (diagnostics: depth assertions).
func (u *Unit) Logger() *resilience.PacketLogger { return u.log }

// Recoveries reports how many failovers completed.
func (u *Unit) Recoveries() uint64 { return u.recoveries.Load() }

// Lost reports deliveries rejected by a crashed active instance (all of
// them remain in the log and are recovered by replay).
func (u *Unit) Lost() uint64 { return u.lost.Load() }

// LastRecovery returns the most recent failover's measurements.
func (u *Unit) LastRecovery() RecoveryStats {
	u.lastMu.Lock()
	defer u.lastMu.Unlock()
	return u.last
}

// probeActive reports the liveness of the current active generation.
func (u *Unit) probeActive() bool {
	target := u.Target()
	if u.cfg.Probe != nil {
		return u.cfg.Probe(target)
	}
	if u.cfg.Injector != nil {
		return u.cfg.Injector.AliveProbe(target)()
	}
	return true
}

// Ingress stamps one inbound message through the packet-log counter and
// applies it to the active instance. A message rejected because the
// active instance is down returns ErrUnitDown — it is already logged and
// will reach the promoted replica via replay.
func (u *Unit) Ingress(class resilience.Class, data []byte) (uint64, error) {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.ingressLocked(class, data, nil)
}

// IngressApply is Ingress for taps that apply the message themselves
// (the AMF's NGAP dispatch, the SMF's N4 handler): apply runs inside the
// unit's consistency section, so a checkpoint can never cover a counter
// whose side effects are still in flight.
func (u *Unit) IngressApply(class resilience.Class, data []byte, apply func() error) (uint64, error) {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.ingressLocked(class, data, func(uint64) error { return apply() })
}

// ingressLocked logs, fault-checks, and applies one message. apply, when
// non-nil, replaces active.Deliver as the application step and receives
// the message's counter.
func (u *Unit) ingressLocked(class resilience.Class, data []byte, apply func(ctr uint64) error) (uint64, error) {
	ctr, _ := u.log.Log(class, data)
	target := u.targetLocked(u.gen)
	if err := u.faultCheckLocked(target, data); err != nil {
		return ctr, err
	}
	var err error
	if apply != nil {
		err = apply(ctr)
	} else {
		err = u.active.Deliver(class, ctr, data)
	}
	if err != nil {
		return ctr, err
	}
	u.applied = ctr
	u.sinceCkpt++
	if u.cfg.CheckpointEvery > 0 && u.sinceCkpt >= u.cfg.CheckpointEvery {
		if cerr := u.checkpointLocked(); cerr == nil {
			u.sinceCkpt = 0
		}
	}
	return ctr, nil
}

// faultCheckLocked runs the injector's ingress point for target and
// reports ErrUnitDown for crashed/frozen targets. The triggering message
// is counted lost at the instance but survives in the log.
func (u *Unit) faultCheckLocked(target string, data []byte) error {
	inj := u.cfg.Injector
	if inj == nil {
		return nil
	}
	act := inj.Decide(faults.Point(target+".ingress"), data)
	if inj.Crashed(target) || inj.Frozen(target) {
		u.lost.Add(1)
		return fmt.Errorf("%w: %s", ErrUnitDown, target)
	}
	if act.Drop {
		u.lost.Add(1)
		return fmt.Errorf("supervisor: %s: ingress message dropped", target)
	}
	if act.Delay > 0 {
		u.sup.sleep(act.Delay)
	}
	return nil
}

// Checkpoint snapshots the active instance at the current output-commit
// point, syncs the frozen replica, and releases the covered packet-log
// prefix — the automatic trimming that bounds replay memory under long
// runs.
func (u *Unit) Checkpoint() error {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.checkpointLocked()
}

func (u *Unit) checkpointLocked() error {
	state, err := u.active.Snapshot()
	if err != nil {
		return fmt.Errorf("supervisor: snapshot %s: %w", u.targetLocked(u.gen), err)
	}
	cp := resilience.Checkpoint{Counter: u.applied, State: state}
	u.replica.Sync(cp)
	// The standby acknowledged the checkpoint: everything it covers can
	// leave the replay buffers.
	u.log.ReleaseUpTo(cp.Counter)
	return nil
}

// --- failover ---

// failover runs on the detector goroutine when the active generation is
// declared dead: promote the frozen standby, replay the log tail, spawn
// and resync a fresh standby, re-arm detection. Protect -> detect ->
// promote -> replay -> re-protect.
func (u *Unit) failover(detect time.Duration) {
	root := u.sup.track.Start("supervisor.failover")
	root.Attr("unit", u.cfg.Name)
	start := u.sup.clock()

	// Shed new work while promote→replay runs: replay must not race fresh
	// admissions for the promoted instance's attention.
	u.cfg.Overload.EnterRecovery()
	defer u.cfg.Overload.ExitRecovery()

	u.mu.Lock()
	deadGen := u.gen
	root.Attr("failed", u.targetLocked(deadGen))
	if u.standby == nil {
		u.mu.Unlock()
		root.Attr("error", ErrNoStandby.Error())
		root.End()
		return
	}

	// Promote: restore the last checkpoint into the standby.
	promote := root.Child("supervisor.promote")
	replayAfter, err := u.replica.Unfreeze()
	promote.End()
	if err != nil {
		u.mu.Unlock()
		root.Attr("error", err.Error())
		root.End()
		return
	}

	// Replay the log tail in counter order through the promoted
	// instance's own ingress faults (a cascading crash can strike here
	// and is caught by the re-armed detector below).
	replaySpan := root.Child("supervisor.replay")
	newTarget := u.targetLocked(u.standbyGen)
	replay := u.log.ReplayFrom(replayAfter)
	replayErrs := 0
	applied := replayAfter
	for _, p := range replay {
		if err := u.faultCheckLocked(newTarget, p.Data); err != nil {
			replayErrs++
			continue
		}
		if err := u.standby.Deliver(p.Class, p.Counter, p.Data); err != nil {
			replayErrs++
			continue
		}
		applied = p.Counter
	}
	replaySpan.Attr("messages", strconv.Itoa(len(replay)))
	replaySpan.End()
	restore := u.sup.clock() - start

	// Swap: the standby is the new active.
	retired := u.active
	u.active, u.gen = u.standby, u.standbyGen
	u.applied = applied
	u.standby, u.replica = nil, nil

	// Re-protect: spawn a fresh standby and resync it immediately so a
	// follow-up crash is survivable without waiting for the next
	// checkpoint.
	resync := root.Child("supervisor.resync")
	if fresh, serr := u.cfg.Spawn(u, u.nextSpawn); serr == nil {
		u.standby, u.standbyGen = fresh, u.nextSpawn
		u.nextSpawn++
		u.replica = resilience.NewLocalReplica(fresh)
		u.checkpointLocked()
		u.sinceCkpt = 0
	} else {
		resync.Attr("spawn_error", serr.Error())
	}
	resync.End()
	downtime := detect + (u.sup.clock() - start)
	promoted := u.active
	u.mu.Unlock()

	if u.cfg.OnPromote != nil {
		u.cfg.OnPromote(promoted)
	}
	if c, ok := retired.(Closer); ok {
		c.Close()
	}

	stats := RecoveryStats{
		Gen: u.gen, Detect: detect, Restore: restore, Downtime: downtime,
		Replayed: len(replay), Errors: replayErrs,
	}
	u.lastMu.Lock()
	u.last = stats
	u.lastMu.Unlock()
	u.detectHist.Observe(detect)
	u.downtimeHist.Observe(downtime)
	if u.sup.onRecovery != nil {
		u.sup.onRecovery(u.cfg.Name, stats)
	}
	// Counted last: AwaitRecovery returning means the hook has run too.
	u.recoveries.Add(1)

	root.Attr("promoted", u.cfg.Name+".g"+strconv.Itoa(u.gen))
	root.End()

	// Re-arm detection on the promoted generation (the detector is
	// re-armable; this call runs on its own OnFailure goroutine).
	u.detMu.Lock()
	if !u.closed {
		u.det.Start()
	}
	u.detMu.Unlock()
}

// AwaitRecovery blocks until at least n failovers completed (or the
// timeout elapses).
func (u *Unit) AwaitRecovery(n uint64, timeout time.Duration) error {
	deadline := u.sup.clock() + timeout
	for u.recoveries.Load() < n {
		if u.sup.clock() > deadline {
			return fmt.Errorf("supervisor: %s: %d/%d recoveries after %v",
				u.cfg.Name, u.recoveries.Load(), n, timeout)
		}
		u.sup.sleep(200 * time.Microsecond)
	}
	return nil
}
