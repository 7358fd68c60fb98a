// Package overload implements the admission and shedding layer that keeps
// the control plane responsive through registration storms: per-NF
// controllers with bounded, priority-classed in-flight work accounting, a
// p99-feedback loop that tightens or relaxes admission from observed
// procedure latency, and deterministic seeded backoff advice for the
// pushback messages (NAS reject with T3346-style timer, SBI 503 +
// Retry-After, PFCP congestion cause).
//
// The fast path — Admit on an uncongested NF — is allocation-free: one
// atomic load of the shed level, one atomic add on the class depth, and
// two counter increments. Everything slow (jitter RNG, histogram feed,
// level changes) happens off that path or only on rejects.
package overload

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"l25gc/internal/metrics"
	"l25gc/internal/trace"
)

// Class orders work by how reluctantly the core sheds it. Lower values are
// shed last: Drain work (deregistration, UE context release, replies that
// complete an already-admitted procedure) is never shed, so the core can
// always reduce its own load; initial registration is shed first, matching
// the paper's storm regime where new attaches are the load the operator
// can defer.
type Class uint8

// Admission classes, most- to least-protected.
const (
	// ClassDrain is never shed: deregistration, UE-context-release, and
	// mid-procedure messages of already-admitted work.
	ClassDrain Class = iota
	// ClassEmergency covers handover, paging/service-request and other
	// latency-critical mobility events.
	ClassEmergency
	// ClassSession covers PDU session establishment for registered UEs.
	ClassSession
	// ClassRegistration covers initial registration — the storm class.
	ClassRegistration

	// NumClasses sizes per-class arrays.
	NumClasses = 4
)

// Name returns a stable lowercase label for metrics and spans.
func (c Class) Name() string {
	switch c {
	case ClassDrain:
		return "drain"
	case ClassEmergency:
		return "emergency"
	case ClassSession:
		return "session"
	case ClassRegistration:
		return "registration"
	}
	return "unknown"
}

// NumLevels is the number of shed levels. Level 0 admits everything;
// each higher level sheds one more class; the top level (and recovery
// mode) admits only ClassDrain.
const NumLevels = 4

// admitMax[l] is the highest class admitted at shed level l.
var admitMax = [NumLevels]Class{
	ClassRegistration, // level 0: admit everything
	ClassSession,      // level 1: shed registrations
	ClassEmergency,    // level 2: shed sessions too
	ClassDrain,        // level 3: drain only
}

// Relaxing waits for holdTicks consecutive calm ticks — hysteresis
// against oscillation. Each advised backoff is randomized across
// [1-backoffJitter, 1+backoffJitter], decorrelating re-attempts.
const (
	holdTicks     = 2
	backoffJitter = 0.2
)

// Config shapes one Controller. The zero value is usable: defaults are
// filled by New.
type Config struct {
	// Caps bound the in-flight depth per class; <=0 means unbounded.
	// ClassDrain is always unbounded regardless of its cap, preserving
	// the drain invariant.
	Caps [NumClasses]int64
	// TargetP99: observed p99 above this tightens admission one level
	// per tick (default 50ms); below half of it for holdTicks consecutive
	// ticks relaxes admission one level.
	TargetP99 time.Duration
	// MinSamples is the minimum window population before the controller
	// acts on a p99 (default 16).
	MinSamples int
	// BackoffBase is the advised backoff at level 1 (default 100ms);
	// each further level doubles it, capped at BackoffMax (default 5s).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Seed drives the jitter RNG; the zero seed is a valid seed, so a
	// chaos seed makes reject schedules reproducible.
	Seed int64
}

func (c Config) norm() Config {
	if c.TargetP99 <= 0 {
		c.TargetP99 = 50 * time.Millisecond
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 16
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 100 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 5 * time.Second
	}
	return c
}

// Controller is one NF's admission gate. All methods are safe for
// concurrent use; a nil *Controller admits everything (no-op gate), so
// ingress paths thread it unconditionally.
type Controller struct {
	cfg  Config
	name string

	level    atomic.Int32 // current shed level, 0..NumLevels-1
	recovery atomic.Int32 // >0 while the supervisor replays: drain-only

	depth     [NumClasses]atomic.Int64
	highWater [NumClasses]atomic.Int64
	admits    [NumClasses]atomic.Uint64
	sheds     [NumClasses]atomic.Uint64
	tightens  atomic.Uint64
	relaxes   atomic.Uint64

	window *metrics.Histogram // observed procedure latency
	used   metrics.Window     // window as of the last tick that consumed it
	calm   int                // consecutive calm ticks

	rngMu sync.Mutex
	rng   *rand.Rand

	tracec atomic.Pointer[trace.Track]

	// recoveryHook, when set, observes recovery-mode transitions (the
	// telemetry pipeline triggers a flight-recorder dump from it).
	recoveryHook atomic.Pointer[func(entering bool)]

	loopMu sync.Mutex
	stop   chan struct{}
	done   chan struct{}
}

// New creates a controller named name (the NF it gates: "amf", "smf",
// "upfc"). The name labels trace events; metrics prefixes come from
// ExportMetrics.
func New(name string, cfg Config) *Controller {
	cfg = cfg.norm()
	return &Controller{
		cfg:    cfg,
		name:   name,
		window: metrics.NewHistogram(),
		rng:    rand.New(rand.NewSource(cfg.Seed)),
	}
}

// SetTracer installs a trace track; level transitions emit
// "overload.tighten"/"overload.relax" events. Nil-safe.
func (c *Controller) SetTracer(tk *trace.Track) {
	if c == nil {
		return
	}
	c.tracec.Store(tk)
}

// Admit decides whether work of class cl may enter the NF. On true the
// caller owns one unit of class depth and must pair it with Release(cl)
// when the procedure completes (or fails). On false the work was shed:
// push back with Backoff(cl). The uncongested path performs no
// allocation.
func (c *Controller) Admit(cl Class) bool {
	if c == nil {
		return true
	}
	lvl := c.level.Load()
	if c.recovery.Load() > 0 {
		lvl = NumLevels - 1
	}
	if cl > admitMax[lvl] {
		c.sheds[cl].Add(1)
		return false
	}
	d := c.depth[cl].Add(1)
	if cap := c.cfg.Caps[cl]; cap > 0 && cl != ClassDrain && d > cap {
		c.depth[cl].Add(-1)
		c.sheds[cl].Add(1)
		return false
	}
	// High-water is advisory (storm bench asserts boundedness); a lost
	// race here under-reports by at most the racing increment.
	if hw := c.highWater[cl].Load(); d > hw {
		c.highWater[cl].CompareAndSwap(hw, d)
	}
	c.admits[cl].Add(1)
	return true
}

// Release returns one unit of class depth. Extra releases (e.g. after a
// failover promoted a snapshot whose pending set differs from the live
// counters) clamp at zero instead of going negative.
func (c *Controller) Release(cl Class) {
	if c == nil {
		return
	}
	for {
		d := c.depth[cl].Load()
		if d <= 0 {
			return
		}
		if c.depth[cl].CompareAndSwap(d, d-1) {
			return
		}
	}
}

// Depth reports the current in-flight count for a class.
func (c *Controller) Depth(cl Class) int64 {
	if c == nil {
		return 0
	}
	return c.depth[cl].Load()
}

// HighWater reports the maximum in-flight depth a class has reached.
func (c *Controller) HighWater(cl Class) int64 {
	if c == nil {
		return 0
	}
	return c.highWater[cl].Load()
}

// Admitted reports the cumulative admit count for a class.
func (c *Controller) Admitted(cl Class) uint64 {
	if c == nil {
		return 0
	}
	return c.admits[cl].Load()
}

// Shed reports the cumulative shed count for a class.
func (c *Controller) Shed(cl Class) uint64 {
	if c == nil {
		return 0
	}
	return c.sheds[cl].Load()
}

// Level reports the current shed level (0 = admit everything).
func (c *Controller) Level() int {
	if c == nil {
		return 0
	}
	lvl := c.level.Load()
	if c.recovery.Load() > 0 {
		lvl = NumLevels - 1
	}
	return int(lvl)
}

// Backoff advises how long shed work of class cl should wait before
// re-attempting: the configured base doubled per shed level above zero,
// capped, with deterministic seeded jitter. Level 0 (a pure depth-cap
// reject) still advises the base, so pushback always carries a timer.
func (c *Controller) Backoff(cl Class) time.Duration {
	if c == nil {
		return 0
	}
	lvl := int(c.level.Load())
	if c.recovery.Load() > 0 {
		lvl = NumLevels - 1
	}
	d := c.cfg.BackoffBase << uint(lvl)
	// Higher (more protected) classes that still get shed deserve a
	// shorter wait than the storm class.
	if cl < ClassRegistration {
		d /= 2
	}
	if d > c.cfg.BackoffMax {
		d = c.cfg.BackoffMax
	}
	if d < c.cfg.BackoffBase/2 {
		d = c.cfg.BackoffBase / 2
	}
	c.rngMu.Lock()
	f := 1 + backoffJitter*(2*c.rng.Float64()-1)
	c.rngMu.Unlock()
	return time.Duration(float64(d) * f)
}

// Observe feeds one completed-procedure latency into the feedback window.
func (c *Controller) Observe(d time.Duration) {
	if c == nil {
		return
	}
	c.window.Observe(d)
}

// Tick runs one feedback step: read the p99 of the latencies observed
// since the last consumed window, tighten when it exceeds TargetP99,
// relax after holdTicks consecutive calm readings (p99 below half of
// TargetP99, or a sparse window). Call it from Start's loop or directly
// from tests/benches for deterministic stepping (one goroutine at a
// time).
func (c *Controller) Tick() {
	if c == nil {
		return
	}
	cur := c.window.Window()
	win := cur.Since(&c.used)
	n := win.Count()
	if n < c.cfg.MinSamples {
		// A sparse window is calm by definition: too little traffic to
		// call the NF overloaded. This must count toward relaxing even
		// when n > 0 — at a high shed level the admitted trickle can
		// stay below MinSamples forever, and requiring an empty window
		// here would wedge the controller at that level. The partial
		// window keeps accumulating across busy ticks; it is discarded
		// once a relax fires so stale latencies never feed a later p99.
		c.calm++
		if c.calm >= holdTicks {
			c.relax()
			c.calm = 0
			c.used = cur
		}
		return
	}
	p99 := win.Percentile(99)
	c.used = cur
	switch {
	case p99 > c.cfg.TargetP99:
		c.calm = 0
		c.tighten(p99)
	case p99 < c.cfg.TargetP99/2:
		c.calm++
		if c.calm >= holdTicks {
			c.relax()
			c.calm = 0
		}
	default:
		c.calm = 0
	}
}

func (c *Controller) tighten(p99 time.Duration) {
	for {
		lvl := c.level.Load()
		if lvl >= NumLevels-1 {
			return
		}
		if c.level.CompareAndSwap(lvl, lvl+1) {
			c.tightens.Add(1)
			if tk := c.tracec.Load(); tk != nil {
				tk.Event("overload.tighten", "nf", c.name,
					"level", levelName(int(lvl+1)), "p99", p99.String())
			}
			return
		}
	}
}

func (c *Controller) relax() {
	for {
		lvl := c.level.Load()
		if lvl <= 0 {
			return
		}
		if c.level.CompareAndSwap(lvl, lvl-1) {
			c.relaxes.Add(1)
			if tk := c.tracec.Load(); tk != nil {
				tk.Event("overload.relax", "nf", c.name,
					"level", levelName(int(lvl-1)))
			}
			return
		}
	}
}

func levelName(l int) string {
	switch l {
	case 0:
		return "open"
	case 1:
		return "shed-registration"
	case 2:
		return "shed-session"
	default:
		return "drain-only"
	}
}

// EnterRecovery forces drain-only admission while the supervisor runs
// promote→replay for the gated NF: replay must not compete with new work,
// which bounds recovery time. Nested calls stack.
func (c *Controller) EnterRecovery() {
	if c == nil {
		return
	}
	if c.recovery.Add(1) == 1 {
		if tk := c.tracec.Load(); tk != nil {
			tk.Event("overload.recovery_enter", "nf", c.name)
		}
		if h := c.recoveryHook.Load(); h != nil {
			(*h)(true)
		}
	}
}

// SetRecoveryHook installs fn, called with entering=true when the
// controller transitions into recovery mode (the first of possibly
// stacked EnterRecovery calls) and entering=false when the last
// ExitRecovery restores normal admission. Nil-safe; nil fn removes the
// hook.
func (c *Controller) SetRecoveryHook(fn func(entering bool)) {
	if c == nil {
		return
	}
	if fn == nil {
		c.recoveryHook.Store(nil)
		return
	}
	c.recoveryHook.Store(&fn)
}

// ExitRecovery restores feedback-driven admission.
func (c *Controller) ExitRecovery() {
	if c == nil {
		return
	}
	if c.recovery.Add(-1) == 0 {
		if tk := c.tracec.Load(); tk != nil {
			tk.Event("overload.recovery_exit", "nf", c.name)
		}
		if h := c.recoveryHook.Load(); h != nil {
			(*h)(false)
		}
	}
}

// Start launches the feedback loop, ticking every interval. Stop with
// Stop. Starting an already-started controller is a no-op.
func (c *Controller) Start(interval time.Duration) {
	if c == nil {
		return
	}
	if interval <= 0 {
		interval = 50 * time.Millisecond
	}
	c.loopMu.Lock()
	defer c.loopMu.Unlock()
	if c.stop != nil {
		return
	}
	c.stop = make(chan struct{})
	c.done = make(chan struct{})
	go func(stop, done chan struct{}) {
		defer close(done)
		t := time.NewTicker(interval) //l25gc:allow determinism controller tick cadence is wall-time machinery; admission decisions themselves are seed-pure
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				c.Tick()
			}
		}
	}(c.stop, c.done)
}

// Stop halts the feedback loop and waits for it to exit. Idempotent.
func (c *Controller) Stop() {
	if c == nil {
		return
	}
	c.loopMu.Lock()
	stop, done := c.stop, c.done
	c.stop, c.done = nil, nil
	c.loopMu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}

// ExportMetrics registers the controller's counters under prefix
// (canonically "overload.<nf>"): per-class ".admit.<class>" and
// ".shed.<class>", the current ".level", depth high-waters, and the
// tighten/relax transition counts.
func (c *Controller) ExportMetrics(reg *metrics.Registry, prefix string) {
	if c == nil || reg == nil {
		return
	}
	for cl := Class(0); cl < NumClasses; cl++ {
		cl := cl
		reg.RegisterGauge(prefix+".admit."+cl.Name(), c.admits[cl].Load)
		reg.RegisterGauge(prefix+".shed."+cl.Name(), c.sheds[cl].Load)
		reg.RegisterGauge(prefix+".depth_hw."+cl.Name(), func() uint64 {
			return uint64(c.highWater[cl].Load())
		})
		// Instantaneous in-flight depth: unlike the cumulative counters
		// this can go down, so the telemetry sampler reads it as a level,
		// not a rate.
		reg.RegisterGauge(prefix+".depth."+cl.Name(), func() uint64 {
			return uint64(c.depth[cl].Load())
		})
	}
	reg.RegisterGauge(prefix+".level", func() uint64 { return uint64(c.Level()) })
	reg.RegisterGauge(prefix+".tightens", c.tightens.Load)
	reg.RegisterGauge(prefix+".relaxes", c.relaxes.Load)
}
