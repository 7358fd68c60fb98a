// Package faults is the deterministic fault-injection framework behind the
// chaos test suite: a seed-driven injector that can drop, delay, duplicate,
// reorder or corrupt messages at named injection points, and crash, freeze
// or partition whole components. The injection points are threaded through
// the transport layers (PFCP endpoints, SBI connections, the ONVM
// descriptor switch, the kernel-path sockets) so the same procedures the
// paper evaluates on the happy path can be replayed under adversarial
// schedules.
//
// Determinism is the design center: every injection point owns an RNG
// derived from the injector seed and the point name, and every probability
// draw is tied to the point's message counter. Two runs that present the
// same message sequence at a point therefore make identical fault
// decisions — a failing chaos schedule is reproducible from its seed alone.
//
// All Injector methods are nil-receiver safe, so call sites inject
// unconditionally ("e.inj.Transmit(...)") and pay nothing when no injector
// is installed.
package faults

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"l25gc/internal/metrics"
	"l25gc/internal/trace"
)

// Kind enumerates the fault classes the injector can produce.
type Kind uint8

// Fault kinds.
const (
	// Drop discards the message.
	Drop Kind = iota
	// Delay defers the message by Rule.Delay before letting it proceed.
	Delay
	// Duplicate sends the message twice.
	Duplicate
	// Reorder holds the message back until Rule.HoldFor later messages
	// have passed the point, then releases it.
	Reorder
	// Corrupt flips bytes in the message payload.
	Corrupt
	// Crash marks Rule.Target crashed (probes fail, deliveries blocked)
	// and runs any registered crash hooks. The triggering message still
	// proceeds unless another rule drops it.
	Crash
	// Freeze marks Rule.Target frozen: like Crash, but semantically a
	// paused component that may later be revived (cgroup-freezer model).
	Freeze
	// Partition blocks every point whose name starts with Rule.Target
	// until Heal is called.
	Partition
	numKinds
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Drop:
		return "drop"
	case Delay:
		return "delay"
	case Duplicate:
		return "duplicate"
	case Reorder:
		return "reorder"
	case Corrupt:
		return "corrupt"
	case Crash:
		return "crash"
	case Freeze:
		return "freeze"
	case Partition:
		return "partition"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Point names one injection point, hierarchically dotted: "pfcp.smf.tx",
// "sbi.http.invoke", "onvm.deliver", "kern.n3.rx". Rules match a point
// exactly or by prefix with a trailing "*" ("pfcp.*").
type Point string

// Direction scopes a partition to one transmission direction, modelling
// asymmetric link failures: a DirTx partition blackholes only the
// target's ".tx" points (it can hear but not speak — its peers see
// requests answered by silence), DirRx only ".rx" points. DirBoth (the
// zero value) is the classic symmetric partition.
type Direction uint8

const (
	DirBoth Direction = iota
	DirTx
	DirRx
)

// String renders the direction for trace attributes.
func (d Direction) String() string {
	switch d {
	case DirTx:
		return "tx"
	case DirRx:
		return "rx"
	}
	return "both"
}

// blocks reports whether a partition with this direction blackholes p.
func (d Direction) blocks(p Point) bool {
	switch d {
	case DirTx:
		return strings.HasSuffix(string(p), ".tx")
	case DirRx:
		return strings.HasSuffix(string(p), ".rx")
	}
	return true
}

// Rule arms one fault at matching points.
type Rule struct {
	// Point to match: exact name, or prefix glob ending in "*".
	Point Point
	// Kind of fault to inject.
	Kind Kind
	// Prob is the per-message firing probability in [0,1]. 0 means 1
	// (always fire) so the zero value of a targeted rule is useful.
	Prob float64
	// After skips the first After messages seen at the point before the
	// rule becomes eligible (deterministic mid-procedure triggers).
	After int
	// Count caps the number of firings (0 = unlimited).
	Count int
	// Delay is the deferral for Kind Delay.
	Delay time.Duration
	// HoldFor is the reorder distance for Kind Reorder (default 2).
	HoldFor int
	// Target names the component for Crash / Freeze / Partition.
	Target string
	// Dir scopes a Partition rule to one direction (DirBoth, DirTx,
	// DirRx); ignored for other kinds.
	Dir Direction
	// Heal, when positive on a Partition rule, schedules the partition
	// to auto-heal that long after it fires (timed partitions without a
	// scenario goroutine babysitting the injector).
	Heal time.Duration
}

// held is a reorder-held message awaiting release.
type held struct {
	release func()
	after   int // messages remaining until release
}

// pointState is the per-point deterministic context.
type pointState struct {
	rng  *rand.Rand
	seen int // messages observed at this point
	held []held
}

// ruleState pairs a rule with its firing count.
type ruleState struct {
	Rule
	fired int
}

// statKey indexes the per-point, per-kind fault counters.
type statKey struct {
	point Point
	kind  Kind
}

// Injector evaluates the armed rules at every injection point. The zero
// Injector is not usable; construct with New. A nil *Injector is a valid
// no-op at every call site.
type Injector struct {
	seed int64

	tracec atomic.Pointer[trace.Track]

	mu          sync.Mutex
	rules       []*ruleState
	points      map[Point]*pointState
	crashed     map[string]bool
	frozen      map[string]bool
	partitioned map[string]Direction
	onCrash     map[string][]func()
	stats       map[statKey]uint64
}

// New creates an injector whose whole schedule derives from seed.
func New(seed int64) *Injector {
	return &Injector{
		seed:        seed,
		points:      make(map[Point]*pointState),
		crashed:     make(map[string]bool),
		frozen:      make(map[string]bool),
		partitioned: make(map[string]Direction),
		onCrash:     make(map[string][]func()),
		stats:       make(map[statKey]uint64),
	}
}

// SetTracer installs a trace track: every fired fault is emitted as an
// instant event ("fault.drop", "fault.delay", ...) carrying its injection
// point, so chaos schedules are visible inline in exported traces.
func (i *Injector) SetTracer(tk *trace.Track) {
	if i == nil {
		return
	}
	i.tracec.Store(tk)
}

// ExportMetrics registers per-kind fired-fault totals under prefix
// (prefix+".drop", prefix+".delay", ...).
func (i *Injector) ExportMetrics(reg *metrics.Registry, prefix string) {
	if i == nil {
		return
	}
	for k := Kind(0); k < numKinds; k++ {
		k := k
		reg.RegisterGauge(prefix+"."+k.String(), func() uint64 { return i.Total(k) })
	}
}

// Seed returns the injector's seed (for logging failing schedules).
func (i *Injector) Seed() int64 {
	if i == nil {
		return 0
	}
	return i.seed
}

// Add arms a rule; it returns the injector for chaining.
func (i *Injector) Add(r Rule) *Injector {
	if i == nil {
		return nil
	}
	if r.Prob == 0 {
		r.Prob = 1
	}
	if r.Kind == Reorder && r.HoldFor <= 0 {
		r.HoldFor = 2
	}
	i.mu.Lock()
	i.rules = append(i.rules, &ruleState{Rule: r})
	i.mu.Unlock()
	return i
}

// fnv hashes a point name for per-point RNG derivation.
func fnv(s Point) int64 {
	h := uint64(14695981039346656037)
	for _, c := range []byte(s) {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return int64(h)
}

// point returns (creating on first use) the state for p. Caller holds mu.
func (i *Injector) point(p Point) *pointState {
	ps := i.points[p]
	if ps == nil {
		ps = &pointState{rng: rand.New(rand.NewSource(i.seed ^ fnv(p)))}
		i.points[p] = ps
	}
	return ps
}

// matches reports whether rule r applies to point p.
func (r *ruleState) matches(p Point) bool {
	if strings.HasSuffix(string(r.Point), "*") {
		return strings.HasPrefix(string(p), strings.TrimSuffix(string(r.Point), "*"))
	}
	return r.Point == p
}

// Action is one message's combined fault decision.
type Action struct {
	// Drop discards the message (set by Drop rules, partitions, and
	// frozen/crashed targets).
	Drop bool
	// Delay defers the message.
	Delay time.Duration
	// Duplicate sends the message one extra time.
	Duplicate bool
	// HoldFor holds the message until this many later messages pass the
	// point (0 = no reorder).
	HoldFor int
	// Corrupt flips bytes in the payload.
	Corrupt bool
}

// Faulty reports whether any fault fired.
func (a Action) Faulty() bool {
	return a.Drop || a.Delay > 0 || a.Duplicate || a.HoldFor > 0 || a.Corrupt
}

// Decide evaluates the armed rules for one message at p, mutating data in
// place on corruption, and returns the combined action. data may be nil for
// descriptor (non-byte) paths; Corrupt then has no effect. Decide also
// fires any Crash / Freeze / Partition rules scheduled at p.
func (i *Injector) Decide(p Point, data []byte) Action {
	var act Action
	if i == nil {
		return act
	}
	var fired []Kind
	i.mu.Lock()
	ps := i.point(p)
	ps.seen++
	// Release reorder-held messages whose window expired.
	var release []func()
	keep := ps.held[:0]
	for _, h := range ps.held {
		h.after--
		if h.after <= 0 {
			release = append(release, h.release)
		} else {
			keep = append(keep, h)
		}
	}
	ps.held = keep

	for _, r := range i.rules {
		if !r.matches(p) {
			continue
		}
		if ps.seen <= r.After {
			continue
		}
		if r.Count > 0 && r.fired >= r.Count {
			continue
		}
		if r.Prob < 1 && ps.rng.Float64() >= r.Prob {
			continue
		}
		r.fired++
		i.stats[statKey{p, r.Kind}]++
		fired = append(fired, r.Kind)
		switch r.Kind {
		case Drop:
			act.Drop = true
		case Delay:
			act.Delay += r.Delay
		case Duplicate:
			act.Duplicate = true
		case Reorder:
			act.HoldFor = r.HoldFor
		case Corrupt:
			act.Corrupt = true
			corrupt(ps.rng, data)
		case Crash:
			i.crashLocked(r.Target)
		case Freeze:
			i.frozen[r.Target] = true
		case Partition:
			i.partitionLocked(r.Target, r.Dir, r.Heal)
		}
	}
	// A partitioned prefix or a dead/frozen component blackholes the point.
	if !act.Drop && i.blockedLocked(p) {
		act.Drop = true
		i.stats[statKey{p, Partition}]++
		fired = append(fired, Partition)
	}
	i.mu.Unlock()
	// Trace events are emitted after mu is released: Track.Event takes the
	// tracer lock, and callers may already be inside traced sections.
	if len(fired) > 0 {
		if tk := i.tracec.Load(); tk != nil {
			for _, k := range fired {
				tk.Event("fault."+k.String(), "point", string(p))
			}
		}
	}
	for _, f := range release {
		f()
	}
	return act
}

// blockedLocked reports whether p falls under a partition, crash or freeze.
func (i *Injector) blockedLocked(p Point) bool {
	for prefix, dir := range i.partitioned {
		if strings.HasPrefix(string(p), prefix) && dir.blocks(p) {
			return true
		}
	}
	for _, set := range []map[string]bool{i.crashed, i.frozen} {
		for prefix := range set {
			if strings.HasPrefix(string(p), prefix) {
				return true
			}
		}
	}
	return false
}

// partitionLocked installs a partition (optionally directed and timed);
// callers hold i.mu.
func (i *Injector) partitionLocked(prefix string, d Direction, heal time.Duration) {
	i.partitioned[prefix] = d
	if heal > 0 {
		//l25gc:allow determinism scheduled heal is wall-time fault machinery, same as injected delivery delay: the seed fixes that the partition fires, not when the heal timer lands
		time.AfterFunc(heal, func() { i.Heal(prefix) })
	}
}

// corrupt flips 1-3 deterministic bytes of data in place.
func corrupt(rng *rand.Rand, data []byte) {
	if len(data) == 0 {
		return
	}
	for n := 1 + rng.Intn(3); n > 0; n-- {
		data[rng.Intn(len(data))] ^= byte(1 + rng.Intn(255))
	}
}

// Transmit applies one message send at p: drop swallows it, delay defers
// it (asynchronously, so the caller never blocks), duplicate invokes send
// twice, reorder holds it until later traffic passes, corrupt mutates the
// payload first (descriptor paths pass nil data: nothing to corrupt).
// send receives the (possibly corrupted) payload. Transmit returns the
// error of a send that ran before it returned; a delayed or held send runs
// later on another goroutine, and its error is lost with it, as a
// datagram's would be. With a nil injector, Transmit is exactly
// send(data).
func (i *Injector) Transmit(p Point, data []byte, send func([]byte) error) error {
	if i == nil {
		return send(data)
	}
	act := i.Decide(p, data)
	if act.Drop {
		return nil
	}
	do := func() error {
		err := send(data)
		if act.Duplicate {
			if derr := send(data); derr != nil {
				err = derr
			}
		}
		return err
	}
	switch {
	case act.Delay > 0:
		//l25gc:allow determinism fault-injected delivery delay is wall-time fault machinery; the seed fixes which messages are delayed, not when the timer fires
		time.AfterFunc(act.Delay, func() { do() })
	case act.HoldFor > 0:
		i.mu.Lock()
		ps := i.point(p)
		ps.held = append(ps.held, held{release: func() { do() }, after: act.HoldFor})
		i.mu.Unlock()
	default:
		return do()
	}
	return nil
}

// Flush releases every reorder-held message immediately (end of scenario).
func (i *Injector) Flush() {
	if i == nil {
		return
	}
	i.mu.Lock()
	// Release in point-name order: reorder-held messages must drain in a
	// schedule-independent sequence or replay diverges.
	names := make([]Point, 0, len(i.points))
	for name := range i.points {
		names = append(names, name)
	}
	sort.Slice(names, func(a, b int) bool { return names[a] < names[b] })
	var release []func()
	for _, name := range names {
		ps := i.points[name]
		for _, h := range ps.held {
			release = append(release, h.release)
		}
		ps.held = nil
	}
	i.mu.Unlock()
	for _, f := range release {
		f()
	}
}

// --- component state faults ---

// Crash marks target crashed and runs its registered hooks.
func (i *Injector) Crash(target string) {
	if i == nil {
		return
	}
	i.mu.Lock()
	i.crashLocked(target)
	i.mu.Unlock()
}

// crashLocked implements Crash with mu held. Hooks run asynchronously so a
// Decide caller can trigger a crash without lock-ordering surprises.
func (i *Injector) crashLocked(target string) {
	if i.crashed[target] {
		return
	}
	i.crashed[target] = true
	for _, f := range i.onCrash[target] {
		go f()
	}
}

// Crashed reports whether target has crashed.
func (i *Injector) Crashed(target string) bool {
	if i == nil {
		return false
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.crashed[target]
}

// OnCrash registers a hook to run (in its own goroutine) when target
// crashes. Registering after the crash runs the hook immediately.
func (i *Injector) OnCrash(target string, f func()) {
	if i == nil {
		return
	}
	i.mu.Lock()
	dead := i.crashed[target]
	if !dead {
		i.onCrash[target] = append(i.onCrash[target], f)
	}
	i.mu.Unlock()
	if dead {
		go f()
	}
}

// Freeze marks target frozen (its points blackhole until Revive).
func (i *Injector) Freeze(target string) {
	if i == nil {
		return
	}
	i.mu.Lock()
	i.frozen[target] = true
	i.mu.Unlock()
}

// Frozen reports whether target is frozen.
func (i *Injector) Frozen(target string) bool {
	if i == nil {
		return false
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.frozen[target]
}

// Revive clears target's crashed and frozen state.
func (i *Injector) Revive(target string) {
	if i == nil {
		return
	}
	i.mu.Lock()
	delete(i.crashed, target)
	delete(i.frozen, target)
	i.mu.Unlock()
}

// Partition blackholes every point whose name starts with prefix.
func (i *Injector) Partition(prefix string) {
	if i == nil {
		return
	}
	i.mu.Lock()
	i.partitionLocked(prefix, DirBoth, 0)
	i.mu.Unlock()
}

// PartitionDirected blackholes prefix in one direction only: DirTx stops
// the component's sends (its peers hear silence), DirRx its receives
// (it talks into the void) — the one-way link failures real networks
// produce. DirBoth is equivalent to Partition.
func (i *Injector) PartitionDirected(prefix string, d Direction) {
	if i == nil {
		return
	}
	i.mu.Lock()
	i.partitionLocked(prefix, d, 0)
	i.mu.Unlock()
}

// PartitionFor installs a partition that auto-heals after heal elapses,
// so timed-partition scenarios need no babysitting goroutine.
func (i *Injector) PartitionFor(prefix string, d Direction, heal time.Duration) {
	if i == nil {
		return
	}
	i.mu.Lock()
	i.partitionLocked(prefix, d, heal)
	i.mu.Unlock()
}

// Heal removes a partition installed by Partition (or a Partition rule).
func (i *Injector) Heal(prefix string) {
	if i == nil {
		return
	}
	i.mu.Lock()
	delete(i.partitioned, prefix)
	i.mu.Unlock()
}

// Partitioned reports whether p currently falls under a partition, crash
// or freeze.
func (i *Injector) Partitioned(p Point) bool {
	if i == nil {
		return false
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.blockedLocked(p)
}

// AliveProbe returns a liveness function for the resilience detector: it
// reports true until target crashes or freezes. A nil injector yields an
// always-true probe.
func (i *Injector) AliveProbe(target string) func() bool {
	return func() bool { return !i.Crashed(target) && !i.Frozen(target) }
}

// --- observability ---

// Count returns how many times kind fired at point p.
func (i *Injector) Count(p Point, k Kind) uint64 {
	if i == nil {
		return 0
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.stats[statKey{p, k}]
}

// Total returns how many times kind fired across all points.
func (i *Injector) Total(k Kind) uint64 {
	if i == nil {
		return 0
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	var n uint64
	for key, v := range i.stats {
		if key.kind == k {
			n += v
		}
	}
	return n
}

// Seen returns the number of messages observed at p.
func (i *Injector) Seen(p Point) int {
	if i == nil {
		return 0
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	if ps := i.points[p]; ps != nil {
		return ps.seen
	}
	return 0
}

// String summarizes the fired faults, sorted for stable output.
func (i *Injector) String() string {
	if i == nil {
		return "faults.Injector(nil)"
	}
	i.mu.Lock()
	keys := make([]statKey, 0, len(i.stats))
	for k := range i.stats {
		keys = append(keys, k)
	}
	seed := i.seed
	stats := make(map[statKey]uint64, len(i.stats))
	for k, v := range i.stats {
		stats[k] = v
	}
	i.mu.Unlock()
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].point != keys[b].point {
			return keys[a].point < keys[b].point
		}
		return keys[a].kind < keys[b].kind
	})
	var b strings.Builder
	fmt.Fprintf(&b, "faults.Injector{seed: %d", seed)
	for _, k := range keys {
		fmt.Fprintf(&b, ", %s/%s: %d", k.point, k.kind, stats[k])
	}
	b.WriteString("}")
	return b.String()
}
