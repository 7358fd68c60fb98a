// Package onvm is the shared-memory NFV platform underpinning L²5GC: an
// in-process reproduction of OpenNetVM's architecture. An NF manager owns a
// packet-buffer pool and per-NF Rx/Tx descriptor rings; NFs attach by
// service ID, process packets handed to their Rx ring, stamp an action
// (to-NF / to-port / drop / buffer) into the descriptor metadata and return
// it through their Tx ring. The manager moves descriptors between rings —
// packets themselves never move or get serialized.
//
// No goroutine is resident here. Every ring — an NF's Rx ring, an NF's Tx
// ring — is consumed by whichever caller finds it unowned (ring.Owner, the
// consumer-ownership rule shm.Mailbox uses). Inject hands its descriptor
// to the Rx ring of the instance its flow steers to (§4, Receive Side
// Scaling), the way ONVM's NIC queue feeds the first NF; a caller that
// finds the ring empty runs the NF's handler on it in place, and
// descriptors handed back onto an idle Tx ring are switched and emitted
// the same way. Uncontended, one Inject carries its packet through the
// whole chain to the sink with no ring round trip and no goroutine
// hand-off, the way an ONVM NF polling its ring would. Under contention a
// descriptor waits in its ring: a caller runs only what was queued when
// it took the ring, and what arrives meanwhile goes to a drainer, a
// goroutine started for it that exits once the ring is empty. A flow
// always steers to the same instance and each ring has one consumer at a
// time, which keeps per-flow FIFO order end-to-end while unrelated flows
// run in parallel (DESIGN §11).
//
// Between the copy in (Inject) and the sink call out, descriptors leave an
// NF in bursts: a burst is what a caller hands to an empty ring, or
// whatever a ring holds when its owner looks, up to drainBatch, and is
// never waited for. Ring operations and counters are
// paid once per burst, the steering tables are an immutable snapshot
// loaded once per Tx burst, and nothing on that path takes a mutex or
// allocates (DESIGN §11).
//
// The platform also carries the paper's deployment features: multiple
// instances per service with canary-rollout traffic splitting (§4), RSS
// hashing of flows across instances, and the security-domain pool prefix
// (§3.2) isolating 5GC units from each other.
package onvm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"l25gc/internal/faults"
	"l25gc/internal/gtp"
	"l25gc/internal/metrics"
	"l25gc/internal/pktbuf"
	"l25gc/internal/ring"
	"l25gc/internal/trace"
)

// ServiceID identifies an NF service (e.g. UPF-U) on the platform.
type ServiceID = uint16

// PortID identifies an external port (a "NIC" toward gNB or DN).
type PortID = uint16

// BurstHandler processes one burst of descriptors, in order, on the caller
// that owns the instance's Rx ring: one caller at a time, so a handler may
// keep state between calls without locking, though not always on the same
// goroutine. For every descriptor it either sets buf.Meta and hands the
// descriptor back, or takes ownership of it (e.g. parks the buffer in a
// session queue). It moves the descriptors it hands back to the front of
// burst, keeping their order, and returns how many there are. A handler
// that blocks blocks the caller that delivered to it — for an idle chain,
// the Inject at its head — and every descriptor queued behind it.
type BurstHandler func(burst []*pktbuf.Buf) int

// Handler is a BurstHandler written for one descriptor at a time, for NFs
// with nothing to amortise over a burst: it returns true to hand the
// descriptor back with buf.Meta set, false if it took ownership.
type Handler func(buf *pktbuf.Buf) bool

// burst adapts h to the platform's handler type.
func (h Handler) burst(burst []*pktbuf.Buf) int {
	n := 0
	for _, b := range burst {
		if h(b) {
			burst[n] = b
			n++
		}
	}
	return n
}

// PortSink receives frames leaving the platform via ActionToPort. The sink
// borrows the buffer only for the duration of the call; the manager
// releases it afterwards. A sink runs on the caller that switches the
// frame's Tx ring — for an idle chain, the Inject or SendBurst that started
// it; under contention, possibly a drainer — so it may be invoked
// concurrently for different flows (frames of one flow arrive in order) and
// must be goroutine-safe; a sink that blocks blocks that caller.
type PortSink func(frame []byte, meta pktbuf.Meta)

// Errors returned by the platform.
var (
	ErrNoService  = errors.New("onvm: unknown service ID")
	ErrNoPort     = errors.New("onvm: unknown port")
	ErrDuplicate  = errors.New("onvm: instance already registered")
	ErrStopped    = errors.New("onvm: manager stopped")
	ErrBadPercent = errors.New("onvm: canary percent out of range")
)

// drainBatch bounds a burst: how many descriptors a ring's owner takes
// from it at once.
const drainBatch = 64

// txEnqueueSpins bounds how long a sender pushes back on a full Tx ring
// without any slot coming free before it counts what is left of its burst
// as tx-overflow drops. Each round switches the ring itself if its owner
// has let go, and otherwise sleeps a microsecond longer than the last —
// about 2 ms in all, an owner empties the whole ring in a tenth of that —
// since a plain yield returns at once when the owner runs on another
// thread.
const txEnqueueSpins = 64

// Instance is one running NF instance attached to the platform.
type Instance struct {
	Service    ServiceID
	InstanceID uint16
	name       string
	spanName   string // "onvm.nf."+name, precomputed off the hot path

	// rx is fed by Inject and by whoever switches a descriptor to the
	// instance; its owner runs the handler. tx is fed by rx's owner and by
	// SendBurst callers (session-buffer drains); its owner switches what it
	// holds.
	rx rxRing
	tx txRing

	handler BurstHandler
	mgr     *Manager

	txDrops atomic.Uint64
	inline  atomic.Uint64 // handled on the caller that delivered them
	queued  atomic.Uint64 // handled by another caller or a drainer
}

// lane is what an NF's Rx and Tx rings share: the ring, its ownership
// flag and the burst array its owner works in.
type lane struct {
	own   ring.Owner
	r     *ring.MPSC[*pktbuf.Buf]
	mgr   *Manager
	in    atomic.Uint64 // descriptors put through the ring, queued or in place
	batch [drainBatch]*pktbuf.Buf
}

// burster is a lane's consumer: rxRing runs the NF's handler on a burst,
// txRing switches it.
type burster interface {
	ring.Consumer
	run(burst []*pktbuf.Buf)
}

func (l *lane) Ready() bool { return l.r.Ready() }

// offer hands bufs to the lane's ring in order, running them through c
// here when the ring is idle. A caller that takes the flag runs what it
// finds (take), lets go, and hands whatever arrived meanwhile to a
// drainer; a caller that finds the ring owned queues bufs behind the
// owner, then tries the flag once more, since the owner may have had its
// last look before they were published. While the ring is full and owned
// it pushes back for up to limit rounds without progress — a yield each,
// or with sleep a sleep a microsecond longer than the last — and then
// gives up. It returns how many of bufs went in (the caller still owns
// bufs[took:]) and, of the descriptors this caller ran, how many it had
// delivered itself and how many other callers had.
func (l *lane) offer(c burster, bufs []*pktbuf.Buf, limit int, sleep bool) (took, inline, queued int) {
	mine := 0 // queued by this caller and not yet seen run
	for spins := 0; ; spins++ {
		switch {
		case l.own.TryLock():
			k, ran := l.take(c, bufs[took:])
			took, mine = took+k, mine+k
			in := min(ran, mine)
			inline, queued, mine = inline+in, queued+ran-in, mine-in
			if l.own.Unlock(c) {
				l.handoff(c)
			}
			if took == len(bufs) {
				return
			}
			if k+ran > 0 {
				spins = 0 // the owner's run made room
			}
		case took == len(bufs):
			return // queued behind a busy owner
		default:
			if k := l.r.EnqueueBulk(bufs[took:]); k > 0 {
				l.in.Add(uint64(k))
				took, mine, spins = took+k, mine+k, 0
			} else if spins >= limit {
				return
			} else if sleep {
				time.Sleep(time.Duration(spins+1) * time.Microsecond)
			} else {
				runtime.Gosched()
			}
		}
	}
}

// take is the work of a caller that has just taken the lane's flag with
// bufs in hand. On an empty ring — nothing queued, and no slot reserved by
// a producer still publishing — it runs bufs in place, a burst at a time:
// exactly what queueing them and dequeueing them again would do. Otherwise
// what is queued goes first: bufs join the queue, as many as fit, and the
// caller runs what the ring held at that moment, its own included, and
// nothing that arrives later. It returns how many of bufs it took and how
// many descriptors it ran.
func (l *lane) take(c burster, bufs []*pktbuf.Buf) (took, ran int) {
	if l.r.Len() == 0 {
		if len(bufs) > 0 {
			l.in.Add(uint64(len(bufs)))
		}
		for took < len(bufs) {
			// The burst goes through the owner's array, never the caller's
			// slice, which would escape through the handler.
			k := copy(l.batch[:], bufs[took:])
			c.run(l.batch[:k])
			took += k
		}
		return took, took
	}
	if took = l.r.EnqueueBulk(bufs); took > 0 {
		l.in.Add(uint64(took))
	}
	return took, l.consume(c, l.r.Len())
}

// consume runs up to limit descriptors off the ring, a burst at a time,
// stopping early at a slot reserved but not yet published (its producer
// tries the flag once it publishes), and returns how many it ran. Once the
// manager is stopping, what it dequeues is released and counted dropped
// instead: Stop is waiting for this owner.
func (l *lane) consume(c burster, limit int) (ran int) {
	for n := 0; n < limit; {
		k := l.r.DequeueBulk(l.batch[:min(limit-n, drainBatch)])
		if k == 0 {
			break
		}
		n += k
		if l.mgr.stopped.Load() {
			l.mgr.dropped.Add(uint64(k))
			l.mgr.pool.ReleaseBulk(l.batch[:k])
			continue
		}
		c.run(l.batch[:k])
		ran += k
	}
	return ran
}

// handoff starts a drainer for what was queued on the lane's ring while
// its owner ran: a plain Drain caller on a goroutine of its own, inside
// the inflight count (its starter is still inside it, so Stop cannot miss
// it), that exits once the ring is empty.
func (l *lane) handoff(c burster) {
	m := l.mgr
	m.handoffs.Add(1)
	m.inflight.Add(1)
	go l.drain(c)
}

func (l *lane) drain(c burster) {
	l.own.Drain(c)
	l.mgr.inflight.Add(-1)
	l.mgr.yield()
}

// rxRing is an NF's Rx ring: its owner runs the NF's handler.
type rxRing struct {
	lane
	inst *Instance
}

// Consume is a drainer's: it runs the ring until it is empty, every
// descriptor delivered by another caller.
func (q *rxRing) Consume() int {
	n := q.consume(q, math.MaxInt)
	if n > 0 {
		q.inst.queued.Add(uint64(n))
	}
	return n
}

// run runs the handler on a burst and hands what comes back to the Tx
// ring in order.
func (q *rxRing) run(burst []*pktbuf.Buf) {
	i := q.inst
	if tk := i.mgr.tracec.Load(); tk == nil {
		burst = burst[:i.handler(burst)]
	} else {
		// Traced, each descriptor is a burst of one inside its own span.
		h := 0
		for j := range burst {
			sp := tk.Start(i.spanName)
			if i.handler(burst[j:j+1]) == 1 {
				burst[h] = burst[j]
				h++
			}
			sp.End()
		}
		burst = burst[:h]
	}
	if len(burst) == 0 {
		return
	}
	if sent := i.transmit(burst); sent < len(burst) {
		i.mgr.pool.ReleaseBulk(burst[sent:])
	}
}

// txRing is an NF's Tx ring: its owner switches what it holds.
type txRing struct {
	lane
	sw switcher
}

// Consume is a drainer's: it switches the ring until it is empty.
func (q *txRing) Consume() int { return q.consume(q, math.MaxInt) }

// run switches a burst.
func (q *txRing) run(burst []*pktbuf.Buf) {
	q.sw.begin()
	for _, buf := range burst {
		q.sw.process(buf)
	}
	q.sw.end()
}

// Name returns the instance's diagnostic name.
func (i *Instance) Name() string { return i.name }

// Stats returns packets received and transmitted by this instance.
func (i *Instance) Stats() (rx, tx uint64) { return i.rx.in.Load(), i.tx.in.Load() }

// TxDrops returns descriptors this instance discarded because its Tx ring
// stayed full through the enqueue backoff window.
func (i *Instance) TxDrops() uint64 { return i.txDrops.Load() }

// receive hands descriptors to the instance's Rx ring in order and runs
// the handler on them here if the ring is idle (lane.offer). While the
// ring is full its owner gets the caller's timeslice, bounded so a wedged
// NF cannot stall its caller for long, and what still does not fit is
// released and counted as ring-overflow drops, descriptor for descriptor.
func (i *Instance) receive(bufs []*pktbuf.Buf) {
	m := i.mgr
	took, inline, queued := i.rx.offer(&i.rx, bufs, m.bpSpins, false)
	if inline > 0 {
		i.inline.Add(uint64(inline))
	}
	if queued > 0 {
		i.queued.Add(uint64(queued))
	}
	if left := bufs[took:]; len(left) > 0 {
		m.ringDrops.Add(uint64(len(left)))
		m.pool.ReleaseBulk(left)
	}
}

// transmit hands a burst of processed descriptors to the instance's Tx
// ring in order and switches it here if the ring is idle (lane.offer).
// While the ring is full it backs off; when no slot came free through the
// whole backoff window, what is left of the burst is counted as
// tx-overflow drops. It returns how many descriptors went out: the caller
// still owns burst[sent:].
func (i *Instance) transmit(burst []*pktbuf.Buf) int {
	sent, _, _ := i.tx.offer(&i.tx, burst, txEnqueueSpins, true)
	if left := uint64(len(burst) - sent); left > 0 {
		i.txDrops.Add(left)
		i.mgr.txDrops.Add(left)
	}
	return sent
}

// SendBurst hands descriptors from the NF back to the manager via its Tx
// ring, in order (used by handlers that emit packets outside their burst,
// e.g. draining a session buffer after handover); if no caller owns the
// ring, this one switches and emits them. It returns how many were
// accepted; the caller keeps ownership of burst[sent:], which the manager
// has already counted as tx drops unless it is stopped.
func (i *Instance) SendBurst(burst []*pktbuf.Buf) (sent int) {
	m := i.mgr
	m.inflight.Add(1)
	defer m.inflight.Add(-1)
	if m.stopped.Load() {
		return 0
	}
	sent = i.transmit(burst)
	m.yield()
	return sent
}

// serviceEntry groups the instances of one service with canary weights.
// Entries are immutable once published in a tables snapshot.
type serviceEntry struct {
	instances []*Instance
	// canaryPercent is the share of traffic (0-100) steered to the newest
	// instance; the remainder goes to the oldest (stable) instance.
	canaryPercent int
}

// tables is one immutable snapshot of everything the packet path looks up:
// Register, RegisterPort, BindPortNF and SetCanary build a new one under
// Manager.mu and publish it; the packet path loads the pointer once per
// Inject or Tx burst and never locks. Each table is a slice indexed by ID,
// so a lookup is an index, not a map hash.
type tables struct {
	services  []*serviceEntry // by ServiceID; nil: nothing runs it
	ports     []PortSink      // by PortID; nil: no sink
	portNF    []binding       // by PortID: inbound steering, port -> first NF
	instances []*Instance     // registration order
}

// binding is a port's entry in tables.portNF.
type binding struct {
	sid   ServiceID
	bound bool
}

// service returns service sid's entry, nil if nothing runs it.
func (t *tables) service(sid ServiceID) *serviceEntry {
	if int(sid) < len(t.services) {
		return t.services[sid]
	}
	return nil
}

// sink returns port pid's egress sink, nil if it has none.
func (t *tables) sink(pid PortID) PortSink {
	if int(pid) < len(t.ports) {
		return t.ports[pid]
	}
	return nil
}

// firstNF returns the service packets arriving on pid are steered to.
func (t *tables) firstNF(pid PortID) (ServiceID, bool) {
	if int(pid) < len(t.portNF) {
		b := t.portNF[pid]
		return b.sid, b.bound
	}
	return 0, false
}

// put returns s with s[i] set to v, extended with zero values as needed.
func put[T any](s []T, i int, v T) []T {
	if i >= len(s) {
		s = append(s, make([]T, i+1-len(s))...)
	}
	s[i] = v
	return s
}

// injConf groups a fault injector with its point names, swapped in
// atomically so the packet path never races SetInjector.
type injConf struct {
	inj     *faults.Injector
	deliver faults.Point
	egress  faults.Point
}

// stage collects the descriptors one burst sends to one instance.
type stage struct {
	inst *Instance
	n    int
	bufs [drainBatch]*pktbuf.Buf
}

// switcher is the state of the descriptor switch for one NF's Tx ring,
// touched only by that ring's owner: what begin loaded, the last service
// and port looked up in that tables snapshot, the per-destination stages,
// the descriptors to give back to the pool and the drops to count when the
// burst ends.
type switcher struct {
	m *Manager

	dropped atomic.Uint64

	tabs     *tables
	fc       *injConf
	tk       *trace.Track
	svcID    ServiceID // service of svc (valid while svc != nil)
	svc      *serviceEntry
	sinkPort PortID // port of sink (valid while sink != nil)
	sink     PortSink
	stages   []*stage
	spent    [drainBatch]*pktbuf.Buf
	nspent   int
	ndrop    uint64
}

// Manager is the ONVM NF manager: it owns the pool, the rings and the
// descriptor switch.
type Manager struct {
	pool *pktbuf.Pool

	mu   sync.Mutex // serialises writers of tabs
	tabs atomic.Pointer[tables]

	stopped  atomic.Bool
	inflight atomic.Int64  // deliver, SendBurst, emitDelayed and drainers in progress
	handoffs atomic.Uint64 // drainers started
	yieldReq atomic.Bool   // RequestYield: yield once every ring is let go

	nfRingSize int
	bpSpins    int
	faultc     atomic.Pointer[injConf]
	tracec     atomic.Pointer[trace.Track]

	// dropped counts drops outside any Tx-ring switcher: pool exhaustion
	// at Inject, fault drops and unknown services on the way in, delayed
	// frames that outlive Stop or their sink, what owners dequeue once
	// Stop has begun, teardown releases.
	dropped atomic.Uint64
	// txDrops and ringDrops count descriptors discarded on full Tx and Rx
	// rings, both folded into the dropped aggregate.
	txDrops   atomic.Uint64
	ringDrops *metrics.Counter
}

// Config sizes the platform.
type Config struct {
	PoolSize   int    // packet buffers in the shared pool
	RingSize   int    // per-NF ring capacity
	PoolPrefix string // security-domain prefix (unique per 5GC unit)
	// BackpressureSpins bounds how long a switcher pushes back on a full NF
	// Rx ring (cooperative yields) before counting the descriptor as a
	// ring-overflow drop. 0 = default (64); -1 disables backpressure.
	BackpressureSpins int
}

// DefaultConfig returns sizes suitable for the evaluation workloads.
func DefaultConfig() Config {
	return Config{PoolSize: 8192, RingSize: 1024, PoolPrefix: "l25gc"}
}

// NewManager creates a platform manager. It starts no goroutine.
func NewManager(cfg Config) *Manager {
	if cfg.PoolSize == 0 {
		cfg = DefaultConfig()
	}
	if cfg.RingSize <= 0 {
		cfg.RingSize = 1024
	}
	if cfg.BackpressureSpins == 0 {
		cfg.BackpressureSpins = 64
	}
	if cfg.BackpressureSpins < 0 {
		cfg.BackpressureSpins = 0
	}
	m := &Manager{
		pool:       pktbuf.NewPool(cfg.PoolSize, cfg.PoolPrefix),
		nfRingSize: cfg.RingSize,
		bpSpins:    cfg.BackpressureSpins,
		ringDrops:  metrics.NewCounter(cfg.PoolPrefix + ".ring_overflow_drops"),
	}
	m.tabs.Store(&tables{})
	return m
}

// Pool exposes the shared packet pool (NFs allocate response packets
// from the same hugepage-analogue pool).
func (m *Manager) Pool() *pktbuf.Pool { return m.pool }

// RingDrops exposes the ring-overflow drop counter: descriptors the
// manager discarded because an NF's Rx ring stayed full through the
// backpressure window.
func (m *Manager) RingDrops() *metrics.Counter { return m.ringDrops }

// TxDrops reports descriptors NFs discarded because their Tx ring stayed
// full through the enqueue backoff window (aggregated over all instances).
func (m *Manager) TxDrops() uint64 { return m.txDrops.Load() }

// SetInjector threads a fault injector through the descriptor switch;
// points are prefix+".deliver" (descriptors entering NF Rx rings) and
// prefix+".egress" (frames leaving via ports). Descriptors are
// single-owner buffers, so Drop and Delay apply; Duplicate/Reorder/Corrupt
// do not (reordering still arises from per-descriptor delays).
func (m *Manager) SetInjector(inj *faults.Injector, prefix string) {
	m.faultc.Store(&injConf{
		inj:     inj,
		deliver: faults.Point(prefix + ".deliver"),
		egress:  faults.Point(prefix + ".egress"),
	})
}

// SetTracer installs a trace track for descriptor-switch stage spans
// ("onvm.deliver", "onvm.nf.<name>", "onvm.egress"); nil disables tracing.
// The disabled path costs one atomic load per burst.
func (m *Manager) SetTracer(tk *trace.Track) { m.tracec.Store(tk) }

// ExportMetrics registers the manager's switch counters under prefix: the
// switched/dropped aggregates, the overflow-drop breakdown, how many
// descriptors NFs handled on the caller that delivered them and how many
// on another caller's ownership, and the pool's occupancy. The ring-drop
// counter is re-registered under the prefix (not its pool-scoped name) so
// the registry name set is stable across units.
func (m *Manager) ExportMetrics(reg *metrics.Registry, prefix string) {
	reg.RegisterGauge(prefix+".switched", m.switchedTotal)
	reg.RegisterGauge(prefix+".dropped", m.droppedTotal)
	reg.RegisterGauge(prefix+".tx_drops", m.txDrops.Load)
	reg.RegisterGauge(prefix+".ring_overflow_drops", m.ringDrops.Load)
	reg.RegisterGauge(prefix+".served_inline", func() uint64 {
		return m.sumInstances(func(i *Instance) uint64 { return i.inline.Load() })
	})
	reg.RegisterGauge(prefix+".served_queued", func() uint64 {
		return m.sumInstances(func(i *Instance) uint64 { return i.queued.Load() })
	})
	reg.RegisterGauge(prefix+".handoffs", m.handoffs.Load)
	// Packet-pool occupancy levels: size is fixed, in_use = size - avail
	// is the instantaneous occupancy the telemetry sampler tracks for the
	// soak's bounded-pool invariant (a leak shows as in_use never
	// returning to zero at quiesce).
	reg.RegisterGauge(prefix+".pool.size", func() uint64 { return uint64(m.pool.Size()) })
	reg.RegisterGauge(prefix+".pool.in_use", func() uint64 {
		if n := m.pool.Size() - m.pool.Avail(); n > 0 {
			return uint64(n)
		}
		return 0
	})
}

// sumInstances adds f over every registered instance.
func (m *Manager) sumInstances(f func(*Instance) uint64) uint64 {
	var n uint64
	for _, i := range m.tabs.Load().instances {
		n += f(i)
	}
	return n
}

// switchedTotal counts descriptors put on NF Rx rings.
func (m *Manager) switchedTotal() uint64 {
	return m.sumInstances(func(i *Instance) uint64 { return i.rx.in.Load() })
}

func (m *Manager) droppedTotal() uint64 {
	n := m.dropped.Load() + m.txDrops.Load() + m.ringDrops.Load()
	return n + m.sumInstances(func(i *Instance) uint64 { return i.tx.sw.dropped.Load() })
}

// ringSize returns the per-NF ring capacity.
func (m *Manager) ringSize() int { return m.nfRingSize }

// update publishes a new tables snapshot: a copy of the current one with
// fn applied. Writers are rare (registration, rollout) and serialised;
// anything fn changes it must replace, not modify, since readers of the
// old snapshot are still running.
func (m *Manager) update(fn func(t *tables)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	old := m.tabs.Load()
	t := &tables{
		services:  slices.Clone(old.services),
		ports:     slices.Clone(old.ports),
		portNF:    slices.Clone(old.portNF),
		instances: old.instances,
	}
	fn(t)
	m.tabs.Store(t)
}

// extend returns s with v appended in a new backing array, so a published
// slice is never written to.
func extend(s []*Instance, v *Instance) []*Instance {
	return append(s[:len(s):len(s)], v)
}

// RegisterBurst attaches an NF instance running handler h for service sid.
// It starts no goroutine: the handler runs on the callers that deliver to
// the instance.
func (m *Manager) RegisterBurst(sid ServiceID, name string, h BurstHandler) (*Instance, error) {
	inst := &Instance{
		Service:  sid,
		name:     name,
		spanName: "onvm.nf." + name,
		handler:  h,
		mgr:      m,
	}
	inst.rx.r, inst.rx.mgr, inst.rx.inst = ring.NewMPSC[*pktbuf.Buf](m.ringSize()), m, inst
	inst.tx.r, inst.tx.mgr, inst.tx.sw.m = ring.NewMPSC[*pktbuf.Buf](m.ringSize()), m, m
	m.update(func(t *tables) {
		ent := serviceEntry{}
		if old := t.service(sid); old != nil {
			ent = *old
		}
		inst.InstanceID = uint16(len(ent.instances))
		ent.instances = extend(ent.instances, inst)
		t.services = put(t.services, int(sid), &ent)
		t.instances = extend(t.instances, inst)
	})
	return inst, nil
}

// Register attaches an NF instance that handles one descriptor at a time.
func (m *Manager) Register(sid ServiceID, name string, h Handler) (*Instance, error) {
	return m.RegisterBurst(sid, name, h.burst)
}

// SetCanary steers percent of service sid's traffic to its newest instance
// (the canary); the rest continues to the stable instance (§4).
func (m *Manager) SetCanary(sid ServiceID, percent int) error {
	if percent < 0 || percent > 100 {
		return ErrBadPercent
	}
	err := ErrNoService
	m.update(func(t *tables) {
		if old := t.service(sid); old != nil {
			t.services[sid] = &serviceEntry{instances: old.instances, canaryPercent: percent}
			err = nil
		}
	})
	return err
}

// RegisterPort installs an egress sink for a port.
func (m *Manager) RegisterPort(pid PortID, sink PortSink) {
	m.update(func(t *tables) { t.ports = put(t.ports, int(pid), sink) })
}

// BindPortNF steers packets arriving on pid to service sid.
func (m *Manager) BindPortNF(pid PortID, sid ServiceID) {
	m.update(func(t *tables) { t.portNF = put(t.portNF, int(pid), binding{sid: sid, bound: true}) })
}

// Inject delivers an external frame into the platform as if received on
// port pid. This is the single copy at the system edge. If the chain is
// idle the frame is carried through it, and out of its sink, before Inject
// returns.
func (m *Manager) Inject(pid PortID, data []byte, meta pktbuf.Meta) error {
	if m.stopped.Load() {
		return ErrStopped
	}
	sid, ok := m.tabs.Load().firstNF(pid)
	if !ok {
		return ErrNoPort
	}
	buf, err := m.pool.Get()
	if err != nil {
		m.dropped.Add(1)
		return err
	}
	if err := buf.SetData(data); err != nil {
		buf.Release()
		return err
	}
	buf.Meta = meta
	buf.Meta.Port = pid
	if buf.Meta.RSS == 0 {
		buf.Meta.RSS = rssHash(data)
	}
	return m.deliver(buf, sid)
}

// flowKey derives the steering hash every instance-selection decision
// uses. It must be a pure function of per-flow fields (never of per-packet
// fields like Seq), or one flow's packets would spread across instances
// and lose FIFO order.
func flowKey(meta *pktbuf.Meta) uint64 {
	return meta.RSS ^ uint64(meta.TEID)*2654435761
}

// deliver puts a descriptor on the Rx ring of the instance of service sid
// its flow steers to, and runs the chain from there if it is idle: the way
// in for Inject and for a fault-delayed delivery. The fault decision, the
// service lookup and the instance choice are one onvm.deliver span. The
// inflight count brackets the whole call, so Stop can wait out every
// caller already past the stopped check; a call that starts after Stop
// flips stopped releases the descriptor and counts it dropped. A
// descriptor dropped on the way, a full Rx ring included, is counted, and
// deliver still returns nil.
func (m *Manager) deliver(buf *pktbuf.Buf, sid ServiceID) error {
	m.inflight.Add(1)
	defer m.inflight.Add(-1)
	if m.stopped.Load() {
		m.drop(buf)
		return ErrStopped
	}
	sp := m.tracec.Load().Start("onvm.deliver")
	inst, drop := m.steer(m.faultc.Load(), m.tabs.Load().service(sid), buf, sid)
	sp.End()
	if drop {
		m.drop(buf)
	} else if inst != nil {
		one := [1]*pktbuf.Buf{buf}
		inst.receive(one[:])
	}
	m.yield()
	return nil
}

// RequestYield asks the caller running the handler that calls it to give
// up its timeslice once it has let go of every ring: for a handler that
// has just started a goroutine which should run soon (the UPF-U's paging
// report), without the caller holding an NF's ring while that goroutine
// runs. The outermost Inject, SendBurst or drainer yields on its way out.
func (m *Manager) RequestYield() { m.yieldReq.Store(true) }

// yield gives up the caller's timeslice if a handler asked for it.
func (m *Manager) yield() {
	if m.yieldReq.Load() && m.yieldReq.CompareAndSwap(true, false) {
		runtime.Gosched()
	}
}

// steer makes fc's deliver decision on buf, headed for service sid, and
// picks the instance of ent its flow steers to. It returns drop when buf
// is to be dropped (there is no such service), and no instance either
// when a fault delayed buf: a timer then owns it and delivers it afresh.
func (m *Manager) steer(fc *injConf, ent *serviceEntry, buf *pktbuf.Buf, sid ServiceID) (inst *Instance, drop bool) {
	if fc != nil {
		act := fc.inj.Decide(fc.deliver, buf.Bytes())
		if act.Drop {
			return nil, true
		}
		if act.Delay > 0 {
			time.AfterFunc(act.Delay, func() { m.deliver(buf, sid) })
			return nil, false
		}
	}
	if ent == nil {
		return nil, true
	}
	return pickInstance(ent, flowKey(&buf.Meta)), false
}

// emitDelayed emits a frame whose egress a fault delayed, on its timer,
// through the sink of the current tables snapshot. It is bracketed by the
// inflight count like deliver; after Stop, or with no sink left on its
// port, the frame is released and counted dropped.
func (m *Manager) emitDelayed(buf *pktbuf.Buf) {
	m.inflight.Add(1)
	defer m.inflight.Add(-1)
	sink := m.tabs.Load().sink(buf.Meta.Port)
	if m.stopped.Load() || sink == nil {
		m.drop(buf)
		return
	}
	sp := m.tracec.Load().Start("onvm.egress")
	sink(buf.Bytes(), buf.Meta)
	sp.End()
	buf.Release()
}

// drop releases a descriptor and counts it dropped.
func (m *Manager) drop(buf *pktbuf.Buf) {
	buf.Release()
	m.dropped.Add(1)
}

// rssHash is the ingress flow hash (§4, Receive Side Scaling). Like a
// NIC's RSS it covers flow fields only — on N3 the tunnel ID plus the
// inner addresses, protocol and ports, on N6 the addresses, protocol and
// ports — never the payload or a checksum, which differ between packets
// of one flow and would spread it over instances, breaking its FIFO order.
// A frame that parses as neither falls back to a hash of its first bytes.
func rssHash(b []byte) uint64 {
	var teid uint64
	ip := b
	if len(b) > 0 && b[0]>>4 != 4 { // not plain IPv4: a G-PDU carrying it?
		var h gtp.Header
		inner, err := h.Decode(b)
		if err != nil || h.MsgType != gtp.MsgGPDU {
			return prefixHash(b)
		}
		teid, ip = uint64(h.TEID), inner
	}
	if len(ip) < 20 || ip[0]>>4 != 4 {
		return prefixHash(b)
	}
	ihl := int(ip[0]&0x0f) * 4
	if ihl < 20 || len(ip) < ihl {
		return prefixHash(b)
	}
	proto := ip[9]
	var ports uint64
	// Ports sit in the first four bytes of TCP and UDP; later fragments
	// carry none.
	frag := binary.BigEndian.Uint16(ip[6:8]) & 0x1fff
	if (proto == 6 || proto == 17) && frag == 0 && len(ip) >= ihl+4 {
		ports = uint64(binary.BigEndian.Uint32(ip[ihl : ihl+4]))
	}
	addrs := binary.BigEndian.Uint64(ip[12:20])
	return ring.Fmix64(addrs ^ ring.Fmix64(teid<<40|uint64(proto)<<32|ports))
}

// prefixHash is FNV-1a over up to the first 64 bytes of a frame.
func prefixHash(b []byte) uint64 {
	if len(b) > 64 {
		b = b[:64]
	}
	h := uint64(14695981039346656037)
	for _, c := range b {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return h
}

// pickInstance applies RSS/canary steering for a service.
func pickInstance(ent *serviceEntry, rssHash uint64) *Instance {
	n := len(ent.instances)
	if n == 1 {
		return ent.instances[0]
	}
	if ent.canaryPercent > 0 {
		if int(rssHash%100) < ent.canaryPercent {
			return ent.instances[n-1] // canary = newest
		}
		return ent.instances[0]
	}
	return ent.instances[rssHash%uint64(n)]
}

// begin loads what one burst reads many times: the tables snapshot, the
// fault configuration and the trace track. Lookups made in the previous
// burst stand as long as the snapshot is the same.
func (w *switcher) begin() {
	m := w.m
	if t := m.tabs.Load(); t != w.tabs {
		w.tabs, w.svc, w.sink = t, nil, nil
	}
	w.fc, w.tk = m.faultc.Load(), m.tracec.Load()
}

// end completes a burst: every stage goes to its instance's Rx ring with
// one bulk enqueue, spent descriptors return to the pool together, and the
// drop count is added once.
func (w *switcher) end() {
	for _, s := range w.stages {
		if s.n > 0 {
			s.flush()
		}
	}
	w.releaseSpent()
	if w.ndrop > 0 {
		w.dropped.Add(w.ndrop)
		w.ndrop = 0
	}
}

// release queues a descriptor the switch is done with for the bulk put at
// the end of the burst.
func (w *switcher) release(buf *pktbuf.Buf) {
	if w.nspent == len(w.spent) {
		w.releaseSpent()
	}
	w.spent[w.nspent] = buf
	w.nspent++
}

func (w *switcher) releaseSpent() {
	if w.nspent > 0 {
		w.m.pool.ReleaseBulk(w.spent[:w.nspent])
		w.nspent = 0
	}
}

// drop releases a descriptor and counts it dropped.
func (w *switcher) drop(buf *pktbuf.Buf) {
	w.release(buf)
	w.ndrop++
}

// deliver stages a descriptor for the target service's Rx ring. The fault
// decision and the span stay per descriptor; the ring operation and the
// counters are paid per stage in flush.
func (w *switcher) deliver(buf *pktbuf.Buf, sid ServiceID) {
	sp := w.tk.Start("onvm.deliver")
	w.stageFor(buf, sid)
	sp.End()
}

func (w *switcher) stageFor(buf *pktbuf.Buf, sid ServiceID) {
	if w.svc == nil || w.svcID != sid {
		w.svc, w.svcID = w.tabs.service(sid), sid
	}
	inst, drop := w.m.steer(w.fc, w.svc, buf, sid)
	if drop {
		w.drop(buf)
	}
	if inst == nil {
		return
	}
	var s *stage
	for _, c := range w.stages {
		if c.inst == inst {
			s = c
			break
		}
	}
	if s == nil {
		// First descriptor this switcher sends to inst: the stage stays
		// for the life of the switcher.
		s = &stage{inst: inst}
		w.stages = append(w.stages, s)
	}
	if s.n == len(s.bufs) {
		s.flush()
	}
	s.bufs[s.n] = buf
	s.n++
}

// flush moves the stage into its instance's Rx ring.
func (s *stage) flush() {
	s.inst.receive(s.bufs[:s.n])
	s.n = 0
}

// emitPort transmits a frame out of its port and releases the descriptor.
func (w *switcher) emitPort(buf *pktbuf.Buf) {
	if w.sink == nil || w.sinkPort != buf.Meta.Port {
		w.sink, w.sinkPort = w.tabs.sink(buf.Meta.Port), buf.Meta.Port
	}
	if sink := w.sink; sink != nil {
		sp := w.tk.Start("onvm.egress")
		sink(buf.Bytes(), buf.Meta)
		sp.End()
		w.release(buf)
	} else {
		w.drop(buf)
	}
}

// process executes one descriptor action from an NF's Tx ring.
func (w *switcher) process(buf *pktbuf.Buf) {
	switch buf.Meta.Action {
	case pktbuf.ActionToNF:
		w.deliver(buf, buf.Meta.Dst)
	case pktbuf.ActionToPort:
		if fc := w.fc; fc != nil {
			act := fc.inj.Decide(fc.egress, buf.Bytes())
			if act.Drop {
				w.drop(buf)
				return
			}
			if act.Delay > 0 {
				// Emit on a timer instead of sleeping here: a
				// fault-delayed frame must never stall every other flow
				// behind this ring.
				time.AfterFunc(act.Delay, func() { w.m.emitDelayed(buf) })
				return
			}
		}
		w.emitPort(buf)
	case pktbuf.ActionDrop:
		w.drop(buf)
	default: // Buffer-left-in-ring releases here
		w.release(buf)
	}
}

// Stats reports descriptors switched and packets dropped by the manager
// (the dropped aggregate folds in NF tx-overflow drops).
func (m *Manager) Stats() (switched, dropped uint64) {
	return m.switchedTotal(), m.droppedTotal()
}

// Stop refuses new work, waits out every caller already inside Inject,
// SendBurst or a delayed delivery or egress, and every drainer — an owner
// finishes the burst in hand and releases what it dequeues after that —
// then takes every ring for good and releases the descriptors still queued
// in NF rings, so teardown cannot race in-flight switching. A delayed
// descriptor whose timer fires later is released and counted dropped.
// Every descriptor released here is counted dropped.
func (m *Manager) Stop() {
	if !m.stopped.CompareAndSwap(false, true) {
		return
	}
	for m.inflight.Load() != 0 {
		runtime.Gosched()
	}
	for _, i := range m.tabs.Load().instances {
		i.rx.own.Hold()
		i.tx.own.Hold()
		for _, r := range []*ring.MPSC[*pktbuf.Buf]{i.rx.r, i.tx.r} {
			for {
				b, ok := r.Dequeue()
				if !ok {
					break
				}
				m.drop(b)
			}
		}
	}
}

// String renders manager state for diagnostics.
func (m *Manager) String() string {
	sw, dr := m.Stats()
	return fmt.Sprintf("onvm.Manager{switched: %d, dropped: %d, pool: %d/%d}",
		sw, dr, m.pool.Avail(), m.pool.Size())
}
