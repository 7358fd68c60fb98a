// Package onvm is the shared-memory NFV platform underpinning L²5GC: an
// in-process reproduction of OpenNetVM's architecture. An NF manager owns a
// packet-buffer pool and per-NF Rx/Tx descriptor rings; NFs attach by
// service ID, process packets handed to them, stamp an action (to-NF /
// to-port / drop / buffer) into the descriptor metadata and hand it back to
// be switched. The manager moves descriptors between NFs — packets
// themselves never move or get serialized.
//
// No goroutine is resident here. Each NF instance has one ownership flag
// (ring.Owner, the consumer-ownership rule shm.Mailbox uses), and its
// holder does all of the instance's work: it runs the handler and switches
// what the handler hands back itself, with buffers from a cache private to
// the holder (pktbuf.Cache, DPDK's per-lcore mempool cache). Inject steers
// a frame to the instance its flow maps to (§4, Receive Side Scaling), the
// way ONVM's NIC queue feeds the first NF; a caller that finds the instance
// idle takes the flag and carries the packet through the whole chain to the
// sink in place, with no ring round trip and no goroutine hand-off, the way
// an ONVM NF polling its ring would. The Rx ring (Inject, switches from
// other NFs) and the Tx ring (SendBurst) only queue what arrives while the
// instance is held. A caller runs only its own packets, after whatever was
// queued ahead of them, and lets go; what arrived meanwhile goes to a
// drainer, a goroutine started for it that exits once both rings are
// empty. A flow always steers to the same instance and each instance has
// one holder at a time, which keeps per-flow FIFO order end-to-end while
// unrelated flows run in parallel (DESIGN §11).
//
// Between the copy in (Inject) and the sink call out, descriptors move in
// bursts: a burst is what a caller hands to an idle instance, or whatever a
// ring holds when the holder looks, up to drainBatch, and is never waited
// for. Ring operations and counters are paid once per burst, the steering
// tables are an immutable snapshot loaded once per switched burst, and
// nothing on that path takes a mutex or allocates (DESIGN §11).
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
// that holds the instance: one caller at a time, so a handler may
// keep state between calls without locking, though not always on the same
// goroutine. For every descriptor it either sets buf.Meta and hands the
// descriptor back, or takes ownership of it (e.g. releases it once its
// packet is parked). It moves the descriptors it hands back to the front of
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
// releases it afterwards. A sink runs on the caller that holds the instance
// switching the frame — for an idle chain, the Inject or SendBurst that
// started it; under contention, possibly a drainer — so it may be invoked
// concurrently for different flows (frames of one flow arrive in order) and
// must be goroutine-safe; a sink that blocks blocks that caller and the
// whole instance.
type PortSink func(frame []byte, meta pktbuf.Meta)

// Errors returned by the platform.
var (
	ErrNoService  = errors.New("onvm: unknown service ID")
	ErrNoPort     = errors.New("onvm: unknown port")
	ErrDuplicate  = errors.New("onvm: instance already registered")
	ErrStopped    = errors.New("onvm: manager stopped")
	ErrBadPercent = errors.New("onvm: canary percent out of range")
)

// drainBatch bounds a burst: how many descriptors the holder takes from a
// ring at once.
const drainBatch = 64

// txEnqueueSpins bounds how long a SendBurst caller pushes back on a full
// Tx ring without any slot coming free before it counts what is left of
// its burst as tx-overflow drops. Each round takes the instance itself if
// its holder has let go, and otherwise sleeps a microsecond longer than the
// last — about 2 ms in all, a holder empties the whole ring in a tenth of
// that — since a plain yield returns at once when the holder runs on
// another thread.
const txEnqueueSpins = 64

// Instance is one running NF instance attached to the platform.
type Instance struct {
	Service    ServiceID
	InstanceID uint16
	name       string
	spanName   string // "onvm.nf."+name, precomputed off the hot path

	// own is the instance's one ownership flag. Its holder runs the handler
	// on Rx descriptors and switches what the handler hands back; rx and tx
	// only queue what arrives while the instance is held: rx from Inject
	// and from switchers delivering here, tx from SendBurst callers. The
	// holder's Unlock looks at both.
	own ring.Owner
	rx  *ring.MPSC[*pktbuf.Buf]
	tx  *ring.MPSC[*pktbuf.Buf]

	handler BurstHandler
	mgr     *Manager

	// What only the holder touches: the switch, the free buffers it takes
	// for Inject and releases into, and the burst array it works in.
	sw    switcher
	cache *pktbuf.Cache
	batch [drainBatch]*pktbuf.Buf

	rxQueued atomic.Uint64 // descriptors put on the Rx ring
	txOut    atomic.Uint64 // descriptors switched
	txDrops  atomic.Uint64
	inline   atomic.Uint64 // Rx descriptors run in place, never queued
	queued   atomic.Uint64 // Rx descriptors run off the ring
}

// rings is an instance's two rings as the ring.Consumer its flag looks at.
type rings struct{ i *Instance }

func (r rings) Ready() bool { return r.i.rx.Ready() || r.i.tx.Ready() }

// Consume is a drainer's: it runs both rings until they are empty, the Tx
// handbacks first each round, and publishes the cache before the drainer
// lets go.
func (r rings) Consume() (n int) {
	defer r.i.cache.Publish()
	for {
		k := r.i.consume(math.MaxInt, math.MaxInt)
		if k == 0 {
			return n
		}
		n += k
	}
}

// Name returns the instance's diagnostic name.
func (i *Instance) Name() string { return i.name }

// Stats returns packets received and transmitted by this instance.
func (i *Instance) Stats() (rx, tx uint64) {
	return i.inline.Load() + i.rxQueued.Load(), i.txOut.Load()
}

// TxDrops returns descriptors this instance discarded because its Tx ring
// stayed full through the enqueue backoff window.
func (i *Instance) TxDrops() uint64 { return i.txDrops.Load() }

// idle reports whether nothing is queued on either ring, counting a slot a
// producer has reserved but not yet published.
func (i *Instance) idle() bool { return i.rx.Len() == 0 && i.tx.Len() == 0 }

// unlock publishes the cache and lets go of the instance, and reports
// whether a descriptor arrived on either ring meanwhile, which the caller
// must see run (ring.Owner.Unlock).
func (i *Instance) unlock() bool {
	i.cache.Publish()
	return i.own.Unlock(rings{i})
}

// offer hands bufs to ring q of the instance (its rx or tx), in order. A
// caller that takes the flag does the holder's work (take); one that finds
// the instance held queues bufs behind the holder, then tries the flag once
// more, since the holder may have had its last look before they were
// published. While q is full and the instance held it pushes back for up
// to limit rounds without progress — a yield each, or with sleep a sleep a
// microsecond longer than the last — and then gives up; it gives up at
// once if the manager is stopping. It returns how many of bufs went in:
// the caller still owns bufs[took:].
func (i *Instance) offer(q *ring.MPSC[*pktbuf.Buf], bufs []*pktbuf.Buf, limit int, sleep bool) (took int) {
	for spins := 0; ; spins++ {
		if i.own.TryLock() {
			return took + i.take(q, bufs[took:])
		}
		if took == len(bufs) {
			return took // queued behind a busy holder
		}
		k, live := i.queue(q, bufs[took:])
		switch {
		case !live:
			return took
		case k > 0:
			took, spins = took+k, 0
		case spins >= limit:
			return took
		case sleep:
			time.Sleep(time.Duration(spins+1) * time.Microsecond)
		default:
			runtime.Gosched()
		}
	}
}

// queue is how a caller that does not hold the instance puts bufs on q: as
// many as fit, inside the inflight count, so that Stop either waits for it
// or it sees stopped and queues nothing (live false) on a ring Stop may
// have emptied already. It returns how many it queued.
func (i *Instance) queue(q *ring.MPSC[*pktbuf.Buf], bufs []*pktbuf.Buf) (k int, live bool) {
	m := i.mgr
	m.inflight.Add(1)
	defer m.inflight.Add(-1)
	if m.stopped.Load() {
		return 0, false
	}
	return i.enqueue(q, bufs), true
}

// enqueue puts as many of bufs on q as fit and returns how many.
func (i *Instance) enqueue(q *ring.MPSC[*pktbuf.Buf], bufs []*pktbuf.Buf) int {
	k := q.EnqueueBulk(bufs)
	if k > 0 && q == i.rx {
		i.rxQueued.Add(uint64(k))
	}
	return k
}

// take is the work of a caller that has just taken the flag with bufs in
// hand for ring q (none, for a caller that queued its own and tries the
// flag again). On an idle instance it runs bufs in place, a burst at a
// time — exactly what queueing them and dequeueing them again would do.
// Otherwise what is queued goes first: bufs join q behind it, and the
// caller runs what both rings held at that moment, its own included, and
// nothing that arrives later. Either way it then lets go and hands
// whatever arrived meanwhile to a drainer. It takes all of bufs.
func (i *Instance) take(q *ring.MPSC[*pktbuf.Buf], bufs []*pktbuf.Buf) int {
	if i.idle() {
		for took := 0; took < len(bufs); {
			// The burst goes through the holder's array, never the caller's
			// slice, which would escape through the handler.
			k := copy(i.batch[:], bufs[took:])
			if q == i.rx {
				i.inline.Add(uint64(k))
				i.handle(i.batch[:k])
			} else {
				i.transmit(i.batch[:k])
			}
			took += k
		}
	} else {
		for took := 0; took < len(bufs); {
			if took += i.enqueue(q, bufs[took:]); took < len(bufs) {
				i.consume(i.tx.Len(), i.rx.Len()) // make room
			}
		}
		i.consume(i.tx.Len(), i.rx.Len())
	}
	if i.unlock() {
		i.handoff()
	}
	return len(bufs)
}

// consume runs up to tx descriptors off the Tx ring, then up to rx off the
// Rx ring, and returns how many it took off them.
func (i *Instance) consume(tx, rx int) int {
	return i.consumeRing(i.tx, tx) + i.consumeRing(i.rx, rx)
}

// consumeRing runs up to limit descriptors off ring q, a burst at a time —
// the handler and the switch for the Rx ring, the switch for the Tx ring —
// stopping early at an empty ring or a slot reserved but not yet published
// (its producer tries the flag once it publishes), and returns how many it
// took off. Once the manager is stopping, what it dequeues is released and
// counted dropped instead: Stop is waiting for this holder.
func (i *Instance) consumeRing(q *ring.MPSC[*pktbuf.Buf], limit int) (n int) {
	m := i.mgr
	for n < limit {
		k := q.DequeueBulk(i.batch[:min(limit-n, drainBatch)])
		if k == 0 {
			break
		}
		n += k
		switch burst := i.batch[:k]; {
		case m.stopped.Load():
			m.dropped.Add(uint64(k))
			i.cache.ReleaseBulk(burst)
		case q == i.rx:
			i.queued.Add(uint64(k))
			i.handle(burst)
		default:
			i.transmit(burst)
		}
	}
	return n
}

// handoff starts a drainer for what was queued on the instance's rings
// while its holder ran: a plain Drain caller on a goroutine of its own,
// inside the inflight count, that exits once both rings are empty. One
// started while Stop runs either holds the instance before Stop takes it,
// and Stop waits for it, or finds it held for good and exits at once.
func (i *Instance) handoff() {
	m := i.mgr
	m.handoffs.Add(1)
	m.inflight.Add(1)
	go i.drain()
}

func (i *Instance) drain() {
	i.own.Drain(rings{i})
	i.mgr.inflight.Add(-1)
	i.mgr.yield()
}

// handle runs the handler on a burst of Rx descriptors and switches what
// comes back, in order.
func (i *Instance) handle(burst []*pktbuf.Buf) {
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
	if len(burst) > 0 {
		i.transmit(burst)
	}
}

// transmit switches a burst of processed descriptors.
func (i *Instance) transmit(burst []*pktbuf.Buf) {
	i.txOut.Add(uint64(len(burst)))
	w := &i.sw
	w.begin()
	for _, buf := range burst {
		w.process(buf)
	}
	w.end()
}

// receive hands descriptors to the instance's Rx ring in order and runs
// the handler on them here if the instance is idle (offer). While the ring
// is full its holder gets the caller's timeslice, bounded so a wedged NF
// cannot stall its caller for long, and what still does not fit is
// released and counted as ring-overflow drops, descriptor for descriptor
// (once the manager is stopping, as plain drops).
func (i *Instance) receive(bufs []*pktbuf.Buf) {
	m := i.mgr
	if left := bufs[i.offer(i.rx, bufs, m.bpSpins, false):]; len(left) > 0 {
		if m.stopped.Load() {
			m.dropped.Add(uint64(len(left)))
		} else {
			m.ringDrops.Add(uint64(len(left)))
		}
		m.pool.ReleaseBulk(left)
	}
}

// inject carries a frame copied from data, with meta, into the instance.
// A caller that takes an idle instance copies it into a buffer from the
// holder's cache and runs it in place; any other caller copies it into one
// from the shared pool and hands that to receive.
func (i *Instance) inject(data []byte, meta *pktbuf.Meta) error {
	get := i.mgr.pool.Get
	held := i.own.TryLock()
	if held {
		get = i.cache.Get
	}
	buf, err := get()
	if err != nil {
		i.mgr.dropped.Add(1)
		if held && i.unlock() {
			i.handoff()
		}
		return err
	}
	_ = buf.SetData(data) // Inject checked the length
	buf.Meta = *meta
	one := [1]*pktbuf.Buf{buf}
	if held {
		i.take(i.rx, one[:])
	} else {
		i.receive(one[:])
	}
	return nil
}

// SendBurst hands descriptors from the NF back to the manager to be
// switched, in order (used by handlers that emit packets outside their
// burst, e.g. draining a session buffer after handover). If the instance
// is idle this caller switches and emits them; if it is held they queue on
// the Tx ring for the holder or its drainer. It returns how many were
// accepted; the caller keeps ownership of burst[sent:], which the manager
// has already counted as tx drops unless it is stopped.
func (i *Instance) SendBurst(burst []*pktbuf.Buf) (sent int) {
	m := i.mgr
	if m.stopped.Load() {
		return 0
	}
	sent = i.offer(i.tx, burst, txEnqueueSpins, true)
	if left := uint64(len(burst) - sent); left > 0 && !m.stopped.Load() {
		i.txDrops.Add(left)
		m.txDrops.Add(left)
	}
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

// switcher is the state of the descriptor switch for one NF instance,
// touched only by the instance's holder: what begin loaded, the last
// service and port looked up in that tables snapshot, the per-destination
// stages, the descriptors to give back to the holder's cache and the drops
// to count when the burst ends.
type switcher struct {
	m     *Manager
	cache *pktbuf.Cache

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
	inflight atomic.Int64  // queueing callers, emitDelayed and drainers in progress
	handoffs atomic.Uint64 // drainers started
	yieldReq atomic.Bool   // RequestYield: yield once every instance is let go

	nfRingSize int
	bpSpins    int
	faultc     atomic.Pointer[injConf]
	tracec     atomic.Pointer[trace.Track]

	// dropped counts drops outside any instance's switcher: pool
	// exhaustion at Inject, fault drops and unknown services on the way in,
	// delayed frames that outlive Stop or their sink, what holders dequeue
	// once Stop has begun, teardown releases.
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
// from the same hugepage-analogue pool). Its Avail and Stats count what
// the instances' caches held when their holders last let go.
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
	// Packet-pool occupancy levels: size is fixed, populated (at most
	// size) the buffers allocated so far, in_use = size - avail the
	// instantaneous occupancy the telemetry sampler tracks for the soak's
	// bounded-pool invariant (a leak shows as in_use never returning to
	// zero at quiesce).
	reg.RegisterGauge(prefix+".pool.size", func() uint64 { return uint64(m.pool.Size()) })
	reg.RegisterGauge(prefix+".pool.populated", func() uint64 { return uint64(m.pool.Populated()) })
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

// switchedTotal counts descriptors delivered to NF instances, queued or
// run in place.
func (m *Manager) switchedTotal() uint64 {
	return m.sumInstances(func(i *Instance) uint64 { rx, _ := i.Stats(); return rx })
}

func (m *Manager) droppedTotal() uint64 {
	n := m.dropped.Load() + m.txDrops.Load() + m.ringDrops.Load()
	return n + m.sumInstances(func(i *Instance) uint64 { return i.sw.dropped.Load() })
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
	inst.rx, inst.tx = ring.NewMPSC[*pktbuf.Buf](m.ringSize()), ring.NewMPSC[*pktbuf.Buf](m.ringSize())
	inst.cache = m.pool.NewCache()
	inst.sw.m, inst.sw.cache = m, inst.cache
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
	if len(data) > pktbuf.MaxFrame-pktbuf.Headroom {
		return pktbuf.ErrFrameTooLarge
	}
	meta.Port = pid
	if meta.RSS == 0 {
		meta.RSS = rssHash(data)
	}
	return m.deliver(sid, nil, data, &meta)
}

// flowKey derives the steering hash every instance-selection decision
// uses. It must be a pure function of per-flow fields (never of per-packet
// fields like Seq), or one flow's packets would spread across instances
// and lose FIFO order.
func flowKey(meta *pktbuf.Meta) uint64 {
	return meta.RSS ^ uint64(meta.TEID)*2654435761
}

// deliver carries a frame to the instance of service sid its flow steers
// to, and runs the chain from there if it is idle: the way in for Inject
// and for a fault-delayed delivery. The frame is buf or, when buf is nil,
// data with meta, copied into a buffer only once it is known to go on —
// from the instance's cache if this caller takes the instance idle. The
// fault decision, the service lookup and the instance choice are one
// onvm.deliver span. A call that starts after Stop flips stopped releases
// the descriptor and counts it dropped; one already past that check is
// waited out by Stop, which takes every instance, or queues nothing once
// Stop has begun (Instance.queue). A frame dropped on the way, a full Rx
// ring included, is counted, and deliver still returns nil; it returns an
// error only when no buffer was to be had for data.
func (m *Manager) deliver(sid ServiceID, buf *pktbuf.Buf, data []byte, meta *pktbuf.Meta) error {
	if m.stopped.Load() {
		m.drop(buf)
		return ErrStopped
	}
	if buf != nil {
		data, meta = buf.Bytes(), &buf.Meta
	}
	sp := m.tracec.Load().Start("onvm.deliver")
	inst, delay := m.steer(m.faultc.Load(), m.tabs.Load().service(sid), data, meta)
	sp.End()
	var err error
	switch {
	case delay > 0:
		if buf == nil {
			if buf, err = m.pool.Get(); err != nil {
				m.dropped.Add(1)
				break
			}
			_ = buf.SetData(data) // Inject checked the length
			buf.Meta = *meta
		}
		m.deliverAfter(delay, sid, buf)
	case inst == nil:
		m.drop(buf)
	case buf == nil:
		err = inst.inject(data, meta)
	default:
		one := [1]*pktbuf.Buf{buf}
		inst.receive(one[:])
	}
	m.yield()
	return err
}

// deliverAfter delivers buf to service sid afresh once delay has passed.
func (m *Manager) deliverAfter(delay time.Duration, sid ServiceID, buf *pktbuf.Buf) {
	time.AfterFunc(delay, func() { m.deliver(sid, buf, nil, nil) })
}

// RequestYield asks the caller running the handler that calls it to give
// up its timeslice once it has let go of every instance: for a handler
// that has just started a goroutine which should run soon (the UPF-U's
// paging report), without the caller holding an NF instance while that
// goroutine runs. The outermost Inject, SendBurst or drainer yields on its
// way out.
func (m *Manager) RequestYield() { m.yieldReq.Store(true) }

// yield gives up the caller's timeslice if a handler asked for it.
func (m *Manager) yield() {
	if m.yieldReq.Load() && m.yieldReq.CompareAndSwap(true, false) {
		runtime.Gosched()
	}
}

// steer makes fc's deliver decision on a frame (its bytes and metadata)
// headed for a service, and picks the instance of the service's entry ent
// its flow steers to. It returns no instance when the frame is to be
// dropped (a fault, or no such service), and a delay when a fault holds
// the frame back: it is then delivered afresh once the delay has passed.
func (m *Manager) steer(fc *injConf, ent *serviceEntry, data []byte, meta *pktbuf.Meta) (inst *Instance, delay time.Duration) {
	if fc != nil {
		act := fc.inj.Decide(fc.deliver, data)
		if act.Drop {
			return nil, 0
		}
		if act.Delay > 0 {
			return nil, act.Delay
		}
	}
	if ent == nil {
		return nil, 0
	}
	return pickInstance(ent, flowKey(meta)), 0
}

// emitDelayed emits a frame whose egress a fault delayed, on its timer,
// through the sink of the current tables snapshot. It is bracketed by the
// inflight count, so Stop waits for it; after Stop, or with no sink left on its
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

// drop releases a descriptor, if there is one, and counts it dropped.
func (m *Manager) drop(buf *pktbuf.Buf) {
	if buf != nil {
		buf.Release()
	}
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
		w.cache.ReleaseBulk(w.spent[:w.nspent])
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
	inst, delay := w.m.steer(w.fc, w.svc, buf.Bytes(), &buf.Meta)
	if delay > 0 {
		w.m.deliverAfter(delay, sid, buf)
		return
	}
	if inst == nil {
		w.drop(buf)
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

// process executes the action an NF stamped on one descriptor.
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
				// behind this instance.
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

// Stop refuses new work, waits out every caller queueing on a ring, every
// delayed egress and every drainer — a holder finishes the burst in hand
// and releases what it dequeues after that — then takes every instance for
// good, which waits out its holder, releases the descriptors still queued
// on its rings and gives its cache back to the pool, so teardown cannot
// race in-flight switching. A caller past its stopped check that has not
// taken an instance by then finds it held for good and queues nothing. A delayed descriptor whose timer fires
// later is released and counted dropped. Every descriptor released here is
// counted dropped.
func (m *Manager) Stop() {
	if !m.stopped.CompareAndSwap(false, true) {
		return
	}
	for m.inflight.Load() != 0 {
		runtime.Gosched()
	}
	for _, i := range m.tabs.Load().instances {
		i.own.Hold()
		for _, r := range []*ring.MPSC[*pktbuf.Buf]{i.rx, i.tx} {
			for {
				b, ok := r.Dequeue()
				if !ok {
					break
				}
				m.drop(b)
			}
		}
		i.cache.Flush()
	}
}

// String renders manager state for diagnostics.
func (m *Manager) String() string {
	sw, dr := m.Stats()
	return fmt.Sprintf("onvm.Manager{switched: %d, dropped: %d, pool: %d/%d}",
		sw, dr, m.pool.Avail(), m.pool.Size())
}
