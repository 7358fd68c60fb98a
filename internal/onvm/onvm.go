// Package onvm is the shared-memory NFV platform underpinning L²5GC: an
// in-process reproduction of OpenNetVM's architecture. An NF manager owns a
// packet-buffer pool and per-NF Rx/Tx descriptor rings; NFs attach by
// service ID, process packets handed to their Rx ring, stamp an action
// (to-NF / to-port / drop / buffer) into the descriptor metadata and return
// it through their Tx ring. The manager moves descriptors between rings —
// packets themselves never move or get serialized.
//
// Nothing here runs on a goroutine of its own. Every ring — a work shard,
// an NF's Rx ring, an NF's Tx ring — is consumed by whichever caller finds
// it unowned (ring.Owner, the consumer-ownership rule shm.Mailbox uses):
// Inject enqueues on the flow's work shard (§4, Receive Side Scaling) and
// switches the shard if no caller is; a stage flushed into an idle Rx ring
// runs the NF's handler on the flusher; descriptors handed back onto an
// idle Tx ring are switched and emitted by the caller that handed them
// back. Uncontended, one Inject carries its packet through the whole chain
// to the sink with no goroutine hand-off, the way an ONVM NF polling its
// ring would. Under contention a descriptor waits in its ring for the
// current owner, and one owner per ring at a time keeps per-flow FIFO order
// end-to-end while unrelated flows switch in parallel (DESIGN §11).
//
// Between the copy in (Inject) and the sink call out, descriptors move in
// bursts: a burst is whatever a ring holds when its owner looks, up to
// drainBatch, and is never waited for. Ring operations and counters are
// paid once per burst, the steering tables are an immutable snapshot
// loaded once per burst, and nothing on that path takes a mutex or
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
	"maps"
	"runtime"
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
// it — so it may be invoked concurrently for different flows (frames of one
// flow arrive in order) and must be goroutine-safe; a sink that blocks
// blocks that caller.
type PortSink func(frame []byte, meta pktbuf.Meta)

// Errors returned by the platform.
var (
	ErrNoService  = errors.New("onvm: unknown service ID")
	ErrNoPort     = errors.New("onvm: unknown port")
	ErrDuplicate  = errors.New("onvm: instance already registered")
	ErrRingFull   = errors.New("onvm: ring full")
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

// task is a work-shard entry: an inbound injection, or a fault-delayed
// frame re-entering the switch on its flow's shard.
type task struct {
	buf    *pktbuf.Buf
	dst    ServiceID
	egress bool // buf already passed the egress fault decision; emit it
}

// Instance is one running NF instance attached to the platform.
type Instance struct {
	Service    ServiceID
	InstanceID uint16
	name       string
	spanName   string // "onvm.nf."+name, precomputed off the hot path

	// rx is fed by whoever switches a descriptor to the instance; its
	// owner runs the handler. tx is fed by rx's owner and by SendBurst
	// callers (session-buffer drains); its owner switches what it holds.
	rx rxRing
	tx txRing

	handler BurstHandler
	mgr     *Manager

	rxCount atomic.Uint64
	txCount atomic.Uint64
	txDrops atomic.Uint64
	inline  atomic.Uint64 // handled on the caller that delivered them
	queued  atomic.Uint64 // handled by another caller's ownership
}

// rxRing is an NF's Rx ring and the burst its owner hands the handler.
type rxRing struct {
	own   ring.Owner
	r     *ring.MPSC[*pktbuf.Buf]
	inst  *Instance
	batch [drainBatch]*pktbuf.Buf
}

func (q *rxRing) Ready() bool { return q.r.Ready() }

// Consume runs the handler on a burst at a time off the Rx ring until it is
// empty, handing what comes back to the Tx ring with one bulk enqueue.
func (q *rxRing) Consume() (n int) {
	i := q.inst
	for {
		k := q.r.DequeueBulk(q.batch[:])
		if k == 0 {
			return n
		}
		n += k
		burst := q.batch[:k]
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
		if sent := i.transmit(burst); sent < len(burst) {
			i.mgr.pool.ReleaseBulk(burst[sent:])
		}
	}
}

// txRing is an NF's Tx ring and the switch state of its owner.
type txRing struct {
	own   ring.Owner
	r     *ring.MPSC[*pktbuf.Buf]
	sw    switcher
	drain [drainBatch]*pktbuf.Buf
}

func (q *txRing) Ready() bool { return q.r.Ready() }

// Consume switches the Tx ring's descriptors, a burst at a time, until it
// is empty.
func (q *txRing) Consume() (n int) {
	for {
		k := q.r.DequeueBulk(q.drain[:])
		if k == 0 {
			return n
		}
		n += k
		q.sw.begin()
		for _, buf := range q.drain[:k] {
			q.sw.process(buf)
		}
		q.sw.end()
	}
}

// Name returns the instance's diagnostic name.
func (i *Instance) Name() string { return i.name }

// Stats returns packets received and transmitted by this instance.
func (i *Instance) Stats() (rx, tx uint64) { return i.rxCount.Load(), i.txCount.Load() }

// TxDrops returns descriptors this instance discarded because its Tx ring
// stayed full through the enqueue backoff window.
func (i *Instance) TxDrops() uint64 { return i.txDrops.Load() }

// serve runs the instance's Rx ring if no caller owns it and books what
// was handled: up to own descriptors — the ones this caller just put there
// — as served inline, the rest as served for other callers.
func (i *Instance) serve(own int) int {
	n := i.rx.own.Drain(&i.rx)
	if in := min(n, own); in > 0 {
		i.inline.Add(uint64(in))
	}
	if n > own {
		i.queued.Add(uint64(n - own))
	}
	return n
}

// transmit places a burst of processed descriptors on the instance's Tx
// ring in order and switches the ring if no caller owns it. While the ring
// is full it backs off, switching the ring itself when its owner lets go;
// when no slot came free through the whole backoff window, what is left of
// the burst is counted as tx-overflow drops. It returns how many
// descriptors went out: the caller still owns burst[sent:].
func (i *Instance) transmit(burst []*pktbuf.Buf) (sent int) {
	for spins := 0; ; spins++ {
		if k := i.tx.r.EnqueueBulk(burst[sent:]); k > 0 {
			sent += k
			spins = 0
		}
		if sent == len(burst) {
			break
		}
		if spins >= txEnqueueSpins {
			left := uint64(len(burst) - sent)
			i.txDrops.Add(left)
			i.mgr.txDrops.Add(left)
			break
		}
		if i.tx.own.Drain(&i.tx) == 0 {
			time.Sleep(time.Duration(spins+1) * time.Microsecond)
		}
	}
	if sent > 0 {
		i.txCount.Add(uint64(sent))
		i.tx.own.Drain(&i.tx)
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
	return i.transmit(burst)
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
// burst and never locks.
type tables struct {
	services  map[ServiceID]*serviceEntry
	ports     map[PortID]PortSink
	portNF    map[PortID]ServiceID // inbound steering: port -> first NF
	instances []*Instance          // registration order
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

// switcher is the state of the descriptor switch for one ring whose
// descriptors it moves — a work shard or an NF's Tx ring — touched only by
// that ring's owner: what begin loaded, the last service and port looked
// up in that tables snapshot, the per-destination stages, the descriptors
// to give back to the pool and the drops to count when the burst ends.
type switcher struct {
	m *Manager

	switched atomic.Uint64
	dropped  atomic.Uint64

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

// shard is one work shard of the descriptor switch: the flows steered to
// it, consumed by whichever caller owns it.
type shard struct {
	id    int
	own   ring.Owner
	sw    switcher
	tasks [drainBatch]task
}

func (s *shard) Ready() bool { return s.sw.m.shards.Ready(s.id) }

// Consume switches the shard's tasks, a burst at a time, until it is empty.
func (s *shard) Consume() (n int) {
	w := &s.sw
	for {
		k := w.m.shards.DequeueBulk(s.id, s.tasks[:])
		if k == 0 {
			return n
		}
		n += k
		w.begin()
		for i := range s.tasks[:k] {
			if t := &s.tasks[i]; t.egress {
				w.emitPort(t.buf)
			} else {
				w.deliver(t.buf, t.dst)
			}
		}
		w.end()
	}
}

// Manager is the ONVM NF manager: it owns the pool, the rings and the
// sharded descriptor switch.
type Manager struct {
	pool *pktbuf.Pool

	mu   sync.Mutex // serialises writers of tabs
	tabs atomic.Pointer[tables]

	shards   *ring.Sharded[task]
	shardv   []*shard
	stopped  atomic.Bool
	inflight atomic.Int64 // Inject and SendBurst calls in progress

	nfRingSize int
	bpSpins    int
	faultc     atomic.Pointer[injConf]
	tracec     atomic.Pointer[trace.Track]

	// extraDropped counts drops outside any switcher (pool exhaustion at
	// Inject, work-shard overflow, teardown releases).
	extraDropped atomic.Uint64
	// txDrops counts descriptors NFs discarded on full Tx rings, folded
	// into the dropped aggregate.
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
	// SwitchWorkers is the number of work shards of the descriptor switch.
	// Descriptors are sharded by flow key, so per-flow order is kept while
	// flows on different shards switch in parallel on their callers.
	// 0 = default min(GOMAXPROCS, 4); values < 1 are clamped to 1.
	SwitchWorkers int
}

// DefaultConfig returns sizes suitable for the evaluation workloads.
func DefaultConfig() Config {
	return Config{PoolSize: 8192, RingSize: 1024, PoolPrefix: "l25gc"}
}

// defaultSwitchWorkers picks the shard count when Config leaves it 0.
func defaultSwitchWorkers() int {
	n := runtime.GOMAXPROCS(0)
	if n > 4 {
		n = 4
	}
	if n < 1 {
		n = 1
	}
	return n
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
	if cfg.SwitchWorkers == 0 {
		cfg.SwitchWorkers = defaultSwitchWorkers()
	}
	if cfg.SwitchWorkers < 1 {
		cfg.SwitchWorkers = 1
	}
	m := &Manager{
		pool: pktbuf.NewPool(cfg.PoolSize, cfg.PoolPrefix),
		// Every task holds a pool buffer, so no shard can be asked to
		// hold more than the pool.
		shards:     ring.NewSharded[task](cfg.SwitchWorkers, cfg.PoolSize),
		nfRingSize: cfg.RingSize,
		bpSpins:    cfg.BackpressureSpins,
		ringDrops:  metrics.NewCounter(cfg.PoolPrefix + ".ring_overflow_drops"),
	}
	m.tabs.Store(&tables{
		services: map[ServiceID]*serviceEntry{},
		ports:    map[PortID]PortSink{},
		portNF:   map[PortID]ServiceID{},
	})
	m.shardv = make([]*shard, cfg.SwitchWorkers)
	for i := range m.shardv {
		m.shardv[i] = &shard{id: i, sw: switcher{m: m}}
	}
	return m
}

// Pool exposes the shared packet pool (NFs allocate response packets
// from the same hugepage-analogue pool).
func (m *Manager) Pool() *pktbuf.Pool { return m.pool }

// Shards returns the number of work shards.
func (m *Manager) Shards() int { return len(m.shardv) }

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
// on another caller's ownership, and per-shard switched/dropped gauges for
// shard-balance diagnostics. The ring-drop counter is re-registered under
// the prefix (not its pool-scoped name) so the registry name set is stable
// across units.
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
	reg.RegisterGauge(prefix+".shards", func() uint64 { return uint64(len(m.shardv)) })
	for _, s := range m.shardv {
		reg.RegisterGauge(fmt.Sprintf("%s.shard%d.switched", prefix, s.id), s.sw.switched.Load)
		reg.RegisterGauge(fmt.Sprintf("%s.shard%d.dropped", prefix, s.id), s.sw.dropped.Load)
	}
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

func (m *Manager) switchedTotal() uint64 {
	n := m.sumInstances(func(i *Instance) uint64 { return i.tx.sw.switched.Load() })
	for _, s := range m.shardv {
		n += s.sw.switched.Load()
	}
	return n
}

func (m *Manager) droppedTotal() uint64 {
	n := m.extraDropped.Load() + m.txDrops.Load()
	n += m.sumInstances(func(i *Instance) uint64 { return i.tx.sw.dropped.Load() })
	for _, s := range m.shardv {
		n += s.sw.dropped.Load()
	}
	return n
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
		services:  maps.Clone(old.services),
		ports:     maps.Clone(old.ports),
		portNF:    maps.Clone(old.portNF),
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
	inst.rx.r, inst.rx.inst = ring.NewMPSC[*pktbuf.Buf](m.ringSize()), inst
	inst.tx.r, inst.tx.sw.m = ring.NewMPSC[*pktbuf.Buf](m.ringSize()), m
	m.update(func(t *tables) {
		ent := serviceEntry{}
		if old := t.services[sid]; old != nil {
			ent = *old
		}
		inst.InstanceID = uint16(len(ent.instances))
		ent.instances = extend(ent.instances, inst)
		t.services[sid] = &ent
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
		if old := t.services[sid]; old != nil {
			t.services[sid] = &serviceEntry{instances: old.instances, canaryPercent: percent}
			err = nil
		}
	})
	return err
}

// RegisterPort installs an egress sink for a port.
func (m *Manager) RegisterPort(pid PortID, sink PortSink) {
	m.update(func(t *tables) { t.ports[pid] = sink })
}

// BindPortNF steers packets arriving on pid to service sid.
func (m *Manager) BindPortNF(pid PortID, sid ServiceID) {
	m.update(func(t *tables) { t.portNF[pid] = sid })
}

// Inject delivers an external frame into the platform as if received on
// port pid. This is the single copy at the system edge. If the chain is
// idle the frame is carried through it, and out of its sink, before Inject
// returns.
func (m *Manager) Inject(pid PortID, data []byte, meta pktbuf.Meta) error {
	if m.stopped.Load() {
		return ErrStopped
	}
	sid, ok := m.tabs.Load().portNF[pid]
	if !ok {
		return ErrNoPort
	}
	buf, err := m.pool.Get()
	if err != nil {
		m.extraDropped.Add(1)
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
	return m.notify(task{buf: buf, dst: sid})
}

// flowKey derives the steering hash every sharding and instance-selection
// decision uses. It must be a pure function of per-flow fields (never of
// per-packet fields like Seq), or one flow's packets would spread across
// shards/instances and lose FIFO order.
func flowKey(meta *pktbuf.Meta) uint64 {
	return meta.RSS ^ uint64(meta.TEID)*2654435761
}

// notify queues a descriptor on its flow's work shard, so that one owner
// at a time moves all of a flow's descriptors, in order, and switches the
// shard if no caller owns it.
func (m *Manager) notify(t task) error {
	// The inflight count brackets the whole call, the switching included,
	// so Stop can wait out every caller already past the stopped check; a
	// notify that starts after Stop flips stopped releases its own buffer.
	m.inflight.Add(1)
	defer m.inflight.Add(-1)
	err := ErrStopped
	if !m.stopped.Load() {
		s := m.shardv[m.shards.ShardOf(flowKey(&t.buf.Meta))]
		if m.shards.Enqueue(s.id, t) {
			s.own.Drain(s)
			return nil
		}
		err = ErrRingFull
	}
	t.buf.Release()
	m.extraDropped.Add(1)
	return err
}

// rssHash is the ingress flow hash (§4, Receive Side Scaling). Like a
// NIC's RSS it covers flow fields only — on N3 the tunnel ID plus the
// inner addresses, protocol and ports, on N6 the addresses, protocol and
// ports — never the payload or a checksum, which differ between packets
// of one flow and would spread it over shards, breaking its FIFO order.
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
			w.flush(s)
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
	if fc := w.fc; fc != nil {
		act := fc.inj.Decide(fc.deliver, buf.Bytes())
		if act.Drop {
			w.drop(buf)
			return
		}
		if act.Delay > 0 {
			// Descriptors are single-owner, so a delayed delivery must
			// re-enter via its flow's work shard: only there does it
			// rejoin its flow's order.
			time.AfterFunc(act.Delay, func() {
				w.m.notify(task{buf: buf, dst: sid})
			})
			return
		}
	}
	if w.svc == nil || w.svcID != sid {
		w.svc, w.svcID = w.tabs.services[sid], sid
	}
	if w.svc == nil {
		w.drop(buf)
		return
	}
	inst := pickInstance(w.svc, flowKey(&buf.Meta))
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
		w.flush(s)
	}
	s.bufs[s.n] = buf
	s.n++
}

// flush moves one stage into its instance's Rx ring — one bulk enqueue and
// one counter update for the descriptors that fit — and runs the instance's
// handler on them here if no caller owns the ring. While the ring is full
// the switcher runs it itself if its owner has let go, or yields its
// timeslice to the owner — bounded, so a wedged NF cannot stall the other
// flows sharing this shard — and what still does not fit is dropped and
// counted, descriptor for descriptor.
func (w *switcher) flush(s *stage) {
	inst, bufs := s.inst, s.bufs[:s.n]
	s.n = 0
	sent, mine := 0, 0 // mine: enqueued here and not yet seen handled
	for spins := 0; ; spins++ {
		if k := inst.rx.r.EnqueueBulk(bufs[sent:]); k > 0 {
			sent += k
			mine += k
			spins = 0
			inst.rxCount.Add(uint64(k))
			w.switched.Add(uint64(k))
		}
		if sent == len(bufs) || spins >= w.m.bpSpins {
			break
		}
		if n := inst.serve(mine); n > 0 {
			mine -= min(n, mine)
		} else {
			runtime.Gosched()
		}
	}
	if left := bufs[sent:]; len(left) > 0 {
		w.ndrop += uint64(len(left))
		w.m.ringDrops.Add(uint64(len(left)))
		w.m.pool.ReleaseBulk(left)
	}
	if mine > 0 {
		inst.serve(mine)
	}
}

// emitPort transmits a frame out of its port and releases the descriptor.
func (w *switcher) emitPort(buf *pktbuf.Buf) {
	if w.sink == nil || w.sinkPort != buf.Meta.Port {
		w.sink, w.sinkPort = w.tabs.ports[buf.Meta.Port], buf.Meta.Port
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
				// Re-enqueue on the flow's work shard after the delay
				// instead of sleeping here: a fault-delayed frame must
				// never stall every other flow behind this ring. The
				// egress decision is already made, so the re-entering task
				// bypasses a second Decide.
				time.AfterFunc(act.Delay, func() {
					w.m.notify(task{buf: buf, egress: true})
				})
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

// Stop refuses new work, waits out every caller already inside Inject or
// SendBurst — an owner runs its rings until they are empty — then takes
// every ring for good and releases the descriptors still queued in work
// shards or NF rings, so teardown cannot race in-flight switching.
func (m *Manager) Stop() {
	if !m.stopped.CompareAndSwap(false, true) {
		return
	}
	for m.inflight.Load() != 0 {
		runtime.Gosched()
	}
	for _, s := range m.shardv {
		s.own.Hold()
		for {
			t, ok := m.shards.Dequeue(s.id)
			if !ok {
				break
			}
			t.buf.Release()
			m.extraDropped.Add(1)
		}
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
				b.Release()
				m.extraDropped.Add(1)
			}
		}
	}
}

// String renders manager state for diagnostics.
func (m *Manager) String() string {
	sw, dr := m.Stats()
	return fmt.Sprintf("onvm.Manager{shards: %d, switched: %d, dropped: %d, pool: %d/%d}",
		len(m.shardv), sw, dr, m.pool.Avail(), m.pool.Size())
}
