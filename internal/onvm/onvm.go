// Package onvm is the shared-memory NFV platform underpinning L²5GC: an
// in-process reproduction of OpenNetVM's architecture. An NF manager owns a
// packet-buffer pool and per-NF Rx/Tx descriptor rings; NFs attach by
// service ID, process packets handed to their Rx ring, stamp an action
// (to-NF / to-port / drop / buffer) into the descriptor metadata and return
// it through their Tx ring. The manager moves descriptors between rings —
// packets themselves never move or get serialized.
//
// The descriptor switch is sharded across SwitchWorkers worker goroutines
// (§4, Receive Side Scaling): every descriptor is steered to a work shard
// by its flow key, each worker is the single consumer of its shard and the
// single drainer of the Tx rings it owns, so per-flow FIFO order is
// preserved end-to-end while unrelated flows switch in parallel.
//
// Between the copy in (Inject) and the sink call out, descriptors move in
// bursts: a burst is whatever a ring holds when its consumer looks, up to
// drainBatch, and is never waited for. Ring operations, counters and
// wake-ups are paid once per burst, the steering tables are an immutable
// snapshot loaded once per burst, and nothing on that path takes a mutex
// or allocates (DESIGN §11).
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

// BurstHandler processes one burst of descriptors, in order, on the
// instance's own goroutine (its only caller, so a handler may keep state
// between calls without locking). For every descriptor it either sets
// buf.Meta and hands the descriptor back, or takes ownership of it (e.g.
// parks the buffer in a session queue). It moves the descriptors it hands
// back to the front of burst, keeping their order, and returns how many
// there are.
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
// releases it afterwards. With more than one switch worker a sink may be
// invoked concurrently for different flows (frames of one flow always
// arrive from the same worker, in order), so sinks must be goroutine-safe.
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

// drainBatch bounds a burst: how many descriptors a worker or NF takes
// from a ring at once.
const drainBatch = 64

// txEnqueueSpins bounds how long a sender pushes back on a full Tx ring
// without any slot coming free before it counts what is left of its burst
// as tx-overflow drops. Each round wakes the home worker and sleeps a
// microsecond longer than the last — about 2 ms in all, a live worker
// empties the whole ring in a tenth of that — since a plain yield returns
// at once when the worker runs on another thread.
const txEnqueueSpins = 64

// task is a work-shard entry: an inbound injection, or a fault-delayed
// frame re-entering the switch on its flow's shard.
type task struct {
	buf    *pktbuf.Buf
	dst    ServiceID
	egress bool // buf already passed the egress fault decision; emit it
}

// parker is the sleeping side of a ring consumer. The consumer publishes
// that it is about to sleep, looks at its rings once more, and only then
// blocks; a producer publishes its descriptors first and rings the bell
// only if it then reads the flag set. Both sides use sequentially
// consistent atomics, so either the consumer's second look sees the
// descriptors or the producer sees the flag: no wake-up is lost, and a
// producer feeding a running consumer does no channel operation.
type parker struct {
	parked atomic.Bool
	bell   chan struct{} // capacity 1: wake-ups coalesce
}

// wake rings the bell if the consumer is parked. One of several concurrent
// producers wins the flag and rings; the rest return.
func (p *parker) wake() {
	if p.parked.Load() && p.parked.CompareAndSwap(true, false) {
		select {
		case p.bell <- struct{}{}:
		default:
		}
	}
}

// park blocks until woken, unless pending reports work that arrived before
// the flag went up. It returns true when stop closed instead. A bell left
// over from an earlier round wakes the consumer once for nothing.
func (p *parker) park(pending func() bool, stop <-chan struct{}) (stopped bool) {
	p.parked.Store(true)
	if !pending() {
		select {
		case <-p.bell:
		case <-stop:
			stopped = true
		}
	}
	p.parked.Store(false)
	return stopped
}

// Instance is one running NF instance attached to the platform.
type Instance struct {
	Service    ServiceID
	InstanceID uint16
	name       string
	spanName   string // "onvm.nf."+name, precomputed off the hot path

	// rx is multi-producer (any switch worker may deliver) and consumed
	// only by the instance goroutine; tx is multi-producer (the instance
	// goroutine plus SendBurst callers such as session-buffer drains) and
	// consumed only by the home worker.
	rx     *ring.MPSC[*pktbuf.Buf]
	rxWait parker
	tx     *ring.MPSC[*pktbuf.Buf]
	shard  int // home worker: drains tx, preserving single-consumer order

	handler BurstHandler
	mgr     *Manager
	stop    chan struct{}
	done    chan struct{}

	rxCount atomic.Uint64
	txCount atomic.Uint64
	txDrops atomic.Uint64
}

// Name returns the instance's diagnostic name.
func (i *Instance) Name() string { return i.name }

// Stats returns packets received and transmitted by this instance.
func (i *Instance) Stats() (rx, tx uint64) { return i.rxCount.Load(), i.txCount.Load() }

// TxDrops returns descriptors this instance discarded because its Tx ring
// stayed full through the enqueue backoff window.
func (i *Instance) TxDrops() uint64 { return i.txDrops.Load() }

// transmit places a burst of processed descriptors on the instance's Tx
// ring in order and wakes the home worker once. While the ring is full it
// backs off (waking the home worker so it can drain); when no slot came
// free through the whole backoff window, what is left of the burst is
// counted as tx-overflow drops. It returns how many descriptors went out:
// the caller still owns burst[sent:].
func (i *Instance) transmit(burst []*pktbuf.Buf) (sent int) {
	for spins := 0; ; spins++ {
		if k := i.tx.EnqueueBulk(burst[sent:]); k > 0 {
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
		i.mgr.wake(i.shard)
		time.Sleep(time.Duration(spins+1) * time.Microsecond)
	}
	if sent > 0 {
		i.txCount.Add(uint64(sent))
		// The home worker looks at the Tx rings it owns every time round
		// its loop and before it parks, so a wake-up is all it needs.
		i.mgr.wake(i.shard)
	}
	return sent
}

// SendBurst hands descriptors from the NF back to the manager via its Tx
// ring, in order (used by handlers that emit packets outside their burst,
// e.g. draining a session buffer after handover). It returns how many were
// accepted; the caller keeps ownership of burst[sent:], which the manager
// has already counted as tx drops unless it is stopped.
func (i *Instance) SendBurst(burst []*pktbuf.Buf) (sent int) {
	if i.mgr.stopped.Load() {
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
	homed     [][]*Instance        // per worker: the instances whose Tx ring it drains
}

// injConf groups a fault injector with its point names, swapped in
// atomically so the switch workers never race SetInjector.
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

// switchWorker is one shard of the descriptor switch: the single consumer
// of its work ring and the single drainer of the Tx rings of the instances
// homed on it.
type switchWorker struct {
	id   int
	wait parker
	done chan struct{}

	switched atomic.Uint64
	dropped  atomic.Uint64

	// State of the burst in hand, touched only by the worker goroutine:
	// what begin loaded, the per-destination stages, the descriptors to
	// give back to the pool and the drops to count when the burst ends.
	tabs   *tables
	fc     *injConf
	tk     *trace.Track
	svcID  ServiceID // service of svc (valid while svc != nil)
	svc    *serviceEntry
	stages []*stage
	spent  [drainBatch]*pktbuf.Buf
	nspent int
	ndrop  uint64
}

// Manager is the ONVM NF manager: it owns the pool, the rings and the
// sharded descriptor switch.
type Manager struct {
	pool *pktbuf.Pool

	mu      sync.Mutex // serialises writers of tabs
	tabs    atomic.Pointer[tables]
	instSeq int // round-robin home-shard assignment

	shards   *ring.Sharded[task]
	workers  []*switchWorker
	stopped  atomic.Bool
	inflight atomic.Int64 // notifies between stopped-check and enqueue

	nfRingSize int
	bpSpins    int
	faultc     atomic.Pointer[injConf]
	tracec     atomic.Pointer[trace.Track]

	// extraDropped counts drops outside any worker context (pool
	// exhaustion at Inject, work-shard overflow, teardown releases).
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
	// BackpressureSpins bounds how long a switch worker pushes back on a
	// full NF Rx ring (cooperative yields) before counting the descriptor
	// as a ring-overflow drop. 0 = default (64); -1 disables backpressure.
	BackpressureSpins int
	// SwitchWorkers is the number of descriptor-switch workers. Descriptors
	// are sharded across workers by flow key, so per-flow order is kept
	// while flows switch in parallel. 0 = default min(GOMAXPROCS, 4);
	// values < 1 are clamped to 1.
	SwitchWorkers int
}

// DefaultConfig returns sizes suitable for the evaluation workloads.
func DefaultConfig() Config {
	return Config{PoolSize: 8192, RingSize: 1024, PoolPrefix: "l25gc"}
}

// defaultSwitchWorkers picks the worker count when Config leaves it 0.
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

// NewManager starts a platform manager and its switch workers.
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
		homed:    make([][]*Instance, cfg.SwitchWorkers),
	})
	m.workers = make([]*switchWorker, cfg.SwitchWorkers)
	for i := range m.workers {
		m.workers[i] = &switchWorker{
			id:   i,
			wait: parker{bell: make(chan struct{}, 1)},
			done: make(chan struct{}),
		}
		go m.workerLoop(m.workers[i])
	}
	return m
}

// Pool exposes the shared packet pool (NFs allocate response packets
// from the same hugepage-analogue pool).
func (m *Manager) Pool() *pktbuf.Pool { return m.pool }

// Workers returns the number of switch workers.
func (m *Manager) Workers() int { return len(m.workers) }

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
// switched/dropped aggregates, the overflow-drop breakdown, and per-worker
// switched/dropped gauges for shard-balance diagnostics. The ring-drop
// counter is re-registered under the prefix (not its pool-scoped name) so
// the registry name set is stable across units.
func (m *Manager) ExportMetrics(reg *metrics.Registry, prefix string) {
	reg.RegisterGauge(prefix+".switched", m.switchedTotal)
	reg.RegisterGauge(prefix+".dropped", m.droppedTotal)
	reg.RegisterGauge(prefix+".tx_drops", m.txDrops.Load)
	reg.RegisterGauge(prefix+".ring_overflow_drops", m.ringDrops.Load)
	reg.RegisterGauge(prefix+".workers", func() uint64 { return uint64(len(m.workers)) })
	for _, w := range m.workers {
		reg.RegisterGauge(fmt.Sprintf("%s.worker%d.switched", prefix, w.id), w.switched.Load)
		reg.RegisterGauge(fmt.Sprintf("%s.worker%d.dropped", prefix, w.id), w.dropped.Load)
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

func (m *Manager) switchedTotal() uint64 {
	var n uint64
	for _, w := range m.workers {
		n += w.switched.Load()
	}
	return n
}

func (m *Manager) droppedTotal() uint64 {
	n := m.extraDropped.Load() + m.txDrops.Load()
	for _, w := range m.workers {
		n += w.dropped.Load()
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
		homed:     slices.Clone(old.homed),
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
// The instance is homed on a switch worker round-robin; that worker alone
// drains its Tx ring.
func (m *Manager) RegisterBurst(sid ServiceID, name string, h BurstHandler) (*Instance, error) {
	inst := &Instance{
		Service:  sid,
		name:     name,
		spanName: "onvm.nf." + name,
		rx:       ring.NewMPSC[*pktbuf.Buf](m.ringSize()),
		rxWait:   parker{bell: make(chan struct{}, 1)},
		tx:       ring.NewMPSC[*pktbuf.Buf](m.ringSize()),
		handler:  h,
		mgr:      m,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	m.update(func(t *tables) {
		ent := serviceEntry{}
		if old := t.services[sid]; old != nil {
			ent = *old
		}
		inst.InstanceID = uint16(len(ent.instances))
		inst.shard = m.instSeq % len(m.workers)
		m.instSeq++
		ent.instances = extend(ent.instances, inst)
		t.services[sid] = &ent
		t.instances = extend(t.instances, inst)
		t.homed[inst.shard] = extend(t.homed[inst.shard], inst)
	})
	go inst.run()
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
// port pid. This is the single copy at the system edge.
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

// wake wakes a worker if it is parked.
func (m *Manager) wake(shard int) { m.workers[shard].wait.wake() }

// notify queues a descriptor on its flow's work shard, so that one worker
// moves all of a flow's descriptors, in order.
func (m *Manager) notify(t task) error {
	// The inflight count brackets the stopped-check-to-enqueue window so
	// Stop can wait out racing notifies before draining residual shards; a
	// notify that starts after Stop flips stopped releases its own buffer.
	m.inflight.Add(1)
	defer m.inflight.Add(-1)
	err := ErrStopped
	if !m.stopped.Load() {
		shard := m.shards.ShardOf(flowKey(&t.buf.Meta))
		if m.shards.Enqueue(shard, t) {
			m.wake(shard)
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
// fault configuration and the trace track.
func (m *Manager) begin(w *switchWorker) {
	w.tabs, w.fc, w.tk = m.tabs.Load(), m.faultc.Load(), m.tracec.Load()
	w.svc = nil
}

// end completes a burst: every stage goes to its instance's Rx ring with
// one bulk enqueue, spent descriptors return to the pool together, and the
// drop count is added once.
func (m *Manager) end(w *switchWorker) {
	for _, s := range w.stages {
		if s.n > 0 {
			m.flush(w, s)
		}
	}
	m.releaseSpent(w)
	if w.ndrop > 0 {
		w.dropped.Add(w.ndrop)
		w.ndrop = 0
	}
}

// release queues a descriptor the switch is done with for the bulk put at
// the end of the burst.
func (m *Manager) release(w *switchWorker, buf *pktbuf.Buf) {
	if w.nspent == len(w.spent) {
		m.releaseSpent(w)
	}
	w.spent[w.nspent] = buf
	w.nspent++
}

func (m *Manager) releaseSpent(w *switchWorker) {
	if w.nspent > 0 {
		m.pool.ReleaseBulk(w.spent[:w.nspent])
		w.nspent = 0
	}
}

// drop releases a descriptor and counts it dropped.
func (m *Manager) drop(w *switchWorker, buf *pktbuf.Buf) {
	m.release(w, buf)
	w.ndrop++
}

// deliver stages a descriptor for the target service's Rx ring. The fault
// decision and the span stay per descriptor; the ring operation, the
// wake-up and the counters are paid per stage in flush.
func (m *Manager) deliver(w *switchWorker, buf *pktbuf.Buf, sid ServiceID) {
	sp := w.tk.Start("onvm.deliver")
	m.stageFor(w, buf, sid)
	sp.End()
}

func (m *Manager) stageFor(w *switchWorker, buf *pktbuf.Buf, sid ServiceID) {
	if fc := w.fc; fc != nil {
		act := fc.inj.Decide(fc.deliver, buf.Bytes())
		if act.Drop {
			m.drop(w, buf)
			return
		}
		if act.Delay > 0 {
			// Descriptors are single-owner, so a delayed delivery must
			// re-enter via its home work shard: only that shard's worker
			// may move it, and only there does it rejoin its flow's order.
			time.AfterFunc(act.Delay, func() {
				m.notify(task{buf: buf, dst: sid})
			})
			return
		}
	}
	if w.svc == nil || w.svcID != sid {
		w.svc, w.svcID = w.tabs.services[sid], sid
	}
	if w.svc == nil {
		m.drop(w, buf)
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
		// First descriptor this worker sends to inst: the stage stays for
		// the life of the worker.
		s = &stage{inst: inst}
		w.stages = append(w.stages, s)
	}
	if s.n == len(s.bufs) {
		m.flush(w, s)
	}
	s.bufs[s.n] = buf
	s.n++
}

// flush moves one stage into its instance's Rx ring: one bulk enqueue, one
// wake-up and one counter update for the descriptors that fit. While the
// ring is full the worker yields its timeslice to let the NF drain — bounded
// so a wedged NF cannot stall the other flows sharing this shard — and
// what still does not fit is dropped and counted, descriptor for descriptor.
func (m *Manager) flush(w *switchWorker, s *stage) {
	inst, bufs := s.inst, s.bufs[:s.n]
	s.n = 0
	sent := 0
	for spins := 0; ; spins++ {
		if k := inst.rx.EnqueueBulk(bufs[sent:]); k > 0 {
			sent += k
			spins = 0
			inst.rxWait.wake()
		}
		if sent == len(bufs) || spins >= m.bpSpins {
			break
		}
		runtime.Gosched()
	}
	if sent > 0 {
		inst.rxCount.Add(uint64(sent))
		w.switched.Add(uint64(sent))
	}
	if left := bufs[sent:]; len(left) > 0 {
		w.ndrop += uint64(len(left))
		m.ringDrops.Add(uint64(len(left)))
		m.pool.ReleaseBulk(left)
	}
}

// emitPort transmits a frame out of its port and releases the descriptor.
func (m *Manager) emitPort(w *switchWorker, buf *pktbuf.Buf) {
	if sink := w.tabs.ports[buf.Meta.Port]; sink != nil {
		sp := w.tk.Start("onvm.egress")
		sink(buf.Bytes(), buf.Meta)
		sp.End()
		m.release(w, buf)
	} else {
		m.drop(w, buf)
	}
}

// process executes one descriptor action from an NF's Tx ring.
func (m *Manager) process(w *switchWorker, buf *pktbuf.Buf) {
	switch buf.Meta.Action {
	case pktbuf.ActionToNF:
		m.deliver(w, buf, buf.Meta.Dst)
	case pktbuf.ActionToPort:
		if fc := w.fc; fc != nil {
			act := fc.inj.Decide(fc.egress, buf.Bytes())
			if act.Drop {
				m.drop(w, buf)
				return
			}
			if act.Delay > 0 {
				// Re-enqueue on the flow's home shard after the delay
				// instead of sleeping in the worker: a fault-delayed frame
				// must never stall every other flow behind the switch. The
				// egress decision is already made, so the re-entering task
				// bypasses a second Decide.
				time.AfterFunc(act.Delay, func() {
					m.notify(task{buf: buf, egress: true})
				})
				return
			}
		}
		m.emitPort(w, buf)
	case pktbuf.ActionDrop:
		m.drop(w, buf)
	default: // Buffer-left-in-ring releases here
		m.release(w, buf)
	}
}

// drainTx empties one NF's Tx ring through the switch, a burst at a time.
// Only the instance's home worker may call it.
func (m *Manager) drainTx(w *switchWorker, nf *Instance, drain []*pktbuf.Buf) bool {
	any := false
	for {
		n := nf.tx.DequeueBulk(drain)
		if n == 0 {
			return any
		}
		any = true
		m.begin(w)
		for _, buf := range drain[:n] {
			m.process(w, buf)
		}
		m.end(w)
		if n < len(drain) {
			return any
		}
	}
}

// sweep drains the Tx rings of the instances homed on w that hold
// descriptors. The worker runs it every time round its loop and once more
// before it parks, so an NF only ever has to wake its home worker.
func (m *Manager) sweep(w *switchWorker, drain []*pktbuf.Buf) bool {
	any := false
	for _, inst := range m.tabs.Load().homed[w.id] {
		if inst.tx.Ready() && m.drainTx(w, inst, drain) {
			any = true
		}
	}
	return any
}

// idle reports whether w has nothing to do: nothing published on its work
// shard or its Tx rings, and no Stop to notice. A slot a producer has
// reserved but not yet published does not count: that producer wakes the
// worker once it has published.
func (m *Manager) idle(w *switchWorker) bool {
	if m.shards.Ready(w.id) || m.stopped.Load() {
		return false
	}
	for _, inst := range m.tabs.Load().homed[w.id] {
		if inst.tx.Ready() {
			return false
		}
	}
	return true
}

// workerLoop is one shard of the descriptor switch: a burst of tasks off
// the work shard, then the Tx rings it owns, and only with both empty does
// it park.
func (m *Manager) workerLoop(w *switchWorker) {
	defer close(w.done)
	var tasks [drainBatch]task
	var drain [drainBatch]*pktbuf.Buf
	for {
		n := m.shards.DequeueBulk(w.id, tasks[:])
		if n > 0 {
			m.begin(w)
			for i := range tasks[:n] {
				if t := &tasks[i]; t.egress {
					m.emitPort(w, t.buf)
				} else {
					m.deliver(w, t.buf, t.dst)
				}
			}
			m.end(w)
		}
		if m.sweep(w, drain[:]) || n > 0 {
			continue
		}
		if m.stopped.Load() {
			return
		}
		w.wait.park(func() bool { return !m.idle(w) }, nil)
	}
}

// Stats reports descriptors switched and packets dropped by the manager
// (the dropped aggregate folds in NF tx-overflow drops).
func (m *Manager) Stats() (switched, dropped uint64) {
	return m.switchedTotal(), m.droppedTotal()
}

// Stop halts the switch workers and all registered NF instances, joining
// every goroutine before returning so teardown cannot race in-flight
// switching, then releases any descriptors still queued in work shards or
// NF rings.
func (m *Manager) Stop() {
	if !m.stopped.CompareAndSwap(false, true) {
		return
	}
	// Workers first: each exits once its shard and Tx rings are empty
	// (notify refuses new work after the stopped flip above).
	for _, w := range m.workers {
		m.wake(w.id)
	}
	for _, w := range m.workers {
		<-w.done
	}
	// Then the NFs: each drains its remaining Rx backlog (no new deliveries
	// can arrive) and exits.
	insts := m.tabs.Load().instances
	for _, i := range insts {
		close(i.stop)
	}
	for _, i := range insts {
		<-i.done
	}
	// Wait out notifies that raced the stopped flip (they either enqueued
	// already or will release their own buffer), so the residual drain
	// below observes every stranded descriptor.
	for m.inflight.Load() != 0 {
		runtime.Gosched()
	}
	// Everything is quiescent: release descriptors stranded in work shards
	// (tasks enqueued before the stopped flip) and NF rings (Tx handbacks
	// after the home worker left).
	for shard := 0; shard < m.shards.Shards(); shard++ {
		for {
			t, ok := m.shards.Dequeue(shard)
			if !ok {
				break
			}
			t.buf.Release()
			m.extraDropped.Add(1)
		}
	}
	for _, i := range insts {
		for _, r := range []*ring.MPSC[*pktbuf.Buf]{i.tx, i.rx} {
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

// run is the instance goroutine: a burst off the Rx ring to the handler,
// what it hands back onto the Tx ring with one bulk enqueue and one wake-up
// of the home worker.
func (i *Instance) run() {
	defer close(i.done)
	var batch [drainBatch]*pktbuf.Buf
	for {
		n := i.rx.DequeueBulk(batch[:])
		if n == 0 {
			if i.rxWait.park(i.rx.Ready, i.stop) {
				return
			}
			continue
		}
		burst := batch[:n]
		if tk := i.mgr.tracec.Load(); tk == nil {
			burst = burst[:i.handler(burst)]
		} else {
			// Traced, each descriptor is a burst of one inside its own span.
			k := 0
			for j := range burst {
				sp := tk.Start(i.spanName)
				if i.handler(burst[j:j+1]) == 1 {
					burst[k] = burst[j]
					k++
				}
				sp.End()
			}
			burst = burst[:k]
		}
		if sent := i.transmit(burst); sent < len(burst) {
			i.mgr.pool.ReleaseBulk(burst[sent:])
		}
	}
}

// String renders manager state for diagnostics.
func (m *Manager) String() string {
	sw, dr := m.Stats()
	return fmt.Sprintf("onvm.Manager{workers: %d, switched: %d, dropped: %d, pool: %d/%d}",
		len(m.workers), sw, dr, m.pool.Avail(), m.pool.Size())
}
