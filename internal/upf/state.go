// Package upf implements the 5GC User Plane Function, factored — as in
// L²5GC §3.2 — into a control-plane part (UPF-C, the PFCP session handler)
// and a user-plane part (UPF-U, the per-packet fast path). Both parts
// reference the same session state in memory, so a rule installed by UPF-C
// is visible to UPF-U with no state-propagation messages: the paper's
// "zero cost state update".
//
// The UPF-U implements the paper's smart buffering (§3.3): DL packets are
// parked in per-session queues during paging and handover, with in-order
// release toward the (new) gNB, replacing 3GPP's hairpin routing through
// the source gNB.
package upf

import (
	"encoding/binary"
	"errors"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"l25gc/internal/classifier"
	"l25gc/internal/metrics"
	"l25gc/internal/pfcp"
	"l25gc/internal/pkt"
	"l25gc/internal/rules"
)

// Errors returned by session management.
var (
	ErrSessionExists   = errors.New("upf: session already exists")
	ErrSessionNotFound = errors.New("upf: session not found")
	ErrRuleNotFound    = errors.New("upf: rule not found")
)

// DefaultBufferCap is the default per-session DL buffer (the paper's
// experiments use a 3K-packet buffer at the UPF).
const DefaultBufferCap = 3000

// The parked-bytes budget of a State. Parked packets hold no pool buffer,
// so what bounds their memory is this budget over every session, beside
// each session's packet cap. A park past the budget is refused, and the
// last parkReserve bytes of it are kept for sessions holding less than
// parkShare: sessions that filled their share cannot take them, so a
// paging episode's first packets park however much others hold.
const (
	parkBudget  = 16 << 20
	parkReserve = 4 << 20
	parkShare   = 64 << 10
)

// parked is the parked-bytes total of one State, shared by its sessions.
type parked struct{ bytes atomic.Int64 }

// charge takes n bytes from the budget for a session that holds held
// bytes, and reports whether the budget had them.
func (b *parked) charge(held, n int) bool {
	limit := int64(parkBudget - parkReserve)
	if held+n <= parkShare {
		limit = parkBudget
	}
	for {
		t := b.bytes.Load()
		if t+int64(n) > limit {
			return false
		}
		if b.bytes.CompareAndSwap(t, t+int64(n)) {
			return true
		}
	}
}

// parkQueue is a session's parked packets, oldest first: records of a
// packet's length (two bytes, big-endian) then its bytes, in pages of
// plain bytes that the garbage collector does not scan. A record never
// spans pages. The first page is small, so that a paging episode of a
// packet or two costs little; each later one is twice the last, up to
// maxPage.
type parkQueue struct {
	pages [][]byte // each page's length is its filled part
	head  int      // read offset into pages[0]
	n     int      // records
	bytes int      // record bytes, length prefixes included
}

const (
	recHdr    = 2
	firstPage = 512
	maxPage   = 64 << 10
)

// recSize is what a record of p takes in a page and charges the budget.
func recSize(p []byte) int { return recHdr + len(p) }

// push appends a record of p.
func (q *parkQueue) push(p []byte) {
	last := len(q.pages) - 1
	if last < 0 || cap(q.pages[last])-len(q.pages[last]) < recSize(p) {
		size := firstPage
		if last >= 0 {
			size = min(2*cap(q.pages[last]), maxPage)
		}
		q.pages = append(q.pages, make([]byte, 0, max(size, recSize(p))))
		last++
	}
	pg := binary.BigEndian.AppendUint16(q.pages[last], uint16(len(p)))
	q.pages[last] = append(pg, p...)
	q.n++
	q.bytes += recSize(p)
}

// pop removes the oldest record and returns its bytes, a window on the
// queue's page. The queue must not be empty.
func (q *parkQueue) pop() []byte {
	if q.head == len(q.pages[0]) {
		q.pages[0] = nil
		q.pages, q.head = q.pages[1:], 0
	}
	pg := q.pages[0][q.head:]
	rec := pg[recHdr : recHdr+int(binary.BigEndian.Uint16(pg))]
	q.head += recSize(rec)
	q.n--
	return rec
}

// tokenBucket enforces a QER maximum bit rate.
type tokenBucket struct {
	rateBps   float64 // bits per second; 0 = unlimited
	burstBits float64
	tokens    float64
	lastNano  int64
}

func (tb *tokenBucket) configure(kbps uint64) {
	tb.rateBps = float64(kbps) * 1000
	tb.burstBits = tb.rateBps / 10 // 100 ms burst
	tb.tokens = tb.burstBits
}

// allow consumes bits for a packet at time nowNano, returning false when
// the MBR is exceeded.
func (tb *tokenBucket) allow(bits int, nowNano int64) bool {
	if tb.rateBps == 0 {
		return true
	}
	if tb.lastNano != 0 {
		tb.tokens += tb.rateBps * float64(nowNano-tb.lastNano) / 1e9
		if tb.tokens > tb.burstBits {
			tb.tokens = tb.burstBits
		}
	}
	tb.lastNano = nowNano
	if tb.tokens < float64(bits) {
		return false
	}
	tb.tokens -= float64(bits)
	return true
}

// SessCtx is the per-PDU-session state shared by UPF-C and UPF-U.
type SessCtx struct {
	mu sync.Mutex

	// rulesMu guards Sess's rule maps and Cls: the fast path holds the
	// read side per flow-cache miss (uncontended in steady state), UPF-C
	// holds the write side for rule updates — the Go-memory-model-safe
	// rendering of the paper's shared-hugepage rule store.
	rulesMu sync.RWMutex
	// rulesGen names the session's current rules and index entries, for
	// the UPF-U flow caches: an entry filled at another generation is
	// stale. It moves under rulesMu's write side before every rule write
	// (establishment's gives the session its first), and after the session
	// loses an index entry (deleted, or its TEID or UE address taken by
	// another session). Values come from rulesGenSeq.
	rulesGen atomic.Uint64

	Sess      *rules.Session
	Cls       classifier.Classifier
	LocalTEID uint32 // UL F-TEID this UPF allocated
	UPSEID    uint64

	// teids lists the UL TEIDs bound to the session, so deleting it
	// touches its own index entries only. Guarded by State.mu.
	teids []uint32

	// Smart buffering state, guarded by mu: the parked packets' bytes,
	// charged to their State's budget.
	queue    parkQueue
	budget   *parked
	bufCap   int
	nocpSent bool // one SessionReport per buffering episode
	closed   bool // the session left its State: nothing parks any more

	// Buckets are guarded by mu. The limited flags say whether a bucket has
	// a rate at all; they are written with the rules (under rulesMu, where
	// UPF-C installs the QER) and read with them, so a session without an
	// MBR costs the fast path neither mu nor a clock read.
	ulBucket, dlBucket   tokenBucket
	ulLimited, dlLimited bool

	// Counters (exported snapshots via Stats).
	ulPkts, dlPkts atomic.Uint64
	bufferedPkts   atomic.Uint64
	bufDroppedPkts atomic.Uint64
	releasedPkts   atomic.Uint64
}

// SessStats is a snapshot of per-session counters.
type SessStats struct {
	ULPkts, DLPkts uint64
	Buffered       uint64
	BufferDropped  uint64
	Released       uint64
	QueueLen       int
}

// Stats returns the session counter snapshot.
func (c *SessCtx) Stats() SessStats {
	c.mu.Lock()
	q := c.queue.n
	c.mu.Unlock()
	return SessStats{
		ULPkts: c.ulPkts.Load(), DLPkts: c.dlPkts.Load(),
		Buffered: c.bufferedPkts.Load(), BufferDropped: c.bufDroppedPkts.Load(),
		Released: c.releasedPkts.Load(), QueueLen: q,
	}
}

// park copies a DL packet into the session buffer, honouring the cap and
// the budget. first says whether it is the buffering episode's first.
func (c *SessCtx) park(p []byte) (stored, first bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	first = !c.nocpSent
	c.nocpSent = true
	if c.closed || c.queue.n >= c.bufCap || !c.budget.charge(c.queue.bytes, recSize(p)) {
		c.bufDroppedPkts.Add(1)
		return false, first
	}
	c.queue.push(p)
	c.bufferedPkts.Add(1)
	return true, first
}

// drain detaches the parked packets, in arrival order, gives their bytes
// back to the budget and ends the buffering episode.
func (c *SessCtx) drain() parkQueue {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.detach()
}

// close discards the parked packets of a session leaving its State, and
// refuses every park after: a fast-path caller that found the session in
// an index before it left may still park into it, and nothing would
// drain that.
func (c *SessCtx) close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.detach()
	c.closed = true
}

// detach is drain with mu held.
func (c *SessCtx) detach() parkQueue {
	q := c.queue
	c.queue = parkQueue{}
	c.nocpSent = false
	c.releasedPkts.Add(uint64(q.n))
	c.budget.bytes.Add(-int64(q.bytes))
	return q
}

// rulesGenSeq hands out rules generations: process-wide and from 1 on, so
// a bumped generation is never 0 and never one that any session had before.
var rulesGenSeq atomic.Uint64

// bumpGen moves the session to a fresh rules generation, invalidating
// every flow-cache entry filled before.
func (c *SessCtx) bumpGen() { c.rulesGen.Store(rulesGenSeq.Add(1)) }

// setMBR installs a QER's maximum bit rates. The caller holds rulesMu.
func (c *SessCtx) setMBR(ulKbps, dlKbps uint64) {
	c.mu.Lock()
	c.ulBucket.configure(ulKbps)
	c.dlBucket.configure(dlKbps)
	c.mu.Unlock()
	c.ulLimited, c.dlLimited = ulKbps > 0, dlKbps > 0
}

// allow charges bits to the session's MBR in one direction, reading the
// burst's clock. Called only for a direction whose rules set a rate, as
// the rules read under the read lock or cached in a flow-cache entry
// still current; on a cache hit the caller holds no rules lock, and the
// bucket needs none: it is guarded by mu.
func (c *SessCtx) allow(ul bool, bits int, clock *burstClock) bool {
	bucket := &c.dlBucket
	if ul {
		bucket = &c.ulBucket
	}
	now := clock.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	return bucket.allow(bits, now)
}

// UpdateRules runs fn with exclusive access to the session's rule state
// (UPF-C side of the shared store).
func (c *SessCtx) UpdateRules(fn func()) {
	c.rulesMu.Lock()
	defer c.rulesMu.Unlock()
	c.bumpGen()
	fn()
}

// State is the UPF session store shared by UPF-C and UPF-U. The two hash
// tables mirror the paper's design: UL traffic resolves sessions by TEID,
// DL traffic by UE IP (§3.2, "zero cost state update"). The fast path
// reads them without a lock (sync.Map: UPF-U runs on whichever caller
// injected the packet and never parks, so a per-packet read lock would
// keep UPF-C's writers waiting); UPF-C's writes are serialised by mu.
type State struct {
	mu     sync.RWMutex        // serialises writers; guards bySEID and SessCtx.teids
	ul     sync.Map            // TEID (uint32) -> *SessCtx
	dl     sync.Map            // UE IP (ipKey) -> *SessCtx
	bySEID map[uint64]*SessCtx // CP SEID -> session

	clsAlgo  string
	bufCap   int
	parked   parked
	teidNext atomic.Uint32
	seidNext atomic.Uint64
}

// NewState creates a session store using the given classifier algorithm
// ("ll", "tss" or "ps" — L²5GC ships with "ps").
func NewState(clsAlgo string, bufCap int) *State {
	if bufCap <= 0 {
		bufCap = DefaultBufferCap
	}
	s := &State{
		bySEID:  make(map[uint64]*SessCtx),
		clsAlgo: clsAlgo,
		bufCap:  bufCap,
	}
	s.teidNext.Store(0x1000)
	s.seidNext.Store(0x9000)
	return s
}

// AllocTEID returns a fresh local tunnel endpoint ID.
func (s *State) AllocTEID() uint32 { return s.teidNext.Add(1) }

// CreateSession installs a new session keyed by the CP SEID.
func (s *State) CreateSession(cpSEID uint64, ueIP pkt.Addr) (*SessCtx, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.bySEID[cpSEID]; ok {
		return nil, ErrSessionExists
	}
	ctx := &SessCtx{
		Sess:   rules.NewSession(cpSEID, ueIP),
		Cls:    classifier.New(s.clsAlgo),
		UPSEID: s.seidNext.Add(1),
		budget: &s.parked,
		bufCap: s.bufCap,
	}
	s.bySEID[cpSEID] = ctx
	if ueIP != (pkt.Addr{}) {
		if prev, taken := s.dl.Swap(ipKey(ueIP), ctx); taken {
			prev.(*SessCtx).bumpGen()
		}
	}
	return ctx, nil
}

// BindTEID indexes the session under a local UL TEID. Pinned binds (a
// post-heal rebuild re-installing a TEID allocated by a previous UPF
// incarnation) raise the allocator's floor so a later AllocTEID can
// never hand the same TEID out again.
func (s *State) BindTEID(teid uint32, ctx *SessCtx) {
	s.mu.Lock()
	if prev, taken := s.ul.Swap(teid, ctx); taken && prev != ctx {
		prev.(*SessCtx).bumpGen()
	}
	if !slices.Contains(ctx.teids, teid) {
		ctx.teids = append(ctx.teids, teid)
	}
	s.mu.Unlock()
	for {
		cur := s.teidNext.Load()
		if teid <= cur || s.teidNext.CompareAndSwap(cur, teid) {
			return
		}
	}
}

// Session returns the session for a CP SEID.
func (s *State) Session(cpSEID uint64) (*SessCtx, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	c, ok := s.bySEID[cpSEID]
	return c, ok
}

// indexed returns the session a flow key's index entry points at — the
// uplink TEID's or the downlink destination's — or nil.
func (s *State) indexed(k *pkt.FlowKey) *SessCtx {
	var c any
	if k.FromAccess {
		c, _ = s.ul.Load(k.TEID)
	} else {
		c, _ = s.dl.Load(ipKey(k.Tuple.Dst))
	}
	ctx, _ := c.(*SessCtx)
	return ctx
}

// ByTEID resolves an uplink session (N3 fast path).
func (s *State) ByTEID(teid uint32) (*SessCtx, bool) {
	c, ok := s.ul.Load(teid)
	if !ok {
		return nil, false
	}
	return c.(*SessCtx), true
}

// ipKey is the UE-IP index key: the address as one word, which hashes
// faster than the array.
func ipKey(ip pkt.Addr) uint32 { return binary.BigEndian.Uint32(ip[:]) }

// ByUEIP resolves a downlink session (N6 fast path).
func (s *State) ByUEIP(ip pkt.Addr) (*SessCtx, bool) {
	c, ok := s.dl.Load(ipKey(ip))
	if !ok {
		return nil, false
	}
	return c.(*SessCtx), true
}

// DeleteSession removes a session and its index entries: the ones that
// still point at it, found from the session itself, so the cost does not
// grow with the number of sessions installed.
func (s *State) DeleteSession(cpSEID uint64) (*SessCtx, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ctx, ok := s.bySEID[cpSEID]
	if !ok {
		return nil, ErrSessionNotFound
	}
	delete(s.bySEID, cpSEID)
	if ctx.Sess.UEIP != (pkt.Addr{}) {
		s.dl.CompareAndDelete(ipKey(ctx.Sess.UEIP), ctx)
	}
	for _, teid := range ctx.teids {
		s.ul.CompareAndDelete(teid, ctx)
	}
	// After the index entries go: a miss that found the session in the
	// index before then either read the older generation, or finds the
	// entry gone when it checks the index again.
	ctx.bumpGen()
	return ctx, nil
}

// Sessions returns the number of installed sessions.
func (s *State) Sessions() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.bySEID)
}

// SEIDs returns every installed session's CP SEID in ascending order —
// the deterministic audit view the post-heal reconciliation diffs against
// the SMF's table.
func (s *State) SEIDs() []uint64 {
	s.mu.RLock()
	out := make([]uint64, 0, len(s.bySEID))
	for seid := range s.bySEID {
		out = append(out, seid)
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// BufferDepth returns the total number of DL packets currently parked in
// session buffers across every installed session (the paper's smart-
// buffering occupancy during paging/handover).
func (s *State) BufferDepth() int {
	s.mu.RLock()
	ctxs := make([]*SessCtx, 0, len(s.bySEID))
	for _, c := range s.bySEID {
		ctxs = append(ctxs, c)
	}
	s.mu.RUnlock()
	depth := 0
	for _, c := range ctxs {
		c.mu.Lock()
		depth += c.queue.n
		c.mu.Unlock()
	}
	return depth
}

// ParkedBytes returns the bytes parked across every session, length
// prefixes included: what the sessions hold of the parked-bytes budget.
func (s *State) ParkedBytes() int { return int(s.parked.bytes.Load()) }

// ExportMetrics registers the session-store gauges under prefix.
func (s *State) ExportMetrics(reg *metrics.Registry, prefix string) {
	reg.RegisterGauge(prefix+".sessions", func() uint64 { return uint64(s.Sessions()) })
	reg.RegisterGauge(prefix+".buffer_depth", func() uint64 { return uint64(s.BufferDepth()) })
	reg.RegisterGauge(prefix+".parked_bytes", func() uint64 { return uint64(s.ParkedBytes()) })
}

// Export returns, for every installed session, the PFCP establishment
// request that would recreate it — the state-serialization format of the
// resiliency framework (a checkpoint is "the messages that rebuild me").
func (s *State) Export() []*pfcp.SessionEstablishmentRequest {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*pfcp.SessionEstablishmentRequest, 0, len(s.bySEID))
	for seid, ctx := range s.bySEID {
		req := &pfcp.SessionEstablishmentRequest{
			NodeID: "checkpoint", CPSEID: seid, UEIP: ctx.Sess.UEIP,
		}
		for _, p := range ctx.Sess.PDRs {
			cp := *p
			req.CreatePDRs = append(req.CreatePDRs, &cp)
		}
		for _, f := range ctx.Sess.FARs {
			cf := *f
			req.CreateFARs = append(req.CreateFARs, &cf)
		}
		for _, q := range ctx.Sess.QERs {
			cq := *q
			req.CreateQERs = append(req.CreateQERs, &cq)
		}
		for _, b := range ctx.Sess.BARs {
			cb := *b
			req.CreateBARs = append(req.CreateBARs, &cb)
		}
		out = append(out, req)
	}
	return out
}

// Reset removes every session, discarding any parked packets.
func (s *State) Reset() {
	s.mu.Lock()
	ctxs := make([]*SessCtx, 0, len(s.bySEID))
	for _, c := range s.bySEID {
		ctxs = append(ctxs, c)
	}
	s.bySEID = make(map[uint64]*SessCtx)
	for _, idx := range []*sync.Map{&s.ul, &s.dl} {
		idx.Range(func(k, _ any) bool {
			idx.Delete(k)
			return true
		})
	}
	s.mu.Unlock()
	for _, c := range ctxs {
		c.bumpGen()
		c.close()
	}
}
