// Package pktbuf implements the shared packet-buffer pool of the NFV
// platform: the in-process equivalent of a DPDK hugepage mempool of mbufs.
//
// A Buf is a descriptor: the descriptor metadata (action, destination
// service, tunnel fields, timestamps) that NFs attach before handing it
// back to the manager, and a window onto its frame bytes in a slab of the
// pool, the way an mbuf header points at its data room. Passing a *Buf
// through a ring is the zero-copy communication path of L²5GC: the payload
// is never copied or serialized between NFs on the same node.
package pktbuf

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"

	"l25gc/internal/ring"
)

// MaxFrame is the largest frame a Buf can hold (an MTU-size Ethernet frame
// plus tunnel headroom for GTP-U encapsulation without reallocation).
const MaxFrame = 1600

// Headroom is reserved at the front of every Buf so that GTP-U/UDP/IP
// encapsulation can prepend headers without moving the payload.
const Headroom = 64

// Action tells the NF manager what to do with a descriptor pulled from an
// NF's Tx ring, mirroring ONVM's ToNF / ToPort / Drop actions.
type Action uint8

const (
	// ActionDrop releases the buffer back to the pool.
	ActionDrop Action = iota
	// ActionToNF forwards the descriptor to Meta.Dst's Rx ring.
	ActionToNF
	// ActionToPort transmits the frame out of Meta.Port.
	ActionToPort
	// ActionBuffer parks the packet in a session buffer (paging/handover).
	ActionBuffer
)

// String implements fmt.Stringer for diagnostics.
func (a Action) String() string {
	switch a {
	case ActionDrop:
		return "drop"
	case ActionToNF:
		return "tonf"
	case ActionToPort:
		return "toport"
	case ActionBuffer:
		return "buffer"
	default:
		return "invalid"
	}
}

// Meta is the descriptor metadata attached to every packet buffer.
type Meta struct {
	Action  Action
	Dst     uint16  // destination service ID for ActionToNF
	Port    uint16  // output port for ActionToPort
	TEID    uint32  // tunnel endpoint, filled by GTP processing
	OuterIP [4]byte // outer tunnel destination (gNB) for DL egress routing
	QFI     uint8   // QoS flow identifier
	RSS     uint64  // receive-side-scaling flow hash, stamped at ingress
	Uplink  bool    // direction hint for the UPF fast path
	Seq     uint64  // generator sequence number, used by latency measurement
	TsNano  int64   // generator timestamp (nanoseconds) for latency measurement
}

// chunkBufs is how many buffers a pool populates at a time: one array of
// Buf headers and one frame slab of 400 KiB.
const chunkBufs = 256

// Buf is one pooled packet buffer.
type Buf struct {
	mem  *[MaxFrame]byte // the buffer's frame in its chunk's slab
	off  int             // start of valid data within mem
	blen int             // length of valid data

	Meta Meta

	pool   *Pool
	refcnt atomic.Int32
}

// PoisonByte fills a released buffer in race-detector builds (race.go).
const PoisonByte = 0xDB

// Poison overwrites mem, bytes a sink was lent and must no longer read,
// with PoisonByte in race-detector builds; otherwise it does nothing.
func Poison(mem []byte) {
	if !poisonOnFree || len(mem) == 0 {
		return
	}
	// Doubling copies, not a byte loop: under the race detector every
	// store of a loop is instrumented, a copy once.
	mem[0] = PoisonByte
	for n := 1; n < len(mem); n *= 2 {
		copy(mem[n:], mem[:n])
	}
}

// Bytes returns the valid frame bytes. The slice aliases pool memory and is
// invalid after Release.
func (b *Buf) Bytes() []byte { return b.mem[b.off : b.off+b.blen] }

// Len returns the current frame length.
func (b *Buf) Len() int { return b.blen }

// Reset clears the buffer to empty with default headroom.
func (b *Buf) Reset() {
	b.off = Headroom
	b.blen = 0
	b.Meta = Meta{}
}

// SetData copies p into the buffer (the single copy at the edge of the
// system — e.g. a NIC receive); subsequent inter-NF handoffs are zero-copy.
func (b *Buf) SetData(p []byte) error {
	if len(p) > MaxFrame-Headroom {
		return ErrFrameTooLarge
	}
	b.off = Headroom
	b.blen = copy(b.mem[b.off:], p)
	return nil
}

// Append grows the frame by n bytes at the tail and returns the new region.
func (b *Buf) Append(n int) ([]byte, error) {
	if b.off+b.blen+n > MaxFrame {
		return nil, ErrFrameTooLarge
	}
	s := b.mem[b.off+b.blen : b.off+b.blen+n]
	b.blen += n
	return s, nil
}

// Prepend grows the frame by n bytes at the head (into the headroom) and
// returns the new region; used for tunnel encapsulation.
func (b *Buf) Prepend(n int) ([]byte, error) {
	if n > b.off {
		return nil, ErrNoHeadroom
	}
	b.off -= n
	b.blen += n
	return b.mem[b.off : b.off+n], nil
}

// Trim drops n bytes from the front of the frame (tunnel decapsulation).
func (b *Buf) Trim(n int) error {
	if n > b.blen {
		return ErrShortFrame
	}
	b.off += n
	b.blen -= n
	return nil
}

// Retain increments the reference count so the buffer survives an extra
// Release (used when a packet is both forwarded and logged for replay).
func (b *Buf) Retain() { b.refcnt.Add(1) }

// Release returns the buffer to its pool once all references are dropped.
func (b *Buf) Release() {
	if b.pool == nil {
		return
	}
	if n := b.refcnt.Add(-1); n == 0 {
		b.pool.put(b)
	} else if n < 0 {
		panic("pktbuf: double release")
	}
}

// Errors returned by buffer space management.
var (
	ErrFrameTooLarge = errors.New("pktbuf: frame exceeds MaxFrame")
	ErrNoHeadroom    = errors.New("pktbuf: insufficient headroom")
	ErrShortFrame    = errors.New("pktbuf: trim exceeds frame length")
	ErrPoolEmpty     = errors.New("pktbuf: pool exhausted")
)

// Pool is a fixed-size pool of packet buffers shared by all NFs of one
// 5GC unit. The free list is a lock-free MPMC ring, so any goroutine may
// allocate or release concurrently. The ring's own cursors are the
// lifetime get/put counts: the pool keeps no counter of its own on the
// ring path.
//
// Buffers are allocated when first needed, chunkBufs at a time: a Get
// (or a cache refill) that finds the ring empty populates the next chunk
// onto it, until Size buffers exist. A chunk's frames live in one
// pointer-free slab, which the garbage collector does not scan; only the
// small headers are. Buffers not yet populated count as free.
//
// In front of the ring sit the pool's caches (Cache), each the private
// free list of one owner at a time, the way a DPDK mempool has one cache
// per lcore.
type Pool struct {
	free      *ring.MPMC[*Buf]
	size      int
	populated atomic.Int64 // buffers allocated so far; never shrinks, at most size
	prefix    string       // security-domain file prefix (DPDK --file-prefix analog)

	cachesMu sync.Mutex
	caches   []*Cache
}

// NewPool creates a pool of n buffers, none of them allocated yet. prefix
// names the private memory domain; pools with different prefixes model
// isolated operators on one node.
func NewPool(n int, prefix string) *Pool {
	return &Pool{free: ring.NewMPMC[*Buf](n), size: n, prefix: prefix}
}

// grow populates the next chunk of buffers onto the free ring and reports
// whether there was one: false once Size buffers exist. Concurrent callers
// claim distinct chunks by a CAS on the populated count.
func (p *Pool) grow() bool {
	var n, k int
	for {
		n = int(p.populated.Load())
		if n >= p.size {
			return false
		}
		k = min(chunkBufs, p.size-n)
		if p.populated.CompareAndSwap(int64(n), int64(n+k)) {
			break
		}
	}
	hdrs := make([]Buf, k)
	slab := make([]byte, k*MaxFrame)
	var fresh [chunkBufs]*Buf
	for i := range hdrs {
		hdrs[i].mem = (*[MaxFrame]byte)(slab[i*MaxFrame:])
		hdrs[i].pool = p
		fresh[i] = &hdrs[i]
	}
	p.enqueue(fresh[:k])
	return true
}

// Populated returns how many of the pool's buffers have been allocated.
func (p *Pool) Populated() int { return int(p.populated.Load()) }

// Prefix returns the pool's security-domain prefix.
func (p *Pool) Prefix() string { return p.prefix }

// Size returns the total number of buffers owned by the pool.
func (p *Pool) Size() int { return p.size }

// Avail returns the approximate number of free buffers: those in the free
// ring, those its caches held when they last published, and those not yet
// populated.
func (p *Pool) Avail() int {
	return p.free.Len() + int(p.cached()) + p.size - p.Populated()
}

// cached sums the buffers the pool's caches held when they last published.
func (p *Pool) cached() (n int64) {
	p.cachesMu.Lock()
	defer p.cachesMu.Unlock()
	for _, c := range p.caches {
		n += c.pubFree.Load()
	}
	return n
}

// Get allocates a buffer, or returns ErrPoolEmpty when exhausted.
func (p *Pool) Get() (*Buf, error) {
	b, ok := p.free.Dequeue()
	for !ok {
		if !p.grow() {
			return nil, ErrPoolEmpty
		}
		b, ok = p.free.Dequeue()
	}
	b.take()
	return b, nil
}

// take readies a free buffer for the caller that got it.
func (b *Buf) take() {
	b.Reset()
	b.refcnt.Store(1)
}

func (p *Pool) put(b *Buf) {
	one := [1]*Buf{b}
	p.putBulk(one[:])
}

// putBulk returns buffers whose last reference is gone to the free ring,
// one bulk enqueue per attempt.
func (p *Pool) putBulk(bufs []*Buf) {
	if poisonOnFree {
		for _, b := range bufs {
			Poison(b.mem[:])
		}
	}
	p.enqueue(bufs)
}

// enqueue puts free buffers on the ring.
func (p *Pool) enqueue(bufs []*Buf) {
	for len(bufs) > 0 {
		bufs = bufs[p.free.EnqueueBulk(bufs):]
		if len(bufs) == 0 {
			return
		}
		// The ring also reports full while a Get that already claimed the
		// slot at tail (head advanced) has not yet marked it free. Every
		// legitimate put follows such a Get, so the ring then holds fewer
		// than Cap elements and the slot frees within a few instructions;
		// a ring holding Cap elements is a buffer released once too often.
		if p.free.Len() >= p.free.Cap() {
			panic("pktbuf: free ring overflow (foreign buffer?)")
		}
		runtime.Gosched()
	}
}

// ReleaseBulk drops one reference on every buffer of a burst and returns
// those with none left to the pool together. It reorders bufs; the caller
// must not use the slice's contents afterwards. Buffers of another pool (or
// of none) are released one by one.
func (p *Pool) ReleaseBulk(bufs []*Buf) {
	p.putBulk(p.unref(bufs))
}

// unref drops one reference on every buffer of bufs and returns, moved to
// the front of bufs, those of p with none left. Buffers of another pool
// (or of none) are released one by one.
func (p *Pool) unref(bufs []*Buf) []*Buf {
	n := 0
	for _, b := range bufs {
		if b.pool != p {
			b.Release()
			continue
		}
		switch c := b.refcnt.Add(-1); {
		case c == 0:
			bufs[n] = b
			n++
		case c < 0:
			panic("pktbuf: double release")
		}
	}
	return bufs[:n]
}

// Stats reports lifetime get/put counts of the pool's free ring, useful for
// leak detection in tests: buffers taken off it and buffers given back to
// it, a buffer a cache holds counting as given back (as its owner last
// published). A get and a release through a cache are private to its
// owner and not counted, nor is a buffer's first trip onto the ring when
// it is populated. Once every cache has published (its owner let go),
// gets - puts == Size - Avail exactly.
func (p *Pool) Stats() (gets, puts uint64) {
	return p.free.Dequeued(), p.free.Enqueued() - uint64(p.Populated()) + uint64(p.cached())
}
