// Package pktbuf implements the shared packet-buffer pool of the NFV
// platform: the in-process equivalent of a DPDK hugepage mempool of mbufs.
//
// A Buf carries both the raw frame bytes and the descriptor metadata
// (action, destination service, tunnel fields, timestamps) that NFs attach
// before handing the descriptor back to the manager. Passing a *Buf through
// a ring is the zero-copy communication path of L²5GC: the payload is never
// copied or serialized between NFs on the same node.
package pktbuf

import (
	"errors"
	"runtime"
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

// Buf is one pooled packet buffer.
type Buf struct {
	mem  [MaxFrame]byte
	off  int // start of valid data within mem
	blen int // length of valid data

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

// stashSize bounds the pool's hot stash: about one burst of buffers.
const stashSize = 64

// Pool is a fixed-size pool of packet buffers shared by all NFs of one
// 5GC unit. The free list is a lock-free MPMC ring, so any goroutine may
// allocate or release concurrently. The ring's own cursors are the
// lifetime get/put counts: the pool keeps no counter of its own on the
// ring path.
//
// In front of the ring sits a stash of the last freed buffers, handed out
// again first (LIFO). A FIFO ring hands out the buffer freed longest ago —
// with 8192 buffers, one whose 1.6 KB are cold in every cache — while a
// packet carried through the whole chain on one core frees a buffer that
// core has just touched. The stash is guarded by a CAS flag that nobody
// waits for: a Get or put that finds it taken goes to the ring, except a
// Get that finds the ring empty, for which the stash is the last place to
// look.
type Pool struct {
	free   *ring.MPMC[*Buf]
	bufs   []Buf
	prefix string // security-domain file prefix (DPDK --file-prefix analog)

	stashMu   atomic.Bool // held for a few instructions; never waited on by put
	nstash    int
	stash     [stashSize]*Buf
	stashGets uint64 // lifetime counts of the stash, under stashMu
	stashPuts uint64
}

// NewPool creates a pool of n buffers. prefix names the private memory
// domain; pools with different prefixes model isolated operators on one node.
func NewPool(n int, prefix string) *Pool {
	p := &Pool{
		free:   ring.NewMPMC[*Buf](n),
		bufs:   make([]Buf, n),
		prefix: prefix,
	}
	for i := range p.bufs {
		p.bufs[i].pool = p
		p.bufs[i].Reset()
		p.free.Enqueue(&p.bufs[i])
	}
	return p
}

// Prefix returns the pool's security-domain prefix.
func (p *Pool) Prefix() string { return p.prefix }

// Size returns the total number of buffers owned by the pool.
func (p *Pool) Size() int { return len(p.bufs) }

// lockStash takes the stash flag, waiting for the holder.
func (p *Pool) lockStash() {
	for !p.stashMu.CompareAndSwap(false, true) {
		runtime.Gosched()
	}
}

func (p *Pool) unlockStash() { p.stashMu.Store(false) }

// Avail returns the approximate number of free buffers.
func (p *Pool) Avail() int {
	p.lockStash()
	n := p.free.Len() + p.nstash
	p.unlockStash()
	return n
}

// Get allocates a buffer, or returns ErrPoolEmpty when exhausted.
func (p *Pool) Get() (*Buf, error) {
	var b *Buf
	if p.stashMu.CompareAndSwap(false, true) {
		b = p.popStash()
		p.unlockStash()
	}
	if b == nil {
		var ok bool
		if b, ok = p.free.Dequeue(); !ok {
			p.lockStash()
			b = p.popStash()
			p.unlockStash()
			if b == nil {
				return nil, ErrPoolEmpty
			}
		}
	}
	b.Reset()
	b.refcnt.Store(1)
	return b, nil
}

// popStash takes the most recently freed buffer, or returns nil if the
// stash is empty. The caller holds the stash flag.
func (p *Pool) popStash() (b *Buf) {
	if p.nstash > 0 {
		p.nstash--
		b = p.stash[p.nstash]
		p.stashGets++
	}
	return b
}

func (p *Pool) put(b *Buf) {
	one := [1]*Buf{b}
	p.putBulk(one[:])
}

// putBulk returns buffers whose last reference is gone: the last ones freed
// to the stash as far as it has room, the rest to the free ring, one bulk
// enqueue per attempt.
func (p *Pool) putBulk(bufs []*Buf) {
	if poisonOnFree {
		for _, b := range bufs {
			Poison(b.mem[:])
		}
	}
	if len(bufs) > 0 && p.stashMu.CompareAndSwap(false, true) {
		// The ring's length never counts more than it holds (tail is read
		// before head), so more free buffers than the pool owns is a
		// buffer released once too often.
		if p.free.Len()+p.nstash+len(bufs) > len(p.bufs) {
			p.unlockStash()
			panic("pktbuf: over-release: more buffers free than the pool holds (foreign buffer?)")
		}
		k := min(len(bufs), stashSize-p.nstash)
		p.nstash += copy(p.stash[p.nstash:], bufs[len(bufs)-k:])
		p.stashPuts += uint64(k)
		p.unlockStash()
		bufs = bufs[:len(bufs)-k]
	}
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
	p.putBulk(bufs[:n])
}

// Stats reports lifetime get/put counts, useful for leak detection in tests.
func (p *Pool) Stats() (gets, puts uint64) {
	p.lockStash()
	gets, puts = p.stashGets, p.stashPuts
	p.unlockStash()
	return gets + p.free.Dequeued(), puts + p.free.Enqueued() - uint64(len(p.bufs))
}
