package pktbuf

import "sync/atomic"

// cacheSize bounds a Cache: two bursts of buffers.
const cacheSize = 128

// Cache is a private LIFO free list in front of a Pool, the equivalent of
// a DPDK mempool's per-lcore cache. It belongs to one owner at a time (an
// NF instance's flag holder), which gets and releases buffers through it
// with no atomic operation on the pool: a buffer freed here is the next
// one handed out, while it is still warm in the owner's caches, where the
// pool's FIFO ring would hand out the one freed longest ago. When the
// cache runs empty it refills from the pool's ring, when it fills it
// gives the older half back, a bulk ring operation each.
//
// The pool's Avail and Stats see a cache as its owner last published it:
// the owner calls Publish before letting go, and Flush when it is done
// with the cache for good. Only the number of buffers it holds is
// published, and only when it changed: a get and a release between two
// lets-go, the common case, write no shared word at all. Successive owners
// must be ordered by a synchronising hand-over (the flag's atomic release
// and acquire).
type Cache struct {
	pool *Pool
	max  int // capacity: cacheSize, or less for a small pool
	n    int
	bufs [cacheSize]*Buf

	pubFree atomic.Int64 // n as of the last Publish, read by Avail and Stats
}

// NewCache returns a cache over p for one owner at a time. A small pool
// gets a small cache, so that caches hold at most an eighth of its buffers
// each.
func (p *Pool) NewCache() *Cache {
	c := &Cache{pool: p, max: min(cacheSize, max(p.size/8, 1))}
	p.cachesMu.Lock()
	p.caches = append(p.caches, c)
	p.cachesMu.Unlock()
	return c
}

// Get allocates a buffer: the one released here last, or, with the cache
// empty, one refilled from the pool's ring. It returns ErrPoolEmpty when
// both are empty.
func (c *Cache) Get() (*Buf, error) {
	if c.n == 0 && c.refill() == 0 {
		return nil, ErrPoolEmpty
	}
	c.n--
	b := c.bufs[c.n]
	b.take()
	return b, nil
}

// refill takes up to half the cache's capacity from the pool's ring into
// the empty cache and returns how many it took. It populates a chunk of
// the pool only when the ring has none to give.
func (c *Cache) refill() int {
	for c.n < max(c.max/2, 1) {
		b, ok := c.pool.free.Dequeue()
		if !ok {
			if c.n == 0 && c.pool.grow() {
				continue
			}
			break
		}
		c.bufs[c.n] = b
		c.n++
	}
	return c.n
}

// ReleaseBulk drops one reference on every buffer of a burst and keeps
// those with none left, giving the older half of the cache back to the
// pool's ring whenever it fills. Like Pool.ReleaseBulk it reorders bufs,
// and releases buffers of another pool (or of none) one by one.
func (c *Cache) ReleaseBulk(bufs []*Buf) {
	for _, b := range c.pool.unref(bufs) {
		if poisonOnFree {
			Poison(b.mem[:])
		}
		if c.n == c.max {
			c.spill(c.n - c.max/2)
		}
		c.bufs[c.n] = b
		c.n++
	}
}

// spill gives the k buffers freed longest ago back to the pool's ring.
func (c *Cache) spill(k int) {
	c.pool.enqueue(c.bufs[:k])
	c.n = copy(c.bufs[:], c.bufs[k:c.n])
}

// Publish makes the number of buffers the cache holds visible to the
// pool's Avail and Stats, if it changed since the last Publish.
func (c *Cache) Publish() {
	if n := int64(c.n); c.pubFree.Load() != n {
		c.pubFree.Store(n)
	}
}

// Flush gives every cached buffer back to the pool's ring and publishes.
func (c *Cache) Flush() {
	c.spill(c.n)
	c.Publish()
}
