package ring

// Sharded fans a multi-producer workload out over N independent MPSC rings,
// one per consumer worker. It is the work-distribution primitive of the
// sharded descriptor switch (internal/onvm): producers pick a shard from a
// flow hash so that all descriptors of one flow land in the same ring, and
// each worker is the single consumer of exactly one shard — preserving the
// MPSC single-consumer contract and per-flow FIFO order at the same time.
//
// Shard selection runs the hash through a 64-bit finalizer before reducing
// modulo the shard count, so correlated low bits in the caller's hash (e.g.
// an RSS hash that is also used modulo the instance count) do not skew the
// shard distribution.
type Sharded[T any] struct {
	shards []*MPSC[T]
}

// NewSharded returns n independent MPSC rings, each holding at least
// capacity elements. n is clamped to >= 1.
func NewSharded[T any](n, capacity int) *Sharded[T] {
	if n < 1 {
		n = 1
	}
	s := &Sharded[T]{shards: make([]*MPSC[T], n)}
	for i := range s.shards {
		s.shards[i] = NewMPSC[T](capacity)
	}
	return s
}

// Shards returns the number of shards.
func (s *Sharded[T]) Shards() int { return len(s.shards) }

// Fmix64 is the MurmurHash3 64-bit finalizer: a full-avalanche bijection
// that decorrelates every output bit from the input bits. Exported so the
// NF state shards (internal/nf/amf, internal/nf/smf) pick home shards with
// the same mixing discipline the descriptor switch uses.
func Fmix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// fmix64 is kept as the package-internal spelling.
func fmix64(h uint64) uint64 { return Fmix64(h) }

// ShardOf maps a flow hash to its home shard. The mapping is stable for the
// lifetime of the Sharded set: equal hashes always land on the same shard.
func (s *Sharded[T]) ShardOf(hash uint64) int {
	return int(fmix64(hash) % uint64(len(s.shards)))
}

// Enqueue adds v to the given shard from any goroutine. Returns false when
// that shard's ring is full.
func (s *Sharded[T]) Enqueue(shard int, v T) bool {
	return s.shards[shard].Enqueue(v)
}

// Dequeue removes the oldest element of the given shard. Only the shard's
// single consumer may call this.
func (s *Sharded[T]) Dequeue(shard int) (T, bool) {
	return s.shards[shard].Dequeue()
}

// DequeueBulk removes up to len(out) elements from the given shard. Only
// the shard's single consumer may call this.
func (s *Sharded[T]) DequeueBulk(shard int, out []T) int {
	return s.shards[shard].DequeueBulk(out)
}

// Ready reports whether a Dequeue on the given shard would succeed. Only
// the shard's single consumer may call this.
func (s *Sharded[T]) Ready(shard int) bool { return s.shards[shard].Ready() }

// ShardLen returns the approximate queue depth of one shard.
func (s *Sharded[T]) ShardLen(shard int) int { return s.shards[shard].Len() }

// Len returns the approximate total queue depth across all shards.
func (s *Sharded[T]) Len() int {
	n := 0
	for _, r := range s.shards {
		n += r.Len()
	}
	return n
}
