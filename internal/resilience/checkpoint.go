// Package resilience implements L²5GC's failure-resiliency framework
// (§3.5): replicas kept consistent with a no-replay output-commit scheme
// and frozen until failover; the load-balancer-side counter + four-queue
// packet logger whose ordered replay reconstructs state lost between
// checkpoints; and the heartbeat failure detector (the S-BFD substitute).
package resilience

import (
	"encoding/binary"
	"errors"
	"sync"
	"sync/atomic"
)

// Snapshotter is an NF (or NF group) whose state can be checkpointed. The
// UPF session store and the control-plane contexts implement this by
// serializing the PFCP messages that would recreate them.
type Snapshotter interface {
	// Snapshot returns the full serialized state.
	Snapshot() ([]byte, error)
	// Restore replaces the state from a snapshot.
	Restore([]byte) error
}

// ErrNotSynced reports a failover attempt before any checkpoint arrived.
var ErrNotSynced = errors.New("resilience: no checkpoint received")

// Checkpoint is one state snapshot tagged with the packet counter it
// reflects: replay starts from Counter+1.
type Checkpoint struct {
	Counter uint64
	State   []byte
}

// Encode serializes the checkpoint for transfer to another node.
func (c Checkpoint) Encode() []byte {
	out := make([]byte, 8+len(c.State))
	binary.BigEndian.PutUint64(out[:8], c.Counter)
	copy(out[8:], c.State)
	return out
}

// DecodeCheckpoint parses an encoded checkpoint.
func DecodeCheckpoint(b []byte) (Checkpoint, error) {
	if len(b) < 8 {
		return Checkpoint{}, errors.New("resilience: short checkpoint")
	}
	return Checkpoint{
		Counter: binary.BigEndian.Uint64(b[:8]),
		State:   append([]byte(nil), b[8:]...),
	}, nil
}

// LocalReplica is the same-node standby of §3.5.1: it holds the latest
// synchronized state and consumes no CPU until Unfreeze — the goroutine
// analogue of the cgroup-freezer replica. Sync is the no-replay scheme:
// the active NF synchronizes the replica *before* releasing its response
// (output commit), so the replica is always consistent at event
// boundaries.
type LocalReplica struct {
	target Snapshotter

	mu     sync.Mutex
	last   Checkpoint
	synced bool
	frozen atomic.Bool
	syncs  atomic.Uint64
}

// NewLocalReplica creates a frozen replica that will restore into target.
func NewLocalReplica(target Snapshotter) *LocalReplica {
	r := &LocalReplica{target: target}
	r.frozen.Store(true)
	return r
}

// Sync installs the active NF's state at an output-commit point. It is
// called with the event's response withheld until Sync returns, giving the
// paper's consistency guarantee.
func (r *LocalReplica) Sync(cp Checkpoint) {
	r.mu.Lock()
	r.last = cp
	r.synced = true
	r.mu.Unlock()
	r.syncs.Add(1)
}

// Frozen reports whether the replica is still parked.
func (r *LocalReplica) Frozen() bool { return r.frozen.Load() }

// Syncs reports how many output commits have been applied.
func (r *LocalReplica) Syncs() uint64 { return r.syncs.Load() }

// LastCounter returns the counter of the newest synchronized checkpoint.
func (r *LocalReplica) LastCounter() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.last.Counter
}

// Unfreeze wakes the replica and restores its state into the target,
// returning the counter from which packet replay must resume.
func (r *LocalReplica) Unfreeze() (uint64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.synced {
		return 0, ErrNotSynced
	}
	if err := r.target.Restore(r.last.State); err != nil {
		return 0, err
	}
	r.frozen.Store(false)
	return r.last.Counter, nil
}
