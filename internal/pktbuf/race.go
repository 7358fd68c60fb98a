//go:build race

package pktbuf

// poisonOnFree makes the pool overwrite a buffer with PoisonByte when its
// last reference is released. Egress sinks borrow frame bytes only until
// they return; in race-detector builds a sink that kept the slice reads
// poison instead of whatever frame next lands in the buffer, so the
// retention shows as a deterministic byte mismatch.
const poisonOnFree = true
