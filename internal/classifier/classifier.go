// Package classifier implements the three PDR lookup structures compared in
// §3.4 and Fig. 11 of the paper:
//
//   - PDR-LL: the 3GPP-suggested linear scan of a precedence-ordered list
//     (TS 29.244 §5.2.1) — simple, but O(n) per packet.
//   - PDR-TSS: Tuple Space Search (Srinivasan et al.) — rules partition
//     into sub-tables by their mask tuple; each sub-table is a hash table,
//     so lookup is one hash probe per tuple.
//   - PDR-PS: PartitionSort (Yingchareonthawornchai et al.) — rules
//     partition into "sortable" rulesets searched by multi-dimensional
//     binary search; L²5GC's choice for consistent latency and immunity to
//     the tuple-space-explosion DoS attack.
//
// All three classify on the PDI's extended 5-tuple (source/destination
// prefixes, port ranges, protocol) and verify the residual PDI fields
// (TEID, UE IP, TOS, direction) on candidate rules.
package classifier

import (
	"l25gc/internal/pkt"
	"l25gc/internal/rules"
)

// Key is the per-packet lookup key extracted by the UPF fast path. It is
// the key embedded in pkt.Parsed, so a fast path looks up with the one its
// parse scratch already holds.
type Key = pkt.FlowKey

// Classifier finds the highest-priority (lowest precedence value) PDR
// matching a packet.
type Classifier interface {
	// Name identifies the algorithm ("ll", "tss", "ps").
	Name() string
	// Insert adds or replaces (by rule ID) a PDR.
	Insert(p *rules.PDR)
	// Remove deletes the rule with the given ID.
	Remove(id uint32) bool
	// Lookup returns the best-matching rule, or nil.
	Lookup(k *Key) *rules.PDR
	// Len returns the number of installed rules.
	Len() int
}

// New constructs a classifier by algorithm name.
func New(name string) Classifier {
	switch name {
	case "tss":
		return NewTSS()
	case "ps":
		return NewPartitionSort()
	default:
		return NewLinear()
	}
}

// matches performs the full PDI check for a candidate rule.
func matches(p *rules.PDR, k *Key) bool {
	return p.PDI.Matches(k.Tuple, k.TOS, k.TEID, k.FromAccess)
}

// Linear is PDR-LL: a precedence-sorted slice scanned in order. The first
// match is the best match because the list is kept sorted.
type Linear struct {
	list []*rules.PDR
}

// NewLinear returns an empty PDR-LL classifier.
func NewLinear() *Linear { return &Linear{} }

// Name implements Classifier.
func (l *Linear) Name() string { return "ll" }

// Len implements Classifier.
func (l *Linear) Len() int { return len(l.list) }

// Insert implements Classifier.
func (l *Linear) Insert(p *rules.PDR) {
	l.Remove(p.ID)
	// Insert keeping ascending precedence.
	i := 0
	for i < len(l.list) && l.list[i].Precedence <= p.Precedence {
		i++
	}
	l.list = append(l.list, nil)
	copy(l.list[i+1:], l.list[i:])
	l.list[i] = p
}

// Remove implements Classifier.
func (l *Linear) Remove(id uint32) bool {
	for i, q := range l.list {
		if q.ID == id {
			l.list = append(l.list[:i], l.list[i+1:]...)
			return true
		}
	}
	return false
}

// Lookup implements Classifier.
func (l *Linear) Lookup(k *Key) *rules.PDR {
	for _, p := range l.list {
		if matches(p, k) {
			return p
		}
	}
	return nil
}
