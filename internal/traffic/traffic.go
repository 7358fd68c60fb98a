// Package traffic is the MoonGen substitute: constant-rate packet
// generation with per-packet sequence stamping, and an RTT probe that
// matches echoes back to their send times — the measurement methodology
// behind Tables 1 & 2 and Figs. 13 & 14 ("RTT of packets sent from and
// ack'd back to the generator").
package traffic

import (
	"context"
	"encoding/binary"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"l25gc/internal/metrics"
)

// ErrShortPayload reports a probe payload too small for the stamp.
var ErrShortPayload = errors.New("traffic: payload too short")

// stampLen is seq(8) + sendTimeNano(8).
const stampLen = 16

// RTTProbe stamps outgoing payloads and resolves echoes to RTT samples.
type RTTProbe struct {
	mu   sync.Mutex
	sent map[uint64]time.Time

	Hist   *metrics.Histogram
	Series *metrics.Series // RTT in milliseconds over time

	next  atomic.Uint64
	acked atomic.Uint64
}

// NewRTTProbe creates a probe. "Packets experiencing higher RTT" (the
// Tables 1 & 2 column) is a question for Hist: CountAbove on the window
// of interest.
func NewRTTProbe() *RTTProbe {
	return &RTTProbe{
		sent:   make(map[uint64]time.Time),
		Hist:   metrics.NewHistogram(),
		Series: metrics.NewSeries("rtt_ms"),
	}
}

// Stamp writes the next sequence stamp into payload (len >= 16) and
// records the send time. It returns the sequence number.
func (p *RTTProbe) Stamp(payload []byte) (uint64, error) {
	if len(payload) < stampLen {
		return 0, ErrShortPayload
	}
	seq := p.next.Add(1)
	now := time.Now()
	binary.BigEndian.PutUint64(payload[0:8], seq)
	binary.BigEndian.PutUint64(payload[8:16], uint64(now.UnixNano()))
	p.mu.Lock()
	p.sent[seq] = now
	p.mu.Unlock()
	return seq, nil
}

// Ack resolves an echoed payload to its RTT. Duplicate or unknown
// sequences report ok=false.
func (p *RTTProbe) Ack(payload []byte) (time.Duration, bool) {
	if len(payload) < stampLen {
		return 0, false
	}
	seq := binary.BigEndian.Uint64(payload[0:8])
	p.mu.Lock()
	t0, ok := p.sent[seq]
	if ok {
		delete(p.sent, seq)
	}
	p.mu.Unlock()
	if !ok {
		return 0, false
	}
	rtt := time.Since(t0)
	p.Hist.Observe(rtt)
	p.Series.Add(float64(rtt) / float64(time.Millisecond))
	p.acked.Add(1)
	return rtt, true
}

// Stats reports sent/acked counters.
func (p *RTTProbe) Stats() (sent, acked uint64) {
	return p.next.Load(), p.acked.Load()
}

// Outstanding reports stamps not yet acked (lost or still buffered).
func (p *RTTProbe) Outstanding() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.sent)
}

// RunCBR emits packets at the given rate for the given count (or until
// ctx is done), invoking send for each. Pacing batches sends per
// millisecond, which holds 10 Kpps comfortably on one core.
func RunCBR(ctx context.Context, ratePps int, count int, send func(i int) error) error {
	if ratePps <= 0 {
		ratePps = 1
	}
	interval := time.Millisecond
	perTick := ratePps / 1000
	if perTick == 0 {
		perTick = 1
		interval = time.Second / time.Duration(ratePps)
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	sent := 0
	for sent < count {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ticker.C:
			for i := 0; i < perTick && sent < count; i++ {
				if err := send(sent); err != nil {
					return err
				}
				sent++
			}
		}
	}
	return nil
}

// Blast sends count packets back-to-back as fast as possible (the
// throughput-measurement mode of Fig. 10).
func Blast(count int, send func(i int) error) (time.Duration, error) {
	start := time.Now()
	for i := 0; i < count; i++ {
		if err := send(i); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}
