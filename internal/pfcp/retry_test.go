package pfcp

import (
	"sync/atomic"
	"testing"
	"time"

	"l25gc/internal/faults"
	"l25gc/internal/metrics"
	"l25gc/internal/trace"
)

// countingHandler wraps echoHandler with an invocation counter, to prove
// the dedup cache short-circuits retransmitted requests.
func countingHandler(t *testing.T, n *atomic.Int32) Handler {
	inner := echoHandler(t)
	return func(seid uint64, req Message) (Message, error) {
		n.Add(1)
		return inner(seid, req)
	}
}

// fastRetry is a chaos-friendly profile: short T1, generous N1.
func fastRetry() RetryConfig {
	return RetryConfig{T1: 100 * time.Millisecond, N1: 5, Backoff: 1.5, MaxT1: time.Second}
}

func udpPair(t *testing.T) (smf, upf *UDPEndpoint) {
	t.Helper()
	upf, err := NewUDPEndpoint("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { upf.Close() })
	smf, err = NewUDPEndpoint("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { smf.Close() })
	if err := smf.Connect(upf.Addr()); err != nil {
		t.Fatal(err)
	}
	return smf, upf
}

func TestUDPRetransmissionRecoversDroppedRequest(t *testing.T) {
	smf, upf := udpPair(t)
	var calls atomic.Int32
	upf.SetHandler(countingHandler(t, &calls))
	inj := faults.New(1).Add(faults.Rule{Point: "pfcp.smf.tx", Kind: faults.Drop, Count: 1})
	smf.SetInjector(inj, "pfcp.smf")
	smf.SetRetry(fastRetry())

	resp, err := smf.Request(0, false, &HeartbeatRequest{RecoveryTimestamp: 8})
	if err != nil {
		t.Fatalf("request failed despite retry budget: %v", err)
	}
	if resp.(*HeartbeatResponse).RecoveryTimestamp != 8 {
		t.Fatalf("got %+v", resp)
	}
	if rtx, _ := smf.Stats(); rtx != 1 {
		t.Fatalf("retransmits = %d, want 1", rtx)
	}
	if calls.Load() != 1 {
		t.Fatalf("handler ran %d times", calls.Load())
	}
}

func TestUDPDedupAnswersRetransmitFromCache(t *testing.T) {
	smf, upf := udpPair(t)
	var calls atomic.Int32
	upf.SetHandler(countingHandler(t, &calls))
	// The request arrives, but the first response is lost: the
	// retransmitted request must be served from the cache, not by running
	// the (non-idempotent) handler again.
	inj := faults.New(2).Add(faults.Rule{Point: "pfcp.upf.tx", Kind: faults.Drop, Count: 1})
	upf.SetInjector(inj, "pfcp.upf")
	smf.SetRetry(fastRetry())

	if _, err := smf.Request(0, false, &HeartbeatRequest{RecoveryTimestamp: 4}); err != nil {
		t.Fatalf("request failed: %v", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("handler ran %d times; dedup cache not consulted", calls.Load())
	}
	if upf.respCache.len() != 1 {
		t.Fatalf("response cache holds %d entries", upf.respCache.len())
	}
}

func TestUDPRequestTimeoutCleansPending(t *testing.T) {
	smf, _ := udpPair(t)
	inj := faults.New(3)
	inj.Partition("pfcp.smf") // blackhole every outgoing request
	smf.SetInjector(inj, "pfcp.smf")
	smf.SetRetry(RetryConfig{T1: 20 * time.Millisecond, N1: 1, Backoff: 1})

	start := time.Now()
	if _, err := smf.Request(0, false, &HeartbeatRequest{}); err == nil {
		t.Fatal("request should time out under a full partition")
	}
	if d := time.Since(start); d < 40*time.Millisecond {
		t.Fatalf("timed out after %v; N1 retransmission not attempted", d)
	}
	if n := smf.PendingRequests(); n != 0 {
		t.Fatalf("pending map leaked %d entries after timeout", n)
	}
	if _, timeouts := smf.Stats(); timeouts != 2 {
		t.Fatalf("timeouts = %d, want 2 (initial + 1 retransmission)", timeouts)
	}
}

func TestUDPSurvivesCorruptedWire(t *testing.T) {
	smf, upf := udpPair(t)
	upf.SetHandler(echoHandler(t))
	// Corrupt the first transmission: the peer fails to parse (or
	// misroutes) it and the retransmission, sent clean, must succeed.
	inj := faults.New(5).Add(faults.Rule{Point: "pfcp.smf.tx", Kind: faults.Corrupt, Count: 1})
	smf.SetInjector(inj, "pfcp.smf")
	smf.SetRetry(fastRetry())

	resp, err := smf.Request(0, false, &HeartbeatRequest{RecoveryTimestamp: 6})
	if err != nil {
		t.Fatalf("request failed: %v", err)
	}
	if resp.(*HeartbeatResponse).RecoveryTimestamp != 6 {
		t.Fatalf("got %+v", resp)
	}
}

func TestMemRetransmissionAndDedup(t *testing.T) {
	smf, upf := NewMemPair(64)
	defer smf.Close()
	defer upf.Close()
	var calls atomic.Int32
	upf.SetHandler(countingHandler(t, &calls))
	// Drop the first request frame and the first response frame.
	inj := faults.New(7).
		Add(faults.Rule{Point: "pfcp.mem.smf.tx", Kind: faults.Drop, Count: 1}).
		Add(faults.Rule{Point: "pfcp.mem.upf.tx", Kind: faults.Drop, Count: 1})
	smf.SetInjector(inj, "pfcp.mem.smf")
	upf.SetInjector(inj, "pfcp.mem.upf")
	smf.SetRetry(fastRetry())

	resp, err := smf.Request(0, false, &HeartbeatRequest{RecoveryTimestamp: 2})
	if err != nil {
		t.Fatalf("request failed: %v", err)
	}
	if resp.(*HeartbeatResponse).RecoveryTimestamp != 2 {
		t.Fatalf("got %+v", resp)
	}
	if calls.Load() != 1 {
		t.Fatalf("handler ran %d times", calls.Load())
	}
	if rtx, _ := smf.Stats(); rtx < 1 {
		t.Fatalf("retransmits = %d", rtx)
	}
	if n := smf.PendingRequests(); n != 0 {
		t.Fatalf("pending map leaked %d entries", n)
	}
}

func TestMemRequestTimeoutCleansPending(t *testing.T) {
	smf, upf := NewMemPair(64)
	defer smf.Close()
	defer upf.Close()
	inj := faults.New(8)
	inj.Partition("pfcp.mem.smf")
	smf.SetInjector(inj, "pfcp.mem.smf")
	smf.SetRetry(RetryConfig{T1: 20 * time.Millisecond, N1: 0, Backoff: 1})
	if _, err := smf.Request(0, false, &HeartbeatRequest{}); err == nil {
		t.Fatal("request should time out")
	}
	if n := smf.PendingRequests(); n != 0 {
		t.Fatalf("pending map leaked %d entries", n)
	}
}

func TestRetryConfigNormAndBackoff(t *testing.T) {
	c := RetryConfig{}.norm()
	if c.T1 != DefaultTimeout || c.Backoff != 1 {
		t.Fatalf("norm() = %+v", c)
	}
	g := RetryConfig{T1: time.Second, Backoff: 2, MaxT1: 3 * time.Second}
	if d := g.next(time.Second); d != 2*time.Second {
		t.Fatalf("next = %v", d)
	}
	if d := g.next(2 * time.Second); d != 3*time.Second {
		t.Fatalf("capped next = %v", d)
	}
}

func TestRespCacheEviction(t *testing.T) {
	c := newRespCache[int]()
	for i := 0; i < respCacheSize+10; i++ {
		c.put(uint32(i), i)
	}
	if c.len() != respCacheSize {
		t.Fatalf("cache holds %d entries", c.len())
	}
	if _, ok := c.get(0); ok {
		t.Fatal("oldest entry should have been evicted")
	}
	if v, ok := c.get(respCacheSize + 5); !ok || v != respCacheSize+5 {
		t.Fatal("recent entry missing")
	}
	// Re-putting an existing seq must not duplicate the FIFO entry.
	c.put(respCacheSize+5, 99)
	if v, _ := c.get(respCacheSize + 5); v != 99 {
		t.Fatal("overwrite lost")
	}
}

// TestMemRequestServedInlineNeverWaits pins what the shm transport shows of
// itself: a request to an idle peer is handled on the requester's goroutine
// (served_inline on the peer's side) and emits no "pfcp.wait" span, because
// the requester never parked; one whose first transmission was dropped did
// wait, and says so.
func TestMemRequestServedInlineNeverWaits(t *testing.T) {
	smf, upf := NewMemPair(64)
	defer smf.Close()
	defer upf.Close()
	upf.SetHandler(echoHandler(t))
	tr := trace.New()
	smf.SetTracer(trace.NewTrack(tr, "pfcp.smf"))
	upf.SetTracer(trace.NewTrack(tr, "pfcp.upf"))
	reg := metrics.NewRegistry()
	upf.ExportMetrics(reg, "pfcp.upf")
	smf.SetRetry(RetryConfig{T1: 20 * time.Millisecond, N1: 2, Backoff: 1})

	stages := func() map[string]int {
		bd := tr.Breakdown("pfcp.request.heartbeat")
		if bd == nil {
			t.Fatal("no pfcp.request.heartbeat span")
		}
		out := map[string]int{}
		for _, s := range bd.Stages {
			out[s.Name] = s.Count
		}
		return out
	}
	if _, err := smf.Request(0, false, &HeartbeatRequest{RecoveryTimestamp: 1}); err != nil {
		t.Fatal(err)
	}
	if st := stages(); st["pfcp.tx.shm"] != 1 || st["pfcp.handle.heartbeat"] != 1 || st["pfcp.wait"] != 0 {
		t.Fatalf("inline request stages = %v; want one pfcp.tx.shm around one pfcp.handle.heartbeat, no pfcp.wait", st)
	}

	inj := faults.New(9).Add(faults.Rule{Point: "pfcp.smf.tx", Kind: faults.Drop, Count: 1})
	smf.SetInjector(inj, "pfcp.smf")
	tr.Reset()
	if _, err := smf.Request(0, false, &HeartbeatRequest{RecoveryTimestamp: 2}); err != nil {
		t.Fatal(err)
	}
	if st := stages(); st["pfcp.tx.shm"] != 2 || st["pfcp.wait"] != 1 {
		t.Fatalf("retransmitted request stages = %v; want two pfcp.tx.shm and the one pfcp.wait between them", st)
	}
	snap := reg.Snapshot()
	if in, q := snap.Counters["pfcp.upf.served_inline"], snap.Counters["pfcp.upf.served_queued"]; in != 2 || q != 0 {
		t.Fatalf("pfcp.upf.served_inline = %d, served_queued = %d; want 2, 0", in, q)
	}
}
