package sbi

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"l25gc/internal/codec"
	"l25gc/internal/faults"
	"l25gc/internal/metrics"
)

// flakyConn fails its first n Invokes with a transport error.
type flakyConn struct {
	failuresLeft int
	calls        int
	finalErr     error // error to return when failing (default: transport)
}

func (f *flakyConn) Invoke(op OpID, req codec.Message) (codec.Message, error) {
	f.calls++
	if f.failuresLeft > 0 {
		f.failuresLeft--
		if f.finalErr != nil {
			return nil, f.finalErr
		}
		return nil, errors.New("connection reset")
	}
	return op.NewResponse(), nil
}

func (f *flakyConn) Close() error { return nil }

func fastPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond,
		MaxDelay: 5 * time.Millisecond, Multiplier: 2, Seed: 1}
}

func TestResilientConnRetriesTransportFailures(t *testing.T) {
	inner := &flakyConn{failuresLeft: 2}
	rc := NewResilientConn(inner, fastPolicy(), nil)
	resp, err := rc.Invoke(OpNFDiscover, &NFDiscoveryRequest{})
	if err != nil || resp == nil {
		t.Fatalf("invoke: %v", err)
	}
	if inner.calls != 3 {
		t.Fatalf("inner called %d times, want 3", inner.calls)
	}
	if rc.Retries() != 2 {
		t.Fatalf("retries = %d", rc.Retries())
	}
}

func TestResilientConnExhaustsBudget(t *testing.T) {
	inner := &flakyConn{failuresLeft: 100}
	rc := NewResilientConn(inner, fastPolicy(), nil)
	if _, err := rc.Invoke(OpNFDiscover, &NFDiscoveryRequest{}); err == nil {
		t.Fatal("should fail after MaxAttempts")
	}
	if inner.calls != 4 {
		t.Fatalf("inner called %d times, want MaxAttempts=4", inner.calls)
	}
}

func TestResilientConnDoesNotRetryApplicationErrors(t *testing.T) {
	inner := &flakyConn{failuresLeft: 100,
		finalErr: fmt.Errorf("%w: 500: boom", ErrStatus)}
	rc := NewResilientConn(inner, fastPolicy(), nil)
	_, err := rc.Invoke(OpNFDiscover, &NFDiscoveryRequest{})
	if !errors.Is(err, ErrStatus) {
		t.Fatalf("err = %v", err)
	}
	if inner.calls != 1 {
		t.Fatalf("application error retried %d times", inner.calls-1)
	}
}

func TestCircuitBreakerLifecycle(t *testing.T) {
	b := NewCircuitBreaker(3, 30*time.Millisecond)
	for i := 0; i < 3; i++ {
		if !b.Allow() {
			t.Fatalf("closed breaker rejected call %d", i)
		}
		b.Failure()
	}
	if !b.Open() {
		t.Fatal("breaker should open at threshold")
	}
	if b.Allow() {
		t.Fatal("open breaker admitted a call inside cooldown")
	}
	if b.Trips() != 1 {
		t.Fatalf("trips = %d", b.Trips())
	}
	time.Sleep(40 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("cooldown elapsed: half-open probe should be admitted")
	}
	if b.Allow() {
		t.Fatal("second concurrent half-open probe admitted")
	}
	// Failed probe re-opens.
	b.Failure()
	if b.Allow() {
		t.Fatal("breaker should re-open after failed probe")
	}
	time.Sleep(40 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("second half-open probe should be admitted")
	}
	b.Success()
	if !b.Allow() || !b.Allow() {
		t.Fatal("breaker should close after successful probe")
	}
}

func TestResilientConnShedsWhenBreakerOpen(t *testing.T) {
	inner := &flakyConn{failuresLeft: 100}
	b := NewCircuitBreaker(2, time.Minute)
	rc := NewResilientConn(inner, RetryPolicy{MaxAttempts: 1, Seed: 1}, b)
	for i := 0; i < 2; i++ {
		rc.Invoke(OpNFDiscover, &NFDiscoveryRequest{})
	}
	if _, err := rc.Invoke(OpNFDiscover, &NFDiscoveryRequest{}); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("expected circuit open, got %v", err)
	}
	if rc.Shed() == 0 {
		t.Fatal("shed counter not incremented")
	}
	calls := inner.calls
	rc.Invoke(OpNFDiscover, &NFDiscoveryRequest{})
	if inner.calls != calls {
		t.Fatal("open breaker still forwarded a call")
	}
}

func TestBackoffIsDeterministicPerSeed(t *testing.T) {
	seq := func(seed int64) []time.Duration {
		rc := NewResilientConn(&flakyConn{}, RetryPolicy{
			MaxAttempts: 5, BaseDelay: time.Millisecond, MaxDelay: time.Second,
			Multiplier: 2, Jitter: 0.2, Seed: seed}, nil)
		out := make([]time.Duration, 4)
		for n := range out {
			out[n] = rc.backoff(n + 1)
		}
		return out
	}
	a, b := seq(9), seq(9)
	for n := range a {
		if a[n] != b[n] {
			t.Fatalf("same seed diverged: %v vs %v", a, b)
		}
		if a[n] <= 0 {
			t.Fatalf("non-positive backoff %v", a[n])
		}
	}
	// Exponential shape: attempt 3 waits longer than attempt 1 even with
	// 20% jitter (4x growth dominates).
	if a[2] <= a[0] {
		t.Fatalf("backoff not growing: %v", a)
	}
}

func TestHTTPInvokeRecoversFromInjectedLoss(t *testing.T) {
	srv, err := NewHTTPServer("127.0.0.1:0", codec.JSON{}, func(op OpID, req codec.Message) (codec.Message, error) {
		return op.NewResponse(), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn := NewHTTPConn(srv.Addr(), codec.JSON{})
	defer conn.Close()
	conn.SetTimeout(2 * time.Second)
	inj := faults.New(21).Add(faults.Rule{Point: "sbi.amf.invoke", Kind: faults.Drop, Count: 2})
	conn.SetInjector(inj, "sbi.amf")
	rc := NewResilientConn(conn, fastPolicy(), NewCircuitBreaker(10, time.Second))

	resp, err := rc.Invoke(OpNFDiscover, &NFDiscoveryRequest{})
	if err != nil || resp == nil {
		t.Fatalf("invoke under 2 injected drops: %v", err)
	}
	if rc.Retries() != 2 {
		t.Fatalf("retries = %d, want 2", rc.Retries())
	}
	if inj.Count("sbi.amf.invoke", faults.Drop) != 2 {
		t.Fatalf("drops = %d", inj.Count("sbi.amf.invoke", faults.Drop))
	}
}

func TestShmInvokeRecoversFromInjectedLoss(t *testing.T) {
	cli, srv := NewShmPair(64, func(op OpID, req codec.Message) (codec.Message, error) {
		return op.NewResponse(), nil
	})
	defer cli.Close()
	defer srv.Close()
	cli.SetTimeout(50 * time.Millisecond)
	// Drop the first request frame and the first reply frame.
	inj := faults.New(33).
		Add(faults.Rule{Point: "sbi.shm.cli.invoke", Kind: faults.Drop, Count: 1}).
		Add(faults.Rule{Point: "sbi.shm.srv.reply", Kind: faults.Drop, Count: 1})
	cli.SetInjector(inj, "sbi.shm.cli")
	srv.SetInjector(inj, "sbi.shm.srv")
	rc := NewResilientConn(cli, fastPolicy(), nil)

	resp, err := rc.Invoke(OpNFDiscover, &NFDiscoveryRequest{})
	if err != nil || resp == nil {
		t.Fatalf("invoke under injected loss: %v", err)
	}
	if rc.Retries() != 2 {
		t.Fatalf("retries = %d, want 2 (request lost, then reply lost)", rc.Retries())
	}
}

// TestShmDelayedSendLateError is the regression test for the send that
// returned an error variable its delayed delivery wrote later, from an
// injector timer (a data race under -race): an invoke delayed toward a
// closed producer fails at delivery, after Invoke has moved on, and only
// times out.
func TestShmDelayedSendLateError(t *testing.T) {
	cli, srv := NewShmPair(8, func(op OpID, req codec.Message) (codec.Message, error) {
		return op.NewResponse(), nil
	})
	defer cli.Close()
	cli.SetTimeout(50 * time.Millisecond)
	inj := faults.New(5).Add(faults.Rule{Point: "sbi.shm.cli.invoke", Kind: faults.Delay, Delay: 5 * time.Millisecond})
	cli.SetInjector(inj, "sbi.shm.cli")
	srv.Close()
	if _, err := cli.Invoke(OpNFDiscover, &NFDiscoveryRequest{}); err == nil {
		t.Fatal("invoke of a closed producer succeeded")
	}
	if n := inj.Count("sbi.shm.cli.invoke", faults.Delay); n != 1 {
		t.Fatalf("%d sends delayed, want 1", n)
	}
}

func TestResilientConnExportMetrics(t *testing.T) {
	inner := &flakyConn{failuresLeft: 100}
	b := NewCircuitBreaker(2, time.Minute)
	rc := NewResilientConn(inner, fastPolicy(), b)
	reg := metrics.NewRegistry()
	rc.ExportMetrics(reg, "sbi.smf")

	rc.Invoke(OpNFDiscover, &NFDiscoveryRequest{}) // trips the breaker
	rc.Invoke(OpNFDiscover, &NFDiscoveryRequest{}) // shed while open

	snap := reg.Snapshot()
	for _, name := range []string{
		"sbi.smf.retries", "sbi.smf.shed",
		"sbi.smf.breaker_trips", "sbi.smf.breaker_open",
	} {
		if _, ok := snap.Counters[name]; !ok {
			t.Errorf("Snapshot missing %q", name)
		}
	}
	if snap.Counters["sbi.smf.breaker_trips"] == 0 {
		t.Error("breaker_trips is zero after threshold failures")
	}
	if snap.Counters["sbi.smf.breaker_open"] != 1 {
		t.Errorf("breaker_open = %d, want 1 while open", snap.Counters["sbi.smf.breaker_open"])
	}
	if snap.Counters["sbi.smf.shed"] == 0 {
		t.Error("shed is zero after invoking against an open breaker")
	}
}
