package traffic

import (
	"context"
	"testing"
	"time"
)

func TestRTTProbeStampAck(t *testing.T) {
	p := NewRTTProbe()
	payload := make([]byte, 32)
	seq, err := p.Stamp(payload)
	if err != nil || seq != 1 {
		t.Fatalf("Stamp = %d, %v", seq, err)
	}
	rtt, ok := p.Ack(payload)
	if !ok || rtt < 0 {
		t.Fatalf("Ack = %v, %v", rtt, ok)
	}
	// Duplicate ack rejected.
	if _, ok := p.Ack(payload); ok {
		t.Fatal("duplicate ack should fail")
	}
	if sent, acked := p.Stats(); sent != 1 || acked != 1 {
		t.Fatalf("stats %d/%d", sent, acked)
	}
}

func TestRTTProbeHigherThreshold(t *testing.T) {
	p := NewRTTProbe()
	payload := make([]byte, 16)
	p.Stamp(payload)
	time.Sleep(time.Millisecond)
	p.Ack(payload)
	if higher := p.Hist.CountAbove(time.Microsecond); higher != 1 {
		t.Fatalf("higher = %d", higher)
	}
}

func TestRTTProbeShortPayload(t *testing.T) {
	p := NewRTTProbe()
	if _, err := p.Stamp(make([]byte, 8)); err != ErrShortPayload {
		t.Fatalf("err = %v", err)
	}
	if _, ok := p.Ack(make([]byte, 3)); ok {
		t.Fatal("short ack should fail")
	}
}

func TestRTTProbeOutstanding(t *testing.T) {
	p := NewRTTProbe()
	a, b := make([]byte, 16), make([]byte, 16)
	p.Stamp(a)
	p.Stamp(b)
	if p.Outstanding() != 2 {
		t.Fatalf("outstanding = %d", p.Outstanding())
	}
	p.Ack(a)
	if p.Outstanding() != 1 {
		t.Fatalf("outstanding = %d", p.Outstanding())
	}
}

func TestRunCBRCountAndRate(t *testing.T) {
	var n int
	start := time.Now()
	err := RunCBR(context.Background(), 10000, 500, func(i int) error {
		if i != n {
			t.Fatalf("out of order: %d != %d", i, n)
		}
		n++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 500 {
		t.Fatalf("sent %d", n)
	}
	// 500 packets at 10 Kpps ≈ 50 ms; allow generous slack on 1 CPU.
	if d := time.Since(start); d < 20*time.Millisecond || d > 2*time.Second {
		t.Fatalf("pacing off: %v", d)
	}
}

func TestRunCBRContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := RunCBR(ctx, 100, 1000, func(int) error { return nil })
	if err != context.Canceled {
		t.Fatalf("err = %v", err)
	}
}

func TestBlast(t *testing.T) {
	var n int
	d, err := Blast(1000, func(i int) error { n++; return nil })
	if err != nil || n != 1000 || d <= 0 {
		t.Fatalf("blast: %v %d %v", d, n, err)
	}
}
