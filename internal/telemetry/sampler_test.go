package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"l25gc/internal/metrics"
	"l25gc/internal/testutil"
)

// testClock is a manual clock for deterministic sample stamps.
type testClock struct{ now time.Duration }

func (c *testClock) fn() func() time.Duration {
	return func() time.Duration { return c.now }
}

func TestSamplerSnapshotsRegistryAndRuntime(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	reg := metrics.NewRegistry()
	reg.Counter("sbi.requests").Add(7)
	reg.Histogram("paging.latency").Observe(3 * time.Millisecond)
	clk := &testClock{now: 5 * time.Second}
	s := NewSampler(SamplerConfig{Clock: clk.fn(), Registry: reg})
	smp := s.SampleNow()
	if smp.At != 5*time.Second {
		t.Fatalf("sample At = %v, want injected clock value", smp.At)
	}
	if got := smp.Values["sbi.requests"]; got != 7 {
		t.Fatalf("counter sampled as %v, want 7", got)
	}
	if got := smp.Values["paging.latency.count"]; got != 1 {
		t.Fatalf("histogram count sampled as %v, want 1", got)
	}
	if got := smp.Values["paging.latency.p99_us"]; got < 2000 || got > 4000 {
		t.Fatalf("histogram p99 sampled as %vµs, want ~3000", got)
	}
	if smp.Values[nameHeap] <= 0 || smp.Values[nameGoroutine] <= 0 {
		t.Fatal("runtime probes missing from sample")
	}
}

// The stage window between two samples contains only the observations
// recorded between them.
func TestSamplerStageWindows(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	reg := metrics.NewRegistry()
	sk := reg.Histogram(stagePrefix + "onvm.deliver")
	clk := &testClock{}
	s := NewSampler(SamplerConfig{Clock: clk.fn(), Registry: reg})
	sk.Observe(time.Millisecond)
	sk.Observe(time.Millisecond)
	s1 := s.SampleNow()
	if got := s1.Values[stagePrefix+"onvm.deliver.count"]; got != 2 {
		t.Fatalf("first window count = %v, want 2", got)
	}
	sk.Observe(4 * time.Second)
	s2 := s.SampleNow()
	if got := s2.Values[stagePrefix+"onvm.deliver.count"]; got != 1 {
		t.Fatalf("second window count = %v, want 1 (windowed, not cumulative)", got)
	}
	if got := s2.Values[stagePrefix+"onvm.deliver.p50_us"]; got < 3e6 {
		t.Fatalf("second window p50 = %vµs, want ~4s (prior window must not leak in)", got)
	}
	// An empty window omits the stage keys entirely.
	s3 := s.SampleNow()
	if _, ok := s3.Values[stagePrefix+"onvm.deliver.count"]; ok {
		t.Fatal("empty window must omit stage keys")
	}
}

func TestSamplerRingBound(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	clk := &testClock{}
	s := NewSampler(SamplerConfig{Capacity: 4, Clock: clk.fn()})
	for i := 0; i < 10; i++ {
		clk.now = time.Duration(i) * time.Second
		s.SampleNow()
	}
	got := s.Samples()
	if len(got) != 4 {
		t.Fatalf("ring holds %d samples, want capacity 4", len(got))
	}
	if got[0].Seq != 6 || got[3].Seq != 9 {
		t.Fatalf("ring kept seqs %d..%d, want newest window 6..9", got[0].Seq, got[3].Seq)
	}
	last := s.Last(2)
	if len(last) != 2 || last[1].Seq != 9 {
		t.Fatalf("Last(2) = %+v, want the two newest", last)
	}
	if s.Last(100)[0].Seq != 6 {
		t.Fatal("Last beyond retention must clamp to the ring")
	}
}

// The JSONL export is parseable line-by-line and byte-stable for the
// same series.
func TestSamplerWriteJSONL(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	reg := metrics.NewRegistry()
	reg.Counter("sbi.requests").Add(3)
	clk := &testClock{}
	s := NewSampler(SamplerConfig{Clock: clk.fn(), Registry: reg})
	s.SampleNow()
	clk.now = time.Second
	s.SampleNow()
	var a, b bytes.Buffer
	if err := s.WriteJSONL(&a); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("JSONL export not byte-stable across writes of the same series")
	}
	lines := 0
	sc := bufio.NewScanner(&a)
	for sc.Scan() {
		var smp Sample
		if err := json.Unmarshal(sc.Bytes(), &smp); err != nil {
			t.Fatalf("line %d is not valid JSON: %v", lines, err)
		}
		if !strings.Contains(sc.Text(), "sbi.requests") {
			t.Fatalf("line %d lost the registry values", lines)
		}
		lines++
	}
	if lines != 2 {
		t.Fatalf("export has %d lines, want 2", lines)
	}
}

// The periodic sampler goroutine samples on its own and stops cleanly —
// the leak check (first line) is the real assertion here.
func TestSamplerPeriodicStartStop(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	s := NewSampler(SamplerConfig{Interval: time.Millisecond})
	s.Start()
	s.Start() // idempotent
	deadline := time.Now().Add(2 * time.Second)
	for len(s.Samples()) < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := len(s.Samples()); n < 3 {
		t.Fatalf("periodic sampler took %d samples in 2s, want >=3", n)
	}
	s.Stop()
	s.Stop() // idempotent
}

// BenchmarkSampleNow prices one sample against a registry the size of a
// fully wired core (its cost bounds the pipeline's steady-state
// overhead: one of these per SampleInterval).
func BenchmarkSampleNow(b *testing.B) {
	reg := metrics.NewRegistry()
	for i := 0; i < 40; i++ {
		reg.Counter(fmt.Sprintf("bench.counter%d", i)).Add(uint64(i))
	}
	for i := 0; i < 10; i++ {
		h := reg.Histogram(fmt.Sprintf("bench.hist%d", i))
		for j := 0; j < 512; j++ {
			h.Observe(time.Duration(j) * time.Microsecond)
		}
	}
	sk := reg.Histogram(stagePrefix + "onvm.deliver")
	for i := 0; i < 4096; i++ {
		sk.Observe(time.Duration(i))
	}
	clk := &testClock{}
	s := NewSampler(SamplerConfig{Clock: clk.fn(), Registry: reg})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clk.now = time.Duration(i)
		s.SampleNow()
	}
}
