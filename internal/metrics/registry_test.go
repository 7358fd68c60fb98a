package metrics

import (
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestRegistryNilIsInert(t *testing.T) {
	var r *Registry
	r.RegisterGauge("x", func() uint64 { return 1 })
	r.RegisterCounter(NewCounter("y"))
	r.RegisterHistogram("h", NewHistogram())
	c := r.Counter("z")
	c.Inc() // detached but usable
	h := r.Histogram("h2")
	h.Observe(time.Millisecond)
	r.Reset()
	if got := r.Snapshot(); len(got.Counters) != 0 || len(got.Histograms) != 0 {
		t.Fatalf("nil registry snapshot = %+v", got)
	}
	if r.Names() != nil {
		t.Fatal("nil registry has names")
	}
	if got := r.Counters(); len(got) != 0 {
		t.Fatalf("nil registry counters = %v", got)
	}
}

func TestRegistrySnapshotSumsSharedNames(t *testing.T) {
	r := NewRegistry()
	// Three readers under one name, as the core's three UDM connections
	// register their invoke counters.
	var a, b atomic.Uint64
	r.RegisterGauge("sbi.udm.invokes", a.Load)
	r.RegisterGauge("sbi.udm.invokes", b.Load)
	c := NewCounter("sbi.udm.invokes")
	r.RegisterCounter(c)
	a.Store(2)
	b.Store(3)
	c.Add(5)
	if got := r.Snapshot().Counters["sbi.udm.invokes"]; got != 10 {
		t.Fatalf("summed value = %d, want 10", got)
	}
}

func TestRegistryCounterGetOrCreate(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("onvm.drops")
	c2 := r.Counter("onvm.drops")
	if c1 != c2 {
		t.Fatal("Counter must return the same instance per name")
	}
	c1.Add(7)
	if got := r.Snapshot().Counters["onvm.drops"]; got != 7 {
		t.Fatalf("owned counter snapshot = %d", got)
	}
}

func TestRegistryResetBaselines(t *testing.T) {
	r := NewRegistry()
	var v atomic.Uint64
	r.RegisterGauge("pfcp.retransmits", v.Load)
	h := r.Histogram("lat")
	h.Observe(time.Millisecond)
	v.Store(4)
	r.Reset()
	if got := r.Snapshot().Counters["pfcp.retransmits"]; got != 0 {
		t.Fatalf("post-reset reading = %d, want 0", got)
	}
	if got := r.Snapshot().Histograms["lat"].Count; got != 0 {
		t.Fatalf("post-reset histogram count = %d", got)
	}
	v.Store(9)
	if got := r.Snapshot().Counters["pfcp.retransmits"]; got != 5 {
		t.Fatalf("delta since baseline = %d, want 5", got)
	}
	// Counters reads the same values, and no histogram.
	if got, want := r.Counters(), r.Snapshot().Counters; !reflect.DeepEqual(got, want) {
		t.Fatalf("Counters() = %v, Snapshot().Counters = %v", got, want)
	}
}

func TestRegistryHistogramSnapshot(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("upf.lat")
	if h2 := r.Histogram("upf.lat"); h2 != h {
		t.Fatal("Histogram must return the same instance per name")
	}
	for i := 1; i <= 10; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	hs := r.Snapshot().Histograms["upf.lat"]
	if hs.Count != 10 || hs.Min != time.Millisecond || hs.Max != 10*time.Millisecond {
		t.Fatalf("hist stats = %+v", hs)
	}
	if !inBucketOf(hs.P50, 5*time.Millisecond) {
		t.Fatalf("p50 = %v", hs.P50)
	}
}

func TestRegistryNames(t *testing.T) {
	r := NewRegistry()
	r.Counter("b.two")
	r.Counter("a.one")
	r.RegisterHistogram("c.hist", NewHistogram())
	want := []string{"a.one", "b.two", "c.hist"}
	if got := r.Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names = %v, want %v", got, want)
	}
}

func TestSnapshotTable(t *testing.T) {
	r := NewRegistry()
	r.Counter("z.last").Add(2)
	r.Counter("a.first").Add(1)
	out := r.Snapshot().Table().String()
	ai, zi := strings.Index(out, "a.first"), strings.Index(out, "z.last")
	if ai < 0 || zi < 0 || ai > zi {
		t.Fatalf("snapshot table not sorted:\n%s", out)
	}
}
