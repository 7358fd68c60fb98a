package metrics

import (
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Mean() != 0 || h.Percentile(50) != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	if h.Count() != 100 {
		t.Fatalf("Count = %d", h.Count())
	}
	if got := h.Mean(); got != 50500*time.Microsecond {
		t.Fatalf("Mean = %v", got)
	}
	if got := h.Percentile(50); !inBucketOf(got, 50*time.Millisecond) {
		t.Fatalf("p50 = %v", got)
	}
	if got := h.Percentile(99); !inBucketOf(got, 99*time.Millisecond) {
		t.Fatalf("p99 = %v", got)
	}
	if got := h.Max(); got != 100*time.Millisecond {
		t.Fatalf("Max = %v", got)
	}
	if got := h.Min(); got != 1*time.Millisecond {
		t.Fatalf("Min = %v", got)
	}
}

// Property: percentiles are monotone and bounded by min/max.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		h := NewHistogram()
		for _, v := range raw {
			h.Observe(time.Duration(v) * time.Microsecond)
		}
		last := time.Duration(-1)
		for _, p := range []float64{1, 25, 50, 75, 90, 99, 100} {
			v := h.Percentile(p)
			if v < last {
				return false
			}
			last = v
		}
		return h.Min() <= h.Percentile(50) && h.Percentile(50) <= h.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSeries(t *testing.T) {
	s := NewSeries("rtt")
	if s.Name() != "rtt" {
		t.Fatal("name")
	}
	if s.MaxV() != 0 {
		t.Fatal("empty MaxV should be 0")
	}
	s.AddAt(time.Second, 1.5)
	s.AddAt(2*time.Second, 3.0)
	s.AddAt(3*time.Second, 2.0)
	pts := s.Points()
	if len(pts) != 3 || pts[1].V != 3.0 || pts[1].T != 2*time.Second {
		t.Fatalf("points %+v", pts)
	}
	if s.MaxV() != 3.0 {
		t.Fatalf("MaxV = %f", s.MaxV())
	}
}

func TestTableFormatting(t *testing.T) {
	tab := NewTable("system", "rtt", "drops")
	tab.Row("free5GC", 63*time.Millisecond, 43)
	tab.Row("L25GC", 30*time.Millisecond, 0)
	out := tab.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("expected 4 lines, got %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "system") || !strings.Contains(lines[2], "free5GC") {
		t.Fatalf("layout wrong:\n%s", out)
	}
	// Columns align: the "rtt" column starts at the same offset everywhere.
	idx := strings.Index(lines[0], "rtt")
	if !strings.HasPrefix(lines[2][idx:], "63ms") || !strings.HasPrefix(lines[3][idx:], "30ms") {
		t.Fatalf("column misaligned:\n%s", out)
	}
}

func TestCounter(t *testing.T) {
	c := NewCounter("drops")
	if c.Load() != 0 || c.Name() != "drops" {
		t.Fatalf("fresh counter: %v", c)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
			c.Add(5)
		}()
	}
	wg.Wait()
	if c.Load() != 8*1000+8*5 {
		t.Fatalf("count = %d", c.Load())
	}
	if c.String() != "drops=8040" {
		t.Fatalf("String() = %q", c.String())
	}
}
