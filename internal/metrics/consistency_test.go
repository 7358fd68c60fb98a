package metrics

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The summary quantiles must agree with the nearest-rank definition, to
// within the bucket the rank falls in, on a known distribution:
// 1..1000µs, inserted shuffled.
func TestHistogramStatsQuantiles(t *testing.T) {
	h := NewHistogram()
	rng := rand.New(rand.NewSource(11))
	for _, i := range rng.Perm(1000) {
		h.Observe(time.Duration(i+1) * time.Microsecond)
	}
	st := h.Stats()
	for _, tc := range []struct {
		name string
		got  time.Duration
		want time.Duration
	}{
		{"P50", st.P50, 500 * time.Microsecond},
		{"P90", st.P90, 900 * time.Microsecond},
		{"P99", st.P99, 990 * time.Microsecond},
		// Nearest-rank over binary floats: 99.9/100*1000 lands a hair
		// above 999, and the ceil takes the last sample.
		{"P999", st.P999, 1000 * time.Microsecond},
	} {
		if !inBucketOf(tc.got, tc.want) {
			t.Errorf("%s = %v, want the bucket of %v", tc.name, tc.got, tc.want)
		}
	}
	if st.P50 > st.P90 || st.P90 > st.P99 || st.P99 > st.P999 {
		t.Error("quantiles not monotone")
	}
	if st.Count != 1000 || st.Min != time.Microsecond || st.Max != time.Millisecond ||
		st.Mean != 500500*time.Nanosecond {
		t.Errorf("count/min/max/mean must be exact: %+v", st)
	}

	// A single observation answers every quantile identically, exactly.
	one := NewHistogram()
	one.Observe(7 * time.Millisecond)
	if st := one.Stats(); st.P50 != 7*time.Millisecond || st.P999 != 7*time.Millisecond {
		t.Errorf("single-sample quantiles: p50=%v p999=%v, want 7ms both", st.P50, st.P999)
	}

	// Empty histograms answer zero, not panic.
	empty := NewHistogram()
	if st := empty.Stats(); st.P50 != 0 || st.P999 != 0 {
		t.Error("empty histogram quantiles must be 0")
	}
}

// Stats must describe one population: every summary taken while writers
// hammer the histogram has to be internally ordered (min <= p50 <= p90
// <= p99 <= p999 <= max) with a count covering all of them. Stringing
// Count()/Percentile() calls together would fail this.
func TestHistogramStatsConsistentUnderWriters(t *testing.T) {
	h := NewHistogram()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				h.Observe(time.Duration(rng.Int63n(int64(time.Millisecond))))
			}
		}(int64(w))
	}
	deadline := time.Now().Add(200 * time.Millisecond)
	prevCount := 0
	for time.Now().Before(deadline) {
		st := h.Stats()
		if st.Count < prevCount {
			t.Fatalf("count went backwards: %d -> %d", prevCount, st.Count)
		}
		prevCount = st.Count
		if st.Count == 0 {
			continue
		}
		if st.Min > st.P50 || st.P50 > st.P90 || st.P90 > st.P99 ||
			st.P99 > st.P999 || st.P999 > st.Max {
			t.Fatalf("torn summary: %+v", st)
		}
		if st.Mean < st.Min || st.Mean > st.Max {
			t.Fatalf("mean %v outside [min %v, max %v]", st.Mean, st.Min, st.Max)
		}
	}
	close(stop)
	wg.Wait()
}

// Snapshot and Reset racing live writers must stay safe (this test runs
// under -race in the tier-1 gate) and deliver consistent readings:
// counter values never exceed what writers have published, and once the
// writers stop, a Reset followed by known increments reads back exactly.
func TestRegistrySnapshotResetRace(t *testing.T) {
	r := NewRegistry()
	var published atomic.Uint64
	c := r.Counter("race.counter")
	h := r.Histogram("race.latency")
	var hot atomic.Uint64
	r.RegisterGauge("race.gauge", hot.Load)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				published.Add(1)
				c.Add(1)
				hot.Add(1)
				h.Observe(time.Microsecond)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%16 == 0 {
				r.Reset()
			}
			snap := r.Snapshot()
			// The snapshot ran after `published` was read below it, so a
			// post-reset counter can never exceed everything published.
			if got := snap.Counters["race.counter"]; got > published.Load() {
				t.Errorf("snapshot counter %d > published %d", got, published.Load())
				return
			}
			if st, ok := snap.Histograms["race.latency"]; ok && st.Count > 0 && st.P99 != time.Microsecond {
				t.Errorf("histogram p99 %v, want 1µs (uniform input)", st.P99)
				return
			}
		}
	}()
	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()

	// Quiescent epilogue: exact accounting after a reset.
	r.Reset()
	c.Add(5)
	hot.Add(3)
	h.Observe(2 * time.Millisecond)
	snap := r.Snapshot()
	if got := snap.Counters["race.counter"]; got != 5 {
		t.Errorf("post-reset counter = %d, want 5", got)
	}
	if got := snap.Counters["race.gauge"]; got != 3 {
		t.Errorf("post-reset gauge delta = %d, want 3", got)
	}
	if st := snap.Histograms["race.latency"]; st.Count != 1 || !inBucketOf(st.P50, 2*time.Millisecond) {
		t.Errorf("post-reset histogram = %+v, want single 2ms sample", st)
	}
}
