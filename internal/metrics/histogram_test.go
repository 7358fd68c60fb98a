package metrics

import (
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"
)

// inBucketOf reports whether got is a valid reading of a sample equal to
// want: at most want, and less than one bucket (1/16) below it.
func inBucketOf(got, want time.Duration) bool {
	return got <= want && want-got <= want/16
}

// The bucket mapping is monotone and self-consistent: a value lies
// between its bucket's lower bound and the next bucket's, and indexes
// never decrease as values grow — up to the largest duration.
func TestBucketLayout(t *testing.T) {
	prev := -1
	for _, v := range []uint64{
		0, 1, 2, 15, 16, 17, 31, 32, 33, 100, 1000, 1500, 10_000, 123_000,
		1e6, 7e6, 1e9, 3600e9, 1<<62 - 1, 1 << 62, 1<<63 - 1,
	} {
		idx := bucketOf(v)
		if idx < prev || idx >= histBuckets {
			t.Fatalf("bucket index %d at %d (previous %d, buckets %d)", idx, v, prev, histBuckets)
		}
		prev = idx
		if lo, next := bucketLow(idx), bucketLow(idx+1); v < lo || v >= next {
			t.Fatalf("value %d outside bucket %d = [%d, %d)", v, idx, lo, next)
		}
	}
	// Below two sub-bucket spans every value has its own bucket.
	for v := uint64(0); v < 2*histSubBuckets; v++ {
		if got := bucketLow(bucketOf(v)); got != v {
			t.Fatalf("value %d: bucket lower bound %d, want exact", v, got)
		}
	}
}

// Percentiles of a known uniform distribution land in the bucket of the
// true order statistic (<= 6.25 % below it, never above); count, mean,
// min and max are exact.
func TestHistogramAccuracy(t *testing.T) {
	const n = 100_000
	h := NewHistogram()
	rng := rand.New(rand.NewSource(7))
	samples := make([]time.Duration, n)
	var sum time.Duration
	for i := range samples {
		samples[i] = time.Duration(rng.Int63n(int64(10 * time.Millisecond)))
		sum += samples[i]
		h.Observe(samples[i])
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] }) // the reference
	st := h.Stats()
	if st.Count != n || st.Min != samples[0] || st.Max != samples[n-1] || st.Mean != sum/n {
		t.Fatalf("count/min/max/mean not exact: %+v (want %d %v %v %v)",
			st, n, samples[0], samples[n-1], sum/n)
	}
	for _, tc := range []struct {
		got  time.Duration
		rank int
	}{{st.P50, n / 2}, {st.P90, n * 9 / 10}, {st.P99, n * 99 / 100}, {st.P999, n * 999 / 1000}} {
		if want := samples[tc.rank-1]; !inBucketOf(tc.got, want) {
			t.Errorf("rank %d = %v, want the bucket of %v", tc.rank, tc.got, want)
		}
	}
	// Below 32 ns there is no bucket error at all.
	small := NewHistogram()
	for v := time.Duration(0); v < 32; v++ {
		small.Observe(v)
	}
	for p, want := range map[float64]time.Duration{50: 15, 100: 31, 3.125: 0} {
		if got := small.Percentile(p); got != want {
			t.Errorf("small p%v = %d, want exactly %d", p, got, want)
		}
	}
}

func TestHistogramEdgeCases(t *testing.T) {
	var h Histogram // the zero value is usable
	if w := h.Window(); w.Count() != 0 || w.Percentile(50) != 0 || w.Min() != 0 || w.Max() != 0 || w.Mean() != 0 {
		t.Fatal("empty window must read all zeros")
	}
	h.Observe(42 * time.Microsecond)
	if lo, hi := h.Percentile(0.0001), h.Percentile(100); lo != 42*time.Microsecond || hi != lo {
		t.Fatalf("single observation: p0.0001=%v p100=%v, want 42µs both", lo, hi)
	}
	h.Observe(-time.Second) // negative counts as zero, must not panic
	if h.Count() != 2 || h.Min() != 0 {
		t.Fatalf("after negative observe: count %d min %v, want 2 and 0", h.Count(), h.Min())
	}
	h.Observe(1<<63 - 1)
	if h.Max() != 1<<63-1 {
		t.Fatalf("largest duration: max %v", h.Max())
	}
}

func TestCountAbove(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	// 40ms..100ms lie in buckets wholly above 36ms's bucket [35.6, 37.7).
	if got := h.CountAbove(36 * time.Millisecond); got != 100-37 {
		t.Fatalf("CountAbove(36ms) = %d, want 63", got)
	}
	if got := h.CountAbove(time.Second); got != 0 {
		t.Fatalf("CountAbove(1s) = %d, want 0", got)
	}
	if got := h.CountAbove(-1); got != 100 {
		t.Fatalf("CountAbove(-1) = %d, want 100", got)
	}
}

// A window between two copies holds only what was observed in between,
// with its own mean and bucket-resolution extremes.
func TestWindowSince(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 100; i++ {
		h.Observe(time.Millisecond)
	}
	base := h.Window()
	for i := 0; i < 50; i++ {
		h.Observe(time.Second)
	}
	cur := h.Window()
	win := cur.Since(&base)
	if win.Count() != 50 || win.Mean() != time.Second || win.Max() != time.Second {
		t.Fatalf("window count %d mean %v max %v, want 50, 1s, 1s", win.Count(), win.Mean(), win.Max())
	}
	// Everything in the window is 1s; even the p1 and the min must be
	// far above the 1ms observations that preceded it.
	if q, m := win.Percentile(1), win.Min(); !inBucketOf(q, time.Second) || !inBucketOf(m, time.Second) {
		t.Fatalf("window p1 %v min %v contaminated by pre-window observations", q, m)
	}
	if all := cur.Since(&Window{}); all.Count() != 150 {
		t.Fatalf("window since the empty window holds %d, want everything", all.Count())
	}
	if empty := cur.Since(&cur); empty.Count() != 0 || empty.Percentile(99) != 0 {
		t.Fatal("a window since itself must be empty")
	}
}

// Consecutive windows taken while writers run partition the stream: no
// observation is lost and none is counted twice.
func TestWindowSinceUnderWriters(t *testing.T) {
	h := NewHistogram()
	const writers, per = 4, 50_000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(rng.Int63n(int64(time.Millisecond))))
			}
		}(int64(w))
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	var prev Window
	total := 0
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		cur := h.Window()
		win := cur.Since(&prev)
		total += win.Count()
		prev = cur
	}
	if total != writers*per || h.Count() != total {
		t.Fatalf("windows summed to %d, histogram holds %d, observed %d", total, h.Count(), writers*per)
	}
}

// The histogram is fixed-size: observing allocates nothing, and a
// million observations leave the heap where it was.
func TestHistogramBounded(t *testing.T) {
	h := NewHistogram()
	if n := testing.AllocsPerRun(1000, func() { h.Observe(123 * time.Microsecond) }); n != 0 {
		t.Fatalf("Observe allocates %v per call, want 0", n)
	}
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	for i := 0; i < 1_000_000; i++ {
		h.Observe(time.Duration(i) * time.Nanosecond)
	}
	if after := heap(); after > before+64<<10 {
		t.Fatalf("heap grew %d bytes over 1e6 observations", after-before)
	}
}
