// Package metrics provides the measurement utilities used by the
// evaluation harness: latency histograms with percentiles, time-series
// recorders for RTT-over-time plots, and fixed-width table printing that
// mirrors the rows the paper reports.
package metrics

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a named monotonic counter, safe for concurrent use. The data
// planes export their drop/overflow counts through Counters so the chaos
// suite and the benches read one consistent surface.
type Counter struct {
	name string
	v    atomic.Uint64
}

// NewCounter creates a counter.
func NewCounter(name string) *Counter { return &Counter{name: name} }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Name returns the counter's label.
func (c *Counter) Name() string { return c.name }

// String renders "name=value".
func (c *Counter) String() string {
	return fmt.Sprintf("%s=%d", c.name, c.v.Load())
}

// Histogram is the repository's one latency-distribution type: a fixed
// array of log-spaced buckets (16 per octave) plus a running sum and the
// extremes. Observe is lock-free and allocation-free — safe on span and
// admission hot paths — and the structure never grows, so a long-lived
// core can observe forever. Count, Mean, Min and Max are exact;
// percentiles and CountAbove carry the bucket resolution: values below
// 32 ns are exact, above that a reported percentile is the lower bound
// of the sample's bucket, at most 1/16 (6.25 %) under the sample.
//
// The zero value is an empty histogram.
type Histogram struct {
	counts [histBuckets]atomic.Uint64
	sum    atomic.Uint64 // nanoseconds
	// minP1 holds min+1 so that zero means "no sample yet".
	minP1 atomic.Uint64
	max   atomic.Uint64
}

// Bucket layout: values below 2^histSubBits map 1:1; above, each octave
// splits into 2^histSubBits sub-buckets, so the index is monotone in the
// value and a bucket's bounds are recoverable from the index alone.
// Samples are non-negative int64s, so the largest exponent is 62 and the
// last index (62-4)*16+31.
const (
	histSubBits    = 4
	histSubBuckets = 1 << histSubBits
	histBuckets    = (64 - histSubBits) * histSubBuckets
)

// bucketOf maps a nanosecond count to its bucket index.
func bucketOf(v uint64) int {
	if v < histSubBuckets {
		return int(v)
	}
	exp := bits.Len64(v) - 1
	return (exp-histSubBits)*histSubBuckets + int(v>>(uint(exp)-histSubBits))
}

// bucketLow returns the smallest value bucket idx holds; bucketLow(idx+1)-1
// is the largest.
func bucketLow(idx int) uint64 {
	if idx < 2*histSubBuckets {
		return uint64(idx)
	}
	block := idx >> histSubBits
	sub := idx & (histSubBuckets - 1)
	return uint64(histSubBuckets|sub) << uint(block-1)
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// Observe records one sample; negative durations count as zero.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	v := uint64(d)
	// Extremes first, bucket second, sum last; Window reads in the
	// opposite order, so every sample a window counts is inside the
	// extremes it carries and the sum never runs ahead of the buckets.
	for cur := h.minP1.Load(); cur == 0 || v+1 < cur; cur = h.minP1.Load() {
		if h.minP1.CompareAndSwap(cur, v+1) {
			break
		}
	}
	for cur := h.max.Load(); v > cur; cur = h.max.Load() {
		if h.max.CompareAndSwap(cur, v) {
			break
		}
	}
	h.counts[bucketOf(v)].Add(1)
	h.sum.Add(v)
}

// Window is a set of observations of one histogram: everything up to an
// instant (Histogram.Window) or everything between two instants (Since).
// Readers that need several figures take one Window and query it, so
// every figure describes the same population while writers keep
// observing.
type Window struct {
	counts [histBuckets]uint64
	n      uint64 // total of counts
	sum    uint64
	// The histogram's lifetime extremes when the window was taken. They
	// bound every sample in the window, which makes Min and Max exact on
	// an unsubtracted window and pins single-sample percentiles to the
	// sample itself.
	lo, hi uint64
}

// Window copies the histogram's current state.
func (h *Histogram) Window() Window {
	var w Window
	w.sum = h.sum.Load()
	for i := range h.counts {
		w.counts[i] = h.counts[i].Load()
		w.n += w.counts[i]
	}
	if m := h.minP1.Load(); m > 0 {
		w.lo = m - 1
	}
	w.hi = h.max.Load()
	return w
}

// Since returns the observations in w that are not in prev, an earlier
// window of the same histogram. This is how periodic readers (the
// telemetry sampler, the overload controller's tick, Registry.Reset)
// get per-interval figures without ever writing to the histogram.
func (w *Window) Since(prev *Window) Window {
	out := Window{lo: w.lo, hi: w.hi}
	for i := range w.counts {
		if w.counts[i] >= prev.counts[i] {
			out.counts[i] = w.counts[i] - prev.counts[i]
			out.n += out.counts[i]
		}
	}
	if w.sum >= prev.sum {
		out.sum = w.sum - prev.sum
	}
	return out
}

// Count returns the number of observations in the window.
func (w *Window) Count() int { return int(w.n) }

// clamp pins v into the window's extremes.
func (w *Window) clamp(v uint64) time.Duration {
	if v < w.lo {
		v = w.lo
	}
	if v > w.hi {
		v = w.hi
	}
	return time.Duration(v)
}

// Min returns the smallest observation (0 when empty): exact on an
// unsubtracted window, at bucket resolution after Since.
func (w *Window) Min() time.Duration {
	for i, c := range w.counts {
		if c > 0 {
			return w.clamp(bucketLow(i))
		}
	}
	return 0
}

// Max returns the largest observation (0 when empty): exact on an
// unsubtracted window, at bucket resolution after Since.
func (w *Window) Max() time.Duration {
	for i := len(w.counts) - 1; i >= 0; i-- {
		if w.counts[i] > 0 {
			return w.clamp(bucketLow(i+1) - 1)
		}
	}
	return 0
}

// Mean returns the arithmetic mean (0 when empty). With writers active
// the sum may trail the bucket copy by the observations in flight, so
// the result is pinned into [Min, Max].
func (w *Window) Mean() time.Duration {
	if w.n == 0 {
		return 0
	}
	m := time.Duration(w.sum / w.n)
	if lo := w.Min(); m < lo {
		return lo
	}
	if hi := w.Max(); m > hi {
		return hi
	}
	return m
}

// Percentile returns the p-th percentile (0 < p <= 100) by nearest rank:
// the lower bound of the bucket holding that rank, pinned into the
// extremes (so never outside [Min, Max]). 0 when empty.
func (w *Window) Percentile(p float64) time.Duration {
	if w.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(p / 100 * float64(w.n)))
	if rank < 1 {
		rank = 1
	}
	if rank > w.n {
		rank = w.n
	}
	var seen uint64
	for i, c := range w.counts {
		seen += c
		if seen >= rank {
			return w.clamp(bucketLow(i))
		}
	}
	return time.Duration(w.hi)
}

// CountAbove returns the number of observations in buckets wholly above
// d's bucket — samples greater than d, short of those sharing its
// bucket.
func (w *Window) CountAbove(d time.Duration) int {
	if d < 0 {
		return w.Count()
	}
	var n uint64
	for _, c := range w.counts[bucketOf(uint64(d))+1:] {
		n += c
	}
	return int(n)
}

// HistStats is a distribution summary; every field of one HistStats
// describes the same Window.
type HistStats struct {
	Count                     int
	Mean, P50, P90, P99, P999 time.Duration
	Min, Max                  time.Duration
}

// Stats summarizes the window.
func (w *Window) Stats() HistStats {
	st := HistStats{Count: w.Count()}
	if st.Count == 0 {
		return st
	}
	st.Min, st.Max, st.Mean = w.Min(), w.Max(), w.Mean()
	st.P50, st.P90 = w.Percentile(50), w.Percentile(90)
	st.P99, st.P999 = w.Percentile(99), w.Percentile(99.9)
	return st
}

// The methods below read one figure over everything observed so far.
// Each takes its own Window; use Stats (or one Window) for several.

// Count returns the number of samples.
func (h *Histogram) Count() int { w := h.Window(); return w.Count() }

// Mean returns the arithmetic mean, or 0 with no samples.
func (h *Histogram) Mean() time.Duration { w := h.Window(); return w.Mean() }

// Min returns the smallest sample (0 with no samples).
func (h *Histogram) Min() time.Duration { w := h.Window(); return w.Min() }

// Max returns the largest sample (0 with no samples).
func (h *Histogram) Max() time.Duration { w := h.Window(); return w.Max() }

// Percentile returns the p-th percentile (0 < p <= 100).
func (h *Histogram) Percentile(p float64) time.Duration { w := h.Window(); return w.Percentile(p) }

// CountAbove returns the number of samples above d, at bucket resolution.
func (h *Histogram) CountAbove(d time.Duration) int { w := h.Window(); return w.CountAbove(d) }

// Stats summarizes everything observed so far from one Window.
func (h *Histogram) Stats() HistStats { w := h.Window(); return w.Stats() }

// Point is one time-series sample.
type Point struct {
	T time.Duration // offset from series start
	V float64
}

// Series is an append-only time series (RTT over time, cwnd over time...).
type Series struct {
	mu     sync.Mutex
	name   string
	start  time.Time
	sim    bool // simulated-time series: offsets come from AddAt only
	points []Point
}

// NewSeries creates a wall-clock series anchored at now; Add stamps
// samples with the offset since creation.
func NewSeries(name string) *Series {
	return &Series{name: name, start: time.Now()}
}

// NewSeriesSim creates a simulated-time series: it takes no wall-clock
// anchor, samples are stamped exclusively through AddAt with offsets from
// the simulation clock. Add panics on such a series — mixing the host
// clock into a netsim timeline is always a bug.
func NewSeriesSim(name string) *Series {
	return &Series{name: name, sim: true}
}

// Add records v at the current wall-clock instant.
func (s *Series) Add(v float64) {
	if s.sim {
		panic("metrics: wall-clock Add on simulated-time series " + s.name)
	}
	s.AddAt(time.Since(s.start), v)
}

// AddAt records v at a specific offset (for simulated time).
func (s *Series) AddAt(t time.Duration, v float64) {
	s.mu.Lock()
	s.points = append(s.points, Point{T: t, V: v})
	s.mu.Unlock()
}

// Points returns a copy of the samples.
func (s *Series) Points() []Point {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Point(nil), s.points...)
}

// Name returns the series label.
func (s *Series) Name() string { return s.name }

// MaxV returns the largest value in the series.
func (s *Series) MaxV() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := math.Inf(-1)
	for _, p := range s.points {
		if p.V > m {
			m = p.V
		}
	}
	if math.IsInf(m, -1) {
		return 0
	}
	return m
}

// Table prints aligned rows, the way the harness reproduces the paper's
// tables.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{header: header} }

// Row appends a row; values are formatted with %v.
func (t *Table) Row(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		case time.Duration:
			// Keep two extra digits below the leading unit so sub-µs
			// transport costs stay visible in the tables.
			switch {
			case v >= time.Millisecond:
				row[i] = v.Round(10 * time.Microsecond).String()
			case v >= time.Microsecond:
				row[i] = v.Round(10 * time.Nanosecond).String()
			default:
				row[i] = v.String()
			}
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.rows = append(t.rows, row)
}

// Write renders the table.
func (t *Table) Write(w io.Writer) {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.Join(parts, "  "))
	}
	line(t.header)
	seps := make([]string, len(t.header))
	for i := range seps {
		seps[i] = strings.Repeat("-", widths[i])
	}
	line(seps)
	for _, r := range t.rows {
		line(r)
	}
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.Write(&b)
	return b.String()
}
