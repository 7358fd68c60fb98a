package telemetry

import (
	"encoding/json"
	"io"
	"runtime"
	"sync"
	"time"

	"l25gc/internal/metrics"
)

// Sample is one time-series point: every registered registry counter,
// the runtime resource levels, and every registered histogram (the
// watched stages among them), flattened into one name→value map.
// Histogram readings use derived suffixes (".count", ".p50_us",
// ".p99_us", ".mean_us") on their registered base names and describe the
// window since the previous sample; a histogram nothing was observed on
// in that window is left out.
type Sample struct {
	Seq    uint64             `json:"seq"`
	At     time.Duration      `json:"atNs"`
	Values map[string]float64 `json:"values"`
}

// SamplerConfig parameterizes the sampler.
type SamplerConfig struct {
	// Interval between automatic samples (wall time). <=0 disables the
	// sampling goroutine: SampleNow drives everything, which is how the
	// deterministic soak samples at op-schedule boundaries instead of
	// host-timer boundaries.
	Interval time.Duration
	// Capacity of the sample ring; old samples fall off. <=0 picks 4096.
	Capacity int
	// Clock stamps samples; nil anchors a monotonic clock at Start. The
	// core injects its trace clock here so samples and spans share a
	// timeline.
	Clock func() time.Duration
	// Registry is the snapshot source (nil skips registry values).
	Registry *metrics.Registry
}

// Built-in runtime probe names (registered in metrics.LintNames under
// "telemetry.*").
const (
	nameHeap      = "telemetry.heap_bytes"
	nameGoroutine = "telemetry.goroutines"
	nameGCPause   = "telemetry.gc_pause_total_ns"
	nameGCCount   = "telemetry.gc_cycles"
	stagePrefix   = "telemetry.stage."
)

// Sampler periodically snapshots the registry and the Go runtime into an
// append-only ring of samples. It runs
// one goroutine (only when Interval > 0) that stops with Stop — the
// core registers Stop in its closers, so the sampler never outlives the
// unit it observes.
type Sampler struct {
	cfg   SamplerConfig
	clock func() time.Duration

	mu   sync.Mutex
	ring []Sample
	seq  uint64
	prev map[string]*metrics.Window // per-histogram window baselines

	loopMu sync.Mutex
	stop   chan struct{}
	done   chan struct{}
}

// NewSampler creates a sampler.
func NewSampler(cfg SamplerConfig) *Sampler {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 4096
	}
	clock := cfg.Clock
	if clock == nil {
		base := time.Now()
		clock = func() time.Duration { return time.Since(base) }
	}
	return &Sampler{
		cfg:   cfg,
		clock: clock,
		prev:  make(map[string]*metrics.Window),
	}
}

// SampleNow takes one sample synchronously and returns it.
func (s *Sampler) SampleNow() Sample {
	if s == nil {
		return Sample{}
	}
	at := s.clock()
	vals := make(map[string]float64, 64)

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	vals[nameHeap] = float64(ms.HeapAlloc)
	vals[nameGoroutine] = float64(runtime.NumGoroutine())
	vals[nameGCPause] = float64(ms.PauseTotalNs)
	vals[nameGCCount] = float64(ms.NumGC)

	for name, v := range s.cfg.Registry.Counters() {
		vals[name] = float64(v)
	}

	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	s.mu.Lock()
	for name, h := range s.cfg.Registry.Histograms() {
		prev := s.prev[name]
		if prev == nil {
			prev = new(metrics.Window)
			s.prev[name] = prev
		}
		cur := h.Window()
		win := cur.Since(prev)
		*prev = cur
		if win.Count() == 0 {
			continue
		}
		vals[name+".count"] = float64(win.Count())
		vals[name+".p50_us"] = us(win.Percentile(50))
		vals[name+".p99_us"] = us(win.Percentile(99))
		vals[name+".mean_us"] = us(win.Mean())
	}
	smp := Sample{Seq: s.seq, At: at, Values: vals}
	s.seq++
	if len(s.ring) >= s.cfg.Capacity {
		n := copy(s.ring, s.ring[1:])
		s.ring = s.ring[:n]
	}
	s.ring = append(s.ring, smp)
	s.mu.Unlock()
	return smp
}

// Samples returns a chronological copy of the retained samples.
func (s *Sampler) Samples() []Sample {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Sample(nil), s.ring...)
}

// Last returns up to n most recent samples (chronological).
func (s *Sampler) Last(n int) []Sample {
	if s == nil || n <= 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if n > len(s.ring) {
		n = len(s.ring)
	}
	return append([]Sample(nil), s.ring[len(s.ring)-n:]...)
}

// Start launches the periodic sampling goroutine (no-op when Interval
// <= 0 or already started).
func (s *Sampler) Start() {
	if s == nil || s.cfg.Interval <= 0 {
		return
	}
	s.loopMu.Lock()
	defer s.loopMu.Unlock()
	if s.stop != nil {
		return
	}
	s.stop = make(chan struct{})
	s.done = make(chan struct{})
	go func(stop, done chan struct{}) {
		defer close(done)
		t := time.NewTicker(s.cfg.Interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				s.SampleNow()
			}
		}
	}(s.stop, s.done)
}

// Stop halts the sampling goroutine and waits for it. Idempotent,
// nil-safe, and a no-op when Start never ran.
func (s *Sampler) Stop() {
	if s == nil {
		return
	}
	s.loopMu.Lock()
	stop, done := s.stop, s.done
	s.stop, s.done = nil, nil
	s.loopMu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}

// WriteJSONL writes the retained samples as JSON Lines, one sample per
// line. Map keys marshal sorted, so the export is byte-stable for a
// given sample series.
func (s *Sampler) WriteJSONL(w io.Writer) error {
	for _, smp := range s.Samples() {
		b, err := json.Marshal(smp)
		if err != nil {
			return err
		}
		b = append(b, '\n')
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}
