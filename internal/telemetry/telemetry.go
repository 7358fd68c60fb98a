// Package telemetry is the continuous observability pipeline over the
// single-point-in-time surfaces the tree already has: a time-series
// sampler that snapshots metrics.Registry and the Go runtime into an
// append-only ring (JSONL export), latency histograms over watched
// trace stages, and an always-on flight recorder — a fixed-size
// lock-free ring of recent spans and fault/overload/failover events,
// dumped automatically when the supervisor promotes a replica or the
// overload layer enters recovery mode, and on demand.
//
// The pipeline attaches to the rest of the system through two seams:
// trace.Tracer's SpanObserver hook (spans and events flow in as they
// close, with no second instrumentation layer) and metrics.Registry
// (every registered gauge becomes a time series for free). The core
// wires both in Config.Telemetry; nothing else knows the pipeline
// exists.
package telemetry

import (
	"sync"
	"sync/atomic"
	"time"

	"l25gc/internal/metrics"
	"l25gc/internal/trace"
)

// Config parameterizes a Pipeline.
type Config struct {
	// SampleInterval is the wall-time sampling period; <=0 means manual
	// sampling only (SampleNow), the deterministic-soak mode.
	SampleInterval time.Duration
	// SampleCapacity bounds the sample ring (default 4096).
	SampleCapacity int
	// FlightCapacity bounds the flight-recorder ring (default 4096).
	FlightCapacity int
	// WatchStages lists span names to observe into histograms registered
	// as "telemetry.stage.<name>"; each shows up in the samples like any
	// other registered histogram.
	WatchStages []string
	// Clock stamps samples and dumps; nil anchors a monotonic clock at
	// construction. Inject the trace clock so all three timelines agree.
	Clock func() time.Duration
	// DumpSamples is how many trailing samples ride along in a dump
	// (default 64).
	DumpSamples int
	// OnDump, when non-nil, observes every dump as it is taken (the CLI
	// uses it to write dump files; tests to assert on triggers).
	OnDump func(*Dump)
}

// Pipeline bundles the sampler, the flight recorder and the dump
// triggers. A nil *Pipeline is a valid disabled pipeline at every
// method, matching the registry/tracer idiom.
type Pipeline struct {
	cfg     Config
	clock   func() time.Duration
	Flight  *FlightRecorder
	Sampler *Sampler
	stages  map[string]*metrics.Histogram // watched span name -> durations

	tracer atomic.Pointer[trace.Tracer]
	dumps  atomic.Uint64

	dumpMu   sync.Mutex
	lastDump *Dump
}

// New builds a pipeline. Call Bind to attach it to a tracer and a
// registry, Start/Stop around the observed run.
func New(cfg Config) *Pipeline {
	if cfg.DumpSamples <= 0 {
		cfg.DumpSamples = 64
	}
	clock := cfg.Clock
	if clock == nil {
		base := time.Now()
		clock = func() time.Duration { return time.Since(base) }
	}
	p := &Pipeline{
		cfg:    cfg,
		clock:  clock,
		Flight: NewFlightRecorder(cfg.FlightCapacity),
		stages: make(map[string]*metrics.Histogram, len(cfg.WatchStages)),
	}
	for _, name := range cfg.WatchStages {
		p.stages[name] = metrics.NewHistogram()
	}
	p.Sampler = NewSampler(SamplerConfig{
		Interval: cfg.SampleInterval,
		Capacity: cfg.SampleCapacity,
		Clock:    clock,
	})
	return p
}

// Bind attaches the pipeline: it becomes tr's span observer (spans and
// events stream into the flight ring and the watched-stage histograms)
// and reg becomes the sampler's snapshot source — a private registry
// when the unit runs without one. The stage histograms and the dump
// counter register there, so both show up in the sample series.
func (p *Pipeline) Bind(tr *trace.Tracer, reg *metrics.Registry) {
	if p == nil {
		return
	}
	if tr != nil {
		p.tracer.Store(tr)
		tr.SetObserver(p)
	}
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	p.Sampler.cfg.Registry = reg
	reg.RegisterGauge("telemetry.dumps", p.dumps.Load)
	reg.RegisterGauge("telemetry.flight_recorded", p.Flight.Recorded)
	for name, h := range p.stages {
		reg.RegisterHistogram(stagePrefix+name, h)
	}
}

// Start launches the periodic sampler (no-op with SampleInterval <= 0).
func (p *Pipeline) Start() {
	if p == nil {
		return
	}
	p.Sampler.Start()
}

// Stop halts the sampler goroutine and detaches the span observer. The
// core registers this in its closers, so the pipeline's goroutine stops
// with the unit.
func (p *Pipeline) Stop() {
	if p == nil {
		return
	}
	p.Sampler.Stop()
	if tr := p.tracer.Swap(nil); tr != nil {
		tr.SetObserver(nil)
	}
}

// ObserveSpan implements trace.SpanObserver: every closed span lands in
// the flight ring, and watched stages feed their histogram.
// Allocation-free.
func (p *Pipeline) ObserveSpan(track, name string, start, end time.Duration) {
	p.Flight.RecordSpan(track, name, start, end)
	if h := p.stages[name]; h != nil {
		h.Observe(end - start)
	}
}

// ObserveEvent implements trace.SpanObserver.
func (p *Pipeline) ObserveEvent(track, name string, at time.Duration) {
	p.Flight.RecordEvent(track, name, at)
}

// DumpNow snapshots the flight ring plus the trailing samples under the
// given reason, retains it as LastDump, and hands it to OnDump. A
// "flight.dump" marker event is recorded first, so the dump (and any
// later one) shows its own trigger in the timeline.
func (p *Pipeline) DumpNow(reason string) *Dump {
	if p == nil {
		return nil
	}
	at := p.clock()
	if tr := p.tracer.Load(); tr != nil {
		tr.Event("telemetry", "flight.dump", "reason", reason)
	} else {
		p.Flight.RecordEvent("telemetry", "flight.dump", at)
	}
	d := &Dump{
		Reason:  reason,
		At:      at,
		Events:  p.Flight.Events(),
		Samples: p.Sampler.Last(p.cfg.DumpSamples),
	}
	p.dumps.Add(1)
	p.dumpMu.Lock()
	p.lastDump = d
	p.dumpMu.Unlock()
	if p.cfg.OnDump != nil {
		p.cfg.OnDump(d)
	}
	return d
}

// LastDump returns the most recent dump (nil before the first).
func (p *Pipeline) LastDump() *Dump {
	if p == nil {
		return nil
	}
	p.dumpMu.Lock()
	defer p.dumpMu.Unlock()
	return p.lastDump
}

// Dumps reports how many dumps have been taken.
func (p *Pipeline) Dumps() uint64 {
	if p == nil {
		return 0
	}
	return p.dumps.Load()
}

// SampleNow takes one sample synchronously (the deterministic-soak
// driver). Nil-safe.
func (p *Pipeline) SampleNow() Sample {
	if p == nil {
		return Sample{}
	}
	return p.Sampler.SampleNow()
}
