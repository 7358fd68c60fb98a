package metrics

import (
	"sort"
	"sync"
)

// Registry centralizes the counters and histograms that were previously
// scattered across components (ONVM ring-overflow drops, PFCP
// retransmits, SBI circuit-breaker state, UPF buffer depth) behind one
// snapshot/reset surface. Components export into it through their
// ExportMetrics methods; the harness reads one Snapshot.
//
// Values are registered as reader functions, so a component keeps its own
// cheap atomics on the hot path and the registry only pays at snapshot
// time. Several readers may share one name (the core wires three UDM
// connections under "sbi.udm.*"); their values sum. Reset records the
// current readings (counter values, histogram windows) as a baseline and
// later snapshots report the delta, so sources need no writable reset
// hook.
//
// A nil *Registry is a valid no-op at every method, letting components
// call ExportMetrics unconditionally.
type Registry struct {
	mu       sync.Mutex
	counters map[string][]func() uint64
	base     map[string]uint64
	hists    map[string]*Histogram
	histBase map[string]*Window
	owned    map[string]*Counter
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string][]func() uint64),
		base:     make(map[string]uint64),
		hists:    make(map[string]*Histogram),
		histBase: make(map[string]*Window),
		owned:    make(map[string]*Counter),
	}
}

// RegisterGauge registers a reader under name. Multiple readers under one
// name sum in snapshots.
func (r *Registry) RegisterGauge(name string, load func() uint64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counters[name] = append(r.counters[name], load)
	r.mu.Unlock()
}

// RegisterCounter registers an existing counter under its own name.
func (r *Registry) RegisterCounter(c *Counter) {
	if r == nil || c == nil {
		return
	}
	r.RegisterGauge(c.Name(), c.Load)
}

// Counter returns the registry-owned counter with the given name,
// creating and registering it on first use. With a nil registry it
// returns a detached counter, so call sites need no nil checks.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return NewCounter(name)
	}
	r.mu.Lock()
	c := r.owned[name]
	if c == nil {
		c = NewCounter(name)
		r.owned[name] = c
		r.counters[name] = append(r.counters[name], c.Load)
	}
	r.mu.Unlock()
	return c
}

// RegisterHistogram registers h under name (last registration wins).
func (r *Registry) RegisterHistogram(name string, h *Histogram) {
	if r == nil || h == nil {
		return
	}
	r.mu.Lock()
	r.hists[name] = h
	r.mu.Unlock()
}

// Histogram returns the registered histogram with the given name,
// creating one on first use. With a nil registry it returns a detached
// histogram.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return NewHistogram()
	}
	r.mu.Lock()
	h := r.hists[name]
	if h == nil {
		h = NewHistogram()
		r.hists[name] = h
	}
	r.mu.Unlock()
	return h
}

// Snapshot is a point-in-time reading of every registered metric.
type Snapshot struct {
	Counters   map[string]uint64
	Histograms map[string]HistStats
}

// Snapshot reads every registered counter/gauge (summing shared names and
// subtracting the Reset baseline) and summarizes every histogram.
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{
		Counters:   make(map[string]uint64),
		Histograms: make(map[string]HistStats),
	}
	if r == nil {
		return snap
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.readCounters(snap.Counters)
	for name, h := range r.hists {
		w := h.Window()
		if base := r.histBase[name]; base != nil {
			w = w.Since(base)
		}
		snap.Histograms[name] = w.Stats()
	}
	return snap
}

// Counters reads every registered counter/gauge like Snapshot, without
// summarizing the histograms: for readers that take their own histogram
// windows (the telemetry sampler).
func (r *Registry) Counters() map[string]uint64 {
	out := make(map[string]uint64)
	if r == nil {
		return out
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.readCounters(out)
	return out
}

// readCounters stores every counter's value, shared names summed and the
// Reset baseline subtracted, in dst. The caller holds r.mu.
func (r *Registry) readCounters(dst map[string]uint64) {
	for name, loads := range r.counters {
		var v uint64
		for _, load := range loads {
			v += load()
		}
		if base := r.base[name]; v >= base {
			v -= base
		}
		dst[name] = v
	}
}

// Histograms returns the registered histograms by name, for readers that
// take their own windows (the telemetry sampler's per-tick deltas).
func (r *Registry) Histograms() map[string]*Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]*Histogram, len(r.hists))
	for name, h := range r.hists {
		out[name] = h
	}
	return out
}

// Names returns every registered metric name, sorted.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.counters)+len(r.hists))
	for n := range r.counters {
		names = append(names, n)
	}
	for n := range r.hists {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Reset zeroes the registry's view: counter/gauge readings and histogram
// windows become the new baseline. Component-side atomics are not
// touched, so concurrent hot paths never observe a reset.
func (r *Registry) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, loads := range r.counters {
		var v uint64
		for _, load := range loads {
			v += load()
		}
		r.base[name] = v
	}
	for name, h := range r.hists {
		w := h.Window()
		r.histBase[name] = &w
	}
}

// Table renders the counter part of a snapshot as a sorted two-column
// table, for the harness's summary output.
func (s Snapshot) Table() *Table {
	tab := NewTable("metric", "value")
	names := make([]string, 0, len(s.Counters))
	for n := range s.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		tab.Row(n, s.Counters[n])
	}
	return tab
}
