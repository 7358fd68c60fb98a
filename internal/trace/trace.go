// Package trace is the span tracer behind the repository's latency
// attribution story: control-plane procedures (NAS registration, PFCP
// session management, NGAP handover, paging) and data-plane packet stages
// (ONVM descriptor switching, kernel-path encode/syscall/decode, UPF
// classification and buffering) open named spans on named tracks, and the
// exporter renders them as Chrome trace-event JSON (loadable in Perfetto
// or chrome://tracing) or as a fixed-width stage-breakdown table.
//
// The design center is cost when disabled: every entry point is nil-safe,
// so instrumented components hold an atomic pointer to a Track and the
// whole instrumentation collapses to one atomic load and a branch per
// stage when no tracer is installed. When enabled, spans append to a
// preallocated record slice under one mutex — no per-span allocation in
// steady state, no timers, no goroutines.
//
// Timestamps are monotonic offsets from tracer creation: the wall-clock
// tracer anchors once and uses time.Since (which reads the monotonic
// clock), and NewWithClock accepts any offset source, letting netsim-driven
// experiments trace in simulated time without mixing clock domains.
package trace

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"l25gc/internal/metrics"
)

// maxAttrs bounds per-span attributes; spans stay fixed-size records.
const maxAttrs = 4

// attr is one span attribute.
type attr struct {
	k, v string
}

// spanRec is the stored form of one span. Records live in the tracer's
// slice; Span handles index into it.
type spanRec struct {
	track  string
	name   string
	parent int32 // index of parent span, -1 for roots
	start  time.Duration
	end    time.Duration // 0 while open (start==0 spans close with end set)
	done   bool
	nattrs int8
	attrs  [maxAttrs]attr
}

// eventRec is one instant event on a track's timeline.
type eventRec struct {
	track  string
	name   string
	at     time.Duration
	nattrs int8
	attrs  [maxAttrs]attr
}

// SpanObserver receives completed spans and instant events as they
// close. The telemetry flight recorder and quantile sketches hang off
// this hook, so a tracer can feed a continuous pipeline without anyone
// walking its retained records. Implementations are called on the hot
// path (under no tracer lock) and must be cheap and allocation-free.
type SpanObserver interface {
	ObserveSpan(track, name string, start, end time.Duration)
	ObserveEvent(track, name string, at time.Duration)
}

// observerBox wraps the observer so the tracer can publish it through
// one atomic pointer (interface values cannot be stored atomically).
type observerBox struct{ o SpanObserver }

// Tracer collects spans and instant events. A nil *Tracer is a valid
// disabled tracer at every entry point.
type Tracer struct {
	clock func() time.Duration

	// streaming tracers do not retain records: spans/events flow to the
	// observer only, so an always-on soak can trace for minutes without
	// growing memory. Set at construction, read on every span path.
	streaming bool

	obs atomic.Pointer[observerBox]

	mu     sync.Mutex
	gen    uint32 // bumped by Reset; a Span from an older generation is inert
	spans  []spanRec
	events []eventRec
}

// initialSpanCap preallocates the record slices so tracing a procedure
// does not allocate per span.
const initialSpanCap = 4096

// New returns a tracer using the wall clock, anchored at the call.
// time.Since reads Go's monotonic clock, so spans are immune to wall-time
// adjustments.
func New() *Tracer {
	base := time.Now()
	return NewWithClock(func() time.Duration { return time.Since(base) })
}

// NewWithClock returns a tracer reading timestamps from now — typically a
// netsim (*Sim).Now for simulated-time experiments.
func NewWithClock(now func() time.Duration) *Tracer {
	return &Tracer{
		clock:  now,
		spans:  make([]spanRec, 0, initialSpanCap),
		events: make([]eventRec, 0, initialSpanCap/4),
	}
}

// NewStreaming returns a tracer that retains nothing: every closed span
// and instant event goes to the installed SpanObserver and is then
// forgotten. Memory stays constant no matter how long the run, which is
// what a minutes-long soak needs from an always-on tracer. Breakdown and
// WriteChrome see no records on a streaming tracer; per-span Attr values
// are dropped (observer records are fixed-size).
func NewStreaming(now func() time.Duration) *Tracer {
	return &Tracer{clock: now, streaming: true}
}

// SetObserver installs (or, with nil, removes) the observer fed by every
// span End and instant event. Safe to call concurrently with tracing.
func (t *Tracer) SetObserver(o SpanObserver) {
	if t == nil {
		return
	}
	if o == nil {
		t.obs.Store(nil)
		return
	}
	t.obs.Store(&observerBox{o: o})
}

// observer returns the installed observer or nil.
func (t *Tracer) observer() SpanObserver {
	if b := t.obs.Load(); b != nil {
		return b.o
	}
	return nil
}

// Span is a handle to one started span. The zero Span (and any span from a
// nil tracer) is disabled: End, Attr, Child and Event are no-ops. The
// handle carries its identity (track, name, start) inline so a streaming
// tracer can close spans without ever storing a record.
type Span struct {
	t     *Tracer
	idx   int32  // index into t.spans; -1 on a streaming tracer
	gen   uint32 // tracer generation idx belongs to
	track string
	name  string
	start time.Duration
}

// Start opens a root span on track. Nil-safe.
func (t *Tracer) Start(track, name string) Span {
	return t.startSpan(track, name, Span{idx: -1})
}

func (t *Tracer) startSpan(track, name string, parent Span) Span {
	if t == nil {
		return Span{}
	}
	now := t.clock()
	s := Span{t: t, idx: -1, track: track, name: name, start: now}
	if !t.streaming {
		t.mu.Lock()
		if parent.idx >= 0 && parent.gen != t.gen {
			parent.idx = -1 // parent record was discarded by Reset
		}
		s.idx, s.gen = int32(len(t.spans)), t.gen
		t.spans = append(t.spans, spanRec{track: track, name: name, parent: parent.idx, start: now})
		t.mu.Unlock()
	}
	return s
}

// rec returns the span's retained record, or nil when the tracer was
// Reset since the span started (the index now belongs to nothing, or to
// an unrelated span). Caller holds t.mu.
func (s Span) rec() *spanRec {
	if s.gen != s.t.gen {
		return nil
	}
	return &s.t.spans[s.idx]
}

// Event records an instant event on track. Attrs are key/value pairs
// ("point", "pfcp.smf.tx"); excess pairs beyond the per-record capacity
// are dropped. Nil-safe.
func (t *Tracer) Event(track, name string, attrs ...string) {
	if t == nil {
		return
	}
	now := t.clock()
	if !t.streaming {
		rec := eventRec{track: track, name: name, at: now}
		for i := 0; i+1 < len(attrs) && rec.nattrs < maxAttrs; i += 2 {
			rec.attrs[rec.nattrs] = attr{k: attrs[i], v: attrs[i+1]}
			rec.nattrs++
		}
		t.mu.Lock()
		t.events = append(t.events, rec)
		t.mu.Unlock()
	}
	if o := t.observer(); o != nil {
		o.ObserveEvent(track, name, now)
	}
}

// Child opens a sub-span on the same track.
func (s Span) Child(name string) Span {
	if s.t == nil {
		return Span{}
	}
	return s.t.startSpan(s.track, name, s)
}

// End closes the span at the current clock reading. Small enough to be
// inlined, so ending the zero span on an untraced hot path costs a nil
// check, not a call.
func (s Span) End() {
	if s.t != nil {
		s.end()
	}
}

func (s Span) end() {
	now := s.t.clock()
	if s.idx >= 0 {
		s.t.mu.Lock()
		rec := s.rec()
		if rec == nil || rec.done {
			s.t.mu.Unlock()
			return
		}
		rec.end = now
		rec.done = true
		s.t.mu.Unlock()
	}
	if o := s.t.observer(); o != nil {
		o.ObserveSpan(s.track, s.name, s.start, now)
	}
}

// Attr attaches a key/value attribute (bounded; extras are dropped).
// Attributes live in the retained record, so a streaming tracer drops
// them: its observer records are fixed-size by design.
func (s Span) Attr(k, v string) {
	if s.t == nil || s.idx < 0 {
		return
	}
	s.t.mu.Lock()
	rec := s.rec()
	if rec != nil && rec.nattrs < maxAttrs {
		rec.attrs[rec.nattrs] = attr{k: k, v: v}
		rec.nattrs++
	}
	s.t.mu.Unlock()
}

// Event records an instant event on the span's track.
func (s Span) Event(name string, attrs ...string) {
	if s.t == nil {
		return
	}
	s.t.Event(s.track, name, attrs...)
}

// Enabled reports whether the span records anything (false for the zero
// span), letting call sites skip attribute formatting entirely.
func (s Span) Enabled() bool { return s.t != nil }

// Track binds a tracer to one named timeline. Components hold an
// atomic.Pointer[Track]; a nil *Track is a disabled track, so the
// per-stage cost with tracing off is one atomic load plus a nil check.
type Track struct {
	tr   *Tracer
	name string
}

// NewTrack returns a track handle on t, or nil when t is nil — ready to
// Store into an atomic.Pointer[Track].
func NewTrack(t *Tracer, name string) *Track {
	if t == nil {
		return nil
	}
	return &Track{tr: t, name: name}
}

// Start opens a root span on the track. Nil-safe.
func (tk *Track) Start(name string) Span {
	if tk == nil {
		return Span{}
	}
	return tk.tr.Start(tk.name, name)
}

// Event records an instant event on the track. Nil-safe.
func (tk *Track) Event(name string, attrs ...string) {
	if tk == nil {
		return
	}
	tk.tr.Event(tk.name, name, attrs...)
}

// Tracer returns the underlying tracer (nil for a disabled track).
func (tk *Track) Tracer() *Tracer {
	if tk == nil {
		return nil
	}
	return tk.tr
}

// SpanCount reports the number of spans recorded so far.
func (t *Tracer) SpanCount() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// Reset discards all recorded spans and events, keeping capacity. Spans
// still open across the call become inert: their End and Attr do nothing.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.gen++
	t.spans = t.spans[:0]
	t.events = t.events[:0]
	t.mu.Unlock()
}

// --- Chrome trace-event export ---

// WriteChrome renders the recorded spans and events as Chrome trace-event
// JSON (the array form), loadable in Perfetto (ui.perfetto.dev) or
// chrome://tracing. Tracks map to thread lanes; timestamps are
// microseconds with nanosecond fraction. Open spans are emitted as if
// they ended at the export instant, so a trace taken mid-procedure is
// still loadable.
func (t *Tracer) WriteChrome(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, "[]\n")
		return err
	}
	now := t.clock()
	t.mu.Lock()
	spans := append([]spanRec(nil), t.spans...)
	events := append([]eventRec(nil), t.events...)
	t.mu.Unlock()

	// Assign stable tids per track, in first-appearance order.
	tids := make(map[string]int)
	order := []string{}
	tid := func(track string) int {
		id, ok := tids[track]
		if !ok {
			id = len(tids) + 1
			tids[track] = id
			order = append(order, track)
		}
		return id
	}
	for i := range spans {
		tid(spans[i].track)
	}
	for i := range events {
		tid(events[i].track)
	}

	var b strings.Builder
	b.WriteString("[\n")
	first := true
	emit := func(line string) {
		if !first {
			b.WriteString(",\n")
		}
		first = false
		b.WriteString(line)
	}
	// Thread-name metadata so Perfetto labels the lanes.
	for _, track := range order {
		emit(fmt.Sprintf(`{"ph":"M","pid":1,"tid":%d,"name":"thread_name","args":{"name":%s}}`,
			tids[track], strconv.Quote(track)))
	}
	usec := func(d time.Duration) string {
		return strconv.FormatFloat(float64(d)/1e3, 'f', 3, 64)
	}
	writeArgs := func(sb *strings.Builder, attrs [maxAttrs]attr, n int8) {
		sb.WriteString(`"args":{`)
		for i := int8(0); i < n; i++ {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(strconv.Quote(attrs[i].k))
			sb.WriteByte(':')
			sb.WriteString(strconv.Quote(attrs[i].v))
		}
		sb.WriteByte('}')
	}
	for i := range spans {
		sp := &spans[i]
		end := sp.end
		if !sp.done {
			end = now
		}
		var line strings.Builder
		fmt.Fprintf(&line, `{"ph":"X","pid":1,"tid":%d,"name":%s,"cat":"span","ts":%s,"dur":%s,`,
			tids[sp.track], strconv.Quote(sp.name), usec(sp.start), usec(end-sp.start))
		writeArgs(&line, sp.attrs, sp.nattrs)
		line.WriteByte('}')
		emit(line.String())
	}
	for i := range events {
		ev := &events[i]
		var line strings.Builder
		fmt.Fprintf(&line, `{"ph":"i","pid":1,"tid":%d,"name":%s,"cat":"event","ts":%s,"s":"t",`,
			tids[ev.track], strconv.Quote(ev.name), usec(ev.at))
		writeArgs(&line, ev.attrs, ev.nattrs)
		line.WriteByte('}')
		emit(line.String())
	}
	b.WriteString("\n]\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// --- stage breakdown ---

// Stage aggregates the spans sharing one name inside a breakdown window.
// Total clips each span to the window, so a stage overlapping the window
// edge contributes only its inside share.
type Stage struct {
	Name  string
	Count int
	Total time.Duration
}

// Breakdown decomposes one root span's window into named stages: every
// other span overlapping the window, grouped by name, plus the coverage —
// the fraction of the window covered by the union of those spans.
// Coverage close to 1 means no unattributed gaps.
type Breakdown struct {
	Root     string
	Window   time.Duration
	Stages   []Stage
	Coverage float64
}

// Breakdown analyzes the most recently completed span named root. It
// returns nil when no such span exists. Stages are every other span (on
// any track) overlapping the root's window, clipped to it — cross-track
// attribution needs no parent links, which matters because peer-side work
// opens its spans on the peer's track: the UPF's PFCP handler runs inside
// the SMF's "pfcp.tx.shm" on the shm transport (on the requester's own
// goroutine) and during its "pfcp.wait" on the socket one (on another).
func (t *Tracer) Breakdown(root string) *Breakdown {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	spans := append([]spanRec(nil), t.spans...)
	t.mu.Unlock()

	rootIdx := -1
	for i := len(spans) - 1; i >= 0; i-- {
		if spans[i].name == root && spans[i].done {
			rootIdx = i
			break
		}
	}
	if rootIdx < 0 {
		return nil
	}
	w0, w1 := spans[rootIdx].start, spans[rootIdx].end
	bd := &Breakdown{Root: root, Window: w1 - w0}

	type interval struct{ a, b time.Duration }
	var ivs []interval
	byName := map[string]*Stage{}
	var names []string
	for i := range spans {
		if i == rootIdx {
			continue
		}
		sp := &spans[i]
		if !sp.done {
			continue
		}
		a, b := sp.start, sp.end
		if b <= w0 || a >= w1 {
			continue
		}
		if a < w0 {
			a = w0
		}
		if b > w1 {
			b = w1
		}
		st := byName[sp.name]
		if st == nil {
			st = &Stage{Name: sp.name}
			byName[sp.name] = st
			names = append(names, sp.name)
		}
		st.Count++
		st.Total += b - a
		ivs = append(ivs, interval{a, b})
	}
	sort.Strings(names)
	for _, n := range names {
		bd.Stages = append(bd.Stages, *byName[n])
	}
	// Union-of-intervals coverage of the window.
	if bd.Window > 0 && len(ivs) > 0 {
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
		var covered time.Duration
		curA, curB := ivs[0].a, ivs[0].b
		for _, iv := range ivs[1:] {
			if iv.a > curB {
				covered += curB - curA
				curA, curB = iv.a, iv.b
				continue
			}
			if iv.b > curB {
				curB = iv.b
			}
		}
		covered += curB - curA
		bd.Coverage = float64(covered) / float64(bd.Window)
	}
	return bd
}

// Table renders the breakdown as a fixed-width stage table, the per-stage
// counterpart of the paper's end-to-end latency rows.
func (b *Breakdown) Table() *metrics.Table {
	tab := metrics.NewTable("stage", "count", "total", "mean", "share")
	if b == nil {
		return tab
	}
	for _, st := range b.Stages {
		mean := time.Duration(0)
		if st.Count > 0 {
			mean = st.Total / time.Duration(st.Count)
		}
		share := 0.0
		if b.Window > 0 {
			share = 100 * float64(st.Total) / float64(b.Window)
		}
		tab.Row(st.Name, st.Count, st.Total, mean, fmt.Sprintf("%.1f%%", share))
	}
	tab.Row("(end-to-end)", 1, b.Window, b.Window, fmt.Sprintf("cov %.1f%%", 100*b.Coverage))
	return tab
}
