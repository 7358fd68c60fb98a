package trace

import (
	"encoding/json"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"l25gc/internal/testutil"
)

// simClock is a hand-cranked clock for deterministic span timing.
type simClock struct{ now time.Duration }

func (c *simClock) advance(d time.Duration) { c.now += d }

func newSimTracer() (*Tracer, *simClock) {
	c := &simClock{}
	return NewWithClock(func() time.Duration { return c.now }), c
}

func TestNilTracerIsInert(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	var tr *Tracer
	sp := tr.Start("track", "root")
	if sp.Enabled() {
		t.Fatal("nil tracer produced an enabled span")
	}
	sp.Attr("k", "v")
	sp.Event("ev")
	sp.Child("child").End()
	sp.End()
	tr.Event("track", "ev")
	if tr.SpanCount() != 0 {
		t.Fatal("nil tracer counted spans")
	}
	if bd := tr.Breakdown("root"); bd != nil {
		t.Fatal("nil tracer produced a breakdown")
	}
	var b strings.Builder
	if err := tr.WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	var out []any
	if err := json.Unmarshal([]byte(b.String()), &out); err != nil {
		t.Fatalf("nil-tracer export is not valid JSON: %v", err)
	}
}

func TestNilTrackIsInert(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	var tk *Track
	sp := tk.Start("x")
	if sp.Enabled() {
		t.Fatal("nil track produced an enabled span")
	}
	sp.End()
	tk.Event("ev")
	if tk.Tracer() != nil {
		t.Fatal("nil track has a tracer")
	}
	if NewTrack(nil, "x") != nil {
		t.Fatal("NewTrack(nil) must return nil")
	}
}

func TestSpanTimingAndParent(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	tr, c := newSimTracer()
	root := tr.Start("cp", "proc")
	c.advance(10 * time.Millisecond)
	child := root.Child("stage")
	c.advance(5 * time.Millisecond)
	child.End()
	c.advance(1 * time.Millisecond)
	root.End()

	tr.mu.Lock()
	defer tr.mu.Unlock()
	if len(tr.spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(tr.spans))
	}
	r, ch := tr.spans[0], tr.spans[1]
	if r.parent != -1 || ch.parent != 0 {
		t.Fatalf("parent links wrong: root %d, child %d", r.parent, ch.parent)
	}
	if ch.track != "cp" {
		t.Fatalf("child track = %q, want cp", ch.track)
	}
	if got := ch.end - ch.start; got != 5*time.Millisecond {
		t.Fatalf("child duration = %v, want 5ms", got)
	}
	if got := r.end - r.start; got != 16*time.Millisecond {
		t.Fatalf("root duration = %v, want 16ms", got)
	}
}

func TestDoubleEndKeepsFirst(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	tr, c := newSimTracer()
	sp := tr.Start("t", "s")
	c.advance(time.Millisecond)
	sp.End()
	c.advance(time.Millisecond)
	sp.End()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if got := tr.spans[0].end; got != time.Millisecond {
		t.Fatalf("end moved on double End: %v", got)
	}
}

func TestAttrsBounded(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	tr, _ := newSimTracer()
	sp := tr.Start("t", "s")
	for i := 0; i < maxAttrs+3; i++ {
		sp.Attr("k", "v")
	}
	sp.End()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if int(tr.spans[0].nattrs) != maxAttrs {
		t.Fatalf("nattrs = %d, want %d", tr.spans[0].nattrs, maxAttrs)
	}
}

func TestWriteChromeShape(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	tr, c := newSimTracer()
	sp := tr.Start("pfcp.smf", "pfcp.request.session_establishment")
	sp.Attr("seid", "0x101")
	c.advance(2 * time.Millisecond)
	enc := sp.Child("pfcp.encode")
	c.advance(100 * time.Microsecond)
	enc.End()
	sp.End()
	tr.Event("faults", "fault.drop", "point", "pfcp.smf.tx")

	var b strings.Builder
	if err := tr.WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	var evs []map[string]any
	if err := json.Unmarshal([]byte(b.String()), &evs); err != nil {
		t.Fatalf("export is not valid Chrome trace JSON: %v\n%s", err, b.String())
	}
	var phases, names []string
	for _, e := range evs {
		phases = append(phases, e["ph"].(string))
		names = append(names, e["name"].(string))
	}
	joined := strings.Join(names, ",")
	for _, want := range []string{"thread_name", "pfcp.request.session_establishment", "pfcp.encode", "fault.drop"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("export missing %q: %s", want, joined)
		}
	}
	if !strings.Contains(strings.Join(phases, ","), "X") {
		t.Fatal("no complete (X) events in export")
	}
	// Instant event carries its attribute.
	for _, e := range evs {
		if e["name"] == "fault.drop" {
			args := e["args"].(map[string]any)
			if args["point"] != "pfcp.smf.tx" {
				t.Fatalf("event args = %v", args)
			}
		}
	}
}

func TestOpenSpansExportAtNow(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	tr, c := newSimTracer()
	tr.Start("t", "open") // never ended
	c.advance(3 * time.Millisecond)
	var b strings.Builder
	if err := tr.WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	var evs []map[string]any
	if err := json.Unmarshal([]byte(b.String()), &evs); err != nil {
		t.Fatal(err)
	}
	for _, e := range evs {
		if e["name"] == "open" {
			if dur := e["dur"].(float64); dur < 2999 || dur > 3001 {
				t.Fatalf("open span dur = %v µs, want ~3000", dur)
			}
			return
		}
	}
	t.Fatal("open span not exported")
}

func TestBreakdownCoverageAndStages(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	tr, c := newSimTracer()
	root := tr.Start("cp", "proc")
	a := root.Child("stage.a")
	c.advance(4 * time.Millisecond)
	a.End()
	b := root.Child("stage.b")
	c.advance(4 * time.Millisecond)
	b.End()
	c.advance(2 * time.Millisecond) // unattributed gap
	root.End()
	// A peer span on another track overlapping the window.
	peer := tr.Start("peer", "stage.b")
	c.advance(time.Millisecond)
	peer.End() // outside the window, must be clipped away entirely

	bd := tr.Breakdown("proc")
	if bd == nil {
		t.Fatal("no breakdown")
	}
	if bd.Window != 10*time.Millisecond {
		t.Fatalf("window = %v", bd.Window)
	}
	if len(bd.Stages) != 2 {
		t.Fatalf("stages = %+v", bd.Stages)
	}
	if bd.Stages[0].Name != "stage.a" || bd.Stages[0].Total != 4*time.Millisecond {
		t.Fatalf("stage.a = %+v", bd.Stages[0])
	}
	if bd.Stages[1].Name != "stage.b" || bd.Stages[1].Count != 1 {
		t.Fatalf("stage.b = %+v", bd.Stages[1])
	}
	if cov := bd.Coverage; cov < 0.79 || cov > 0.81 {
		t.Fatalf("coverage = %v, want 0.8", cov)
	}
	tab := bd.Table().String()
	for _, want := range []string{"stage.a", "stage.b", "(end-to-end)", "cov 80.0%"} {
		if !strings.Contains(tab, want) {
			t.Fatalf("table missing %q:\n%s", want, tab)
		}
	}
}

func TestBreakdownPicksLastCompletedRoot(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	tr, c := newSimTracer()
	first := tr.Start("t", "proc")
	c.advance(time.Millisecond)
	first.End()
	second := tr.Start("t", "proc")
	c.advance(3 * time.Millisecond)
	second.End()
	tr.Start("t", "proc") // still open; must be ignored
	bd := tr.Breakdown("proc")
	if bd == nil || bd.Window != 3*time.Millisecond {
		t.Fatalf("breakdown = %+v", bd)
	}
	if tr.Breakdown("nosuch") != nil {
		t.Fatal("breakdown for unknown root")
	}
}

func TestConcurrentSpans(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	tr := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				sp := tr.Start("t", "s")
				sp.Child("c").End()
				sp.Event("e")
				sp.End()
			}
		}(g)
	}
	wg.Wait()
	if got := tr.SpanCount(); got != 8*200*2 {
		t.Fatalf("spans = %d, want %d", got, 8*200*2)
	}
	var b strings.Builder
	if err := tr.WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	var evs []map[string]any
	if err := json.Unmarshal([]byte(b.String()), &evs); err != nil {
		t.Fatal(err)
	}
}

func TestReset(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	tr := New()
	tr.Start("t", "s").End()
	tr.Event("t", "e")
	tr.Reset()
	if tr.SpanCount() != 0 {
		t.Fatal("Reset left spans")
	}
}

// A span left open across Reset must not touch the truncated (or since
// refilled) record slice: End/Attr/Child on it are inert and the tracer
// stays usable.
func TestResetWithOpenSpan(t *testing.T) {
	tr := New()
	old := tr.Start("t", "old")
	tr.Reset()
	old.Attr("k", "v") // index out of range at the parent commit
	old.End()

	fresh := tr.Start("t", "fresh") // reuses index 0
	old.Attr("k", "v")
	old.End()
	orphan := old.Child("orphan")
	orphan.End()
	if bd := tr.Breakdown("fresh"); bd != nil {
		t.Fatalf("stale End closed the fresh span: %+v", bd)
	}
	fresh.End()
	if bd := tr.Breakdown("fresh"); bd == nil {
		t.Fatal("fresh span not recorded after Reset")
	}
	if bd := tr.Breakdown("orphan"); bd == nil {
		t.Fatal("child of a stale span must still record as a root")
	}
	if n := tr.SpanCount(); n != 2 {
		t.Fatalf("SpanCount = %d, want 2 (fresh, orphan)", n)
	}
}

// BenchmarkDisabledTrack measures the disabled-tracer fast path as the
// instrumented hot loops see it: one atomic pointer load, a nil check, and
// no-op span methods.
func BenchmarkDisabledTrack(b *testing.B) {
	var holder atomic.Pointer[Track]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tk := holder.Load()
		sp := tk.Start("stage")
		sp.End()
	}
}

// BenchmarkEnabledSpan measures span start/end with tracing on.
func BenchmarkEnabledSpan(b *testing.B) {
	tr := New()
	tk := NewTrack(tr, "bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := tk.Start("stage")
		sp.End()
		if tr.SpanCount() >= initialSpanCap {
			b.StopTimer()
			tr.Reset()
			b.StartTimer()
		}
	}
}
