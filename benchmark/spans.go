package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"l25gc/internal/trace"
)

// The span pass runs a serial schedule (concurrency 1, so windows
// attribute cleanly) on a core built with the repository's own tracer as
// the recorder. The harness opens a root span on its "bench" track around
// each call it makes; the spans the program already emits land inside.
const (
	spanCycles  = 200
	spanPackets = 20_000 // per direction
	spanBurst   = 64
	benchTrack  = "bench"

	// rootGrace is spun out after each root, traced or not: a handler
	// still finishing when the call returned gets to close its span, and
	// both passes meet the core in the same state. It is spun, not slept:
	// a sleeping process lets its threads park (and, in a VM, its CPUs
	// halt), and the wake-up would dominate the next root's window.
	rootGrace = 100 * time.Microsecond
)

var pktRoots = [2]string{"bench.pkt.ul", "bench.pkt.dl"}

// spanRec is one closed span as the tracer's observer reported it.
type spanRec struct {
	name       string
	start, end time.Duration
}

// recorder is the harness's SpanObserver. The span pass computes its
// figures from these intervals, on a streaming tracer that retains
// nothing: a retaining tracer would have to be Reset between roots, and
// Tracer.Reset truncates the slice that open spans index into, so a
// handler still running when the harness resets (the AMF finishing a
// session activation after EstablishSession has returned) panics inside
// Span.End with the tracer's lock held. That happened once in a dozen
// traced runs on a busy machine; the retaining tracer is used only for
// the short exported sample, which is never reset.
type recorder struct {
	mu    sync.Mutex
	spans []spanRec
}

func (r *recorder) ObserveSpan(_, name string, start, end time.Duration) {
	r.mu.Lock()
	r.spans = append(r.spans, spanRec{name, start, end})
	r.mu.Unlock()
}

func (r *recorder) ObserveEvent(string, string, time.Duration) {}

func (r *recorder) take() []spanRec {
	r.mu.Lock()
	s := r.spans
	r.spans = nil
	r.mu.Unlock()
	return s
}

// selfTimes attributes every instant of [w0, w1) to the innermost span
// open at that instant — the one that started last — and returns the time
// each span name holds that way: a span's duration minus what its
// children cover. In a serial schedule nesting in time is nesting in
// cause, across goroutines and tracks. The times sum to the part of the
// window that any span covers.
func selfTimes(spans []spanRec, w0, w1 time.Duration) map[string]time.Duration {
	type iv struct {
		name string
		a, b time.Duration
	}
	var ivs []iv
	cuts := []time.Duration{w0, w1}
	for _, s := range spans {
		a, b := max(s.start, w0), min(s.end, w1)
		if b <= a {
			continue
		}
		ivs = append(ivs, iv{s.name, a, b})
		cuts = append(cuts, a, b)
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	out := map[string]time.Duration{}
	for i := 0; i+1 < len(cuts); i++ {
		lo, hi := cuts[i], cuts[i+1]
		if hi <= lo {
			continue
		}
		inner := -1
		for j := range ivs {
			if ivs[j].a <= lo && ivs[j].b >= hi &&
				(inner < 0 || ivs[j].a > ivs[inner].a ||
					(ivs[j].a == ivs[inner].a && ivs[j].b < ivs[inner].b)) {
				inner = j
			}
		}
		if inner >= 0 {
			out[ivs[inner].name] += hi - lo
		}
	}
	return out
}

// rootStats aggregates the roots of one kind (bench.reg, ...).
type rootStats struct {
	coverage     []float64
	unattributed []float64 // us
	amfSelf      []float64 // us of amf.* self time per root
	sbiInvokes   []float64 // sbi.invoke spans per root
	pfcpRequests []float64 // pfcp.request.* spans per root
}

// spanPass is the traced serial schedule's bookkeeping.
type spanPass struct {
	tr    *trace.Tracer
	rec   *recorder
	roots map[string]*rootStats
	// per span name, across every root: total self time and occurrences
	selfByName  map[string]time.Duration
	countByName map[string]int
	open        trace.Span
	openName    string
}

func newSpanPass(tr *trace.Tracer) *spanPass {
	sp := &spanPass{tr: tr, rec: &recorder{}, roots: map[string]*rootStats{},
		selfByName: map[string]time.Duration{}, countByName: map[string]int{}}
	tr.SetObserver(sp.rec)
	return sp
}

func (sp *spanPass) begin(name string) {
	sp.rec.take() // whatever ran between roots belongs to none
	sp.openName = name
	sp.open = sp.tr.Start(benchTrack, name)
}

// end closes the open root and books what ran inside its window.
func (sp *spanPass) end() {
	sp.open.End()
	spin(rootGrace)
	name := sp.openName
	spans := sp.rec.take()
	var root *spanRec
	inside := spans[:0:0]
	for i := range spans {
		if spans[i].name == name {
			root = &spans[i]
		} else {
			inside = append(inside, spans[i])
		}
	}
	if root == nil {
		return
	}
	rs := sp.roots[name]
	if rs == nil {
		rs = &rootStats{}
		sp.roots[name] = rs
	}
	window := root.end - root.start
	var covered time.Duration
	var amf float64
	for n, d := range selfTimes(inside, root.start, root.end) {
		covered += d
		sp.selfByName[n] += d
		if strings.HasPrefix(n, "amf.") {
			amf += float64(d) / 1e3
		}
	}
	rs.coverage = append(rs.coverage, float64(covered)/float64(window))
	rs.unattributed = append(rs.unattributed, float64(window-covered)/1e3)
	rs.amfSelf = append(rs.amfSelf, amf)
	var sbi, pfcp float64
	for _, s := range inside {
		if s.end <= root.start || s.start >= root.end {
			continue
		}
		sp.countByName[s.name]++
		switch {
		case s.name == "sbi.invoke":
			sbi++
		case strings.HasPrefix(s.name, "pfcp.request."):
			pfcp++
		}
	}
	rs.sbiInvokes = append(rs.sbiInvokes, sbi)
	rs.pfcpRequests = append(rs.pfcpRequests, pfcp)
}

func spin(d time.Duration) {
	for start := time.Now(); time.Since(start) < d; {
		runtime.Gosched()
	}
}

// serialTotals is what one serial schedule cost, traced or not.
type serialTotals struct {
	evNs      int64 // sum of the timed steps
	pktNs     int64 // sum of the burst round trips
	steps     int64
	failed    int64
	packets   int64
	lostPkts  int64
	firstFail string
}

// serialSchedule runs `bursts` 64-packet bursts per direction and then
// `cycles` UE cycles on rig rg, one at a time. begin and end bracket each
// call the way the traced pass needs; the untraced pass only pauses.
func serialSchedule(rg *rig, sch *schedule, bursts, cycles int, begin func(root string), end func()) serialTotals {
	var tot serialTotals
	ps := newPktStream(rg.wl, sch.flows, rg.standing, rg.core.SendUL, rg.core.InjectDL)
	rg.core.SetN6Sink(ps.n6Sink)
	for i, s := range rg.standing {
		s.ue.OnData = ps.ueSink(i)
	}
	for k := 0; k < 2*bursts; k++ {
		dir, flow := k%2, sch.flows[(k/2)%len(sch.flows)]
		begin(pktRoots[dir])
		start := time.Now()
		for i := 0; i < spanBurst; i++ {
			ps.send(flow, dir, 0)
		}
		want := ps.sent[dir].Load()
		ok := waitFor(time.Second, func() bool { return ps.delivered[dir].Load() >= want })
		tot.pktNs += int64(time.Since(start))
		end()
		tot.packets += spanBurst
		if !ok {
			tot.lostPkts += int64(want - ps.delivered[dir].Load())
		}
	}
	hooks := &cycleHooks{
		begin: func(step int) { begin("bench." + stepNames[step]) },
		end:   func(int) { end() },
	}
	lat := func(_ int, d time.Duration) {
		tot.evNs += int64(d)
		tot.steps++
	}
	subs := sch.subs[0]
	for n := 0; n < cycles; n++ {
		if failed, err := runCycle(rg, subs[n%len(subs)], nil, lat, hooks); err != nil {
			tot.steps++
			tot.failed++
			if tot.firstFail == "" {
				tot.firstFail = fmt.Sprintf("serial cycle %d step %s: %v", n, stepNames[failed], err)
			}
		}
	}
	tot.lostPkts += int64(ps.corrupt.Load() + ps.foreign.Load() + ps.reordered.Load())
	return tot
}

// runSpans is the span pass, the same schedule untraced, and the exported
// sample. It fills the span.*, amf.*, smf.* and per-procedure count
// metrics.
func runSpans(wl *workload, seed int64, res *runResult) error {
	sch := newSchedule(wl, seed)
	epoch := time.Now()
	sp := newSpanPass(trace.NewStreaming(func() time.Duration { return time.Since(epoch) }))
	var totals [2]serialTotals
	for i, tr := range []*trace.Tracer{sp.tr, nil} {
		rg, err := setupRig(wl, tr)
		if err != nil {
			return err
		}
		if tr != nil {
			totals[i] = serialSchedule(rg, sch, spanPackets/spanBurst, spanCycles, sp.begin, sp.end)
		} else {
			totals[i] = serialSchedule(rg, sch, spanPackets/spanBurst, spanCycles,
				func(string) {}, func() { spin(rootGrace) })
		}
		bad := append(rg.wakeSleeper(), rg.invariants()...)
		rg.close()
		for _, b := range bad {
			res.fail("serial schedule: %s", b)
		}
	}
	traced, plain := totals[0], totals[1]
	for _, t := range totals {
		res.Attempted += t.steps + t.packets
		res.Failed += t.failed + t.lostPkts
		if t.firstFail != "" {
			res.fail("%s", t.firstFail)
		}
		if t.lostPkts > 0 {
			res.fail("serial schedule lost or damaged %d packets", t.lostPkts)
		}
	}

	root := func(name string) *rootStats {
		if rs := sp.roots[name]; rs != nil {
			return rs
		}
		res.fail("span pass recorded no %s root", name)
		return &rootStats{}
	}
	reg, sess, ho := root("bench.reg"), root("bench.sess"), root("bench.ho")
	res.set("span.reg_coverage", median(reg.coverage), len(reg.coverage))
	res.set("span.sess_coverage", median(sess.coverage), len(sess.coverage))
	res.set("span.ho_coverage", median(ho.coverage), len(ho.coverage))
	pktCov := append(append([]float64(nil), root(pktRoots[dirUL]).coverage...), root(pktRoots[dirDL]).coverage...)
	res.set("span.pkt_coverage", median(pktCov), len(pktCov))
	res.set("span.reg_unattributed_us", median(reg.unattributed), len(reg.unattributed))
	res.set("amf.reg_self_us", median(reg.amfSelf), len(reg.amfSelf))
	res.set("amf.sess_self_us", median(sess.amfSelf), len(sess.amfSelf))
	res.set("amf.ho_self_us", median(ho.amfSelf), len(ho.amfSelf))
	for metric, span := range map[string]string{
		"smf.create_self_us":  "smf.sm_context.create",
		"smf.update_self_us":  "smf.sm_context.update",
		"smf.release_self_us": "smf.sm_context.release",
	} {
		n := sp.countByName[span]
		if n == 0 {
			res.fail("span pass saw no %s span", span)
			n = 1
		}
		res.set(metric, float64(sp.selfByName[span])/float64(n)/1e3, n)
	}
	res.set("sbi.invokes_per_reg", median(reg.sbiInvokes), len(reg.sbiInvokes))
	res.set("sbi.invokes_per_sess", median(sess.sbiInvokes), len(sess.sbiInvokes))
	res.set("pfcp.requests_per_sess", median(sess.pfcpRequests), len(sess.pfcpRequests))
	res.set("pfcp.requests_per_ho", median(ho.pfcpRequests), len(ho.pfcpRequests))
	res.set("span.overhead_ev_ratio", float64(traced.evNs)/float64(plain.evNs)-1, int(plain.steps))
	res.set("span.overhead_pkt_ratio", float64(traced.pktNs)/float64(plain.pktNs)-1, int(plain.packets))
	return traceSample(wl, sch, res)
}

// traceSample runs one burst each way and one UE cycle on a core whose
// tracer retains its spans, checks the harness's coverage arithmetic
// against Tracer.Breakdown on every root, and writes the Chrome trace. The
// tracer is never reset, so the trace also shows the rig's set-up.
func traceSample(wl *workload, sch *schedule, res *runResult) error {
	tr := trace.New()
	sp := newSpanPass(tr)
	rg, err := setupRig(wl, tr)
	if err != nil {
		return err
	}
	defer rg.close()
	t := serialSchedule(rg, sch, 1, 1, sp.begin, sp.end)
	if t.failed+t.lostPkts > 0 {
		res.fail("trace sample: %d steps failed, %d packets lost (%s)", t.failed, t.lostPkts, t.firstFail)
	}
	spin(10 * rootGrace)
	for name, rs := range sp.roots {
		// A span that outlives the grace after its root is in the
		// tracer's view and not in the harness's, hence the tolerance.
		bd := tr.Breakdown(name)
		if bd == nil || len(rs.coverage) != 1 || math.Abs(bd.Coverage-rs.coverage[0]) > 0.01 {
			res.Flags = append(res.Flags, fmt.Sprintf("trace sample: %s coverage %v, Tracer.Breakdown says %+v", name, rs.coverage, bd))
		}
	}
	path := filepath.Join("benchmark", "out", "trace-"+wl.Name+".json")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChrome(f); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// runTraced is the -trace 1 run of one workload: a shortened window for
// the per-run counters (tracing off), the probe pass, the span pass and
// its untraced twin, and the reconciliation of probes against the
// measured packet rate. It reports every per-layer metric.
func runTraced(wl *workload, seed int64, seconds float64) (*runResult, error) {
	baseGoroutines := runtime.NumGoroutine()
	win, err := runWorkload(wl, seed, runOpts{seconds: seconds / 2, warmup: time.Second, setupReps: 1})
	if err != nil {
		return nil, err
	}
	res := &runResult{
		Workload: wl.Name, Seed: seed, Seconds: seconds, Trace: true,
		Correct: win.Correct, Attempted: win.Attempted, Failed: win.Failed,
		Checks: win.Checks, Flags: win.Flags, SlicePPS: win.SlicePPS,
		Metrics: win.diag,
	}

	if err := runProbes(res); err != nil {
		return nil, fmt.Errorf("probe pass: %w", err)
	}
	if err := runSpans(wl, seed, res); err != nil {
		return nil, fmt.Errorf("span pass: %w", err)
	}

	// Reconciliation: the probes of the layers on one packet's path
	// against the time the run actually had per packet. hop_ns already
	// holds injection (pool get, 64 B copy, shard enqueue), both switch
	// hops and the egress release; the UPF handler, the extra bytes of a
	// larger copy and the generator itself are added to it.
	v := func(name string) float64 { return res.Metrics[name].Value }
	size := fmt.Sprint(wl.PktSize)
	path := v("onvm.hop_ns") +
		(v("upf.process_ul"+size+"_ns")+v("upf.process_dl"+size+"_ns"))/2 +
		(v("pktbuf.setdata"+size+"_ns") - v("pktbuf.setdata64_ns")) +
		1e9/v("gen.null_pps")
	res.set("recon.path_ns", path, 0)
	budget := 1e9 / win.Metrics["pkt_pps"].Value
	res.set("recon.pkt_gap_ratio", (budget-path)/budget, len(win.SlicePPS))

	if !waitFor(3*time.Second, func() bool { return runtime.NumGoroutine() <= baseGoroutines }) {
		res.fail("%d goroutines after the traced run, %d before", runtime.NumGoroutine(), baseGoroutines)
	}
	for _, d := range perLayer {
		if _, ok := res.Metrics[d.Name]; !ok {
			res.fail("per-layer metric %s was not measured", d.Name)
			res.set(d.Name, 0, 0)
		}
	}
	res.sanitize()
	return res, nil
}
