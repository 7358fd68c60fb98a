package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metricValue is one reported number. Samples is how many observations
// stand behind a timing (0 for counts and single readings).
type metricValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// runResult is one run of one workload.
type runResult struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Trace     bool                   `json:"trace"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Checks    []string               `json:"failed_checks,omitempty"`
	Flags     []string               `json:"flags,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	// SlicePPS is the delivered packet rate of each 1 s slice of the
	// window; -compare uses its spread when it has only one run a side.
	SlicePPS []float64 `json:"slice_pps,omitempty"`

	// diag holds the per-layer metrics a timed window yields as a
	// by-product (counters, generator figures, the demoted percentiles);
	// the traced run reports them, the timed run does not.
	diag map[string]metricValue
}

func (r *runResult) set(name string, v float64, samples int) {
	r.Metrics[name] = newMetric(name, v, samples)
}

func (r *runResult) setDiag(name string, v float64, samples int) {
	r.diag[name] = newMetric(name, v, samples)
}

// sanitize turns a metric that could not be computed (no samples) into a
// failed check and a zero, so results always encode as JSON.
func (r *runResult) sanitize() {
	for _, ms := range []map[string]metricValue{r.Metrics, r.diag} {
		for name, m := range ms {
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				r.fail("metric %s has no value", name)
				m.Value = 0
				ms[name] = m
			}
		}
	}
}

func newMetric(name string, v float64, samples int) metricValue {
	i, ok := metricIndex[name]
	if !ok {
		panic("metric not in spec: " + name)
	}
	return metricValue{Value: v, Unit: allMetrics[i].Unit, Samples: samples}
}

func (r *runResult) fail(format string, args ...any) {
	r.Correct = false
	r.Checks = append(r.Checks, fmt.Sprintf(format, args...))
}

// runOpts shapes one run. The defaults are what BENCHMARK.json's command
// measures; tests shrink them.
type runOpts struct {
	seconds float64
	warmup  time.Duration
	// Set-up is timed at least setupReps times, and on until setupFor of
	// it has been measured or maxSetupReps is reached.
	setupReps int
	setupFor  time.Duration
}

const maxSetupReps = 100

func defaultOpts(seconds float64) runOpts {
	return runOpts{seconds: seconds, warmup: 2 * time.Second, setupReps: 5, setupFor: time.Second}
}

// runWorkload is one run: set-up (timed), warm-up, the measured window cut
// into 1 s slices, quiesce, correctness checks, teardown.
func runWorkload(wl *workload, seed int64, o runOpts) (*runResult, error) {
	res := &runResult{
		Workload: wl.Name, Seed: seed, Seconds: o.seconds,
		Correct: true, Metrics: map[string]metricValue{}, diag: map[string]metricValue{},
	}
	baseGoroutines := runtime.NumGoroutine()
	sch := newSchedule(wl, seed)

	// Generator ceiling first, while nothing else runs.
	nullPPS := nullRate(wl, 200*time.Millisecond)
	res.setDiag("gen.null_pps", nullPPS, 0)

	// Set-up over and over for about a second, keeping the last rig: one
	// bring-up lasts 10 to 60 ms and is at the mercy of a single scheduler
	// hiccup, the median of many is not.
	var rg *rig
	var setups []float64
	for total := time.Duration(0); len(setups) < o.setupReps ||
		(total < o.setupFor && len(setups) < maxSetupReps); {
		if rg != nil {
			rg.close()
		}
		start := time.Now()
		var err error
		if rg, err = setupRig(wl, nil); err != nil {
			return nil, err
		}
		d := time.Since(start)
		setups = append(setups, d.Seconds())
		total += d
	}
	defer func() {
		if rg != nil {
			rg.close()
		}
	}()
	res.set("setup_s", median(setups), len(setups))

	ps := newPktStream(wl, sch.flows, rg.standing, rg.core.SendUL, rg.core.InjectDL)
	rg.core.SetN6Sink(ps.n6Sink)
	for i, s := range rg.standing {
		s.ue.OnData = ps.ueSink(i)
	}
	es := newEventStream(rg, sch)

	// Warm-up: packet stream only. Its last second gives allocations per
	// delivered packet, before any event allocates.
	go ps.run()
	var m0, m1 runtime.MemStats
	allocWin := time.Second
	if o.warmup < 2*allocWin {
		allocWin = o.warmup / 2
	}
	time.Sleep(o.warmup - allocWin)
	runtime.ReadMemStats(&m0)
	d0 := ps.delivered[0].Load() + ps.delivered[1].Load()
	time.Sleep(allocWin)
	runtime.ReadMemStats(&m1)
	d1 := ps.delivered[0].Load() + ps.delivered[1].Load()
	if d1 > d0 {
		res.set("pkt_allocs", float64(m1.Mallocs-m0.Mallocs)/float64(d1-d0), int(d1-d0))
	} else {
		res.fail("no packet delivered during warm-up")
		res.set("pkt_allocs", math.NaN(), 0)
	}

	// Measured window.
	type tick struct {
		at     time.Time
		ul, dl uint64
	}
	snap := func() tick {
		return tick{time.Now(), ps.delivered[dirUL].Load(), ps.delivered[dirDL].Load()}
	}
	ps.phase.Store(phaseMeasure)
	es.start()
	cpu0 := cpuTime()
	ticks := []tick{snap()}
	end := ticks[0].at.Add(time.Duration(o.seconds * float64(time.Second)))
	for {
		next := ticks[len(ticks)-1].at.Add(time.Second)
		if next.After(end) {
			next = end
		}
		time.Sleep(time.Until(next))
		ticks = append(ticks, snap())
		if !time.Now().Before(end) {
			break
		}
	}
	cyclesInWindow := es.cycles.Load()
	cpu1 := cpuTime()
	ps.phase.Store(phaseDone)
	var m2 runtime.MemStats
	runtime.ReadMemStats(&m2)
	first, last := ticks[0], ticks[len(ticks)-1]
	elapsed := last.at.Sub(first.at).Seconds()
	res.setDiag("rt.cpu_busy_cores", (cpu1-cpu0).Seconds()/elapsed, 0)

	// Quiesce: clients finish their cycle, the generator stops, in-flight
	// packets drain.
	es.stop()
	ps.stop()
	waitFor(2*time.Second, func() bool { return ps.outstanding() == 0 })

	// --- packet metrics ---
	for i := 1; i < len(ticks); i++ {
		dt := ticks[i].at.Sub(ticks[i-1].at).Seconds()
		if dt < 0.5 {
			continue // a short tail slice would only add noise
		}
		n := (ticks[i].ul - ticks[i-1].ul) + (ticks[i].dl - ticks[i-1].dl)
		res.SlicePPS = append(res.SlicePPS, float64(n)/dt)
	}
	nSlices := len(res.SlicePPS)
	pps := median(res.SlicePPS)
	res.set("pkt_pps", pps, nSlices)
	res.setDiag("gen.ul_pps", float64(last.ul-first.ul)/elapsed, nSlices)
	res.setDiag("gen.dl_pps", float64(last.dl-first.dl)/elapsed, nSlices)
	res.setDiag("gen.pps_slice_cv", cv(res.SlicePPS), nSlices)
	owd := nsToUs(ps.owd[:min(int(ps.owdN.Load()), len(ps.owd))])
	sort.Float64s(owd)
	res.set("pkt_owd_p50_us", percentileSorted(owd, 50), len(owd))
	res.setDiag("pkt_owd_p90_us", percentileSorted(owd, 90), len(owd))
	res.setDiag("gen.owd_p99_us", percentileSorted(owd, 99), len(owd))
	lateP99 := 0.0
	if ps.lateN > 0 {
		lateP99 = percentile(nsToUs(ps.late[:ps.lateN]), 99)
	}
	res.setDiag("gen.late_p99_us", lateP99, ps.lateN)
	res.setDiag("gen.inject_retries", float64(ps.retries.Load()), 0)
	res.setDiag("gen.stalls", float64(ps.stalls.Load()), 0)

	offered := ps.sent[0].Load() + ps.sent[1].Load()
	delivered := ps.delivered[0].Load() + ps.delivered[1].Load()
	lost := int64(offered) - int64(delivered)
	if lost < 0 {
		res.fail("%d packets delivered but only %d offered (duplicates)", delivered, offered)
		lost = 0
	}
	badPkts := lost + int64(ps.reordered.Load()+ps.corrupt.Load()+ps.foreign.Load())
	res.setDiag("gen.pkt_loss_ratio", float64(badPkts)/float64(offered), 0)
	if n := ps.corrupt.Load() + ps.foreign.Load(); n > 0 {
		res.fail("%d delivered packets failed verification", n)
	}
	if n := ps.reordered.Load(); n > 0 {
		res.fail("%d packets broke per-flow FIFO order", n)
	}
	if wl.closedLoop() && lost > 0 {
		res.fail("closed-loop stream lost %d of %d packets (%d stalls)", lost, offered, ps.stalls.Load())
	}
	if wl.closedLoop() && nullPPS < 5*pps {
		res.Flags = append(res.Flags, fmt.Sprintf("generator-bound: null-sink rate %.0f pps < 5 x %.0f pps", nullPPS, pps))
	}

	// --- event metrics ---
	var lat [numSteps][]float64
	var evAttempted, evFailed int
	for _, c := range es.clients {
		for s := range lat {
			lat[s] = append(lat[s], nsToUs(c.lat[s])...)
		}
		evAttempted += c.attempted
		evFailed += c.failed
		for _, e := range c.errs {
			res.fail("%s", e)
		}
	}
	res.set("ev_per_s", float64(cyclesInWindow)/elapsed, int(cyclesInWindow))
	for step, name := range map[int]string{
		stepReg: "reg_p50_us", stepSess: "sess_p50_us", stepHO: "ho_p50_us", stepPaging: "paging_p50_us",
	} {
		res.set(name, median(lat[step]), len(lat[step]))
	}
	nEv := len(lat[stepReg])
	res.setDiag("reg_p90_us", percentile(lat[stepReg], 90), nEv)
	res.setDiag("sess_p90_us", percentile(lat[stepSess], 90), nEv)
	res.setDiag("ho_p90_us", percentile(lat[stepHO], 90), nEv)
	res.setDiag("gen.reg_p99_us", percentile(lat[stepReg], 99), nEv)
	res.setDiag("gen.ev_samples", float64(nEv), 0)
	failRatio := 0.0
	if evAttempted > 0 {
		failRatio = float64(evFailed) / float64(evAttempted)
	}
	res.setDiag("gen.ev_fail_ratio", failRatio, 0)
	if cyclesInWindow == 0 {
		res.fail("no event cycle completed in the window")
	}
	res.Attempted = int64(offered) + int64(evAttempted)
	res.Failed = badPkts + int64(evFailed)

	// --- state invariants, memory, counters (before Stop) ---
	for _, bad := range rg.wakeSleeper() {
		res.fail("%s", bad)
	}
	waitFor(time.Second, func() bool { return len(rg.invariants()) == 0 })
	for _, bad := range rg.invariants() {
		res.fail("%s", bad)
	}
	runtime.GC()
	var m3 runtime.MemStats
	runtime.ReadMemStats(&m3)
	res.set("heap_live_mb", float64(m3.HeapAlloc)/(1<<20), 0)

	gcs := m2.NumGC - m1.NumGC
	res.setDiag("rt.gc_count", float64(gcs), 0)
	res.setDiag("rt.gc_pause_ms", float64(m2.PauseTotalNs-m1.PauseTotalNs)/1e6, int(gcs))
	res.setDiag("rt.goroutines_end", float64(runtime.NumGoroutine()), 0)
	// Allocations in the window beyond what the packet stream alone was
	// measured to make: the event stream's share (0 when the packet
	// stream's own allocations swamp the difference).
	perCycle := 0.0
	pktMallocs := res.Metrics["pkt_allocs"].Value * float64((last.ul-first.ul)+(last.dl-first.dl))
	if extra := float64(m2.Mallocs-m1.Mallocs) - pktMallocs; extra > 0 && cyclesInWindow > 0 {
		perCycle = extra / float64(cyclesInWindow)
	}
	res.setDiag("rt.mallocs_per_cycle", perCycle, int(cyclesInWindow))
	counters := rg.reg.Snapshot().Counters
	res.setDiag("pktbuf.in_use_end", float64(counters["onvm.pool.in_use"]), 0)
	res.setDiag("onvm.switched", float64(counters["onvm.switched"]), 0)
	res.setDiag("onvm.ring_drops", float64(counters["onvm.ring_overflow_drops"]), 0)
	res.setDiag("onvm.tx_drops", float64(counters["onvm.tx_drops"]), 0)
	us := rg.core.UPFU.Stats()
	res.setDiag("upf.dropped", float64(us.Dropped), 0)
	res.setDiag("upf.buffered", float64(us.Buffered), 0)
	offpath := 0.0
	off := us.Buffered + us.Dropped + us.Misses + us.RateDropped
	if tot := off + us.ULForwarded + us.DLForwarded; tot > 0 {
		offpath = float64(off) / float64(tot)
	}
	res.setDiag("upf.offpath_share", offpath, 0)

	// --- teardown: everything the rig started must be gone ---
	rg.close()
	rg = nil
	if !waitFor(3*time.Second, func() bool { return runtime.NumGoroutine() <= baseGoroutines }) {
		res.fail("%d goroutines after Stop, %d before set-up", runtime.NumGoroutine(), baseGoroutines)
	}
	res.sanitize()
	return res, nil
}

// cpuTime is the process's user + system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
