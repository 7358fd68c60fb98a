package main

import (
	"math"
	"os"
	"reflect"
	"regexp"
	"sync/atomic"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentiles(t *testing.T) {
	vs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	if got := median(vs); !near(got, 5.5) {
		t.Errorf("median = %v, want 5.5", got)
	}
	if got := percentile(vs, 90); !near(got, 9.1) {
		t.Errorf("p90 = %v, want 9.1", got)
	}
	if got := percentile(vs, 0); got != 1 {
		t.Errorf("p0 = %v, want 1", got)
	}
	if got := percentile(vs, 100); got != 10 {
		t.Errorf("p100 = %v, want 10", got)
	}
	if got := percentile([]float64{42}, 90); got != 42 {
		t.Errorf("p90 of one sample = %v, want 42", got)
	}
	if got := percentile(nil, 50); !math.IsNaN(got) {
		t.Errorf("percentile of nothing = %v, want NaN", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles(vs)
	if !near(q1, 2.75) || !near(q3, 8.25) {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	if got := spread(vs); !near(got, 1) {
		t.Errorf("spread = %v, want 1", got)
	}
	// statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
	q1, q3 = quartiles([]float64{3, 1, 4, 1, 5})
	if !near(q1, 1) || !near(q3, 4.5) {
		t.Errorf("quartiles = %v, %v, want 1, 4.5", q1, q3)
	}
	if got := cv([]float64{2, 4, 4, 4, 5, 5, 7, 9}); !near(got, 0.4) {
		t.Errorf("cv = %v, want 0.4", got)
	}
}

func TestDueAt(t *testing.T) {
	// dp64_paced: bursts of 8 at 200k pps are 40 us apart and land on the
	// second exactly, however many have gone before.
	if got := dueAt(1, 8, 200_000); got != 40*time.Microsecond {
		t.Errorf("gap = %v, want 40us", got)
	}
	for _, secs := range []int64{1, 30, 3600} {
		if got := dueAt(secs*25_000, 8, 200_000); got != time.Duration(secs)*time.Second {
			t.Errorf("burst %d due at %v, want %ds", secs*25_000, got, secs)
		}
	}
	// cp_churn: 400-packet bursts at 20k pps are 20 ms apart, the sleeping case.
	if got := dueAt(1, 400, 20_000); got != 20*time.Millisecond {
		t.Errorf("gap = %v, want 20ms", got)
	}
	// A rate that does not divide evenly must not drift: burst k is
	// computed from k, not accumulated.
	var prev time.Duration
	for k := int64(1); k <= 3_000_000; k *= 3 {
		d := dueAt(k, 7, 300_000)
		if want := time.Duration(k * 7 * int64(time.Second) / 300_000); d != want || d <= prev {
			t.Fatalf("dueAt(%d) = %v, want %v (> %v)", k, d, want, prev)
		}
		prev = d
	}
}

func TestScheduleFromSeed(t *testing.T) {
	for i := range workloads {
		wl := &workloads[i]
		a, b, c := newSchedule(wl, 7), newSchedule(wl, 7), newSchedule(wl, 8)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed gave different schedules", wl.Name)
		}
		if reflect.DeepEqual(a.flows, c.flows) || reflect.DeepEqual(a.subs, c.subs) {
			t.Errorf("%s: different seeds gave the same flow or subscriber order", wl.Name)
		}
		if wl.Think > 0 && reflect.DeepEqual(a.think, c.think) {
			t.Errorf("%s: different seeds gave the same think times", wl.Name)
		}
		seenFlow := map[int]bool{}
		for _, f := range a.flows {
			seenFlow[f] = true
		}
		if len(a.flows) != wl.Flows || len(seenFlow) != wl.Flows {
			t.Errorf("%s: flow order is not a permutation of %d flows", wl.Name, wl.Flows)
		}
		if len(a.subs) != wl.Clients {
			t.Fatalf("%s: %d client populations, want %d", wl.Name, len(a.subs), wl.Clients)
		}
		seenSub := map[int]bool{}
		for _, subs := range a.subs {
			for _, s := range subs {
				if seenSub[s] || s < eventBase || s >= eventBase+eventPopulation {
					t.Fatalf("%s: subscriber %d shared between clients or outside the event population", wl.Name, s)
				}
				seenSub[s] = true
			}
		}
		for _, th := range a.think {
			for _, d := range th {
				if d < wl.Think/2 || d > wl.Think*3/2 {
					t.Fatalf("%s: think time %v outside [0.5, 1.5) x %v", wl.Name, d, wl.Think)
				}
			}
		}
	}
}

// loopback wires a pktStream's injections straight back into its own
// sinks, standing in for a perfect core.
func loopback(t *testing.T, wl *workload, mangle func(dir int, ip []byte) []byte) *pktStream {
	t.Helper()
	sch := newSchedule(wl, 1)
	sess := make([]standingSession, wl.Flows)
	for i := range sess {
		sess[i] = standingSession{ip: [4]byte{10, 60, 0, byte(i + 1)}, teid: uint32(i + 1)}
	}
	var ps *pktStream
	deliver := func(dir int, ip []byte) {
		ip = append([]byte(nil), ip...)
		if mangle != nil {
			ip = mangle(dir, ip)
		}
		if ip == nil {
			return
		}
		if dir == dirUL {
			ps.n6Sink(ip)
		} else {
			ps.receive(dirDL, -1, ip)
		}
	}
	ps = newPktStream(wl, sch.flows, sess,
		func(f []byte) error { deliver(dirUL, f[ps.tx[0].pay[dirUL]-ipUDPLen:]); return nil },
		func(f []byte) error { deliver(dirDL, f); return nil })
	return ps
}

func TestSinkVerifiesPackets(t *testing.T) {
	wl := workloads[0]
	send := func(ps *pktStream, n int) {
		for i := 0; i < n; i++ {
			ps.send(i%wl.Flows, i%2, 1)
		}
	}
	ps := loopback(t, &wl, nil)
	send(ps, 1000)
	if d := ps.delivered[0].Load() + ps.delivered[1].Load(); d != 1000 ||
		ps.corrupt.Load()+ps.reordered.Load()+ps.foreign.Load() != 0 {
		t.Fatalf("clean loopback: delivered %d, corrupt %d, reordered %d, foreign %d",
			d, ps.corrupt.Load(), ps.reordered.Load(), ps.foreign.Load())
	}

	// One flipped payload byte, one wrong inner address, one truncation.
	n := 0
	ps = loopback(t, &wl, func(_ int, ip []byte) []byte {
		n++
		switch n {
		case 10:
			ip[len(ip)-1] ^= 0xff
		case 20:
			ip[13] ^= 0x01
		case 30:
			return ip[:len(ip)-1]
		}
		return ip
	})
	send(ps, 100)
	if ps.corrupt.Load() != 2 || ps.foreign.Load() != 1 || ps.outstanding() != 3 {
		t.Errorf("damaged packets: corrupt %d (want 2), foreign %d (want 1), outstanding %d (want 3)",
			ps.corrupt.Load(), ps.foreign.Load(), ps.outstanding())
	}

	// A packet held back and released after its successor breaks FIFO.
	var held []byte
	n = 0
	ps = loopback(t, &wl, func(_ int, ip []byte) []byte {
		n++
		if n == 5 {
			held = ip
			return nil
		}
		return ip
	})
	for i := 0; i < 10; i++ {
		ps.send(3, dirUL, 1)
	}
	ps.n6Sink(held)
	if ps.reordered.Load() != 1 || ps.outstanding() != 0 {
		t.Errorf("late packet: reordered %d (want 1), outstanding %d (want 0)", ps.reordered.Load(), ps.outstanding())
	}
}

// A core that stops draining for a while must not be flooded by the open
// loop's backlog: in flight stays under openWindow per direction, nothing
// is lost, and the schedule is caught up once the core drains again.
func TestOpenLoopHoldsBackWhenFull(t *testing.T) {
	wl, _ := workloadByName("dp64_paced")
	type held struct {
		dir int
		ip  []byte
	}
	queue := make(chan held, 1<<16)
	var ps *pktStream
	var over, peak atomic.Int64
	inject := func(dir int) func([]byte) error {
		return func(f []byte) error {
			n := int64(ps.inflight(dir))
			if n >= openWindow {
				over.Add(1)
			}
			if n >= peak.Load() { // one generator goroutine: no race
				peak.Store(n + 1)
			}
			if dir == dirUL {
				f = f[ps.tx[0].pay[dirUL]-ipUDPLen:]
			}
			queue <- held{dir, append([]byte(nil), f...)}
			return nil
		}
	}
	sch := newSchedule(wl, 1)
	sess := make([]standingSession, wl.Flows)
	for i := range sess {
		sess[i] = standingSession{ip: [4]byte{10, 60, 0, byte(i + 1)}, teid: uint32(i + 1)}
	}
	ps = newPktStream(wl, sch.flows, sess, inject(dirUL), inject(dirDL))
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		pause := time.After(50 * time.Millisecond)
		for {
			select {
			case <-pause:
				time.Sleep(30 * time.Millisecond) // 6000 packets fall due
			case h, ok := <-queue:
				if !ok {
					return
				}
				ps.receive(h.dir, -1, h.ip)
			}
		}
	}()
	start := time.Now()
	go ps.run()
	time.Sleep(200 * time.Millisecond)
	ps.stop()
	el := time.Since(start)
	close(queue)
	<-drained
	sent := ps.sent[0].Load() + ps.sent[1].Load()
	if over.Load() != 0 || peak.Load() != openWindow {
		t.Errorf("%d packets injected with the window already full, peak in flight %d; want 0 and %d",
			over.Load(), peak.Load(), openWindow)
	}
	if ps.outstanding() != 0 || ps.reordered.Load()+ps.corrupt.Load()+ps.foreign.Load() != 0 || ps.stalls.Load() != 0 {
		t.Errorf("outstanding %d, reordered %d, corrupt %d, foreign %d, stalls %d; want all 0", ps.outstanding(),
			ps.reordered.Load(), ps.corrupt.Load(), ps.foreign.Load(), ps.stalls.Load())
	}
	if want := float64(wl.RatePPS) * el.Seconds(); float64(sent) < 0.9*want {
		t.Errorf("sent %d packets in %v, want about %.0f: the backlog was not caught up", sent, el, want)
	}
}

func TestSelfTimes(t *testing.T) {
	us := func(n int) time.Duration { return time.Duration(n) * time.Microsecond }
	spans := []spanRec{
		{"amf.registration.auth", us(10), us(90)},
		{"sbi.invoke", us(20), us(60)},
		{"sbi.transfer.shm", us(30), us(50)},
		{"ngap.decode", us(0), us(5)},
		{"ngap.encode", us(95), us(120)},   // runs past the window: clipped
		{"upf.classify", us(200), us(210)}, // outside: ignored
	}
	got := selfTimes(spans, 0, us(100))
	want := map[string]time.Duration{
		"amf.registration.auth": us(40),
		"sbi.invoke":            us(20),
		"sbi.transfer.shm":      us(20),
		"ngap.decode":           us(5),
		"ngap.encode":           us(5),
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestVerdict(t *testing.T) {
	nan := math.NaN()
	for _, c := range []struct {
		worse, noise, bound float64
		want                string
	}{
		{0.02, 0.01, 0.07, "same"},
		{0.10, 0.01, 0.07, "worse"},
		{-0.10, 0.01, 0.07, "better"},
		{0.10, 0.09, 0.07, "unresolved"},
		{0.00, 0.09, 0.07, "unresolved"},
		{0.10, nan, 0.07, "worse"},
		{nan, 0.01, 0.07, "unresolved"},
	} {
		if got := verdict(c.worse, c.noise, c.bound); got != c.want {
			t.Errorf("verdict(%v, %v, %v) = %s, want %s", c.worse, c.noise, c.bound, got, c.want)
		}
	}
}

// TestBenchmarkJSON lints BENCHMARK.json against the contract's limits and
// against the names and units this package reports.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE := regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q is not [A-Za-z0-9][A-Za-z0-9_.-]{0,63}", kind, n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if len(spec.Command) == 0 || len(spec.Command) > 32 {
		t.Errorf("command has %d strings, want 1..32", len(spec.Command))
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" || !pathRE.MatchString(spec.Paths[0]) {
		t.Errorf("paths = %v, want [benchmark]", spec.Paths)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 1..60", spec.RunSeconds)
	}
	// 4 + 22 x workloads runs plus two builds inside 3420 s.
	if runs := 4 + 22*len(spec.Workloads); runs*(spec.RunSeconds+12) > 3420-240 {
		t.Errorf("%d runs of %d s (+12 s of set-up, warm-up and teardown each) do not fit 3420 s with two builds", runs, spec.RunSeconds)
	}
	if len(spec.Workloads) < 2 || len(spec.Workloads) > 8 || len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness, want 2..8 and equal", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		name("workload", w.Name)
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the harness (or their rationales differ)", i, w.Name, workloads[i].Name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 || regexp.MustCompile(`[\r\n]`).MatchString(w.Why) {
			t.Errorf("workload %s: why must be one line of 1..200 characters", w.Name)
		}
	}
	check := func(kind string, got []specMetric, want []metricDef, max int, bounded bool) {
		if len(got) < 1 || len(got) > max {
			t.Errorf("%d %s metrics, want 1..%d", len(got), kind, max)
		}
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d reported by the harness", len(got), kind, len(want))
		}
		for i, m := range got {
			name(kind, m.Name)
			if m.Name != want[i].Name || m.Unit != want[i].Unit {
				t.Errorf("%s metric %d is %s [%s] in BENCHMARK.json, %s [%s] in the harness",
					kind, i, m.Name, m.Unit, want[i].Name, want[i].Unit)
			}
			if !unitRE.MatchString(m.Unit) {
				t.Errorf("%s: unit %q", m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better = %q", m.Name, m.Better)
			}
			switch {
			case bounded && (m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25):
				t.Errorf("%s: bound must be in (0, 0.25]", m.Name)
			case !bounded && m.Bound != nil:
				t.Errorf("%s: per-layer metrics carry no bound", m.Name)
			}
		}
	}
	check("end-to-end", spec.EndToEnd, endToEnd, 16, true)
	check("per-layer", spec.PerLayer, perLayer, 128, false)
	var setup *specMetric
	for i := range spec.EndToEnd {
		if spec.EndToEnd[i].Name == "setup_s" {
			setup = &spec.EndToEnd[i]
		}
	}
	if setup == nil || setup.Unit != "s" || setup.Better != "lower" {
		t.Fatalf("setup_s [s, lower] must be an end-to-end metric")
	}
	for _, m := range spec.EndToEnd {
		if *m.Bound > *setup.Bound {
			t.Errorf("%s has a wider bound than setup_s, which should have the widest", m.Name)
		}
	}
}

// TestSmoke runs every workload for one second and requires a clean,
// complete result.
func TestSmoke(t *testing.T) {
	for i := range workloads {
		wl := &workloads[i]
		t.Run(wl.Name, func(t *testing.T) {
			res, err := runWorkload(wl, 1, runOpts{seconds: 1, warmup: 500 * time.Millisecond, setupReps: 1})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("correct=%v attempted=%d failed=%d checks=%v", res.Correct, res.Attempted, res.Failed, res.Checks)
			}
			for _, d := range endToEnd {
				if m, ok := res.Metrics[d.Name]; !ok || !(m.Value > 0) || m.Unit != d.Unit {
					t.Errorf("%s = %+v, want a positive value in %s", d.Name, m, d.Unit)
				}
			}
			if !(res.diag["gen.null_pps"].Value > 5*res.Metrics["pkt_pps"].Value) {
				t.Errorf("generator ceiling %v pps is not 5x the measured %v pps", res.diag["gen.null_pps"].Value, res.Metrics["pkt_pps"].Value)
			}
			if len(res.Metrics) != len(endToEnd) {
				t.Errorf("%d metrics reported, want the %d end-to-end ones", len(res.Metrics), len(endToEnd))
			}
		})
	}
}
