package bench

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"l25gc/internal/core"
	"l25gc/internal/metrics"
	"l25gc/internal/overload"
	"l25gc/internal/pkt"
	"l25gc/internal/ranue"
	"l25gc/internal/telemetry"
	"l25gc/internal/trace"
)

// The storm experiment drives a mass-registration event — every device
// in a stadium powering on at once — against the L²5GC core twice: once
// with the overload layer armed (bounded admission, NAS pushback with
// backoff, priority shedding) and once without it, at the same offered
// concurrency. The controlled run must keep the p99 of admitted
// registrations a multiple below the uncontrolled run's, complete every
// UE eventually (shed UEs re-attach after their prescribed backoff), and
// lose none of the work it admitted — including the deregistration churn
// that must never be shed.

// Storm scale knobs; the smoke gate shrinks them via environment so
// `make storm-smoke` finishes in seconds while `bench5gc -exp storm`
// defaults to the full ≥100k-UE event.
const (
	stormUEsDefault      = 100000
	stormBaselineDefault = 20000
	stormGNBs            = 32
	stormWorkersDefault  = 2048
	// A full-size storm saturates admission for a minute or more; a UE
	// arriving early may legitimately be pushed back dozens of times
	// before a slot opens. UEs re-attempt on every network-prescribed
	// backoff until admitted, so the budget is sized for the worst-case
	// tail of the 100k run, not for politeness.
	stormRetries = 512
)

// Admission shape for the storm: registration is bounded tightly (it is
// the class the operator defers), session establishment more loosely.
var stormOverloadCfg = overload.Config{
	Caps: [overload.NumClasses]int64{
		overload.ClassRegistration: 8,
		overload.ClassSession:      16,
	},
	TargetP99:   40 * time.Millisecond,
	BackoffBase: 100 * time.Millisecond,
}

func stormEnvInt(name string, def int) int {
	if v := os.Getenv(name); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return def
}

func stormSeed() int64 {
	if v := os.Getenv("L25GC_CHAOS_SEED"); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil {
			return n
		}
	}
	return 1902
}

// stormStats is one run's outcome.
type stormStats struct {
	offered   int
	attached  int64 // UEs that completed registration (possibly after rejects)
	rejects   int64 // reject round trips absorbed across all UEs
	exhausted int64 // UEs still rejected after stormRetries attempts
	failures  int64 // non-reject registration errors (timeouts, protocol)

	sessions     int64 // PDU sessions established
	sessRejects  int64
	sessFailures int64
	deregs       int64
	deregFails   int64

	elapsed  time.Duration
	regHist  *metrics.Histogram // successful-attempt registration latency
	sessHist *metrics.Histogram
	heapPeak uint64 // max HeapAlloc sampled during the run

	regHighWater  int64 // controller depth high-water (overload run only)
	sessHighWater int64
	shedTotal     uint64
	level         int
}

func (s *stormStats) goodput() float64 {
	if s.elapsed <= 0 {
		return 0
	}
	return float64(s.attached) / s.elapsed.Seconds()
}

// stormRun offers `total` registrations at fixed worker concurrency,
// with session-establishment and deregistration churn mixed in. The
// same workload runs controlled (withOverload) and uncontrolled;
// `shards` stripes the AMF/SMF UE state (1 = one shard, one lock per NF).
func stormRun(total, workers int, withOverload bool, shards int, seed int64) (*stormStats, error) {
	st := &stormStats{
		offered:  total,
		regHist:  metrics.NewHistogram(),
		sessHist: metrics.NewHistogram(),
	}
	cfg := core.Config{Mode: core.ModeL25GC, Subscribers: benchSubscribers(total), NFShards: shards}
	if withOverload {
		cfg.Overload = true
		cfg.OverloadConfig = stormOverloadCfg
		cfg.OverloadConfig.Seed = seed
	}
	// L25GC_STORM_TELEMETRY=1 arms the registry + periodic sampler (the
	// sampler-overhead comparison in EXPERIMENTS.md: goodput on vs off
	// must stay within noise); =2 additionally arms the streaming tracer
	// so every span feeds the flight recorder and stage sketches, which
	// prices the whole always-on pipeline rather than just the sampler.
	if mode := stormEnvInt("L25GC_STORM_TELEMETRY", 0); mode != 0 {
		base := time.Now()
		clk := func() time.Duration { return time.Since(base) }
		if mode >= 2 {
			cfg.Tracer = trace.NewStreaming(clk)
		}
		cfg.Metrics = metrics.NewRegistry()
		cfg.Telemetry = telemetry.New(telemetry.Config{
			SampleInterval: 100 * time.Millisecond,
			WatchStages:    soakWatchStages,
			Clock:          clk,
		})
	}
	c, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	defer c.Stop()

	gnbs := make([]*ranue.GNB, stormGNBs)
	for i := range gnbs {
		g, err := ranue.NewGNB(uint32(i+1), pkt.AddrFrom(10, 100, 1, byte(i+1)), c.N2Addr(), c)
		if err != nil {
			return nil, err
		}
		defer g.Close()
		gnbs[i] = g
	}

	// Peak-heap sampler: the boundedness claim is about the whole run,
	// not just its endpoints.
	heapStop := make(chan struct{})
	var heapDone sync.WaitGroup
	heapDone.Add(1)
	go func() {
		defer heapDone.Done()
		var ms runtime.MemStats
		for {
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > atomic.LoadUint64(&st.heapPeak) {
				atomic.StoreUint64(&st.heapPeak, ms.HeapAlloc)
			}
			select {
			case <-heapStop:
				return
			case <-time.After(50 * time.Millisecond):
			}
		}
	}()

	var next atomic.Int64
	var regMu, sessMu sync.Mutex
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			g := gnbs[w%stormGNBs]
			for {
				i := int(next.Add(1)) - 1
				if i >= total {
					return
				}
				supi := fmt.Sprintf("imsi-20893000000000%d", i+1)
				ue := ranue.NewUE(supi, []byte("0123456789abcdef"), []byte("fedcba9876543210"))
				d, rejects, err := ue.RegisterWithRetry(g, stormRetries)
				atomic.AddInt64(&st.rejects, int64(rejects))
				if err != nil {
					if _, shed := ranue.AsBackoff(err); shed {
						atomic.AddInt64(&st.exhausted, 1)
					} else {
						atomic.AddInt64(&st.failures, 1)
					}
					continue
				}
				atomic.AddInt64(&st.attached, 1)
				regMu.Lock()
				st.regHist.Observe(d)
				regMu.Unlock()
				// Churn: a quarter of attached UEs bring up a PDU session;
				// half of those immediately deregister (drain-class work
				// that must survive any admission pressure).
				if i%4 != 0 {
					continue
				}
				sd, srej, serr := ue.EstablishSessionWithRetry(uint32(i%15+1), "internet", stormRetries)
				atomic.AddInt64(&st.sessRejects, int64(srej))
				if serr != nil {
					atomic.AddInt64(&st.sessFailures, 1)
					continue
				}
				atomic.AddInt64(&st.sessions, 1)
				sessMu.Lock()
				st.sessHist.Observe(sd)
				sessMu.Unlock()
				if i%8 == 0 {
					atomic.AddInt64(&st.deregs, 1)
					if err := ue.Deregister(); err != nil {
						atomic.AddInt64(&st.deregFails, 1)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	st.elapsed = time.Since(start)
	close(heapStop)
	heapDone.Wait()

	if ctrl := c.OverloadAMF; ctrl != nil {
		st.regHighWater = ctrl.HighWater(overload.ClassRegistration)
		st.shedTotal = ctrl.Shed(overload.ClassRegistration)
		st.level = ctrl.Level()
	}
	if ctrl := c.OverloadSMF; ctrl != nil {
		st.sessHighWater = ctrl.HighWater(overload.ClassSession)
	}
	return st, nil
}

// stormJSON is the machine-readable summary for BENCH_<n>.json.
type stormJSON struct {
	OfferedUEs     int     `json:"offeredUEs"`
	Workers        int     `json:"workers"`
	Attached       int64   `json:"attached"`
	Rejects        int64   `json:"rejects"`
	Exhausted      int64   `json:"exhausted"`
	Failures       int64   `json:"failures"`
	Sessions       int64   `json:"sessions"`
	SessionRejects int64   `json:"sessionRejects"`
	Deregs         int64   `json:"deregs"`
	ElapsedSec     float64 `json:"elapsedSec"`
	GoodputPerSec  float64 `json:"goodputRegsPerSec"`

	RegP50Ms  float64 `json:"regP50Ms"`
	RegP99Ms  float64 `json:"regP99Ms"`
	SessP50Ms float64 `json:"sessP50Ms"`
	SessP99Ms float64 `json:"sessP99Ms"`

	BaselineUEs      int     `json:"baselineUEs"`
	BaselineP50Ms    float64 `json:"baselineP50Ms"`
	BaselineP99Ms    float64 `json:"baselineP99Ms"`
	BaselineFails    int64   `json:"baselineFailures"`
	P99Improvement   float64 `json:"p99Improvement"`
	RegHighWater     int64   `json:"regQueueHighWater"`
	SessHighWater    int64   `json:"sessQueueHighWater"`
	HeapPeakMB       float64 `json:"heapPeakMB"`
	AdmitAllocsPerOp float64 `json:"admitAllocsPerOp"`
	Seed             int64   `json:"seed"`

	NFShards     int              `json:"nfShards"`
	ShardSweep   []stormShardJSON `json:"shardSweep,omitempty"`
	ShardSpeedup float64          `json:"shardSpeedup,omitempty"`
}

// stormShardJSON is one leg of the shard sweep: the same uncontrolled
// registration storm at a fixed shard count.
type stormShardJSON struct {
	Shards        int     `json:"shards"`
	Attached      int64   `json:"attached"`
	ElapsedSec    float64 `json:"elapsedSec"`
	GoodputPerSec float64 `json:"goodputRegsPerSec"`
	RegP50Ms      float64 `json:"regP50Ms"`
	RegP99Ms      float64 `json:"regP99Ms"`
}

// admitAllocsPerOp measures the admission fast path's allocation count
// outside the testing framework (the -benchmem gate duplicates this
// assertion under `go test`).
func admitAllocsPerOp() float64 {
	ctrl := overload.New("probe", overload.Config{})
	const n = 10000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		if ctrl.Admit(overload.ClassRegistration) {
			ctrl.Release(overload.ClassRegistration)
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / n
}

// Storm regenerates the overload experiment: a registration storm with
// churn, controlled vs uncontrolled, with the graceful-degradation
// acceptance checks (bounded queues and heap, zero admitted-work loss,
// shed UEs re-attach, controlled p99 a multiple below uncontrolled).
func Storm() (*Result, error) {
	total := stormEnvInt("L25GC_STORM_UES", stormUEsDefault)
	baseTotal := stormEnvInt("L25GC_STORM_BASE", stormBaselineDefault)
	workers := stormEnvInt("L25GC_STORM_WORKERS", stormWorkersDefault)
	if workers > total {
		workers = total
	}
	shards := stormEnvInt("L25GC_STORM_SHARDS", runtime.GOMAXPROCS(0))
	seed := stormSeed()

	ctl, err := stormRun(total, workers, true, shards, seed)
	if err != nil {
		return nil, fmt.Errorf("storm (overload): %w", err)
	}
	base, err := stormRun(baseTotal, workers, false, shards, seed)
	if err != nil {
		return nil, fmt.Errorf("storm (baseline): %w", err)
	}

	// Shard sweep: the same uncontrolled storm with the state layer as
	// the only variable — one shard (one lock per NF) vs one shard per
	// core. This is where the global-lock convoy shows up: admission
	// control would cap concurrency at the gate and mask it.
	sweepTotal := stormEnvInt("L25GC_STORM_SWEEP", baseTotal)
	sweepShards := runtime.GOMAXPROCS(0)
	if sweepShards < 2 {
		sweepShards = 2
	}
	sweep1, err := stormRun(sweepTotal, workers, false, 1, seed)
	if err != nil {
		return nil, fmt.Errorf("storm (sweep 1-shard): %w", err)
	}
	sweepN, err := stormRun(sweepTotal, workers, false, sweepShards, seed)
	if err != nil {
		return nil, fmt.Errorf("storm (sweep %d-shard): %w", sweepShards, err)
	}
	shardSpeedup := 0.0
	if g := sweep1.goodput(); g > 0 {
		shardSpeedup = sweepN.goodput() / g
	}

	// --- acceptance checks ---
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	p99 := ctl.regHist.Percentile(99)
	baseP99 := base.regHist.Percentile(99)
	if base.regHist.Count() == 0 {
		baseP99 = 5 * time.Second // every baseline registration timed out
	}
	if ctl.attached != int64(ctl.offered) {
		return nil, fmt.Errorf("storm: %d of %d UEs never attached (%d exhausted retries, %d errors)",
			int64(ctl.offered)-ctl.attached, ctl.offered, ctl.exhausted, ctl.failures)
	}
	if ctl.sessFailures != 0 || ctl.deregFails != 0 {
		return nil, fmt.Errorf("storm: admitted work lost: %d session failures, %d dereg failures",
			ctl.sessFailures, ctl.deregFails)
	}
	if cap := stormOverloadCfg.Caps[overload.ClassRegistration]; ctl.regHighWater > cap {
		return nil, fmt.Errorf("storm: registration depth high-water %d exceeded cap %d",
			ctl.regHighWater, cap)
	}
	heapBudget := uint64(256<<20) + uint64(total)*(16<<10)
	if ctl.heapPeak > heapBudget {
		return nil, fmt.Errorf("storm: heap peak %d MB exceeded budget %d MB",
			ctl.heapPeak>>20, heapBudget>>20)
	}
	// The >=5x p99 contrast is the acceptance bar at full storm size
	// (>=100k UEs), where run-to-run variance amortizes away. Smoke-sized
	// runs (make storm-smoke) check the machinery, not the headline
	// number, and single-digit-second runs see ~2x scheduler/GC variance
	// on both sides of the ratio — so they gate at a relaxed 2.5x.
	minImprove := 5.0
	if total < 50000 {
		minImprove = 2.5
	}
	improvement := float64(baseP99) / float64(p99)
	if improvement < minImprove {
		return nil, fmt.Errorf("storm: controlled p99 %v is only %.1fx below uncontrolled %v (want >=%.1fx)",
			p99, improvement, baseP99, minImprove)
	}
	allocs := admitAllocsPerOp()
	if allocs >= 1 {
		return nil, fmt.Errorf("storm: admission fast path allocates (%.2f allocs/op)", allocs)
	}
	// The sharding acceptance bar — >=3x admitted-registration goodput
	// over the single-shard layout at equal-or-better p99 — only means
	// anything when shards can actually run in parallel; below 4 cores
	// the sweep is recorded but not gated (same reasoning as the relaxed
	// minImprove above). The 5% p99 tolerance absorbs percentile noise
	// on runs short enough for CI.
	sweepP99 := sweepN.regHist.Percentile(99)
	sweep1P99 := sweep1.regHist.Percentile(99)
	if runtime.GOMAXPROCS(0) >= 4 {
		if shardSpeedup < 3.0 {
			return nil, fmt.Errorf("storm: %d-shard goodput is only %.2fx the 1-shard baseline (want >=3x)",
				sweepShards, shardSpeedup)
		}
		if float64(sweepP99) > float64(sweep1P99)*1.05 {
			return nil, fmt.Errorf("storm: %d-shard reg p99 %v regressed past 1-shard %v",
				sweepShards, sweepP99, sweep1P99)
		}
	}

	tab := metrics.NewTable("run", "UEs", "attached", "rejects", "reg p50", "reg p99", "goodput/s", "heap peak")
	tab.Row("overload", ctl.offered, ctl.attached, ctl.rejects,
		ctl.regHist.Percentile(50), p99,
		fmt.Sprintf("%.0f", ctl.goodput()), fmt.Sprintf("%dMB", ctl.heapPeak>>20))
	tab.Row("baseline", base.offered, base.attached, base.rejects,
		base.regHist.Percentile(50), baseP99,
		fmt.Sprintf("%.0f", base.goodput()), fmt.Sprintf("%dMB", base.heapPeak>>20))
	tab.Row("sweep 1-shard", sweep1.offered, sweep1.attached, sweep1.rejects,
		sweep1.regHist.Percentile(50), sweep1P99,
		fmt.Sprintf("%.0f", sweep1.goodput()), fmt.Sprintf("%dMB", sweep1.heapPeak>>20))
	tab.Row(fmt.Sprintf("sweep %d-shard", sweepShards), sweepN.offered, sweepN.attached, sweepN.rejects,
		sweepN.regHist.Percentile(50), sweepP99,
		fmt.Sprintf("%.0f", sweepN.goodput()), fmt.Sprintf("%dMB", sweepN.heapPeak>>20))

	return &Result{
		ID:    "storm",
		Title: "Registration storm: admission control vs uncontrolled collapse",
		Table: tab,
		Notes: []string{
			fmt.Sprintf("%d UEs over %d gNBs at %d-worker concurrency; churn: 1/4 establish sessions (%d), 1/8 deregister (%d).",
				ctl.offered, stormGNBs, workers, ctl.sessions, ctl.deregs),
			fmt.Sprintf("shed-and-recovered: %d reject round trips absorbed, every UE attached; reg queue high-water %d (cap %d).",
				ctl.rejects, ctl.regHighWater, stormOverloadCfg.Caps[overload.ClassRegistration]),
			fmt.Sprintf("controlled p99 %v vs uncontrolled %v at the same concurrency: %.1fx better; admission fast path %.2f allocs/op.",
				p99, baseP99, improvement, allocs),
			fmt.Sprintf("shard sweep (%d UEs, uncontrolled): %d shards sustain %.2fx the 1-shard goodput (%.0f vs %.0f regs/s) at p99 %v vs %v on %d core(s); the >=3x gate asserts at >=4 cores.",
				sweepTotal, sweepShards, shardSpeedup, sweepN.goodput(), sweep1.goodput(),
				sweepP99, sweep1P99, runtime.GOMAXPROCS(0)),
		},
		JSON: stormJSON{
			OfferedUEs: ctl.offered, Workers: workers,
			Attached: ctl.attached, Rejects: ctl.rejects,
			Exhausted: ctl.exhausted, Failures: ctl.failures,
			Sessions: ctl.sessions, SessionRejects: ctl.sessRejects,
			Deregs:     ctl.deregs,
			ElapsedSec: ctl.elapsed.Seconds(), GoodputPerSec: ctl.goodput(),
			RegP50Ms: ms(ctl.regHist.Percentile(50)), RegP99Ms: ms(p99),
			SessP50Ms: ms(ctl.sessHist.Percentile(50)), SessP99Ms: ms(ctl.sessHist.Percentile(99)),
			BaselineUEs: base.offered, BaselineP50Ms: ms(base.regHist.Percentile(50)),
			BaselineP99Ms: ms(baseP99), BaselineFails: base.failures,
			P99Improvement: improvement,
			RegHighWater:   ctl.regHighWater, SessHighWater: ctl.sessHighWater,
			HeapPeakMB:       float64(ctl.heapPeak) / (1 << 20),
			AdmitAllocsPerOp: allocs,
			Seed:             seed,
			NFShards:         shards,
			ShardSweep: []stormShardJSON{
				{Shards: 1, Attached: sweep1.attached, ElapsedSec: sweep1.elapsed.Seconds(),
					GoodputPerSec: sweep1.goodput(),
					RegP50Ms:      ms(sweep1.regHist.Percentile(50)), RegP99Ms: ms(sweep1P99)},
				{Shards: sweepShards, Attached: sweepN.attached, ElapsedSec: sweepN.elapsed.Seconds(),
					GoodputPerSec: sweepN.goodput(),
					RegP50Ms:      ms(sweepN.regHist.Percentile(50)), RegP99Ms: ms(sweepP99)},
			},
			ShardSpeedup: shardSpeedup,
		},
	}, nil
}
