// Package faults_test is the chaos suite: end-to-end 5GC procedures run
// under seeded fault schedules. Every scenario is reproducible from its
// single seed — the same seed produces the same drops, the same crash
// instant and the same recovery path.
package faults_test

import (
	"testing"
	"time"

	"l25gc/internal/bench"
	"l25gc/internal/faults"
	"l25gc/internal/pfcp"
	"l25gc/internal/pkt"
	"l25gc/internal/rules"
	"l25gc/internal/upf"
)

// attachStormResult captures one run's observable schedule, for
// determinism comparisons across reruns.
type attachStormResult struct {
	smfDrops, upfDrops uint64
	retransmits        uint64
	elapsed            time.Duration
}

// runAttachStorm performs `sessions` PFCP session establishments over a
// lossy UDP N4 link: the injector drops 10% of messages in each direction,
// and the T1/N1 retransmission machinery must land every session anyway.
func runAttachStorm(t *testing.T, seed int64, sessions int) attachStormResult {
	t.Helper()
	n3 := pkt.AddrFrom(10, 100, 0, 2)
	state := upf.NewState("ps", 0)
	upfc := upf.NewUPFC(state, n3, nil)

	upfEP, err := pfcp.NewUDPEndpoint("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer upfEP.Close()
	smfEP, err := pfcp.NewUDPEndpoint("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer smfEP.Close()
	if err := smfEP.Connect(upfEP.Addr()); err != nil {
		t.Fatal(err)
	}
	upfEP.SetHandler(func(seid uint64, req pfcp.Message) (pfcp.Message, error) {
		if m, ok := req.(*pfcp.SessionEstablishmentRequest); ok {
			seid = m.CPSEID
		}
		return upfc.Handle(seid, req)
	})

	inj := faults.New(seed).
		Add(faults.Rule{Point: "chaos.smf.tx", Kind: faults.Drop, Prob: 0.1}).
		Add(faults.Rule{Point: "chaos.upf.tx", Kind: faults.Drop, Prob: 0.1})
	smfEP.SetInjector(inj, "chaos.smf")
	upfEP.SetInjector(inj, "chaos.upf")
	// Short T1 keeps the run fast; a generous N1 keeps 10% loss survivable
	// (the chance of 6 consecutive drops is ~1e-6 per message).
	cfg := pfcp.RetryConfig{T1: 150 * time.Millisecond, N1: 6, Backoff: 1.5, MaxT1: time.Second}
	smfEP.SetRetry(cfg)

	start := time.Now()
	for i := 0; i < sessions; i++ {
		seid := uint64(1000 + i)
		ueIP := pkt.AddrFrom(10, 60, byte(i/250), byte(1+i%250))
		est := &pfcp.SessionEstablishmentRequest{
			NodeID: "smf", CPSEID: seid, UEIP: ueIP,
			CreatePDRs: []*rules.PDR{
				{ID: 1, Precedence: 32,
					PDI: rules.PDI{SourceInterface: rules.IfAccess, HasTEID: true,
						TEID: uint32(0x9000 + i), TEIDAddr: n3, UEIP: ueIP, HasUEIP: true},
					OuterHeaderRemoval: true, FARID: 1},
			},
			CreateFARs: []*rules.FAR{
				{ID: 1, Action: rules.FARForward, DestInterface: rules.IfCore},
			},
		}
		resp, err := smfEP.Request(seid, true, est)
		if err != nil {
			t.Fatalf("session %d lost under 10%% PFCP loss (seed %d): %v", seid, seed, err)
		}
		if _, ok := resp.(*pfcp.SessionEstablishmentResponse); !ok {
			t.Fatalf("session %d: unexpected response %T", seid, resp)
		}
	}
	elapsed := time.Since(start)

	// Zero session loss: every establishment is present in UPF state.
	for i := 0; i < sessions; i++ {
		if _, ok := state.Session(uint64(1000 + i)); !ok {
			t.Fatalf("session %d missing from UPF state (seed %d)", 1000+i, seed)
		}
	}
	rtx, _ := smfEP.Stats()
	return attachStormResult{
		smfDrops:    inj.Count("chaos.smf.tx", faults.Drop),
		upfDrops:    inj.Count("chaos.upf.tx", faults.Drop),
		retransmits: rtx,
		elapsed:     elapsed,
	}
}

// TestChaosAttachUnderPFCPLoss is the headline chaos scenario: 40 session
// establishments with 10% message loss in each N4 direction, zero session
// loss, and a schedule that is identical when the seed is replayed.
func TestChaosAttachUnderPFCPLoss(t *testing.T) {
	seed, sessions := chaosSeed(1902), 40
	first := runAttachStorm(t, seed, sessions)
	if first.smfDrops == 0 && first.upfDrops == 0 {
		t.Fatalf("seed %d produced no drops; scenario exercises nothing", seed)
	}
	if first.retransmits == 0 {
		t.Fatal("drops occurred but nothing was retransmitted")
	}
	// Convergence bound: each recovery costs ~T1 (150ms) per lost message;
	// allow the full retry budget headroom before calling the run wedged.
	if budget := time.Duration(sessions) * 2 * time.Second; first.elapsed > budget {
		t.Fatalf("attach storm took %v (budget %v)", first.elapsed, budget)
	}

	second := runAttachStorm(t, seed, sessions)
	if first.smfDrops != second.smfDrops || first.upfDrops != second.upfDrops {
		t.Fatalf("same seed diverged: run1 drops (smf=%d upf=%d), run2 (smf=%d upf=%d)",
			first.smfDrops, first.upfDrops, second.smfDrops, second.upfDrops)
	}
}

// TestChaosFailoverUnderCrash crashes the supervised primary UPF
// mid-procedure via a seeded Crash rule at its ingress point: the 6th
// message the primary sees kills it partway through the post-checkpoint
// burst. The promoted standby must recover the session, the mid-handover
// FAR update and the buffered data through checkpoint + replay —
// FailoverScenario fails the run otherwise.
func TestChaosFailoverUnderCrash(t *testing.T) {
	run := func(seed int64) *bench.FailoverResult {
		inj := faults.New(seed).Add(faults.Rule{
			Point:  "upf.g0.ingress",
			Kind:   faults.Crash,
			After:  5,
			Count:  1,
			Target: "upf.g0",
		})
		res, err := bench.FailoverScenario(inj, nil)
		if err != nil {
			t.Fatalf("failover under injected crash (seed %d): %v", seed, err)
		}
		return res
	}
	res := run(chaosSeed(7))
	if res.LostDeliveries == 0 {
		t.Fatal("crash fired but no deliveries were lost: crash not mid-procedure")
	}
	if res.Replayed == 0 {
		t.Fatal("nothing replayed to the standby")
	}
	// Detection uses 200µs probes with 3 misses; a loaded machine gets
	// generous slack but a wedged detector must fail the run.
	if res.Detect > 500*time.Millisecond {
		t.Fatalf("failure detection took %v", res.Detect)
	}
	if res.Failover > 2*time.Second {
		t.Fatalf("restore+replay took %v", res.Failover)
	}

	// The crash instant is schedule-determined: replaying the seed loses
	// the same number of deliveries and replays the same count.
	again := run(chaosSeed(7))
	if again.LostDeliveries != res.LostDeliveries || again.Replayed != res.Replayed {
		t.Fatalf("same seed diverged: (%d lost, %d replayed) vs (%d lost, %d replayed)",
			res.LostDeliveries, res.Replayed, again.LostDeliveries, again.Replayed)
	}
}

// TestChaosAttachDifferentSeedsDifferentSchedules sanity-checks that the
// seed actually steers the schedule (two seeds, different drop patterns)
// using the injector alone — no network, so it is cheap and exact.
func TestChaosAttachDifferentSeedsDifferentSchedules(t *testing.T) {
	pattern := func(seed int64) []bool {
		inj := faults.New(seed).
			Add(faults.Rule{Point: "p.tx", Kind: faults.Drop, Prob: 0.1})
		out := make([]bool, 200)
		for i := range out {
			out[i] = inj.Decide("p.tx", nil).Drop
		}
		return out
	}
	a, b := pattern(1), pattern(2)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("two seeds produced identical 200-message schedules")
	}
}
