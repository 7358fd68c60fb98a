package core

import (
	"testing"
	"time"

	"l25gc/internal/faults"
	"l25gc/internal/metrics"
	"l25gc/internal/nf/udr"
	"l25gc/internal/overload"
	"l25gc/internal/pfcp"
	"l25gc/internal/pkt"
	"l25gc/internal/ranue"
	"l25gc/internal/supervisor"
	"l25gc/internal/trace"
)

// Plain and supervised assembly go through the same builder, so every
// Config knob must land on the NFs either way: shard count, tracer tracks,
// overload gates, the NRF registrations and the SBI transport between the
// AMF and the SMF (its sbi.smf.* and sbi.amf.* counters) and, with N4Assoc,
// an armed association on the active SMF — also on the generation a
// failover promotes. Each request is admitted once and each procedure
// observed once, by the NF that runs it: the SMF's controller sees the
// one session create and nothing else, so with two samples needed to act
// it never tightens, even at a 1 ns p99 target.
func TestAssemblyPathsAgree(t *testing.T) {
	const shards = 3
	for _, tc := range []struct {
		name       string
		resilience bool
	}{{"plain", false}, {"supervised", true}} {
		t.Run(tc.name, func(t *testing.T) {
			tr, reg, inj := trace.New(), metrics.NewRegistry(), faults.New(5)
			c, err := New(Config{
				Mode:        ModeL25GC,
				Subscribers: []udr.Subscriber{testSubscriber("imsi-208930000000001")},
				NFShards:    shards, Tracer: tr, Metrics: reg,
				Overload: true, N4Assoc: true,
				OverloadConfig: overload.Config{MinSamples: 2, TargetP99: time.Nanosecond},
				Resilience:     tc.resilience, FaultInjector: inj,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(c.Stop)
			g, err := ranue.NewGNB(1, dnIP, c.N2Addr(), c)
			if err != nil {
				t.Fatal(err)
			}
			defer g.Close()
			ue := fullAttach(t, c, g, "imsi-208930000000001")
			// Let the 50 ms feedback loop read the window more than once.
			time.Sleep(150 * time.Millisecond)
			if n := reg.Snapshot().Counters["overload.smf.tightens"]; n != 0 {
				t.Errorf("overload.smf.tightens = %d after one registration and one session, want 0", n)
			}

			// Paging is the SMF's one call into the AMF.
			if err := ue.GoIdle(); err != nil {
				t.Fatalf("go idle: %v", err)
			}
			dl := make([]byte, 256)
			n, _ := pkt.BuildUDPv4(dl, dnIP, ue.IP(), 9000, 40000, 0, []byte("wake-up"))
			if err := c.InjectDL(dl[:n]); err != nil {
				t.Fatal(err)
			}
			if _, err := ue.AwaitPagingAndReconnect(3 * time.Second); err != nil {
				t.Fatalf("paging: %v", err)
			}

			if a, s := c.AMF.Shards(), c.SMF.Shards(); a != shards || s != shards {
				t.Errorf("shards: AMF %d SMF %d, want %d", a, s, shards)
			}
			if n := c.NRF.Registered(); n != 6 {
				t.Errorf("NRF holds %d NF instances, want 6 (UDR UDM AUSF PCF SMF AMF)", n)
			}
			counters := reg.Snapshot().Counters
			for _, name := range []string{"sbi.smf.invokes", "sbi.amf.invokes"} {
				if v, ok := counters[name]; !ok || v == 0 {
					t.Errorf("%s = %d (registered %v): AMF<->SMF calls skip the SBI transport", name, v, ok)
				}
			}
			for _, span := range []string{
				"amf.registration.auth", "smf.sm_context.create",
				"pfcp.request.session_establishment", "pfcp.handle.session_establishment",
			} {
				if tr.Breakdown(span) == nil {
					t.Errorf("no %q span: tracer track not wired", span)
				}
			}
			if c.OverloadAMF.Admitted(overload.ClassRegistration) == 0 {
				t.Error("AMF admitted no registration: N2 gate not wired")
			}
			if c.OverloadSMF.Admitted(overload.ClassSession) == 0 {
				t.Error("SMF admitted no session: SBI gate not wired")
			}
			if c.OverloadAMF.Admitted(overload.ClassEmergency) == 0 {
				t.Error("AMF admitted no paging transfer: SBI gate not wired")
			}
			armed := func(s interface{ Association() *pfcp.Association }) {
				t.Helper()
				a := c.N4Association()
				if a == nil || a != s.Association() {
					t.Fatalf("active SMF's association is not the armed one (%p vs %p)", a, s.Association())
				}
				if a.State() != pfcp.AssocUp {
					t.Errorf("association state %v, want up", a.State())
				}
				ok := reg.Snapshot().Counters["pfcp.assoc.heartbeat.ok"]
				a.Tick()
				if got := reg.Snapshot().Counters["pfcp.assoc.heartbeat.ok"]; got != ok+1 {
					t.Errorf("pfcp.assoc.heartbeat.ok %d -> %d after one Tick, want +1", ok, got)
				}
			}
			armed(c.SMF)

			if !tc.resilience {
				return
			}
			unit := c.Supervisor().Unit("smf")
			inj.Crash("smf.g0")
			if err := unit.AwaitRecovery(1, 10*time.Second); err != nil {
				t.Fatal(err)
			}
			promoted := unit.Active().(*supervisor.SMFInstance).S
			if promoted == c.SMF || promoted.Shards() != shards {
				t.Fatalf("promoted SMF: same instance %v, shards %d", promoted == c.SMF, promoted.Shards())
			}
			armed(promoted)
		})
	}
}
