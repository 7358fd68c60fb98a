package bench

import (
	"fmt"
	"os"
	"time"

	"l25gc/internal/core"
	"l25gc/internal/faults"
	"l25gc/internal/metrics"
	"l25gc/internal/pkt"
	"l25gc/internal/ranue"
	"l25gc/internal/supervisor"
	"l25gc/internal/trace"
)

// recoveryRow is one NF's measured recovery under the supervisor.
type recoveryRow struct {
	nf       string
	detect   time.Duration
	downtime time.Duration
	replayed int
}

// supervisedCPRecovery runs a resilience-enabled core with live UE
// traffic, then crashes the SMF and the AMF in turn and reads each
// unit's measured recovery.
func supervisedCPRecovery(tr *trace.Tracer) (smfRow, amfRow recoveryRow, err error) {
	smfRow, amfRow = recoveryRow{nf: "SMF"}, recoveryRow{nf: "AMF"}
	inj := faults.New(2)
	c, err := core.New(core.Config{
		Mode: core.ModeL25GC, Subscribers: benchSubscribers(1),
		Resilience: true, FaultInjector: inj, Tracer: tr,
	})
	if err != nil {
		return smfRow, amfRow, err
	}
	defer c.Stop()
	g, err := ranue.NewGNB(1, pkt.AddrFrom(10, 100, 0, 10), c.N2Addr(), c)
	if err != nil {
		return smfRow, amfRow, err
	}
	defer g.Close()
	ue := ranue.NewUE("imsi-208930000000001", []byte("0123456789abcdef"), []byte("fedcba9876543210"))
	if _, err := ue.Register(g); err != nil {
		return smfRow, amfRow, err
	}
	if _, err := ue.EstablishSession(5, "internet"); err != nil {
		return smfRow, amfRow, err
	}

	sup := c.Supervisor()
	for _, step := range []struct {
		row    *recoveryRow
		unit   *supervisor.Unit
		target string
	}{
		{&smfRow, sup.Unit("smf"), "smf.g0"},
		{&amfRow, sup.Unit("amf"), "amf.g0"},
	} {
		inj.Crash(step.target)
		if err := step.unit.AwaitRecovery(1, 5*time.Second); err != nil {
			return smfRow, amfRow, fmt.Errorf("%s: %w", step.target, err)
		}
		stats := step.unit.LastRecovery()
		step.row.detect, step.row.downtime, step.row.replayed =
			stats.Detect, stats.Downtime, stats.Replayed
	}

	// Zero session loss across both control-plane failovers.
	smfNF := sup.Unit("smf").Active().(*supervisor.SMFInstance).S
	if n := smfNF.Sessions(); n != 1 {
		return smfRow, amfRow, fmt.Errorf("promoted SMF holds %d sessions, want 1", n)
	}
	return smfRow, amfRow, nil
}

// Recovery regenerates the §3.5 resiliency comparison per NF: supervised
// failover (detection latency, replay depth, measured service
// interruption) against the 3GPP free5GC baseline, where the NF restarts
// empty and the UE must re-register and re-establish its session. With
// -trace-out, the supervisor.failover spans (promote / replay / resync
// children) land in "<prefix>-recovery.json".
func Recovery() (*Result, error) {
	tr := trace.New()
	fo, err := FailoverScenario(nil, tr)
	if err != nil {
		return nil, fmt.Errorf("upf recovery: %w", err)
	}
	upfRow := recoveryRow{nf: "UPF", detect: fo.Detect, downtime: fo.Downtime, replayed: fo.Replayed}
	smfRow, amfRow, err := supervisedCPRecovery(tr)
	if err != nil {
		return nil, fmt.Errorf("control-plane recovery: %w", err)
	}
	reattach, err := reattachTime()
	if err != nil {
		return nil, fmt.Errorf("reattach baseline: %w", err)
	}

	tab := metrics.NewTable("NF failure", "detection", "replay depth",
		"interruption (L25GC resiliency)", "interruption (free5GC restart+reattach)")
	for _, r := range []recoveryRow{upfRow, amfRow, smfRow} {
		tab.Row(r.nf, r.detect, r.replayed, r.downtime, reattach)
	}

	notes := []string{
		"L25GC: heartbeat detection + promote/replay from the counter-stamped packet log;",
		"sessions survive, the UE never re-registers. The baseline restarts the NF empty,",
		"so the interruption is a full re-registration + session re-establishment.",
		"replay depth 0 means every applied message was checkpoint-covered at the crash.",
	}
	if TraceOut != "" {
		path := fmt.Sprintf("%s-recovery.json", TraceOut)
		f, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		if err := tr.WriteChrome(f); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Close(); err != nil {
			return nil, err
		}
		notes = append(notes, fmt.Sprintf("recovery spans written to %s (open in ui.perfetto.dev)", path))
	}
	return &Result{
		ID:    "recovery",
		Title: "NF failure recovery: supervisor resiliency vs 3GPP restart+reattach",
		Table: tab,
		Notes: notes,
	}, nil
}
