package core

import (
	"bytes"
	"encoding/json"
	"testing"

	"l25gc/internal/metrics"
	"l25gc/internal/nf/udr"
	"l25gc/internal/pkt"
	"l25gc/internal/ranue"
	"l25gc/internal/trace"
)

// startTracedCore builds a unit with a tracer and registry attached.
func startTracedCore(t *testing.T, mode Mode) (*Core, *trace.Tracer, *metrics.Registry) {
	t.Helper()
	tr := trace.New()
	reg := metrics.NewRegistry()
	c, err := New(Config{
		Mode:        mode,
		Subscribers: []udr.Subscriber{testSubscriber("imsi-208930000000001")},
		Tracer:      tr,
		Metrics:     reg,
	})
	if err != nil {
		t.Fatalf("core start (%v): %v", mode, err)
	}
	t.Cleanup(c.Stop)
	return c, tr, reg
}

// stageSet collects the stage names of a breakdown.
func stageSet(bd *trace.Breakdown) map[string]bool {
	s := make(map[string]bool)
	for _, st := range bd.Stages {
		s[st.Name] = true
	}
	return s
}

// TestTraceSmoke runs a traced registration + session establishment in
// both deployment modes and checks the three tentpole properties: the
// PFCP establishment breakdown attributes (almost) the whole window, the
// stage names expose the shm-vs-kernel transport asymmetry, and the
// Chrome export is valid JSON.
func TestTraceSmoke(t *testing.T) {
	for _, mode := range []Mode{ModeL25GC, ModeFree5GC} {
		t.Run(mode.String(), func(t *testing.T) {
			c, tr, _ := startTracedCore(t, mode)
			g, err := ranue.NewGNB(1, pkt.AddrFrom(10, 100, 0, 10), c.N2Addr(), c)
			if err != nil {
				t.Fatal(err)
			}
			defer g.Close()
			fullAttach(t, c, g, "imsi-208930000000001")

			bd := tr.Breakdown("pfcp.request.session_establishment")
			if bd == nil {
				t.Fatal("no pfcp.request.session_establishment span recorded")
			}
			if bd.Coverage < 0.95 {
				t.Fatalf("breakdown coverage %.3f < 0.95\n%s", bd.Coverage, bd.Table())
			}
			t.Logf("%v establishment %v, coverage %.1f%%\n%s",
				mode, bd.Window, 100*bd.Coverage, bd.Table())

			stages := stageSet(bd)
			switch mode {
			case ModeL25GC:
				// Shared-memory N4: a descriptor transfer, no
				// serialization or socket stages.
				if !stages["pfcp.tx.shm"] {
					t.Errorf("l25gc breakdown missing pfcp.tx.shm: %v", bd.Stages)
				}
				for _, banned := range []string{"pfcp.encode", "pfcp.tx.syscall", "pfcp.rx.decode"} {
					if stages[banned] {
						t.Errorf("l25gc breakdown has kernel-transport stage %s", banned)
					}
				}
			case ModeFree5GC:
				for _, want := range []string{"pfcp.encode", "pfcp.tx.syscall", "pfcp.rx.decode"} {
					if !stages[want] {
						t.Errorf("free5gc breakdown missing %s: %v", want, bd.Stages)
					}
				}
				if stages["pfcp.tx.shm"] {
					t.Error("free5gc breakdown has shm stage pfcp.tx.shm")
				}
			}

			var buf bytes.Buffer
			if err := tr.WriteChrome(&buf); err != nil {
				t.Fatalf("WriteChrome: %v", err)
			}
			var events []map[string]any
			if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
				t.Fatalf("Chrome export is not valid JSON: %v", err)
			}
			if len(events) == 0 {
				t.Fatal("Chrome export is empty")
			}
		})
	}
}

// TestRegistryNameSet pins the stable metric names each subsystem exports
// through core wiring, per deployment mode.
func TestRegistryNameSet(t *testing.T) {
	common := []string{
		"pfcp.smf.retransmits", "pfcp.smf.timeouts",
		"pfcp.upf.retransmits", "pfcp.upf.timeouts",
		"sbi.udm.invokes", "sbi.udm.errors",
		"sbi.ausf.invokes", "sbi.ausf.errors",
		"sbi.pcf.invokes", "sbi.pcf.errors",
		"sbi.smf.invokes", "sbi.smf.errors",
		"sbi.amf.invokes", "sbi.amf.errors",
		"sbi.udr.invokes", "sbi.udr.errors",
		"upf.sessions", "upf.buffer_depth", "upf.parked_bytes", "upf.park_dropped",
	}
	cases := []struct {
		mode Mode
		want []string
	}{
		{ModeL25GC, append([]string{
			"onvm.switched", "onvm.dropped", "onvm.ring_overflow_drops",
			"onvm.pool.size", "onvm.pool.in_use", "onvm.pool.populated",
			"upf.ul_fwd", "upf.dl_fwd", "upf.buffered", "upf.dropped",
			"upf.misses", "upf.rate_dropped", "upf.flow_misses",
			"sbi.udm.served_inline", "sbi.udm.served_queued",
			"pfcp.upf.served_inline", "pfcp.upf.served_queued",
		}, common...)},
		{ModeFree5GC, append([]string{
			"upf.ul_fwd", "upf.dl_fwd", "upf.buffered", "upf.dropped",
			"upf.misses", "upf.rate_dropped", "upf.flow_misses",
			"kern.dropped", "kern.injected",
		}, common...)},
	}
	for _, tc := range cases {
		t.Run(tc.mode.String(), func(t *testing.T) {
			c, _, reg := startTracedCore(t, tc.mode)
			g, err := ranue.NewGNB(1, pkt.AddrFrom(10, 100, 0, 10), c.N2Addr(), c)
			if err != nil {
				t.Fatal(err)
			}
			defer g.Close()
			fullAttach(t, c, g, "imsi-208930000000001")

			snap := reg.Snapshot()
			for _, name := range tc.want {
				if _, ok := snap.Counters[name]; !ok {
					t.Errorf("Snapshot missing %q", name)
				}
			}
			// A traced attach must actually move the SBI and PFCP needles.
			if snap.Counters["sbi.udm.invokes"] == 0 {
				t.Error("sbi.udm.invokes is zero after a full attach")
			}
			// One UE, one gNB: nothing contends for an NF's ring, so every
			// shm request is run by the goroutine that made it.
			if tc.mode == ModeL25GC && (snap.Counters["sbi.udm.served_inline"] == 0 ||
				snap.Counters["pfcp.upf.served_inline"] == 0 || snap.Counters["sbi.udm.served_queued"] != 0) {
				t.Errorf("served inline/queued: sbi.udm %d/%d, pfcp.upf %d/%d",
					snap.Counters["sbi.udm.served_inline"], snap.Counters["sbi.udm.served_queued"],
					snap.Counters["pfcp.upf.served_inline"], snap.Counters["pfcp.upf.served_queued"])
			}
			if pop, size := snap.Counters["onvm.pool.populated"], snap.Counters["onvm.pool.size"]; pop > size {
				t.Errorf("onvm.pool.populated = %d, over onvm.pool.size %d", pop, size)
			}
			if snap.Counters["upf.sessions"] != 1 {
				t.Errorf("upf.sessions = %d, want 1", snap.Counters["upf.sessions"])
			}
		})
	}
}
