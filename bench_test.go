// Package l25gc_test holds the repository-level benchmark suite: one
// testing.B benchmark (or family) per table and figure of the paper's
// evaluation, driving the same code paths as cmd/bench5gc. Run with
//
//	go test -bench=. -benchmem
//
// Fig. 6  -> BenchmarkFig06_*   (serialization cost per codec)
// Fig. 7  -> BenchmarkFig07_*   (single PFCP message, UDP vs shm)
// Fig. 8  -> BenchmarkFig08_*   (UE event completion per mode)
// Fig. 9  -> BenchmarkFig09_*   (SBI invoke, HTTP vs shm)
// Fig. 10 -> BenchmarkFig10_*   (data plane one-way delivery per mode)
// Fig. 11 -> BenchmarkFig11_*   (PDR lookup per classifier)
// §5.3    -> BenchmarkPDRUpdate_* (rule update per classifier)
// Fig. 12 -> BenchmarkFig12_*   (page load under handovers, simulated)
// Tbl 1/2 -> covered by Fig08 paging/handover events (live) and cmd/bench5gc
// Fig. 15 -> BenchmarkFig15_*   (failover vs reattach, live)
// Fig. 16/17 -> BenchmarkFig16_PageStream / BenchmarkFig17_TenFlows
package l25gc_test

import (
	"testing"
	"time"

	"l25gc/internal/bench"
	"l25gc/internal/classifier"
	"l25gc/internal/codec"
	"l25gc/internal/core"
	"l25gc/internal/netsim"
	"l25gc/internal/pfcp"
	"l25gc/internal/sbi"
)

// --- Fig. 6: serialization ---

func fig6Msg() *sbi.SmContextCreateRequest {
	return &sbi.SmContextCreateRequest{
		Supi: "imsi-208930000000001", PduSessionID: 5, Dnn: "internet",
		Sst: 1, Guami: "5G:mnc093.mcc208", RequestType: "INITIAL_REQUEST",
		N1SmMsg: make([]byte, 96), AnType: "3GPP_ACCESS", RatType: "NR",
	}
}

func benchCodec(b *testing.B, c codec.Codec) {
	msg := fig6Msg()
	wire, err := c.Marshal(msg)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("serialize", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := c.Marshal(msg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("deserialize", func(b *testing.B) {
		out := &sbi.SmContextCreateRequest{}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := c.Unmarshal(wire, out); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkFig06_JSON(b *testing.B)  { benchCodec(b, codec.JSON{}) }
func BenchmarkFig06_Flat(b *testing.B)  { benchCodec(b, codec.Flat{}) }
func BenchmarkFig06_Proto(b *testing.B) { benchCodec(b, codec.Proto{}) }

func BenchmarkFig06_ShmPass(b *testing.B) {
	conn, srv := sbi.NewShmPair(256, func(op sbi.OpID, req codec.Message) (codec.Message, error) {
		return req, nil
	})
	defer srv.Close()
	defer conn.Close()
	msg := fig6Msg()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := conn.Invoke(sbi.OpPostSmContexts, msg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig. 7: single PFCP message ---

func benchPFCP(b *testing.B, smf, upf pfcp.Endpoint) {
	upf.SetHandler(func(seid uint64, req pfcp.Message) (pfcp.Message, error) {
		return &pfcp.HeartbeatResponse{}, nil
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := smf.Request(0, false, &pfcp.HeartbeatRequest{RecoveryTimestamp: uint32(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig07_PFCP_KernelUDP(b *testing.B) {
	upf, err := pfcp.NewUDPEndpoint("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer upf.Close()
	smf, err := pfcp.NewUDPEndpoint("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer smf.Close()
	if err := smf.Connect(upf.Addr()); err != nil {
		b.Fatal(err)
	}
	benchPFCP(b, smf, upf)
}

func BenchmarkFig07_PFCP_SharedMemory(b *testing.B) {
	smf, upf := pfcp.NewMemPair(256)
	defer smf.Close()
	defer upf.Close()
	benchPFCP(b, smf, upf)
}

// --- Fig. 8: UE event completion (one full event set per iteration) ---

func benchEvents(b *testing.B, mode core.Mode) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunEventTimes(mode); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig08_Events_Free5GC(b *testing.B) { benchEvents(b, core.ModeFree5GC) }
func BenchmarkFig08_Events_ONVMUPF(b *testing.B) { benchEvents(b, core.ModeONVMUPF) }
func BenchmarkFig08_Events_L25GC(b *testing.B)   { benchEvents(b, core.ModeL25GC) }

// --- Fig. 9: SBI invoke ---

func sbiEcho(op sbi.OpID, req codec.Message) (codec.Message, error) {
	return op.NewResponse(), nil
}

func BenchmarkFig09_SBI_HTTPJSON(b *testing.B) {
	srv, err := sbi.NewHTTPServer("127.0.0.1:0", codec.JSON{}, sbiEcho)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	conn := sbi.NewHTTPConn(srv.Addr(), codec.JSON{})
	defer conn.Close()
	msg := fig6Msg()
	if _, err := conn.Invoke(sbi.OpPostSmContexts, msg); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := conn.Invoke(sbi.OpPostSmContexts, msg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig09_SBI_SharedMemory(b *testing.B) {
	conn, srv := sbi.NewShmPair(256, sbiEcho)
	defer srv.Close()
	defer conn.Close()
	msg := fig6Msg()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := conn.Invoke(sbi.OpPostSmContexts, msg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig. 10: data plane one-way delivery ---

func benchDataPlane(b *testing.B, mode core.Mode, payload int) {
	h, cleanup, err := bench.NewDataPlaneHarness(mode)
	if err != nil {
		b.Fatal(err)
	}
	defer cleanup()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := h.OneWayDL(payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10_DL64B_Free5GC(b *testing.B)   { benchDataPlane(b, core.ModeFree5GC, 64) }
func BenchmarkFig10_DL64B_L25GC(b *testing.B)     { benchDataPlane(b, core.ModeL25GC, 64) }
func BenchmarkFig10_DL1400B_Free5GC(b *testing.B) { benchDataPlane(b, core.ModeFree5GC, 1400) }
func BenchmarkFig10_DL1400B_L25GC(b *testing.B)   { benchDataPlane(b, core.ModeL25GC, 1400) }

// --- Fig. 11 and §5.3 are benchmarked in internal/classifier; aliases
// here drive the identical code path at the 1000-rule point. ---

func benchLookup(b *testing.B, algo string, mode classifier.GenMode) {
	c := classifier.New(algo)
	ruleSet := classifier.NewGenerator(mode, 1).Generate(1000)
	for _, p := range ruleSet {
		c.Insert(p)
	}
	key := classifier.KeyFor(ruleSet[750])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(&key)
	}
}

func BenchmarkFig11_LookupLL(b *testing.B)      { benchLookup(b, "ll", classifier.GenRealistic) }
func BenchmarkFig11_LookupTSSBest(b *testing.B) { benchLookup(b, "tss", classifier.GenTSSBest) }
func BenchmarkFig11_LookupTSSWorst(b *testing.B) {
	benchLookup(b, "tss", classifier.GenTSSWorst)
}
func BenchmarkFig11_LookupPS(b *testing.B) { benchLookup(b, "ps", classifier.GenRealistic) }

func benchUpdate(b *testing.B, algo string) {
	c := classifier.New(algo)
	for _, p := range classifier.NewGenerator(classifier.GenRealistic, 1).Generate(1000) {
		c.Insert(p)
	}
	extra := classifier.NewGenerator(classifier.GenRealistic, 2).Generate(1)[0]
	extra.ID = 1 << 30
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Insert(extra)
		c.Remove(extra.ID)
	}
}

func BenchmarkPDRUpdate_LL(b *testing.B)  { benchUpdate(b, "ll") }
func BenchmarkPDRUpdate_TSS(b *testing.B) { benchUpdate(b, "tss") }
func BenchmarkPDRUpdate_PS(b *testing.B)  { benchUpdate(b, "ps") }

// --- Fig. 12 / 17: simulated application impact ---

func benchPageLoad(b *testing.B, hoDur time.Duration) {
	cfg := netsim.PathConfig{BottleneckBps: 30e6, RTT: 20 * time.Millisecond, QueueCap: 200, CoreBufCap: 5000}
	page := []int64{4 << 20, 4 << 20, 2 << 20, 1 << 20}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		plt, _ := netsim.PageLoad(cfg, page, []time.Duration{time.Second}, hoDur)
		if plt <= 0 {
			b.Fatal("bad PLT")
		}
	}
}

func BenchmarkFig12_PageLoad_FastHO(b *testing.B) { benchPageLoad(b, 96*time.Millisecond) }
func BenchmarkFig12_PageLoad_SlowHO(b *testing.B) { benchPageLoad(b, 463*time.Millisecond) }

// --- Fig. 15 / 16: failover ---

func BenchmarkFig15_FailoverRestoreReplay(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := bench.FailoverScenario(nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig15_ReattachBaseline(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunReattach(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig16_FailureDuringHandover(b *testing.B) {
	cfg := netsim.PathConfig{BottleneckBps: 30e6, RTT: 20 * time.Millisecond, QueueCap: 200, CoreBufCap: 5000}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := netsim.NewSim()
		p := netsim.NewTCPPath(s, 0, cfg, 0)
		p.HandoverAt(time.Second, 65*time.Millisecond)
		p.BlackoutAt(time.Second+65*time.Millisecond, 401*time.Millisecond)
		p.Sender.Start()
		s.Run(3 * time.Second)
	}
}

func BenchmarkFig17_TenFlowsRepeatedHO(b *testing.B) {
	cfg := netsim.PathConfig{BottleneckBps: 100e6, RTT: 50 * time.Millisecond, QueueCap: 400, CoreBufCap: 8000}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := netsim.NewSim()
		for f := 0; f < 10; f++ {
			p := netsim.NewTCPPath(s, f, cfg, 0)
			p.HandoverAt(time.Second, 328*time.Millisecond)
			p.Sender.Start()
		}
		s.Run(3 * time.Second)
	}
}
