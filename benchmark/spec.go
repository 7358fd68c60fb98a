package main

import (
	"fmt"
	"time"
)

// window is the closed-loop in-flight limit per direction (W=128 total).
const window = 64

// sampleEvery: one packet in this many carries a send timestamp, so the
// sink computes a one-way delay without timing every packet.
const sampleEvery = 64

// eventPopulation is the number of subscribers the event clients cycle
// through, split disjointly between clients.
const eventPopulation = 256

// workload is one mixed packet-stream + event-stream load. Every workload
// carries both streams so every end-to-end metric is defined on all of
// them and cross-plane interference is visible.
type workload struct {
	Name string
	Why  string

	// Packet stream: Flows standing sessions (one bidirectional flow
	// each) carrying PktSize-byte inner UDP payloads, Burst consecutive
	// packets of one flow at a time.
	PktSize   int
	Flows     int
	Burst     int
	ExtraPDRs int // SDF port-range PDRs added per standing session
	// RatePPS > 0 makes the stream open loop at that offered rate (UL+DL);
	// 0 is closed loop with `window` packets in flight per direction.
	RatePPS int

	// Event stream: closed-loop clients, Think between steps.
	Clients  int
	Think    time.Duration
	Overload bool
}

func (w *workload) closedLoop() bool { return w.RatePPS == 0 }

// workloads is the fixed catalogue; names are cited by later issues.
var workloads = []workload{
	{
		Name:    "dp64_sat",
		Why:     "64 B closed-loop saturation: per-packet fixed cost (switch hops, rings, pktbuf, GTP, session lookup) does nearly all the work",
		PktSize: 64, Flows: 16, Burst: 8,
		Clients: 1, Think: 2 * time.Millisecond,
	},
	{
		Name:    "dp64_paced",
		Why:     "same 64 B shape, open loop at 200k pps below saturation: latency set by park/wake and batching delay, not per-packet cost",
		PktSize: 64, Flows: 16, Burst: 8, RatePPS: 200_000,
		Clients: 1, Think: 2 * time.Millisecond,
	},
	{
		Name:    "dp1400_flows",
		Why:     "1400 B over 256 sessions x 8 PDRs, one packet per flow: per-byte copies, rule depth, 16x session working set, no same-flow runs",
		PktSize: 1400, Flows: 256, Burst: 1, ExtraPDRs: 6,
		Clients: 1, Think: 2 * time.Millisecond,
	},
	{
		Name:    "cp_churn",
		Why:     "2 event clients with no think time, overload gates armed, 20k pps in 400-packet bursts: control plane and UPF-C writes beside UPF-U reads",
		PktSize: 64, Flows: 16, Burst: 400, RatePPS: 20_000,
		Clients: 2, Overload: true,
	},
}

func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// metricDef names one reported metric. BENCHMARK.json carries the same
// names with direction and bound; bench_test.go checks the two agree.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd lists the gated metrics, printed with -trace 0.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"pkt_pps", "1/s"},
	{"pkt_owd_p50_us", "us"},
	{"pkt_allocs", "1/pkt"},
	{"ev_per_s", "1/s"},
	{"reg_p50_us", "us"},
	{"sess_p50_us", "us"},
	{"ho_p50_us", "us"},
	{"paging_p50_us", "us"},
	{"heap_live_mb", "MB"},
}

// perLayer lists the diagnostics, printed with -trace 1.
var perLayer = []metricDef{
	// ring
	{"ring.mpsc_pair_ns", "ns"},
	{"ring.mpsc_bulk64_ns", "ns"},
	{"ring.sharded_pair_ns", "ns"},
	// pktbuf
	{"pktbuf.get_release_ns", "ns"},
	{"pktbuf.setdata64_ns", "ns"},
	{"pktbuf.setdata1400_ns", "ns"},
	{"pktbuf.gets_per_pkt", "count"},
	{"pktbuf.in_use_end", "count"},
	// pkt / gtp
	{"pkt.parse_ipv4_ns", "ns"},
	{"gtp.decap_ns", "ns"},
	{"gtp.encap_ns", "ns"},
	// classifier
	{"classifier.ps_lookup2_ns", "ns"},
	{"classifier.ps_lookup8_ns", "ns"},
	{"classifier.ps_update_ns", "ns"},
	// upf
	{"upf.by_teid16_ns", "ns"},
	{"upf.by_teid256_ns", "ns"},
	{"upf.by_ueip256_ns", "ns"},
	{"upf.process_ul64_ns", "ns"},
	{"upf.process_dl64_ns", "ns"},
	{"upf.process_ul1400_ns", "ns"},
	{"upf.process_dl1400_ns", "ns"},
	{"upf.upfc_establish_us", "us"},
	{"upf.upfc_modify_us", "us"},
	{"upf.upfc_delete_us", "us"},
	{"upf.dropped", "count"},
	{"upf.buffered", "count"},
	{"upf.offpath_share", "ratio"},
	// onvm
	{"onvm.hop_ns", "ns"},
	{"onvm.hop_rtt_us", "us"},
	{"onvm.switched", "count"},
	{"onvm.ring_drops", "count"},
	{"onvm.tx_drops", "count"},
	// core
	{"core.sendul_ns", "ns"},
	{"core.injectdl_ns", "ns"},
	// control-plane transports and codecs
	{"pfcp.mem_rtt_us", "us"},
	{"sbi.shm_invoke_us", "us"},
	{"nas.marshal_ns", "ns"},
	{"nas.unmarshal_ns", "ns"},
	{"ngap.loopback_rtt_us", "us"},
	// nf/amf, nf/smf (span pass)
	{"amf.reg_self_us", "us"},
	{"amf.sess_self_us", "us"},
	{"amf.ho_self_us", "us"},
	{"smf.create_self_us", "us"},
	{"smf.update_self_us", "us"},
	{"smf.release_self_us", "us"},
	{"sbi.invokes_per_reg", "count"},
	{"sbi.invokes_per_sess", "count"},
	{"pfcp.requests_per_sess", "count"},
	{"pfcp.requests_per_ho", "count"},
	// runtime and generator
	{"rt.cpu_busy_cores", "cores"},
	{"rt.gc_count", "count"},
	{"rt.gc_pause_ms", "ms"},
	{"rt.goroutines_end", "count"},
	{"rt.mallocs_per_cycle", "count"},
	{"gen.ul_pps", "1/s"},
	{"gen.dl_pps", "1/s"},
	{"gen.pps_slice_cv", "ratio"},
	{"gen.inject_retries", "count"},
	{"gen.stalls", "count"},
	{"gen.late_p99_us", "us"},
	{"gen.null_pps", "1/s"},
	{"pkt_owd_p90_us", "us"},
	{"reg_p90_us", "us"},
	{"sess_p90_us", "us"},
	{"ho_p90_us", "us"},
	{"gen.owd_p99_us", "us"},
	{"gen.reg_p99_us", "us"},
	{"gen.ev_samples", "count"},
	{"gen.pkt_loss_ratio", "ratio"},
	{"gen.ev_fail_ratio", "ratio"},
	// reconciliation
	{"span.reg_coverage", "ratio"},
	{"span.sess_coverage", "ratio"},
	{"span.ho_coverage", "ratio"},
	{"span.pkt_coverage", "ratio"},
	{"span.reg_unattributed_us", "us"},
	{"span.overhead_ev_ratio", "ratio"},
	{"span.overhead_pkt_ratio", "ratio"},
	{"recon.path_ns", "ns"},
	{"recon.pkt_gap_ratio", "ratio"},
}

// allMetrics is endToEnd followed by perLayer: the order results print in.
var allMetrics = append(append([]metricDef(nil), endToEnd...), perLayer...)

var metricIndex = func() map[string]int {
	m := make(map[string]int, len(allMetrics))
	for i, d := range allMetrics {
		m[d.Name] = i
	}
	return m
}()
