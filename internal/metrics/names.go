package metrics

// LintNames is the registered-name table for every counter, series,
// gauge and histogram the tree creates — the generalization of
// TestRegistryNameSet that the metricnames analyzer enforces at every
// call site (DESIGN §13). Entries are '*'-globs: a single entry covers a
// per-unit or per-class family ("supervisor.<unit>.detect"). Dashboards
// and bench baselines key on these names; add an entry here (reviewed)
// before introducing a new observable, or the lint gate fails.
var LintNames = []string{
	// Supervisor per-unit recovery figures ("supervisor.<unit>.*").
	"supervisor.*.recoveries",
	"supervisor.*.lost_deliveries",
	"supervisor.*.replay_depth",
	"supervisor.*.detect",
	"supervisor.*.downtime",
	"supervisor.*.generation",
	"supervisor.*.log_depth",

	// SBI transport + retry/breaker counters ("sbi.<service>.*").
	"sbi.*.invokes",
	"sbi.*.errors",
	"sbi.*.retries",
	"sbi.*.shed",
	"sbi.*.pushback",
	"sbi.*.breaker_trips",
	"sbi.*.breaker_open",
	// shm transport: requests whose handler ran on the requester's own
	// goroutine vs. on another requester's (it found the ring busy).
	"sbi.*.served_inline",
	"sbi.*.served_queued",

	// PFCP endpoint reliability counters ("pfcp.<peer>.*").
	"pfcp.*.retransmits",
	"pfcp.*.timeouts",
	"pfcp.*.served_inline",
	"pfcp.*.served_queued",

	// N4 association lifecycle: state machine gauges, heartbeat/path
	// outcomes, degraded-mode rejections, intent-journal depth and
	// reconciliation figures ("pfcp.assoc.*").
	"pfcp.assoc.*",

	// UPF-U datapath and session-table gauges.
	"upf.ul_fwd",
	"upf.dl_fwd",
	"upf.buffered",
	"upf.dropped",
	"upf.misses",
	"upf.rate_dropped",
	"upf.sessions",
	"upf.buffer_depth",

	// Kernel-path (AF_PACKET emulation) forwarding gauges.
	"kern.ul_fwd",
	"kern.dl_fwd",
	"kern.dropped",
	"kern.injected",

	// ONVM shared-memory switch ("onvm.*"): aggregates over every NF
	// instance, and the pool's occupancy.
	"onvm.switched",
	"onvm.dropped",
	"onvm.tx_drops",
	"onvm.ring_overflow_drops",
	"onvm.served_inline",
	"onvm.served_queued",
	"onvm.pool.size",
	"onvm.pool.in_use",
	// Packet-pool overflow drops carry the pool's security-domain
	// prefix, which is unit-chosen ("l25gc", "amf", ...).
	"*.ring_overflow_drops",

	// Overload-control admission families ("overload.<nf>.*").
	"overload.*.admit.*",
	"overload.*.shed.*",
	"overload.*.depth_hw.*",
	"overload.*.depth.*",
	"overload.*.level",
	"overload.*.tightens",
	"overload.*.relaxes",

	// Fault-injector per-kind totals ("<prefix>.<kind>").
	"fault.*",

	// Traffic/netsim measurement series.
	"rtt_ms",
	"rtt",
	"cwnd",
	"goodput",

	// Continuous-telemetry pipeline: runtime probes
	// (telemetry.heap_bytes, telemetry.goroutines, ...), the dump
	// counter, and per-watched-stage windowed quantile series
	// ("telemetry.stage.<span>.*"). The sampler additionally derives
	// ".count"/".p50_us"/".p99_us"/".mean_us" keys from registered
	// histogram names; TestSamplerReadsOnlyRegisteredNames strips those
	// suffixes before checking this table.
	"telemetry.*",
}
