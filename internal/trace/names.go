package trace

// LintNames is the registered-name table for every track, span and
// event name the tree emits, enforced at each call site by the
// metricnames analyzer (DESIGN §13). Entries are '*'-globs. Trace
// post-processing (bench CSVs, the §4 latency breakdowns) selects spans
// by these names, so a typo here splits a procedure from its readers;
// add an entry (reviewed) before introducing a new span.
var LintNames = []string{
	// Tracks ("telemetry" carries the pipeline's dump markers).
	"supervisor",
	"telemetry",

	// AMF control-plane procedures.
	"amf.nas.decode",
	"amf.registration.auth",
	"amf.registration.context",
	"amf.registration.confirm",
	"amf.service.request",
	"amf.session.establish",
	"amf.session.activate",
	"amf.idle.release",
	"amf.paging.trigger",
	"amf.ho.prepare",
	"amf.ho.command",
	"amf.ho.switch",

	// SMF session procedures.
	"smf.sm_context.create",
	"smf.sm_context.update",
	"smf.sm_context.release",
	"smf.n4.report",

	// Supervisor failover phases.
	"supervisor.failover",
	"supervisor.promote",
	"supervisor.replay",
	"supervisor.resync",

	// SBI transport spans.
	"sbi.invoke",
	"sbi.encode",
	"sbi.decode",
	"sbi.http.do",
	"sbi.transfer.shm",

	// PFCP endpoint spans ("pfcp.request.<type>", "pfcp.handle.<type>").
	"pfcp.request.*",
	"pfcp.handle.*",
	// N4 association transition events ("pfcp.assoc.up"/".down"; the
	// down event doubles as a telemetry dump reason).
	"pfcp.assoc.*",
	"pfcp.encode",
	"pfcp.resp.encode",
	"pfcp.rx.decode",
	"pfcp.retransmit",
	"pfcp.tx.shm",
	"pfcp.tx.syscall",
	"pfcp.wait",

	// NGAP codec spans.
	"ngap.encode",
	"ngap.decode",

	// ONVM switch spans.
	"onvm.deliver",
	"onvm.egress",

	// UPF-U handler spans (every mode) and the kernel path's transmit.
	"upf.classify",
	"upf.buffer",
	"kern.syscall.tx",

	// Overload controller transition events ("fault.<kind>" are the
	// injector's firing events).
	"overload.tighten",
	"overload.relax",
	"overload.recovery_enter",
	"overload.recovery_exit",
	"fault.*",

	// Telemetry pipeline markers: one per flight-recorder dump, so the
	// dump trigger is visible in the trace and in the next dump's ring.
	"flight.dump",
}
