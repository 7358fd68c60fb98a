// Package bench is the evaluation harness: one generator per table and
// figure in the paper's §5, each reproducing the experiment's workload on
// this repository's implementations and printing the same rows/series the
// paper reports. cmd/bench5gc is the CLI front end; the *_test.go files in
// the repository root expose the same experiments as Go benchmarks.
package bench

import (
	"fmt"
	"io"
	"sort"

	"l25gc/internal/metrics"
)

// SchemaVersion is the version of the -bench-out JSON envelope
// ({schemaVersion, goVersion, goMaxProcs, generatedAt, experiments});
// bump it when the envelope (not an experiment's payload) changes shape
// so checked-in BENCH_<n>.json files stay comparable.
const SchemaVersion = 1

// Result is one regenerated experiment.
type Result struct {
	ID    string // "fig6", "table1", ...
	Title string
	Table *metrics.Table
	Notes []string
	// JSON, when non-nil, is the experiment's machine-readable summary;
	// bench5gc -bench-out collects these into one JSON document (the
	// checked-in BENCH_<n>.json files).
	JSON any
}

// Print renders the result.
func (r *Result) Print(w io.Writer) {
	fmt.Fprintf(w, "=== %s — %s ===\n", r.ID, r.Title)
	if r.Table != nil {
		r.Table.Write(w)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	fmt.Fprintln(w)
}

// Experiment is a runnable experiment generator.
type Experiment struct {
	ID    string
	Title string
	Run   func() (*Result, error)
}

// Experiments returns the full catalogue in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{"fig6", "Serialization, deserialization, protocol overheads", Fig6},
		{"fig7", "Latency of single control plane message between UPF/SMF", Fig7},
		{"fig8", "Total control plane latency for different UE events", Fig8},
		{"fig9", "Communication speedup over HTTP", Fig9},
		{"fig10", "Data plane throughput and latency vs packet size", Fig10},
		{"fig11", "PDR lookup latency and throughput vs number of rules", Fig11},
		{"pdrupdate", "PDR update latency comparison (§5.3)", PDRUpdate},
		{"fig12", "Impact of handovers on application (PLT, RTT, cwnd, goodput)", Fig12},
		{"table1", "Control and data plane behavior during paging", Table1},
		{"table2", "Control and data plane behavior during handover", Table2},
		{"smartbuf", "Smart buffering benefit: Eq.1 drops and Eq.2 one-way delay", SmartBuf},
		{"fig15", "5GC failover: control plane recovery and data plane continuity", Fig15},
		{"fig16", "5GC failover during an ongoing handover", Fig16},
		{"fig17", "Repeated handovers with 10 TCP connections (Appendix C)", Fig17},
		{"recovery", "NF failure recovery: supervisor resiliency vs 3GPP restart+reattach", Recovery},
		{"ablation", "Design-choice ablations (DESIGN.md §5)", Ablation},
		{"scale", "Descriptor-switch scaling: throughput vs producers", Scale},
		{"trace", "Traced session establishment: per-stage transport breakdown", Trace},
		{"storm", "Registration storm: overload control vs uncontrolled collapse", Storm},
		{"soak", "Mixed-workload soak: resource and per-stage latency series over time", Soak},
		{"partition", "N4 partition: detection, degraded-mode goodput, post-heal reconciliation", Partition},
	}
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs lists all experiment IDs.
func IDs() []string {
	var out []string
	for _, e := range Experiments() {
		out = append(out, e.ID)
	}
	sort.Strings(out)
	return out
}
