package bench

import (
	"sort"
	"strings"
	"testing"
	"time"

	"l25gc/internal/core"
)

func TestCatalogueIntegrity(t *testing.T) {
	exps := Experiments()
	if len(exps) != 21 {
		t.Fatalf("catalogue has %d experiments, want 21 (every table+figure, plus recovery, trace, scale, storm, soak and partition)", len(exps))
	}
	seen := map[string]bool{}
	for _, e := range exps {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Fatalf("incomplete experiment %+v", e)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate experiment ID %q", e.ID)
		}
		seen[e.ID] = true
		got, ok := ByID(e.ID)
		if !ok || got.Title != e.Title {
			t.Fatalf("ByID(%q) mismatch", e.ID)
		}
	}
	for _, want := range []string{"fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
		"pdrupdate", "fig12", "table1", "table2", "smartbuf", "fig15", "fig16", "fig17",
		"recovery", "ablation", "trace", "scale", "storm", "soak", "partition"} {
		if !seen[want] {
			t.Fatalf("missing experiment %q", want)
		}
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("unknown ID should not resolve")
	}
	if len(IDs()) != 21 {
		t.Fatal("IDs() incomplete")
	}
}

// TestFastExperimentsProduceTables runs the quick experiments end to end
// and sanity-checks their output structure (the slow live sweeps are
// exercised by cmd/bench5gc and the repository benchmarks).
func TestFastExperimentsProduceTables(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment generators are not short")
	}
	// "storm" is deliberately absent: even its smoke size is a
	// multi-second two-core run, gated end to end by `make storm-smoke`.
	for _, id := range []string{"fig6", "fig7", "pdrupdate", "smartbuf", "fig16", "recovery", "ablation", "trace", "scale"} {
		id := id
		t.Run(id, func(t *testing.T) {
			e, _ := ByID(id)
			res, err := e.Run()
			if err != nil {
				t.Fatal(err)
			}
			if res.ID != id || res.Table == nil {
				t.Fatalf("result %+v", res)
			}
			out := res.Table.String()
			if !strings.Contains(out, "---") || len(strings.Split(out, "\n")) < 4 {
				t.Fatalf("table too small:\n%s", out)
			}
		})
	}
}

func TestSmartBufMatchesPaperNumbers(t *testing.T) {
	res, err := SmartBuf()
	if err != nil {
		t.Fatal(err)
	}
	out := res.Table.String()
	// Eq. 1: 800 drops; Eq. 2: 20 ms hairpin penalty — exact quantities.
	if !strings.Contains(out, "800") || !strings.Contains(out, "20ms") {
		t.Fatalf("smartbuf table lost the paper's quantities:\n%s", out)
	}
}

// TestFig8OrderingHolds: L²5GC must beat free5GC on the SBI-heavy
// events. One run per mode is a single sample of a host-noisy latency, so
// the modes run five times each, interleaved, and their medians compare.
func TestFig8OrderingHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("live cores are not short")
	}
	const runs = 5
	var reg, sess [2][]time.Duration // indexed free5GC, L²5GC
	for i := 0; i < runs; i++ {
		for m, mode := range []core.Mode{core.ModeFree5GC, core.ModeL25GC} {
			times, err := eventTimes(mode)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("run %d %v: registration %v, session %v", i, mode, times.Registration, times.Session)
			reg[m] = append(reg[m], times.Registration)
			sess[m] = append(sess[m], times.Session)
		}
	}
	median := func(d []time.Duration) time.Duration {
		sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
		return d[len(d)/2]
	}
	if free, l25 := median(reg[0]), median(reg[1]); l25 >= free {
		t.Errorf("registration median: L25GC %v !< free5GC %v", l25, free)
	}
	if free, l25 := median(sess[0]), median(sess[1]); l25 >= free {
		t.Errorf("session median: L25GC %v !< free5GC %v", l25, free)
	}
}
