package bench

import (
	"time"

	"l25gc/internal/core"
	"l25gc/internal/ranue"
)

// The exported hooks below let the repository-root Go benchmarks
// (bench_test.go) drive the same scenarios the experiment generators use,
// one event per benchmark iteration.

// RunEventTimes runs the four UE events once on a fresh core in the given
// mode and returns their completion times (one Fig. 8 data point).
func RunEventTimes(mode core.Mode) (ranue.EventTimes, error) {
	return eventTimes(mode)
}

// RunReattach measures the live 3GPP reattach baseline once.
func RunReattach() (time.Duration, error) { return reattachTime() }

// NewDataPlaneHarness builds an attached core + session for raw
// packet-level benchmarking. The returned cleanup must be called.
func NewDataPlaneHarness(mode core.Mode) (*DPH, func(), error) {
	h, cleanup, err := newDPHarness(mode)
	if err != nil {
		return nil, nil, err
	}
	return &DPH{h: h}, cleanup, nil
}

// DPH wraps the data-plane harness for external benchmarks.
type DPH struct{ h *dpHarness }

// OneWayDL pushes one DL packet of the given payload size through the
// pipeline and waits for UE delivery.
func (d *DPH) OneWayDL(payload int) error {
	_, err := d.h.latency(payload, 1)
	return err
}

// Throughput offers count packets and returns achieved pps (UL and DL).
func (d *DPH) Throughput(payload, count int, ul, dl bool) (float64, float64) {
	return d.h.throughput(payload, count, ul, dl)
}
