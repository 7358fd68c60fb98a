package bench

import (
	"context"
	"fmt"
	"time"

	"l25gc/internal/core"
	"l25gc/internal/homodel"
	"l25gc/internal/metrics"
	"l25gc/internal/pkt"
	"l25gc/internal/ranue"
	"l25gc/internal/traffic"
)

// echoHarness wires a live core so that DL packets from the DN probe are
// echoed back uplink by the UE, giving the generator an RTT per packet.
type echoHarness struct {
	h     *dpHarness
	probe *traffic.RTTProbe
}

func newEchoHarness(mode core.Mode) (*echoHarness, func(), error) {
	h, cleanup, err := newDPHarness(mode)
	if err != nil {
		return nil, nil, err
	}
	e := &echoHarness{h: h, probe: traffic.NewRTTProbe()}
	// UE echoes every DL payload back uplink. The packet is only lent to
	// the hook; SendUplink has copied the payload when it returns.
	h.ue.OnData = func(ipPkt []byte) {
		var p pkt.Parsed
		if p.ParseIPv4(ipPkt) != nil {
			return
		}
		h.ue.SendUplink(benchDN, p.UDP.DstPort, p.UDP.SrcPort, p.Payload)
	}
	// The DN resolves echoes to RTT samples (Ack reads the stamp, keeps
	// nothing).
	h.core.SetN6Sink(func(ipPkt []byte) {
		var p pkt.Parsed
		if p.ParseIPv4(ipPkt) == nil {
			e.probe.Ack(p.Payload)
		}
	})
	return e, cleanup, nil
}

// sendDL stamps and injects one DL probe packet.
func (e *echoHarness) sendDL() error {
	payload := make([]byte, 32)
	if _, err := e.probe.Stamp(payload); err != nil {
		return err
	}
	buf := make([]byte, 128)
	n, err := pkt.BuildUDPv4(buf, benchDN, e.h.ueIP, 9000, 40000, 0, payload)
	if err != nil {
		return err
	}
	return e.h.core.InjectDL(buf[:n])
}

// cbr runs a DL CBR stream of count packets at ratePps.
func (e *echoHarness) cbr(ratePps, count int) error {
	return traffic.RunCBR(context.Background(), ratePps, count, func(int) error {
		return e.sendDL()
	})
}

// settle waits for in-flight echoes to drain.
func (e *echoHarness) settle() {
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if e.probe.Outstanding() == 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// pagingRow runs the Table 1 experiment for one mode.
type pagingRow struct {
	baseRTT    time.Duration
	pagingTime time.Duration
	rttAfter   time.Duration
	higher     uint64
}

func runPaging(mode core.Mode) (*pagingRow, error) {
	e, cleanup, err := newEchoHarness(mode)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	const rate = 10000 // 10 Kpps as in §5.4.2

	// Phase 1: base RTT with the UE active.
	if err := e.cbr(rate, 1000); err != nil {
		return nil, err
	}
	e.settle()
	base := e.probe.Hist.Window()
	row := &pagingRow{baseRTT: base.Mean()}

	// Phase 2: UE sleeps; DL data triggers paging; packets buffer at the
	// UPF and drain once the UE reconnects.
	if err := e.h.ue.GoIdle(); err != nil {
		return nil, err
	}
	pagingDone := make(chan error, 1)
	go func() {
		t, err := e.h.ue.AwaitPagingAndReconnect(5 * time.Second)
		row.pagingTime = t
		pagingDone <- err
	}()
	if err := e.cbr(rate, 2000); err != nil {
		return nil, err
	}
	if err := <-pagingDone; err != nil {
		return nil, fmt.Errorf("paging: %w", err)
	}
	e.settle()
	after := e.probe.Hist.Window()
	after = after.Since(&base)
	row.rttAfter = after.Max() // worst queue-drain RTT after paging
	row.higher = uint64(after.CountAbove(4 * row.baseRTT))
	return row, nil
}

// Table1 regenerates the paging-event table (and the Fig. 13 series).
func Table1() (*Result, error) {
	tab := metrics.NewTable("system", "Base RTT", "Paging time", "RTT after paging", "#Pkts RTT>4x base")
	for _, mode := range []core.Mode{core.ModeFree5GC, core.ModeL25GC} {
		row, err := runPaging(mode)
		if err != nil {
			return nil, fmt.Errorf("%v: %w", mode, err)
		}
		tab.Row(mode.String(), row.baseRTT, row.pagingTime, row.rttAfter, row.higher)
	}
	return &Result{
		ID:    "table1",
		Title: "Control and data plane behavior during a paging event (10 Kpps DL)",
		Table: tab,
		Notes: []string{
			"paper: base RTT 116us -> 25us (4x), paging 59ms -> 28ms (~2x),",
			"RTT after paging 63ms -> 30ms, and fewer than half the packets see higher RTT.",
		},
	}, nil
}

// hoRow is one Table 2 row.
type hoRow struct {
	baseRTT  time.Duration
	hoTime   time.Duration
	rttAfter time.Duration
	higher   uint64
	dropped  int
}

func runHandover(mode core.Mode, concurrent bool) (*hoRow, error) {
	e, cleanup, err := newEchoHarness(mode)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	g2, err := ranue.NewGNB(2, pkt.AddrFrom(10, 100, 0, 11), e.h.core.N2Addr(), e.h.core)
	if err != nil {
		return nil, err
	}
	defer g2.Close()

	// Optional concurrent session (expt ii): a second UE with its own CBR.
	var stopOther context.CancelFunc
	if concurrent {
		ue2 := ranue.NewUE("imsi-208930000000002", []byte("0123456789abcdef"), []byte("fedcba9876543210"))
		g1b, err := ranue.NewGNB(3, pkt.AddrFrom(10, 100, 0, 12), e.h.core.N2Addr(), e.h.core)
		if err != nil {
			return nil, err
		}
		defer g1b.Close()
		if _, err := ue2.Register(g1b); err != nil {
			return nil, err
		}
		if _, err := ue2.EstablishSession(5, "internet"); err != nil {
			return nil, err
		}
		time.Sleep(20 * time.Millisecond)
		ctx, cancel := context.WithCancel(context.Background())
		stopOther = cancel
		ue2IP := ue2.IP()
		go traffic.RunCBR(ctx, 5000, 1<<30, func(int) error {
			buf := make([]byte, 128)
			n, _ := pkt.BuildUDPv4(buf, benchDN, ue2IP, 9000, 40001, 0, make([]byte, 32))
			return e.h.core.InjectDL(buf[:n])
		})
		defer cancel()
	}

	const rate = 10000
	if err := e.cbr(rate, 1000); err != nil {
		return nil, err
	}
	e.settle()
	base := e.probe.Hist.Window()
	row := &hoRow{baseRTT: base.Mean()}

	// Handover at "1 second": run CBR and trigger HO concurrently.
	hoDone := make(chan error, 1)
	go func() {
		t, err := e.h.ue.Handover(g2)
		row.hoTime = t
		hoDone <- err
	}()
	if err := e.cbr(rate, 3000); err != nil {
		return nil, err
	}
	if err := <-hoDone; err != nil {
		return nil, fmt.Errorf("handover: %w", err)
	}
	e.settle()
	after := e.probe.Hist.Window()
	after = after.Since(&base)
	row.rttAfter = after.Max()
	row.higher = uint64(after.CountAbove(4 * row.baseRTT))
	row.dropped = e.probe.Outstanding()
	if stopOther != nil {
		stopOther()
	}
	return row, nil
}

// Table2 regenerates the handover-event table (and the Fig. 14 series).
func Table2() (*Result, error) {
	tab := metrics.NewTable("system", "Base RTT", "HO time", "RTT after HO", "#Pkts RTT>4x base", "#Pkts dropped")
	for _, expt := range []struct {
		name       string
		concurrent bool
	}{{"expt i", false}, {"expt ii", true}} {
		for _, mode := range []core.Mode{core.ModeFree5GC, core.ModeL25GC} {
			row, err := runHandover(mode, expt.concurrent)
			if err != nil {
				return nil, fmt.Errorf("%v %s: %w", mode, expt.name, err)
			}
			tab.Row(fmt.Sprintf("%s (%s)", mode, expt.name),
				row.baseRTT, row.hoTime, row.rttAfter, row.higher, row.dropped)
		}
	}
	return &Result{
		ID:    "table2",
		Title: "Control and data plane behavior during a handover (10 Kpps DL)",
		Table: tab,
		Notes: []string{
			"paper: HO time 227ms -> 130ms (expt i) and 231ms -> 132ms (expt ii);",
			"free5GC drops up to 43 packets in expt ii even with a 3K buffer; L25GC drops none.",
		},
	}, nil
}

// SmartBuf regenerates the Eq. 1 / Eq. 2 analysis of §5.4.2.
func SmartBuf() (*Result, error) {
	tab := metrics.NewTable("case", "drops L25GC", "drops 3GPP", "OWD L25GC", "OWD 3GPP", "hairpin penalty")
	for _, c := range homodel.PaperCases() {
		tab.Row(c.Name, c.DropsL25GC, c.Drops3GPP, c.OWDL25GC, c.OWD3GPP, c.OWD3GPP-c.OWDL25GC)
	}
	return &Result{
		ID:    "smartbuf",
		Title: "Smart buffering benefit: packet drops (Eq. 1) and one-way delay (Eq. 2)",
		Table: tab,
		Notes: []string{
			"t_HO = 130 ms, DL = 10 Kpps, 10 ms UPF<->gNB propagation;",
			"paper: ~800 drops in the equal-buffer case for both schemes; zero at the UPF with",
			"1500-packet buffering while the gNB still loses ~800; hairpin adds 20 ms.",
		},
	}, nil
}
