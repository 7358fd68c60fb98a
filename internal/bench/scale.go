package bench

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"l25gc/internal/gtp"
	"l25gc/internal/metrics"
	"l25gc/internal/onvm"
	"l25gc/internal/pfcp"
	"l25gc/internal/pkt"
	"l25gc/internal/pktbuf"
	"l25gc/internal/rules"
	"l25gc/internal/upf"
)

// Scale experiment parameters: flows many UL flows, each a distinct PFCP
// session, pushed through 3 UPF-U instances by 1, 2 and 4 producers.
const (
	scaleFlows     = 32
	scalePerFlow   = 1500
	scaleInstances = 3
)

// scaleRow is one producer count's measurement.
type scaleRow struct {
	producers int
	pps       float64
	reorders  uint64
	switched  uint64
	dropped   uint64
}

// scaleRun measures sustained UL forwarding through the full fast path
// (N3 ingress, GTP decap, classification, N6 egress) from producers
// goroutines, detecting per-flow sequence reorders at the N6 sink.
func scaleRun(producers int) (scaleRow, error) {
	row := scaleRow{producers: producers}
	n3 := pkt.AddrFrom(10, 100, 0, 2)
	st := upf.NewState("scale", 0)
	c := upf.NewUPFC(st, n3, nil)
	u := upf.NewUPFU(st, c)
	// RingSize above PoolSize bounds in-flight descriptors below every NF
	// ring's capacity: the pool throttles producers instead of overflowing
	// rings, so the run measures switching cost, not queue losses.
	mgr := onvm.NewManager(onvm.Config{PoolSize: 1024, RingSize: 2048, PoolPrefix: "scale"})
	defer mgr.Stop()

	const svc = 1
	for i := 0; i < scaleInstances; i++ {
		if _, err := u.AttachONVM(mgr, svc); err != nil {
			return row, err
		}
	}
	mgr.BindPortNF(uint16(upf.PortN3), svc)

	// Per-flow sequence tracking at the N6 sink, keyed by the flow's RSS
	// hash (flowOf is read-only once traffic starts).
	flowOf := make(map[uint64]int, scaleFlows)
	var last [scaleFlows]atomic.Uint64
	var reorders, received atomic.Uint64
	mgr.RegisterPort(uint16(upf.PortN6), func(frame []byte, meta pktbuf.Meta) {
		f, ok := flowOf[meta.RSS]
		if !ok {
			return
		}
		if prev := last[f].Load(); meta.Seq <= prev {
			reorders.Add(1)
		}
		last[f].Store(meta.Seq)
		received.Add(1)
	})

	// One PFCP session and one prebuilt UL GTP frame per flow.
	frames := make([][]byte, scaleFlows)
	rss := make([]uint64, scaleFlows)
	for f := 0; f < scaleFlows; f++ {
		ueIP := pkt.AddrFrom(10, 62, byte(f>>8), byte(f+1))
		est := &pfcp.SessionEstablishmentRequest{
			NodeID: "smf", CPSEID: uint64(9000 + f), UEIP: ueIP,
			CreatePDRs: []*rules.PDR{
				{ID: 1, Precedence: 32,
					PDI:                rules.PDI{SourceInterface: rules.IfAccess, HasTEID: true, TEID: 0, UEIP: ueIP, HasUEIP: true},
					OuterHeaderRemoval: true, FARID: 1},
			},
			CreateFARs: []*rules.FAR{
				{ID: 1, Action: rules.FARForward, DestInterface: rules.IfCore},
			},
		}
		resp, err := c.Handle(uint64(9000+f), est)
		if err != nil {
			return row, err
		}
		er, ok := resp.(*pfcp.SessionEstablishmentResponse)
		if !ok || er.Cause != pfcp.CauseAccepted || len(er.CreatedPDRs) != 1 {
			return row, fmt.Errorf("flow %d: session establishment rejected", f)
		}
		teid := er.CreatedPDRs[0].TEID

		inner := make([]byte, 192)
		n, err := pkt.BuildUDPv4(inner, ueIP, benchDN, 40000, 9000, 0, make([]byte, 64))
		if err != nil {
			return row, err
		}
		raw := make([]byte, 256)
		gh := gtp.Header{MsgType: gtp.MsgGPDU, TEID: teid, HasQFI: true, QFI: 9, PDUType: 1}
		hn, err := gh.Encode(raw, n)
		if err != nil {
			return row, err
		}
		copy(raw[hn:], inner[:n])
		frames[f] = raw[:hn+n]
		rss[f] = uint64(f)*0x9e3779b97f4a7c15 + 1
		flowOf[rss[f]] = f
	}

	// Offered load: producers generators, each owning a disjoint set of
	// flows and injecting that flow's packets in sequence order.
	start := time.Now()
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for seq := uint64(1); seq <= scalePerFlow; seq++ {
				for f := p; f < scaleFlows; f += producers {
					meta := pktbuf.Meta{Uplink: true, RSS: rss[f], Seq: seq}
					for {
						if err := mgr.Inject(uint16(upf.PortN3), frames[f], meta); err == nil {
							break
						}
						runtime.Gosched()
					}
				}
			}
		}(p)
	}
	wg.Wait()
	want := uint64(scaleFlows * scalePerFlow)
	deadline := time.Now().Add(5 * time.Second)
	for received.Load() < want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	elapsed := time.Since(start)
	if got := received.Load(); got < want {
		return row, fmt.Errorf("%d producers: delivered %d of %d frames", producers, got, want)
	}
	for f := 0; f < scaleFlows; f++ {
		if last[f].Load() != scalePerFlow {
			return row, fmt.Errorf("%d producers: flow %d ended at seq %d, want %d",
				producers, f, last[f].Load(), scalePerFlow)
		}
	}
	row.pps = float64(want) / elapsed.Seconds()
	row.reorders = reorders.Load()
	row.switched, row.dropped = mgr.Stats()
	return row, nil
}

// Scale regenerates the descriptor-switch scaling experiment: UL
// forwarding rate vs producer count with per-flow FIFO verification (§4,
// Receive Side Scaling). Every configuration must deliver every frame with
// zero per-flow reorders. Each producer carries its packets through the
// chain on its own goroutine, so throughput can scale with the producer
// count only once GOMAXPROCS provides a core per producer.
func Scale() (*Result, error) {
	tab := metrics.NewTable("producers", "UL pps", "reorders", "switched", "dropped", "speedup")
	var base float64
	for _, p := range []int{1, 2, 4} {
		row, err := scaleRun(p)
		if err != nil {
			return nil, err
		}
		if row.reorders != 0 {
			return nil, fmt.Errorf("%d producers: %d per-flow reorders (ordering invariant broken)",
				row.producers, row.reorders)
		}
		if p == 1 {
			base = row.pps
		}
		tab.Row(row.producers, fmt.Sprintf("%.0f", row.pps), row.reorders,
			row.switched, row.dropped, fmt.Sprintf("%.2fx", row.pps/base))
	}
	return &Result{
		ID:    "scale",
		Title: "Descriptor-switch scaling: UL throughput vs producers, per-flow FIFO checked",
		Table: tab,
		Notes: []string{
			fmt.Sprintf("%d flows x %d pkts through %d UPF-U instances; reorders counted per flow at the N6 sink.",
				scaleFlows, scalePerFlow, scaleInstances),
			fmt.Sprintf("GOMAXPROCS=%d: each producer runs the chain on its own goroutine; parallelism needs a core per producer.",
				runtime.GOMAXPROCS(0)),
		},
	}, nil
}
