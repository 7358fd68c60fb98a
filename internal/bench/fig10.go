package bench

import (
	"fmt"
	"sync/atomic"
	"time"

	"l25gc/internal/core"
	"l25gc/internal/gtp"
	"l25gc/internal/metrics"
	"l25gc/internal/pkt"
	"l25gc/internal/ranue"
)

// fig10Sizes are the swept packet sizes (payload bytes of the inner IP
// packet; the paper sweeps 64B..1500B frames).
var fig10Sizes = []int{64, 128, 256, 512, 1024, 1400}

// dpHarness is one attached core with a session, ready for raw packet
// injection on both sides.
type dpHarness struct {
	core    *core.Core
	ue      *ranue.UE
	ueIP    pkt.Addr
	upfTEID uint32

	dlRecv atomic.Uint64 // frames delivered to the gNB
	ulRecv atomic.Uint64 // packets delivered to the DN

	// The latency probe's state, kept from call to call so that a probe
	// allocates nothing of its own: while probing, each DL delivery's
	// arrival time goes to arrived; dl is the last probe packet built.
	probing atomic.Bool
	arrived chan time.Time
	timeout *time.Timer
	dl      []byte
}

func newDPHarness(mode core.Mode) (*dpHarness, func(), error) {
	c, err := core.New(core.Config{Mode: mode, Subscribers: benchSubscribers(2)})
	if err != nil {
		return nil, nil, err
	}
	h := &dpHarness{core: c, arrived: make(chan time.Time, 1), timeout: time.NewTimer(time.Hour)}
	h.timeout.Stop()
	cleanup := func() { c.Stop() }
	g, err := ranue.NewGNB(1, pkt.AddrFrom(10, 100, 0, 10), c.N2Addr(), c)
	if err != nil {
		cleanup()
		return nil, nil, err
	}
	cleanup2 := func() { g.Close(); c.Stop() }
	h.ue = ranue.NewUE("imsi-208930000000001", []byte("0123456789abcdef"), []byte("fedcba9876543210"))
	if _, err := h.ue.Register(g); err != nil {
		cleanup2()
		return nil, nil, err
	}
	if _, err := h.ue.EstablishSession(5, "internet"); err != nil {
		cleanup2()
		return nil, nil, err
	}
	time.Sleep(30 * time.Millisecond)
	h.ueIP = h.ue.IP()
	// Count DL deliveries at the UE and UL deliveries at the DN.
	h.ue.OnData = func([]byte) {
		h.dlRecv.Add(1)
		if h.probing.Load() {
			select {
			case h.arrived <- time.Now():
			default:
			}
		}
	}
	c.SetN6Sink(func([]byte) { h.ulRecv.Add(1) })

	// Discover the UPF's UL TEID by sending one probe through the UE.
	ctx, ok := c.UPFState.ByUEIP(h.ueIP)
	if !ok {
		cleanup2()
		return nil, nil, fmt.Errorf("session missing at UPF")
	}
	h.upfTEID = ctx.LocalTEID
	return h, cleanup2, nil
}

// ulFrame builds a GTP-U encapsulated UL frame with the given inner
// payload size.
func (h *dpHarness) ulFrame(payload int) []byte {
	inner := make([]byte, pkt.IPv4MinLen+pkt.UDPLen+payload)
	n, _ := pkt.BuildUDPv4(inner, h.ueIP, benchDN, 40000, 9000, 0, make([]byte, payload))
	frame := make([]byte, n+32)
	hd := gtp.Header{MsgType: gtp.MsgGPDU, TEID: h.upfTEID, HasQFI: true, QFI: 9, PDUType: 1}
	hn, _ := hd.Encode(frame, n)
	copy(frame[hn:], inner[:n])
	return frame[:hn+n]
}

// dlPacket builds a plain-IP DL packet with the given payload size.
func (h *dpHarness) dlPacket(payload int) []byte {
	buf := make([]byte, pkt.IPv4MinLen+pkt.UDPLen+payload)
	n, _ := pkt.BuildUDPv4(buf, benchDN, h.ueIP, 9000, 40000, 0, make([]byte, payload))
	return buf[:n]
}

// throughput measures the pipeline's sustained forwarding rate in
// packets/sec. Packets are offered in bounded batches (small enough to fit
// every buffer on the path), and each batch is timed from first send to
// full delivery — so the measurement reflects per-packet processing cost,
// not queue-overflow losses. On the paper's testbed MoonGen offers line
// rate from a separate machine; on one shared CPU bounded batches are the
// honest equivalent.
func (h *dpHarness) throughput(payload, count int, ul, dl bool) (ulPps, dlPps float64) {
	ulF := h.ulFrame(payload)
	dlP := h.dlPacket(payload)
	const batch = 128
	h.ulRecv.Store(0)
	h.dlRecv.Store(0)
	var busy time.Duration
	sent := 0
	for sent < count {
		n := batch
		if count-sent < n {
			n = count - sent
		}
		wantUL := h.ulRecv.Load()
		wantDL := h.dlRecv.Load()
		if ul {
			wantUL += uint64(n)
		}
		if dl {
			wantDL += uint64(n)
		}
		start := time.Now()
		for i := 0; i < n; i++ {
			if ul {
				for h.core.SendUL(ulF) != nil {
					time.Sleep(10 * time.Microsecond)
				}
			}
			if dl {
				for h.core.InjectDL(dlP) != nil {
					time.Sleep(10 * time.Microsecond)
				}
			}
		}
		// Drain deadline is deliberately short: kernel-socket UDP drops
		// tail packets of a burst (as the real free5GC does at line rate),
		// and a lost packet should cost its loss, not a long timeout.
		deadline := time.Now().Add(50 * time.Millisecond)
		for (h.ulRecv.Load() < wantUL || h.dlRecv.Load() < wantDL) && time.Now().Before(deadline) {
			time.Sleep(20 * time.Microsecond)
		}
		busy += time.Since(start)
		sent += n
	}
	el := busy.Seconds()
	return float64(h.ulRecv.Load()) / el, float64(h.dlRecv.Load()) / el
}

// latency measures mean end-to-end one-way latency at a low offered rate:
// count DL packets, each sent once the one before has arrived.
func (h *dpHarness) latency(payload, count int) (time.Duration, error) {
	if len(h.dl) != pkt.IPv4MinLen+pkt.UDPLen+payload {
		h.dl = h.dlPacket(payload)
	}
	h.probing.Store(true)
	defer h.probing.Store(false)
	var total time.Duration
	for i := 0; i < count; i++ {
		sent := time.Now()
		if err := h.core.InjectDL(h.dl); err != nil {
			return 0, err
		}
		h.timeout.Reset(time.Second)
		select {
		case at := <-h.arrived:
			if !h.timeout.Stop() {
				<-h.timeout.C
			}
			total += at.Sub(sent)
		case <-h.timeout.C:
			return 0, fmt.Errorf("latency probe %d lost", i)
		}
	}
	return total / time.Duration(count), nil
}

// Fig10 regenerates the data-plane comparison: throughput (uni- and
// bidirectional) and mean end-to-end latency across packet sizes, for the
// kernel-socket path (free5GC) and the shared-memory path (L²5GC).
func Fig10() (*Result, error) {
	const pkts = 3000
	tab := metrics.NewTable("size(B)", "system", "UL pps", "DL pps", "bidir pps", "DL latency")
	for _, mode := range []core.Mode{core.ModeFree5GC, core.ModeL25GC} {
		h, cleanup, err := newDPHarness(mode)
		if err != nil {
			return nil, fmt.Errorf("%v: %w", mode, err)
		}
		for _, size := range fig10Sizes {
			ul, _ := h.throughput(size, pkts, true, false)
			_, dl := h.throughput(size, pkts, false, true)
			bu, bd := h.throughput(size, pkts/2, true, true)
			lat, err := h.latency(size, 50)
			if err != nil {
				cleanup()
				return nil, fmt.Errorf("%v latency: %w", mode, err)
			}
			tab.Row(size, mode.String(),
				fmt.Sprintf("%.0f", ul), fmt.Sprintf("%.0f", dl),
				fmt.Sprintf("%.0f", bu+bd), lat)
		}
		cleanup()
	}
	return &Result{
		ID:    "fig10",
		Title: "Data plane throughput and mean end-to-end latency vs packet size",
		Table: tab,
		Notes: []string{
			"paper: 27x UL/DL throughput gain at 64B and ~15x latency gain for L25GC;",
			"free5GC improves slightly with packet size as fixed per-packet cost amortizes.",
		},
	}, nil
}
