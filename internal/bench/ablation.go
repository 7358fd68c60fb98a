package bench

import (
	"fmt"
	"net"
	"time"

	"l25gc/internal/classifier"
	"l25gc/internal/metrics"
	"l25gc/internal/resilience"
	"l25gc/internal/shm"
	"l25gc/internal/upf"
)

// Ablation regenerates the design-choice studies DESIGN.md §5 calls out:
// A1 transport choice, A4 checkpoint cadence, A5 classifier under churn.
func Ablation() (*Result, error) {
	tab := metrics.NewTable("ablation", "variant", "result")

	// A1: descriptor-ring pass (enqueue, then the sender drains the idle
	// ring into the consumer's handler) vs Go channel vs kernel UDP socket
	// for a 64-byte message hand-off.
	{
		const iters = 20000
		mb := shm.NewMailbox(1024, func([]byte) {})
		msg := make([]byte, 64)
		ringLat := measure(iters, func() { mb.Send(msg) })
		ch := make(chan []byte, 1024)
		chanLat := measure(iters, func() {
			ch <- msg
			<-ch
		})
		a, _ := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		b, _ := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		defer a.Close()
		defer b.Close()
		bAddr := b.LocalAddr().(*net.UDPAddr)
		rbuf := make([]byte, 256)
		sockLat := measure(2000, func() {
			a.WriteToUDP(msg, bAddr)
			b.ReadFromUDP(rbuf)
		})
		tab.Row("A1 transport", "descriptor ring", ringLat)
		tab.Row("A1 transport", "go channel", chanLat)
		tab.Row("A1 transport", "kernel UDP socket", sockLat)
	}

	// A4: checkpoint cadence — per-event sync vs periodic delta, measured
	// as time to push 200 control events through a checkpointing UPF whose
	// checkpoints reach a replica on another node: snapshot, encode,
	// decode, install.
	{
		const events = 200
		run := func(everyN int) time.Duration {
			st := upf.NewState("ps", 0)
			snap := resilience.NewUPFSnapshotter(st, benchDN)
			replica := resilience.NewLocalReplica(resilience.NewUPFSnapshotter(upf.NewState("ps", 0), benchDN))
			start := time.Now()
			for i := 1; i <= events; i++ {
				st.CreateSession(uint64(i), benchDN)
				if i%everyN == 0 {
					b, _ := snap.Snapshot()
					cp, _ := resilience.DecodeCheckpoint(resilience.Checkpoint{Counter: uint64(i), State: b}.Encode())
					replica.Sync(cp)
				}
			}
			return time.Since(start)
		}
		tab.Row("A4 checkpointing", "per UE event (Neutrino-style)", run(1))
		tab.Row("A4 checkpointing", "periodic (every 20 events, L25GC)", run(20))
	}

	// A5: classifier choice under mixed lookups+updates (1000 rules,
	// 10% updates) — the operational regime where PS's update cost could
	// in principle bite.
	{
		const ops = 20000
		for _, name := range []string{"ll", "tss", "ps"} {
			c := classifier.New(name)
			set := classifier.NewGenerator(classifier.GenRealistic, 3).Generate(1000)
			for _, p := range set {
				c.Insert(p)
			}
			key := classifier.KeyFor(set[700])
			extra := classifier.NewGenerator(classifier.GenRealistic, 9).Generate(1)[0]
			extra.ID = 1 << 30
			start := time.Now()
			for i := 0; i < ops; i++ {
				if i%10 == 0 {
					c.Insert(extra)
					c.Remove(extra.ID)
				} else {
					c.Lookup(&key)
				}
			}
			tab.Row("A5 classifier 90/10 mix", "PDR-"+name, time.Since(start)/time.Duration(ops))
		}
	}

	return &Result{
		ID:    "ablation",
		Title: "Design-choice ablations",
		Table: tab,
		Notes: []string{
			"A1 motivates the shared-memory SBI; A4 motivates periodic over per-event",
			"checkpoints (§3.5.1 reason 2); A5 shows PS wins even with a 10% update mix.",
			fmt.Sprintf("A2/A3 (UPF split, buffer placement) are covered by fig10/smartbuf."),
		},
	}, nil
}
