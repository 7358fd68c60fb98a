// Handover: stream downlink packets to a UE while it performs an N2
// handover between two gNBs. The UPF's smart buffering (§3.3) parks DL
// packets during the handover and releases them, in order, toward the
// target gNB — no packet is lost and none hairpins through the source.
//
//	go run ./examples/handover
package main

import (
	"context"
	"fmt"
	"log"
	"sync/atomic"
	"time"

	"l25gc/internal/core"
	"l25gc/internal/nf/udr"
	"l25gc/internal/pkt"
	"l25gc/internal/ranue"
	"l25gc/internal/traffic"
)

func main() {
	c, err := core.New(core.Config{
		Mode: core.ModeL25GC,
		Subscribers: []udr.Subscriber{{
			Supi: "imsi-208930000000001",
			K:    []byte("0123456789abcdef"), Opc: []byte("fedcba9876543210"),
			Dnn: "internet", Sst: 1,
		}},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Stop()

	g1, err := ranue.NewGNB(1, pkt.AddrFrom(10, 100, 0, 10), c.N2Addr(), c)
	if err != nil {
		log.Fatal(err)
	}
	defer g1.Close()
	g2, err := ranue.NewGNB(2, pkt.AddrFrom(10, 100, 0, 11), c.N2Addr(), c)
	if err != nil {
		log.Fatal(err)
	}
	defer g2.Close()

	ue := ranue.NewUE("imsi-208930000000001", []byte("0123456789abcdef"), []byte("fedcba9876543210"))
	if _, err := ue.Register(g1); err != nil {
		log.Fatal(err)
	}
	if _, err := ue.EstablishSession(5, "internet"); err != nil {
		log.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond)
	fmt.Printf("UE %s attached at gNB 1\n", ue.IP())

	// Count and sequence-check DL deliveries at the UE, inside the hook:
	// ipPkt is valid until it returns.
	var received, outOfOrder atomic.Uint64
	var lastSeq atomic.Int64
	lastSeq.Store(-1)
	ue.OnData = func(ipPkt []byte) {
		var p pkt.Parsed
		if p.ParseIPv4(ipPkt) != nil || len(p.Payload) < 8 {
			return
		}
		seq := int64(p.Payload[0])<<24 | int64(p.Payload[1])<<16 | int64(p.Payload[2])<<8 | int64(p.Payload[3])
		if seq <= lastSeq.Load() {
			outOfOrder.Add(1)
		}
		lastSeq.Store(seq)
		received.Add(1)
	}

	// Stream 10 Kpps downlink; hand over midway.
	dn := pkt.AddrFrom(1, 1, 1, 1)
	const total = 3000
	go func() {
		time.Sleep(100 * time.Millisecond)
		hoTime, err := ue.Handover(g2)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("handover to gNB 2 completed in %v (smart buffering active throughout)\n", hoTime)
	}()
	err = traffic.RunCBR(context.Background(), 10000, total, func(i int) error {
		payload := make([]byte, 16)
		payload[0], payload[1], payload[2], payload[3] = byte(i>>24), byte(i>>16), byte(i>>8), byte(i)
		buf := make([]byte, 128)
		n, _ := pkt.BuildUDPv4(buf, dn, ue.IP(), 9000, 40000, 0, payload)
		return c.InjectDL(buf[:n])
	})
	if err != nil {
		log.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond) // drain

	ctx, _ := c.UPFState.ByUEIP(ue.IP())
	st := ctx.Stats()
	fmt.Printf("delivered %d/%d packets, %d out of order, %d dropped at the UPF\n",
		received.Load(), total, outOfOrder.Load(), st.BufferDropped)
	if st.Buffered > 0 {
		fmt.Printf("UPF parked %d packets during the handover window and released them in order\n", st.Buffered)
	} else {
		fmt.Println("the handover window was shorter than one packet interval — nothing needed parking")
	}
}
