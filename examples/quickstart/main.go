// Quickstart: bring up an L²5GC unit, attach a gNB and a UE, register,
// establish a PDU session, and push packets both ways through the
// shared-memory data plane.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"l25gc/internal/core"
	"l25gc/internal/nf/udr"
	"l25gc/internal/pkt"
	"l25gc/internal/ranue"
)

func main() {
	// 1. Start a complete 5GC unit in L²5GC mode (shared-memory SBI + N4,
	//    ONVM-style data plane with PartitionSort PDR lookup).
	c, err := core.New(core.Config{
		Mode: core.ModeL25GC,
		Subscribers: []udr.Subscriber{{
			Supi: "imsi-208930000000001",
			K:    []byte("0123456789abcdef"),
			Opc:  []byte("fedcba9876543210"),
			Dnn:  "internet",
			Sst:  1,
		}},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Stop()
	fmt.Println("5GC unit running; AMF N2 at", c.N2Addr())

	// 2. The data network echoes whatever it receives. A sink is lent the
	//    packet: ipPkt is valid until the hook returns, so the echo is
	//    built (a copy) and injected (another) before it does.
	dn := pkt.AddrFrom(1, 1, 1, 1)
	c.SetN6Sink(func(ipPkt []byte) {
		var p pkt.Parsed
		if p.ParseIPv4(ipPkt) != nil {
			return
		}
		fmt.Printf("DN got %q from %s — echoing\n", p.Payload, p.IP.Src)
		reply := make([]byte, 256)
		n, _ := pkt.BuildUDPv4(reply, dn, p.IP.Src, p.UDP.DstPort, p.UDP.SrcPort, 0, p.Payload)
		c.InjectDL(reply[:n])
	})

	// 3. A gNB attaches over N2 and a UE runs registration + session
	//    establishment (full 5G-AKA, security mode, SMF/UPF provisioning).
	gnb, err := ranue.NewGNB(1, pkt.AddrFrom(10, 100, 0, 10), c.N2Addr(), c)
	if err != nil {
		log.Fatal(err)
	}
	defer gnb.Close()

	ue := ranue.NewUE("imsi-208930000000001", []byte("0123456789abcdef"), []byte("fedcba9876543210"))
	regTime, err := ue.Register(gnb)
	if err != nil {
		log.Fatal(err)
	}
	sessTime, err := ue.EstablishSession(5, "internet")
	if err != nil {
		log.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond) // DL path activation settles
	fmt.Printf("registered in %v, session up in %v, UE IP %s\n", regTime, sessTime, ue.IP())

	// 4. Send uplink and watch the echo come back downlink (OnData borrows
	//    its packet the same way: valid until the hook returns).
	done := make(chan struct{})
	ue.OnData = func(ipPkt []byte) {
		var p pkt.Parsed
		if p.ParseIPv4(ipPkt) == nil {
			fmt.Printf("UE got %q back from %s\n", p.Payload, p.IP.Src)
		}
		close(done)
	}
	if err := ue.SendUplink(dn, 40000, 9000, []byte("hello 5G core")); err != nil {
		log.Fatal(err)
	}
	select {
	case <-done:
		fmt.Println("round trip complete")
	case <-time.After(2 * time.Second):
		log.Fatal("echo never arrived")
	}
}
