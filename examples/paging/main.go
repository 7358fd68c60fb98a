// Paging: a UE goes idle to save battery; a downlink packet arrives; the
// UPF buffers it and reports to the SMF, the AMF pages the UE through its
// last gNB, the UE reconnects with a service request, and the buffered
// packets drain — the full idle-active transition of §2.1 and Fig. 13.
//
//	go run ./examples/paging
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
	c.AMF.Logf = func(format string, args ...any) { fmt.Printf("  amf: "+format+"\n", args...) }

	gnb, err := ranue.NewGNB(1, pkt.AddrFrom(10, 100, 0, 10), c.N2Addr(), c)
	if err != nil {
		log.Fatal(err)
	}
	defer gnb.Close()

	ue := ranue.NewUE("imsi-208930000000001", []byte("0123456789abcdef"), []byte("fedcba9876543210"))
	if _, err := ue.Register(gnb); err != nil {
		log.Fatal(err)
	}
	if _, err := ue.EstablishSession(5, "internet"); err != nil {
		log.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond)

	// ipPkt is valid until the hook returns: string() copies the payload
	// out before it crosses the channel.
	delivered := make(chan string, 16)
	ue.OnData = func(ipPkt []byte) {
		var p pkt.Parsed
		if p.ParseIPv4(ipPkt) == nil {
			delivered <- string(p.Payload)
		}
	}

	// The UE sleeps: the SMF arms buffer+notify at the UPF.
	if err := ue.GoIdle(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("UE idle; UPF buffering armed")

	// Downlink data arrives for the sleeping UE.
	dn := pkt.AddrFrom(1, 1, 1, 1)
	for i := 0; i < 3; i++ {
		buf := make([]byte, 128)
		n, _ := pkt.BuildUDPv4(buf, dn, ue.IP(), 9000, 40000, 0, []byte(fmt.Sprintf("msg-%d", i)))
		if err := c.InjectDL(buf[:n]); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("3 DL packets sent to the idle UE (buffered at the UPF)")

	// The paging chain wakes the UE; buffered packets drain in order.
	pagingTime, err := ue.AwaitPagingAndReconnect(3 * time.Second)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("UE paged and reconnected in %v\n", pagingTime)
	for i := 0; i < 3; i++ {
		select {
		case m := <-delivered:
			fmt.Printf("UE received buffered %q\n", m)
		case <-time.After(2 * time.Second):
			log.Fatal("buffered packet lost")
		}
	}
}
