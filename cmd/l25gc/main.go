// Command l25gc runs a complete 5GC unit — L²5GC, the free5GC baseline, or
// the ONVM-UPF hybrid — together with the built-in UE/RAN simulator, then
// drives the paper's four UE events and prints an annotated trace with
// event completion times.
//
// Usage:
//
//	l25gc -mode l25gc -ues 2
//	l25gc -mode free5gc
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"l25gc/internal/core"
	"l25gc/internal/metrics"
	"l25gc/internal/nf/udr"
	"l25gc/internal/pkt"
	"l25gc/internal/ranue"
	"l25gc/internal/telemetry"
	"l25gc/internal/trace"
)

func main() {
	mode := flag.String("mode", "l25gc", "deployment mode: l25gc | free5gc | onvm-upf")
	ues := flag.Int("ues", 1, "number of UEs to run through the event sequence")
	cls := flag.String("classifier", "", "PDR classifier: ll | tss | ps (default per mode)")
	doTrace := flag.Bool("trace", false, "record spans and print a stage breakdown + metrics snapshot")
	traceOut := flag.String("trace-out", "", "write the Chrome trace JSON here (implies -trace)")
	resilience := flag.Bool("resilience", false, "arm the §3.5 supervisor over the AMF and SMF (checkpointed units with frozen standbys)")
	overloadCtl := flag.Bool("overload", false, "arm per-NF admission control (priority-classed shedding with NAS/SBI/PFCP pushback)")
	switchWorkers := flag.Int("switch-workers", 0, "descriptor-switch work shards in the NF manager (0 = min(GOMAXPROCS, 4))")
	flightDump := flag.String("flight-dump", "", "arm the telemetry pipeline and write an on-demand flight-recorder dump (JSON) here at the end of the run (implies -trace)")
	n4assoc := flag.Bool("n4assoc", false, "arm the PFCP association lifecycle on N4 (SMF heartbeats, path-down detection, degraded mode, post-heal reconciliation)")
	nfShards := flag.Int("nf-shards", runtime.GOMAXPROCS(0), "AMF/SMF UE-state shards (per-shard maps, locks and ID allocators; 0 or 1 = one shard)")
	flag.Parse()
	if *traceOut != "" || *flightDump != "" {
		*doTrace = true
	}

	var m core.Mode
	switch *mode {
	case "l25gc":
		m = core.ModeL25GC
	case "free5gc":
		m = core.ModeFree5GC
	case "onvm-upf":
		m = core.ModeONVMUPF
	default:
		fmt.Fprintf(os.Stderr, "unknown mode %q\n", *mode)
		os.Exit(1)
	}

	subs := make([]udr.Subscriber, *ues)
	for i := range subs {
		subs[i] = udr.Subscriber{
			Supi: fmt.Sprintf("imsi-20893000000000%d", i+1),
			K:    []byte("0123456789abcdef"),
			Opc:  []byte("fedcba9876543210"),
			Dnn:  "internet", Sst: 1,
		}
	}
	var tr *trace.Tracer
	var reg *metrics.Registry
	if *doTrace {
		tr = trace.New()
		reg = metrics.NewRegistry()
	}
	var tel *telemetry.Pipeline
	if *flightDump != "" {
		tel = telemetry.New(telemetry.Config{SampleInterval: 100 * time.Millisecond})
	}
	c, err := core.New(core.Config{
		Mode: m, ClsAlgo: *cls, Subscribers: subs, Tracer: tr, Metrics: reg,
		Resilience: *resilience, SwitchWorkers: *switchWorkers,
		Overload: *overloadCtl, Telemetry: tel, NFShards: *nfShards,
		N4Assoc: *n4assoc, N4HeartbeatInterval: 50 * time.Millisecond,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "core start: %v\n", err)
		os.Exit(1)
	}
	defer c.Stop()
	if *resilience {
		fmt.Println("resiliency armed: AMF and SMF run as supervised units (active + frozen standby)")
	}
	if *overloadCtl {
		fmt.Println("overload control armed: per-NF admission with priority shedding and backoff pushback")
	}
	if *n4assoc {
		fmt.Printf("N4 association armed: state %s toward %s (50ms heartbeats)\n",
			c.N4Association().State(), c.N4Association().PeerNodeID())
	}
	c.AMF.Logf = func(format string, args ...any) {
		fmt.Printf("  | "+format+"\n", args...)
	}
	fmt.Printf("5GC unit up (mode %s), AMF N2 at %s\n", m, c.N2Addr())

	g1, err := ranue.NewGNB(1, pkt.AddrFrom(10, 100, 0, 10), c.N2Addr(), c)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer g1.Close()
	g2, err := ranue.NewGNB(2, pkt.AddrFrom(10, 100, 0, 11), c.N2Addr(), c)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer g2.Close()
	fmt.Println("gNB 1 and gNB 2 attached")

	dn := pkt.AddrFrom(1, 1, 1, 1)
	// The sink is lent ipPkt until it returns; it prints and keeps nothing.
	c.SetN6Sink(func(ipPkt []byte) {
		var p pkt.Parsed
		if p.ParseIPv4(ipPkt) == nil {
			fmt.Printf("  | DN received uplink %s -> %s (%d bytes)\n", p.IP.Src, p.IP.Dst, len(ipPkt))
		}
	})

	for i := 0; i < *ues; i++ {
		supi := subs[i].Supi
		fmt.Printf("\n=== UE %s ===\n", supi)
		ue := ranue.NewUE(supi, subs[i].K, subs[i].Opc)
		d, err := ue.Register(g1)
		exitOn(err)
		fmt.Printf("registration complete in %v\n", d)
		d, err = ue.EstablishSession(5, "internet")
		exitOn(err)
		fmt.Printf("PDU session established in %v (UE IP %s)\n", d, ue.IP())
		time.Sleep(30 * time.Millisecond)

		exitOn(ue.SendUplink(dn, 40000, 9000, []byte("hello-from-"+supi)))
		time.Sleep(20 * time.Millisecond)

		d, err = ue.Handover(g2)
		exitOn(err)
		fmt.Printf("N2 handover to gNB 2 in %v\n", d)

		exitOn(ue.GoIdle())
		fmt.Println("UE idle (UPF buffering armed)")
		dl := make([]byte, 96)
		n, _ := pkt.BuildUDPv4(dl, dn, ue.IP(), 9000, 40000, 0, []byte("wake"))
		exitOn(c.InjectDL(dl[:n]))
		d, err = ue.AwaitPagingAndReconnect(3 * time.Second)
		exitOn(err)
		fmt.Printf("paged and reconnected in %v\n", d)
	}
	fmt.Println("\nall UE events completed")

	if *doTrace {
		if bd := tr.Breakdown("pfcp.request.session_establishment"); bd != nil {
			fmt.Println("\nPFCP session establishment stage breakdown:")
			bd.Table().Write(os.Stdout)
		}
		fmt.Println("\nmetrics snapshot:")
		reg.Snapshot().Table().Write(os.Stdout)
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		exitOn(err)
		exitOn(tr.WriteChrome(f))
		exitOn(f.Close())
		fmt.Printf("\nChrome trace written to %s (open in ui.perfetto.dev)\n", *traceOut)
	}
	if *flightDump != "" {
		d := tel.DumpNow("cli.flight-dump")
		f, err := os.Create(*flightDump)
		exitOn(err)
		exitOn(d.WriteJSON(f))
		exitOn(f.Close())
		fmt.Printf("flight-recorder dump (%d events, %d samples) written to %s\n",
			len(d.Events), len(d.Samples), *flightDump)
	}
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
