package core

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"l25gc/internal/nf/udr"
	"l25gc/internal/pkt"
	"l25gc/internal/ranue"
)

var dnIP = pkt.AddrFrom(1, 1, 1, 1)

func testSubscriber(supi string) udr.Subscriber {
	return udr.Subscriber{
		Supi: supi,
		K:    []byte("0123456789abcdef"),
		Opc:  []byte("fedcba9876543210"),
		Dnn:  "internet",
		Sst:  1,
	}
}

func startCore(t *testing.T, mode Mode) *Core {
	t.Helper()
	c, err := New(Config{
		Mode: mode,
		Subscribers: []udr.Subscriber{
			testSubscriber("imsi-208930000000001"),
			testSubscriber("imsi-208930000000002"),
		},
	})
	if err != nil {
		t.Fatalf("core start (%v): %v", mode, err)
	}
	t.Cleanup(c.Stop)
	return c
}

// fullAttach registers a UE and establishes a session at gNB g.
func fullAttach(t *testing.T, c *Core, g *ranue.GNB, supi string) *ranue.UE {
	t.Helper()
	ue := ranue.NewUE(supi, []byte("0123456789abcdef"), []byte("fedcba9876543210"))
	if _, err := ue.Register(g); err != nil {
		t.Fatalf("register: %v", err)
	}
	if _, err := ue.EstablishSession(5, "internet"); err != nil {
		t.Fatalf("session: %v", err)
	}
	// The AMF activates the DL path asynchronously after the gNB's
	// resource response; give it a moment.
	time.Sleep(50 * time.Millisecond)
	return ue
}

// echoDN wires the N6 side as an echo server: every UL packet is turned
// around as a DL packet to the UE.
func echoDN(t *testing.T, c *Core) *sync.Map {
	t.Helper()
	var got sync.Map // seq payloads seen uplink
	c.SetN6Sink(func(ipPkt []byte) {
		var p pkt.Parsed
		if err := p.ParseIPv4(ipPkt); err != nil {
			return
		}
		got.Store(string(p.Payload), true)
		reply := make([]byte, 256)
		n, err := pkt.BuildUDPv4(reply, dnIP, p.IP.Src, p.UDP.DstPort, p.UDP.SrcPort, 0, p.Payload)
		if err != nil {
			return
		}
		c.InjectDL(reply[:n])
	})
	return &got
}

func testEndToEnd(t *testing.T, mode Mode) {
	c := startCore(t, mode)
	g1, err := ranue.NewGNB(1, pkt.AddrFrom(10, 100, 0, 10), c.N2Addr(), c)
	if err != nil {
		t.Fatal(err)
	}
	defer g1.Close()
	g2, err := ranue.NewGNB(2, pkt.AddrFrom(10, 100, 0, 11), c.N2Addr(), c)
	if err != nil {
		t.Fatal(err)
	}
	defer g2.Close()

	echoDN(t, c)
	ue := fullAttach(t, c, g1, "imsi-208930000000001")

	// Bidirectional data: send uplink, expect the echo downlink.
	var mu sync.Mutex
	var dl []string
	ue.OnData = func(ipPkt []byte) {
		var p pkt.Parsed
		if p.ParseIPv4(ipPkt) == nil {
			mu.Lock()
			dl = append(dl, string(p.Payload))
			mu.Unlock()
		}
	}
	if err := ue.SendUplink(dnIP, 40000, 9000, []byte("ping-1")); err != nil {
		t.Fatal(err)
	}
	waitCond(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(dl) == 1 && dl[0] == "ping-1"
	}, "echo round trip")

	// --- paging: UE goes idle, DL data triggers paging, UE reconnects ---
	if err := ue.GoIdle(); err != nil {
		t.Fatalf("go idle: %v", err)
	}
	// DL packet for the idle UE: must be buffered, not delivered yet.
	dlPkt := make([]byte, 256)
	n, _ := pkt.BuildUDPv4(dlPkt, dnIP, ue.IP(), 9000, 40000, 0, []byte("wake-up"))
	if err := c.InjectDL(dlPkt[:n]); err != nil {
		t.Fatal(err)
	}
	pagingTime, err := ue.AwaitPagingAndReconnect(3 * time.Second)
	if err != nil {
		t.Fatalf("paging: %v", err)
	}
	t.Logf("%v paging event time: %v", mode, pagingTime)
	waitCond(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(dl) >= 2 && dl[len(dl)-1] == "wake-up"
	}, "buffered DL packet delivered after paging")

	// --- handover to gNB 2 with data in flight ---
	hoTime, err := ue.Handover(g2)
	if err != nil {
		t.Fatalf("handover: %v", err)
	}
	t.Logf("%v handover event time: %v", mode, hoTime)
	// Data still flows via the new gNB.
	if err := ue.SendUplink(dnIP, 40000, 9000, []byte("ping-2")); err != nil {
		t.Fatal(err)
	}
	waitCond(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		for _, d := range dl {
			if d == "ping-2" {
				return true
			}
		}
		return false
	}, "echo after handover")
}

func waitCond(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestEndToEndL25GC(t *testing.T)   { testEndToEnd(t, ModeL25GC) }
func TestEndToEndFree5GC(t *testing.T) { testEndToEnd(t, ModeFree5GC) }
func TestEndToEndONVMUPF(t *testing.T) { testEndToEnd(t, ModeONVMUPF) }

func TestTwoUEsConcurrently(t *testing.T) {
	c := startCore(t, ModeL25GC)
	g, err := ranue.NewGNB(1, pkt.AddrFrom(10, 100, 0, 10), c.N2Addr(), c)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	echoDN(t, c)

	ue1 := fullAttach(t, c, g, "imsi-208930000000001")
	ue2 := fullAttach(t, c, g, "imsi-208930000000002")
	if ue1.IP() == ue2.IP() {
		t.Fatalf("UEs share an IP: %v", ue1.IP())
	}
	var mu sync.Mutex
	got := map[string]bool{}
	sink := func(ipPkt []byte) {
		var p pkt.Parsed
		if p.ParseIPv4(ipPkt) == nil {
			mu.Lock()
			got[string(p.Payload)] = true
			mu.Unlock()
		}
	}
	ue1.OnData = sink
	ue2.OnData = sink
	ue1.SendUplink(dnIP, 1, 2, []byte("from-ue1"))
	ue2.SendUplink(dnIP, 1, 2, []byte("from-ue2"))
	waitCond(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return got["from-ue1"] && got["from-ue2"]
	}, "both UEs' echoes")
}

func TestModeString(t *testing.T) {
	for m, want := range map[Mode]string{
		ModeL25GC: "l25gc", ModeFree5GC: "free5gc", ModeONVMUPF: "onvm-upf", Mode(9): "unknown",
	} {
		if m.String() != want {
			t.Errorf("Mode(%d).String() = %q, want %q", m, m.String(), want)
		}
	}
}

func TestUnknownSubscriberRejected(t *testing.T) {
	c := startCore(t, ModeL25GC)
	g, err := ranue.NewGNB(1, pkt.AddrFrom(10, 100, 0, 10), c.N2Addr(), c)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	ue := ranue.NewUE("imsi-999999", []byte("0123456789abcdef"), nil)
	if _, err := ue.Register(g); err == nil {
		t.Fatal("unknown subscriber must not register")
	}
}

func TestDeregistration(t *testing.T) {
	c := startCore(t, ModeL25GC)
	g, err := ranue.NewGNB(1, pkt.AddrFrom(10, 100, 0, 10), c.N2Addr(), c)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	echoDN(t, c)
	ue := fullAttach(t, c, g, "imsi-208930000000001")
	if c.UPFState.Sessions() != 1 {
		t.Fatalf("sessions = %d", c.UPFState.Sessions())
	}
	if err := ue.Deregister(); err != nil {
		t.Fatalf("deregister: %v", err)
	}
	// The UPF session is torn down; DL traffic for the old IP drops.
	waitCond(t, func() bool { return c.UPFState.Sessions() == 0 }, "UPF session removal")
	if err := ue.SendUplink(dnIP, 1, 2, []byte("x")); err == nil {
		t.Fatal("uplink after deregistration should fail")
	}
	// The SUPI can register again from scratch.
	ue2 := ranue.NewUE("imsi-208930000000001", []byte("0123456789abcdef"), []byte("fedcba9876543210"))
	if _, err := ue2.Register(g); err != nil {
		t.Fatalf("re-register: %v", err)
	}
	if _, err := ue2.EstablishSession(5, "internet"); err != nil {
		t.Fatalf("re-establish: %v", err)
	}
}

func TestCanaryUPFRollout(t *testing.T) {
	// §4: a second UPF-U instance (the canary) joins the same service ID
	// and receives a configured share of new flows.
	c := startCore(t, ModeL25GC)
	g, err := ranue.NewGNB(1, pkt.AddrFrom(10, 100, 0, 10), c.N2Addr(), c)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	echoDN(t, c)
	ue := fullAttach(t, c, g, "imsi-208930000000001")

	sw0, _ := c.mgr.Stats()
	inst, err := c.DeployUPFCanary(50)
	if err != nil {
		t.Fatal(err)
	}
	// Push UL traffic with many distinct flow hashes; both instances
	// must see packets. Every descriptor the switch hands to a UPF-U
	// instance counts, the echoed DL packets as well as the UL ones.
	for i := 0; i < 400; i++ {
		if err := ue.SendUplink(dnIP, uint16(1000+i), 9000, []byte("canary-probe")); err != nil {
			t.Fatal(err)
		}
		if i%64 == 0 {
			time.Sleep(time.Millisecond)
		}
	}
	shares := func() (canary, all uint64) {
		rx, _ := inst.Stats()
		sw, _ := c.mgr.Stats()
		return rx, sw - sw0
	}
	waitCond(t, func() bool {
		canary, all := shares()
		return canary > 0 && all > canary
	}, "both instances receiving traffic")
	canary, all := shares()
	t.Logf("canary received %d of %d descriptors", canary, all)
	if canary == 0 || canary >= all {
		t.Fatalf("canary share %d/%d, want strictly between 0 and 1 at 50%%", canary, all)
	}
}

func TestTwoUnitsIsolated(t *testing.T) {
	// §4 scaling: multiple 5GC units in one serving region, each with its
	// own security-domain pool prefix; each UE is pinned to one unit for
	// its session lifetime.
	c1, err := New(Config{Mode: ModeL25GC, PoolPrefix: "unit-1",
		Subscribers: []udr.Subscriber{testSubscriber("imsi-208930000000001")}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c1.Stop)
	c2, err := New(Config{Mode: ModeL25GC, PoolPrefix: "unit-2",
		Subscribers: []udr.Subscriber{testSubscriber("imsi-208930000000002")}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c2.Stop)
	units := []*Core{c1, c2}

	attach := func(u int, supi string) (*Core, *ranue.UE, *ranue.GNB) {
		c := units[u]
		g, err := ranue.NewGNB(uint32(10+u), pkt.AddrFrom(10, 100, byte(u), 10), c.N2Addr(), c)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { g.Close() })
		ue := fullAttach(t, c, g, supi)
		return c, ue, g
	}
	cA, ueA, _ := attach(0, "imsi-208930000000001")
	cB, ueB, _ := attach(1, "imsi-208930000000002")
	// Each unit serves its own UE's session independently.
	if cA.UPFState.Sessions() != 1 || cB.UPFState.Sessions() != 1 {
		t.Fatalf("sessions %d/%d", cA.UPFState.Sessions(), cB.UPFState.Sessions())
	}
	_ = ueA
	_ = ueB
}

// Register→session→deregister churn must not grow the live heap: every
// control-plane wait in ranue arms a multi-second timer, and one that is
// not stopped when the awaited message arrives stays on the heap until
// it would have fired — seconds of churn's worth under go 1.22 timers.
func TestUEChurnHeapFlat(t *testing.T) {
	c := startCore(t, ModeL25GC)
	g, err := ranue.NewGNB(1, pkt.AddrFrom(10, 100, 0, 10), c.N2Addr(), c)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	cycle := func(n int) {
		for i := 0; i < n; i++ {
			ue := ranue.NewUE("imsi-208930000000001", []byte("0123456789abcdef"), []byte("fedcba9876543210"))
			if _, err := ue.Register(g); err != nil {
				t.Fatalf("cycle %d register: %v", i, err)
			}
			if _, err := ue.EstablishSession(5, "internet"); err != nil {
				t.Fatalf("cycle %d session: %v", i, err)
			}
			if err := ue.Deregister(); err != nil {
				t.Fatalf("cycle %d deregister: %v", i, err)
			}
		}
	}
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	cycle(100) // warm pools, codecs and connection buffers
	before := heap()
	cycle(1500)
	after := heap()
	t.Logf("live heap %d KB -> %d KB over 1500 churn cycles", before>>10, after>>10)
	if after > before+1<<20 {
		t.Fatalf("live heap grew %d KB", (after-before)>>10)
	}
}
