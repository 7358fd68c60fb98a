package core

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"l25gc/internal/metrics"
	"l25gc/internal/nf/udr"
	"l25gc/internal/pkt"
	"l25gc/internal/ranue"
)

// The steps of one UE cycle, the event half of the repository benchmark's
// cp_churn workload.
var cycleSteps = [...]string{"reg", "sess", "ho", "idle", "paging", "dereg"}

// cycleRig is an L²5GC core with two gNBs and one subscriber per client.
type cycleRig struct {
	c     *Core
	reg   *metrics.Registry
	gnbs  [2]*ranue.GNB
	supis []string
}

func newCycleRig(tb testing.TB, clients int) *cycleRig {
	tb.Helper()
	r := &cycleRig{reg: metrics.NewRegistry()}
	var subs []udr.Subscriber
	for i := 0; i < clients; i++ {
		r.supis = append(r.supis, fmt.Sprintf("imsi-20893%010d", i+1))
		subs = append(subs, testSubscriber(r.supis[i]))
	}
	c, err := New(Config{Mode: ModeL25GC, NFShards: runtime.GOMAXPROCS(0), Subscribers: subs, Metrics: r.reg})
	if err != nil {
		tb.Fatalf("core start: %v", err)
	}
	tb.Cleanup(c.Stop)
	r.c = c
	for i := range r.gnbs {
		g, err := ranue.NewGNB(uint32(i+1), pkt.AddrFrom(10, 100, 0, byte(10+i)), c.N2Addr(), c)
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { g.Close() })
		r.gnbs[i] = g
	}
	return r
}

// served sums the shm transports' served_inline and served_queued counters
// over every SBI producer and both N4 sides.
func (r *cycleRig) served() (inline, queued uint64) {
	for name, v := range r.reg.Snapshot().Counters {
		switch {
		case strings.HasSuffix(name, ".served_inline"):
			inline += v
		case strings.HasSuffix(name, ".served_queued"):
			queued += v
		}
	}
	return inline, queued
}

// cycle takes one fresh UE through register → session → handover → idle →
// paged reconnect → deregister, handing each step's duration to lat.
func (r *cycleRig) cycle(supi string, lat func(step int, d time.Duration)) error {
	ue := ranue.NewUE(supi, []byte("0123456789abcdef"), []byte("fedcba9876543210"))
	delivered := make(chan struct{}, 1)
	ue.OnData = func([]byte) {
		select {
		case delivered <- struct{}{}:
		default:
		}
	}
	steps := [len(cycleSteps)]func() error{
		func() error { _, err := ue.Register(r.gnbs[0]); return err },
		func() error { _, err := ue.EstablishSession(5, "internet"); return err },
		func() error { _, err := ue.Handover(r.gnbs[1]); return err },
		ue.GoIdle,
		func() error {
			buf := make([]byte, 64)
			n, err := pkt.BuildUDPv4(buf, dnIP, ue.IP(), 9000, 40000, 0, []byte("poke"))
			if err != nil {
				return err
			}
			if err := r.c.InjectDL(buf[:n]); err != nil {
				return err
			}
			_, err = ue.AwaitPagingAndReconnect(3 * time.Second)
			return err
		},
		func() error {
			// The buffered poke must reach the reconnected UE before its
			// tunnel is torn down.
			select {
			case <-delivered:
			case <-time.After(time.Second):
				return fmt.Errorf("buffered DL packet never delivered after paging")
			}
			return ue.Deregister()
		},
	}
	for i, step := range steps {
		start := time.Now()
		if err := step(); err != nil {
			return fmt.Errorf("%s: %w", cycleSteps[i], err)
		}
		lat(i, time.Since(start))
	}
	return nil
}

// BenchmarkUECycle is the local loop for control-plane work: b.N full UE
// cycles on an L²5GC core from one and from two closed-loop clients, with
// each step's median, and the share of shm SBI/N4 requests that were run by
// their own caller, reported beside ns/op. Run it with -cpu 1,2; with
// -benchtime 2000x -cpuprofile it is the profile of cp_churn's event half.
func BenchmarkUECycle(b *testing.B) {
	for _, clients := range []int{1, 2} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			r := newCycleRig(b, clients)
			lats := make([][len(cycleSteps)][]time.Duration, clients)
			run := func(n int) {
				var wg sync.WaitGroup
				for cl := 0; cl < clients; cl++ {
					wg.Add(1)
					go func(cl int) {
						defer wg.Done()
						for i := cl; i < n; i += clients {
							err := r.cycle(r.supis[cl], func(step int, d time.Duration) {
								lats[cl][step] = append(lats[cl][step], d)
							})
							if err != nil {
								b.Errorf("client %d cycle %d: %v", cl, i, err)
								return
							}
						}
					}(cl)
				}
				wg.Wait()
			}
			run(20 * clients) // warm pools, codecs and connection buffers
			for cl := range lats {
				for s := range lats[cl] {
					lats[cl][s] = lats[cl][s][:0]
				}
			}
			inline0, queued0 := r.served()
			b.ReportAllocs()
			b.ResetTimer()
			run(b.N)
			b.StopTimer()
			inline, queued := r.served()
			inline, queued = inline-inline0, queued-queued0
			b.ReportMetric(float64(inline)/float64(inline+queued), "served_inline_share")
			for s, name := range cycleSteps {
				var all []time.Duration
				for cl := range lats {
					all = append(all, lats[cl][s]...)
				}
				if len(all) > 0 {
					slices.Sort(all)
					b.ReportMetric(float64(all[len(all)/2])/1e3, name+"_p50_us")
				}
			}
		})
	}
}

// TestL25GCCoreHasNoTransportGoroutines is the census behind the
// run-to-completion design of the shm transports and the packet path: a
// started L²5GC core that has served a full UE cycle has no goroutine
// belonging to an SBI producer, an SBI reply demultiplexer, an N4
// endpoint, a descriptor-switch worker or an NF instance, and none left
// inside a ring's ownership — the requester's or injector's goroutine
// does that work.
func TestL25GCCoreHasNoTransportGoroutines(t *testing.T) {
	r := newCycleRig(t, 1)
	if err := r.cycle(r.supis[0], func(int, time.Duration) {}); err != nil {
		t.Fatal(err)
	}
	// A straggler still inside an Invoke it made (the AMF activating the DL
	// path after the gNB's response) is a requester, not a transport
	// goroutine, and is gone in a moment: poll, then judge.
	buf := make([]byte, 1<<20)
	var stacks, found string
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		stacks, found = string(buf[:runtime.Stack(buf, true)]), ""
		for _, fn := range []string{
			"sbi.(*ShmServer)", "sbi.(*ShmConn)", "pfcp.(*MemEndpoint)", "pfcp.(*UDPEndpoint).dispatch", "shm.(*Mailbox",
			"onvm.(*Manager).workerLoop", "onvm.(*Instance).run", "ring.(*Owner)",
		} {
			if strings.Contains(stacks, fn) {
				found = fn
			}
		}
		if found == "" || time.Now().After(deadline) {
			break
		}
	}
	if found != "" {
		t.Errorf("an idle core has a goroutine in %s:\n%s", found, stacks)
	}
}
