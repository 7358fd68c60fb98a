package core

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"l25gc/internal/nf/udr"
	"l25gc/internal/pkt"
	"l25gc/internal/ranue"
	"l25gc/internal/upf"
)

// startCoreUEs starts a core of the given mode with n subscribers and one
// gNB, and returns their SUPIs.
func startCoreUEs(t *testing.T, mode Mode, n int) (*Core, *ranue.GNB, []string) {
	t.Helper()
	supis := make([]string, n)
	subs := make([]udr.Subscriber, n)
	for i := range supis {
		supis[i] = fmt.Sprintf("imsi-2089300000001%02d", i)
		subs[i] = testSubscriber(supis[i])
	}
	c, err := New(Config{Mode: mode, Subscribers: subs})
	if err != nil {
		t.Fatalf("core start (%v): %v", mode, err)
	}
	t.Cleanup(c.Stop)
	g, err := ranue.NewGNB(1, pkt.AddrFrom(10, 100, 0, 10), c.N2Addr(), c)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	return c, g, supis
}

// parkDL sends n downlink packets to an idle UE at ip, each carrying its
// sequence number, in steps of 256 that wait for the session buffer to
// follow, so no socket or ring on the way overflows. It gives up a step
// after a second and returns how many were parked, at most n. sample, if
// not nil, runs after each step.
func parkDL(t *testing.T, c *Core, ip pkt.Addr, n int, sample func()) int {
	t.Helper()
	start := c.UPFState.BufferDepth()
	raw := make([]byte, 128)
	var seq [4]byte
	for i := 0; i < n; i++ {
		binary.BigEndian.PutUint32(seq[:], uint32(i))
		k, err := pkt.BuildUDPv4(raw, dnIP, ip, 9000, 40000, 0, seq[:])
		if err != nil {
			t.Fatal(err)
		}
		c.InjectDL(raw[:k]) // a refused packet shows in the depth
		if i%256 == 255 || i == n-1 {
			want := start + i + 1
			for deadline := time.Now().Add(time.Second); c.UPFState.BufferDepth() < want && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
			if sample != nil {
				sample()
			}
		}
	}
	return c.UPFState.BufferDepth() - start
}

// TestParkedSessionsLeavePoolHeadroom fills more idle sessions to their
// packet cap than the mode's packet pool has buffers for (8 192 on the
// shared-memory platform, 4 096 in the kernel path), then requires an
// active UE to forward every packet it sends and every packet sent to it.
// A parked packet keeps its bytes in its session buffer, not a pool
// buffer, so idle sessions cannot starve active ones.
func TestParkedSessionsLeavePoolHeadroom(t *testing.T) {
	for _, tc := range []struct {
		mode Mode
		idle int
	}{{ModeL25GC, 3}, {ModeONVMUPF, 3}, {ModeFree5GC, 2}} {
		t.Run(tc.mode.String(), func(t *testing.T) {
			c, g, supis := startCoreUEs(t, tc.mode, tc.idle+1)
			for _, supi := range supis[:tc.idle] {
				ue := fullAttach(t, c, g, supi)
				if err := ue.GoIdle(); err != nil {
					t.Fatalf("go idle: %v", err)
				}
				parkDL(t, c, ue.IP(), upf.DefaultBufferCap, nil)
			}

			var ul, dl atomic.Int64
			c.SetN6Sink(func([]byte) { ul.Add(1) })
			ue := fullAttach(t, c, g, supis[tc.idle])
			ue.OnData = func([]byte) { dl.Add(1) }
			const n = 100
			raw := make([]byte, 128)
			k, err := pkt.BuildUDPv4(raw, dnIP, ue.IP(), 9000, 40000, 0, []byte("active"))
			if err != nil {
				t.Fatal(err)
			}
			var ulErr, dlErr error
			for i := 0; i < n; i++ {
				if err := ue.SendUplink(dnIP, 40000, 9000, []byte("active")); err != nil {
					ulErr = err
				}
				if err := c.InjectDL(raw[:k]); err != nil {
					dlErr = err
				}
				if i%16 == 15 {
					time.Sleep(time.Millisecond) // the kernel path's sockets
				}
			}
			for deadline := time.Now().Add(2 * time.Second); (ul.Load() < n || dl.Load() < n) && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
			if ul.Load() != n || dl.Load() != n {
				t.Fatalf("active UE forwarded %d of %d uplink (last error %v), %d of %d downlink (%v)",
					ul.Load(), n, ulErr, dl.Load(), n, dlErr)
			}
			if d, want := c.UPFState.BufferDepth(), tc.idle*upf.DefaultBufferCap; d != want {
				t.Fatalf("%d packets parked, want %d", d, want)
			}
		})
	}
}

// TestPagingDrainPopulatesNothing parks 2 048 packets for an idle UE, as
// the benchmark's sleeper does, and pages it: every packet arrives, in
// order, and the packet pool populates no more than its first two chunks
// while they park or drain, since a drain rebuilds the parked packets a
// burst at a time.
func TestPagingDrainPopulatesNothing(t *testing.T) {
	const parked, maxPopulated = 2048, 512
	c, g, supis := startCoreUEs(t, ModeL25GC, 1)
	pool := c.mgr.Pool()
	var peak atomic.Int64
	sample := func() {
		for p := int64(pool.Populated()); ; {
			if old := peak.Load(); p <= old || peak.CompareAndSwap(old, p) {
				return
			}
		}
	}
	ue := fullAttach(t, c, g, supis[0])
	var next, bad atomic.Uint32
	ue.OnData = func(ip []byte) {
		var p pkt.Parsed
		if p.ParseIPv4(ip) != nil || len(p.Payload) != 4 || binary.BigEndian.Uint32(p.Payload) != next.Load() {
			bad.Add(1)
		}
		next.Add(1)
		sample()
	}
	if err := ue.GoIdle(); err != nil {
		t.Fatalf("go idle: %v", err)
	}
	if got := parkDL(t, c, ue.IP(), parked, sample); got != parked {
		t.Fatalf("%d of %d packets parked", got, parked)
	}
	if _, err := ue.AwaitPagingAndReconnect(3 * time.Second); err != nil {
		t.Fatalf("paging: %v", err)
	}
	waitCond(t, func() bool { return next.Load() >= parked }, "every parked packet delivered")
	sample()
	if next.Load() != parked || bad.Load() != 0 {
		t.Fatalf("%d packets delivered, %d damaged or out of order; want %d in order", next.Load(), bad.Load(), parked)
	}
	t.Logf("onvm.pool.populated peaked at %d", peak.Load())
	if p := peak.Load(); p > maxPopulated {
		t.Fatalf("onvm.pool.populated reached %d, want at most %d", p, maxPopulated)
	}
	if b := c.UPFState.ParkedBytes(); b != 0 {
		t.Fatalf("%d parked bytes left after the drain", b)
	}
}
