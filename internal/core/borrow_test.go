package core

import (
	"bytes"
	"encoding/binary"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"l25gc/internal/nf/udr"
	"l25gc/internal/pkt"
	"l25gc/internal/pktbuf"
	"l25gc/internal/ranue"
	"l25gc/internal/testutil"
)

// twoCellRig is a core with two gNBs, one UE with one session on each.
type twoCellRig struct {
	c   *Core
	ues [2]*ranue.UE
}

func newTwoCellRig(t *testing.T, mode Mode) *twoCellRig {
	t.Helper()
	supis := [2]string{"imsi-208930000000001", "imsi-208930000000002"}
	c, err := New(Config{
		Mode:        mode,
		Subscribers: []udr.Subscriber{testSubscriber(supis[0]), testSubscriber(supis[1])},
	})
	if err != nil {
		t.Fatalf("core start (%v): %v", mode, err)
	}
	t.Cleanup(c.Stop)
	r := &twoCellRig{c: c}
	for i, supi := range supis {
		g, err := ranue.NewGNB(uint32(i+1), pkt.AddrFrom(10, 100, 0, byte(10+i)), c.N2Addr(), c)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { g.Close() })
		r.ues[i] = fullAttach(t, c, g, supi)
	}
	return r
}

// seqPayload is a size-byte application payload that names its flow and
// its place in it and differs from its neighbours in every byte.
func seqPayload(size int, flow uint16, seq uint32) []byte {
	p := make([]byte, size)
	for i := range p {
		p[i] = byte(uint32(i)*31 + seq*7 + uint32(flow))
	}
	binary.BigEndian.PutUint16(p, flow)
	binary.BigEndian.PutUint32(p[2:], seq)
	return p
}

func udpPacket(t *testing.T, src, dst pkt.Addr, sport, dport uint16, payload []byte) []byte {
	t.Helper()
	b := make([]byte, pkt.IPv4MinLen+pkt.UDPLen+len(payload))
	if _, err := pkt.BuildUDPv4(b, src, dst, sport, dport, 0, payload); err != nil {
		t.Fatal(err)
	}
	return b
}

// A sink that keeps the slice it was lent reads poison once the platform
// has the buffer back: under the race detector the pool overwrites a
// buffer when its last reference goes, so "kept the slice" is a byte
// mismatch on the first packet, not a corruption that waits for the pool
// to come round. A sink that copies inside the hook sees every packet
// byte-exact, with both cells delivering.
func TestSinkRetentionGuard(t *testing.T) {
	if !testutil.RaceEnabled {
		t.Skip("released buffers are poisoned only in race-detector builds")
	}
	r := newTwoCellRig(t, ModeL25GC)
	pool := r.c.mgr.Pool()
	idle := func() bool { gets, puts := pool.Stats(); return gets == puts }
	ue := r.ues[0]

	t.Run("kept slice reads poison", func(t *testing.T) {
		kept := make(chan []byte, 2)
		keep := func(ip []byte) { kept <- ip } // the bug under test
		r.c.SetN6Sink(keep)
		ue.OnData = keep
		if err := ue.SendUplink(dnIP, 40000, 9000, seqPayload(64, 0, 0)); err != nil {
			t.Fatal(err)
		}
		if err := r.c.InjectDL(udpPacket(t, dnIP, ue.IP(), 9000, 40000, seqPayload(64, 1, 0))); err != nil {
			t.Fatal(err)
		}
		a, b := <-kept, <-kept
		waitCond(t, idle, "both buffers back in the pool")
		for _, ip := range [][]byte{a, b} {
			if len(ip) != pkt.IPv4MinLen+pkt.UDPLen+64 || bytes.Count(ip, []byte{pktbuf.PoisonByte}) != len(ip) {
				t.Fatalf("kept slice after the hook returned: % x, want %d poison bytes", ip, pkt.IPv4MinLen+pkt.UDPLen+64)
			}
		}
	})

	// free5GC mode lends out of one read buffer per socket, poisoned after
	// each hook. A shorter second datagram orders the test after the first
	// one's poisoning and leaves the first one's tail to look at.
	t.Run("kept slice reads poison off a socket", func(t *testing.T) {
		fr := newTwoCellRig(t, ModeFree5GC)
		ue := fr.ues[0]
		kept := make(chan []byte, 4)
		keep := func(ip []byte) { kept <- ip } // the bug under test
		fr.c.SetN6Sink(keep)
		ue.OnData = keep
		var first [2][]byte
		for seq, size := range []int{64, 8} {
			if err := ue.SendUplink(dnIP, 40000, 9000, seqPayload(size, 0, uint32(seq))); err != nil {
				t.Fatal(err)
			}
			if err := fr.c.InjectDL(udpPacket(t, dnIP, ue.IP(), 9000, 40000, seqPayload(size, 1, uint32(seq)))); err != nil {
				t.Fatal(err)
			}
			a, b := <-kept, <-kept
			if seq == 0 {
				first = [2][]byte{a, b}
			}
		}
		for _, ip := range first {
			tail := ip[pkt.IPv4MinLen+pkt.UDPLen+8:]
			if len(tail) != 64-8 || bytes.Count(tail, []byte{pktbuf.PoisonByte}) != len(tail) {
				t.Fatalf("kept slice after the hook returned: % x, want %d trailing poison bytes", ip, 64-8)
			}
		}
	})

	t.Run("copied packet is exact", func(t *testing.T) {
		const flows, perFlow = 16, 1500 // three times round the 8192-buffer pool
		sizes := [2]int{64, 1400}
		var got [2][flows][perFlow][]byte // [direction][flow][seq], each written once
		var delivered, bad atomic.Uint64
		sink := func(dir int) func([]byte) {
			return func(ip []byte) {
				p := ip[pkt.IPv4MinLen+pkt.UDPLen:]
				flow, seq := binary.BigEndian.Uint16(p), binary.BigEndian.Uint32(p[2:])
				if int(flow) >= flows || int(seq) >= perFlow || got[dir][flow][seq] != nil {
					bad.Add(1)
					return
				}
				got[dir][flow][seq] = append([]byte(nil), ip...)
				delivered.Add(1)
			}
		}
		r.c.SetN6Sink(sink(0))
		for _, u := range r.ues {
			u.OnData = sink(1)
		}
		var sent uint64
		for seq := uint32(0); seq < perFlow; seq++ {
			for flow := uint16(0); flow < flows; flow++ {
				for sent-delivered.Load() >= 256 { // no ring fills
					runtime.Gosched()
				}
				u, port, pay := r.ues[flow%2], 40000+flow, seqPayload(sizes[flow/2%2], flow, seq)
				if err := u.SendUplink(dnIP, port, 9000, pay); err != nil {
					t.Fatal(err)
				}
				if err := r.c.InjectDL(udpPacket(t, dnIP, u.IP(), 9000, port, pay)); err != nil {
					t.Fatal(err)
				}
				sent += 2
			}
		}
		waitCond(t, func() bool { return delivered.Load() == sent }, "every packet at its sink")
		waitCond(t, idle, "every buffer back in the pool")
		if bad.Load() != 0 {
			t.Fatalf("%d packets outside the script or delivered twice", bad.Load())
		}
		for flow := uint16(0); flow < flows; flow++ {
			u, port := r.ues[flow%2], 40000+flow
			for seq := uint32(0); seq < perFlow; seq++ {
				pay := seqPayload(sizes[flow/2%2], flow, seq)
				if want := udpPacket(t, u.IP(), dnIP, port, 9000, pay); !bytes.Equal(got[0][flow][seq], want) {
					t.Fatalf("UL flow %d packet %d: copy differs from what was sent", flow, seq)
				}
				if want := udpPacket(t, dnIP, u.IP(), 9000, port, pay); !bytes.Equal(got[1][flow][seq], want) {
					t.Fatalf("DL flow %d packet %d: copy differs from what was sent", flow, seq)
				}
			}
		}
	})
}

// The three modes are three implementations of one delivery contract: the
// same UL and DL packets (64 B and 1400 B payloads, two UEs on two gNBs)
// reach the N6 sink and the UEs' hooks as the same bytes in the same
// per-flow order whichever mode carries them. The sinks copy what they
// are lent and the copies are compared after all traffic has passed, so a
// mode that lent out bytes it later rewrote would differ from the script.
func TestModesDeliverIdenticalBytes(t *testing.T) {
	const perFlow = 48
	type flowKey struct {
		src, dst pkt.Addr
		size     int
	}
	type delivery map[flowKey][][]byte
	deliver := func(t *testing.T, mode Mode) (want, got delivery) {
		r := newTwoCellRig(t, mode)
		var mu sync.Mutex
		want, got = delivery{}, delivery{}
		record := func(into delivery) func([]byte) {
			return func(ip []byte) {
				if len(ip) < pkt.IPv4MinLen {
					return
				}
				k := flowKey{size: len(ip)}
				copy(k.src[:], ip[12:16])
				copy(k.dst[:], ip[16:20])
				mu.Lock()
				into[k] = append(into[k], append([]byte(nil), ip...))
				mu.Unlock()
			}
		}
		count := func(d delivery) (n int) {
			mu.Lock()
			defer mu.Unlock()
			for _, pkts := range d {
				n += len(pkts)
			}
			return n
		}
		sink, script := record(got), record(want)
		r.c.SetN6Sink(sink)
		for _, u := range r.ues {
			u.OnData = sink
		}
		for _, size := range []int{64, 1400} {
			for seq := uint32(0); seq < perFlow; seq++ {
				for i, u := range r.ues {
					pay := seqPayload(size, uint16(i), seq)
					script(udpPacket(t, u.IP(), dnIP, 40000, 9000, pay))
					if err := u.SendUplink(dnIP, 40000, 9000, pay); err != nil {
						t.Fatal(err)
					}
					dl := udpPacket(t, dnIP, u.IP(), 9000, 40000, pay)
					script(dl)
					if err := r.c.InjectDL(dl); err != nil {
						t.Fatal(err)
					}
				}
			}
			// One size at a time keeps a burst inside the kernel mode's
			// socket buffers.
			waitCond(t, func() bool { return count(got) == count(want) }, "every packet of the script delivered")
		}
		return want, got
	}
	var first delivery
	for _, mode := range []Mode{ModeL25GC, ModeONVMUPF, ModeFree5GC} {
		t.Run(mode.String(), func(t *testing.T) {
			want, got := deliver(t, mode)
			if len(want) != 8 { // 2 UEs x 2 directions x 2 sizes
				t.Fatalf("script has %d flows, want 8", len(want))
			}
			for _, ref := range []delivery{want, first} {
				for k, pkts := range ref {
					if len(got[k]) != len(pkts) {
						t.Fatalf("flow %v: %d packets delivered, want %d", k, len(got[k]), len(pkts))
					}
					for i := range pkts {
						if !bytes.Equal(got[k][i], pkts[i]) {
							t.Fatalf("flow %v packet %d: bytes or order differ", k, i)
						}
					}
				}
			}
			if first == nil {
				first = got
			}
		})
	}
}

// In free5GC mode the RAN- and DN-side edges are socket readers, and they
// keep the same contract: each datagram is lent to the sink out of one
// read buffer, so a frame costs its socket read and no allocation.
func TestSocketEdgesAllocateNothingPerFrame(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	c := startCore(t, ModeFree5GC)
	var got atomic.Uint64
	count := func([]byte) { got.Add(1) }
	c.SetN6Sink(count)
	gnbAddr := pkt.AddrFrom(10, 100, 0, 10)
	if err := c.AttachGNB(gnbAddr, count); err != nil {
		t.Fatal(err)
	}
	for name, sock := range map[string]*net.UDPConn{"gNB": c.gnbSocks[gnbAddr], "DN": c.dnSock} {
		w, err := net.DialUDP("udp", nil, sock.LocalAddr().(*net.UDPAddr))
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		frame := make([]byte, 1400)
		round := func(n int) {
			for i := 0; i < n; i++ {
				want := got.Load() + 1
				if _, err := w.Write(frame); err != nil {
					t.Fatal(err)
				}
				for got.Load() != want {
					runtime.Gosched()
				}
			}
		}
		round(200)
		const frames = 4000
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		round(frames)
		runtime.ReadMemStats(&m1)
		perFrame := float64(m1.Mallocs-m0.Mallocs) / frames
		t.Logf("%s read loop: %.4f allocations per frame", name, perFrame)
		if perFrame > 0.01 {
			t.Errorf("%s read loop: %.4f allocations per frame, want 0.00", name, perFrame)
		}
	}
}
