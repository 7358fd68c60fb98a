// Package kernelpath is the free5GC-style baseline data plane: the UPF
// forwards through real kernel UDP sockets on loopback, paying the
// syscall, copy and interrupt-driven wakeup costs that Appendix B
// attributes to the gtp5g kernel-module implementation. Every datagram
// goes through the same UPF-U packet handler (upf.UPFU.Process) as the
// shared-memory modes, with the same session state, classifiers, QER
// enforcement and smart buffering, so throughput and latency comparisons
// against the ONVM path (Fig. 10) isolate exactly the transport difference.
package kernelpath

import (
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"l25gc/internal/faults"
	"l25gc/internal/metrics"
	"l25gc/internal/pkt"
	"l25gc/internal/pktbuf"
	"l25gc/internal/trace"
	"l25gc/internal/upf"
)

// injConf groups a fault injector with the data-path point names; it is
// installed atomically so the socket loops never race SetInjector.
type injConf struct {
	inj  *faults.Injector
	n3rx faults.Point // GTP-U frames arriving from gNBs
	n6rx faults.Point // IP packets arriving from the DN
	n3tx faults.Point // encapsulated DL frames toward gNBs
	n6tx faults.Point // decapsulated UL packets toward the DN
}

// KernelUPF is the kernel-socket UPF data path.
type KernelUPF struct {
	u    *upf.UPFU
	pool *pktbuf.Pool

	n3 *net.UDPConn // GTP-U side (gNB <-> UPF)
	n6 *net.UDPConn // plain IP side (UPF <-> DN)

	mu       sync.RWMutex
	gnbAddrs map[pkt.Addr]netip.AddrPort // FAR outer addr -> gNB socket addr
	dnAddr   netip.AddrPort

	dropped  atomic.Uint64 // lost on the socket side, not by UPF-U's rules
	injected atomic.Uint64 // packets dropped/corrupted by the injector

	faultc atomic.Pointer[injConf]
	tracec atomic.Pointer[trace.Track]

	closed atomic.Bool
	wg     sync.WaitGroup
}

// New creates a kernel-path UPF listening on two ephemeral loopback
// sockets and running every datagram through u. It installs itself as u's
// emit path, so a session's parked packets leave through its sockets when
// UPF-C drains them.
func New(u *upf.UPFU) (*KernelUPF, error) {
	n3, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, err
	}
	n6, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		n3.Close()
		return nil, err
	}
	// Size the socket buffers for line-rate bursts, as a production
	// deployment would (sysctl net.core.rmem_max tuning).
	for _, c := range []*net.UDPConn{n3, n6} {
		c.SetReadBuffer(4 << 20)
		c.SetWriteBuffer(4 << 20)
	}
	k := &KernelUPF{
		u:        u,
		pool:     pktbuf.NewPool(4096, "kernelpath"),
		n3:       n3,
		n6:       n6,
		gnbAddrs: make(map[pkt.Addr]netip.AddrPort),
	}
	u.SetEmit(k.sendBurst, k.pool)
	k.wg.Add(2)
	go k.loop(n3, true)
	go k.loop(n6, false)
	return k, nil
}

// N3Addr returns the GTP-U socket address (gNBs send here).
func (k *KernelUPF) N3Addr() string { return k.n3.LocalAddr().String() }

// N6Addr returns the DN-side socket address.
func (k *KernelUPF) N6Addr() string { return k.n6.LocalAddr().String() }

// RegisterGNB maps a FAR outer-header address to a gNB's UDP endpoint.
func (k *KernelUPF) RegisterGNB(a pkt.Addr, udpAddr string) error {
	ap, err := resolve(udpAddr)
	if err != nil {
		return err
	}
	k.mu.Lock()
	k.gnbAddrs[a] = ap
	k.mu.Unlock()
	return nil
}

// SetDN points the N6 egress at the data-network endpoint.
func (k *KernelUPF) SetDN(udpAddr string) error {
	ap, err := resolve(udpAddr)
	if err != nil {
		return err
	}
	k.mu.Lock()
	k.dnAddr = ap
	k.mu.Unlock()
	return nil
}

// resolve turns a UDP endpoint into the IPv4 form the sockets write to.
func resolve(udpAddr string) (netip.AddrPort, error) {
	ua, err := net.ResolveUDPAddr("udp", udpAddr)
	if err != nil {
		return netip.AddrPort{}, err
	}
	ap := ua.AddrPort()
	return netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port()), nil
}

// Dropped reports packets lost on the socket side: to the injector, an
// exhausted pool, a datagram too large for a pool buffer, a missing
// destination or a failed write. UPF-U counts its own drops.
func (k *KernelUPF) Dropped() uint64 { return k.dropped.Load() }

// InjectedFaults reports packets the fault injector dropped on this path.
func (k *KernelUPF) InjectedFaults() uint64 { return k.injected.Load() }

// SetInjector threads a fault injector through the socket loops. Points
// are prefix+".n3.rx", ".n6.rx", ".n3.tx" and ".n6.tx". Drop, Delay and
// Corrupt apply (the corrupt mutation happens in place: before the
// handler on receive, after it on transmit); Duplicate/Reorder do not —
// the kernel sockets already provide those behaviors for free when
// needed via loopback re-sends.
func (k *KernelUPF) SetInjector(inj *faults.Injector, prefix string) {
	k.faultc.Store(&injConf{
		inj:  inj,
		n3rx: faults.Point(prefix + ".n3.rx"),
		n6rx: faults.Point(prefix + ".n6.rx"),
		n3tx: faults.Point(prefix + ".n3.tx"),
		n6tx: faults.Point(prefix + ".n6.tx"),
	})
}

// SetTracer installs a trace track for the transmit syscall span
// ("kern.syscall.tx"); nil disables tracing. The handler's own spans are
// on the UPF-U's track.
func (k *KernelUPF) SetTracer(tk *trace.Track) { k.tracec.Store(tk) }

// ExportMetrics registers the socket-side counters under prefix; the
// forwarding counters are the UPF-U's.
func (k *KernelUPF) ExportMetrics(reg *metrics.Registry, prefix string) {
	reg.RegisterGauge(prefix+".dropped", k.dropped.Load)
	reg.RegisterGauge(prefix+".injected", k.injected.Load)
}

// decide applies one injector decision to a packet in place. It returns
// false when the packet must be discarded.
func (k *KernelUPF) decide(fc *injConf, p faults.Point, data []byte) bool {
	act := fc.inj.Decide(p, data)
	if act.Drop {
		k.injected.Add(1)
		k.dropped.Add(1)
		return false
	}
	if act.Corrupt {
		k.injected.Add(1)
	}
	if act.Delay > 0 {
		time.Sleep(act.Delay)
	}
	return true
}

// loop reads one socket's datagrams — GTP-U frames from gNBs on N3
// (uplink), plain IP packets from the DN on N6 — copies each into a pool
// buffer and runs it through the UPF-U handler. What the handler hands
// back goes to send; what it parks it has copied and released.
func (k *KernelUPF) loop(sock *net.UDPConn, uplink bool) {
	defer k.wg.Done()
	raw := make([]byte, 64*1024)
	var p pkt.Parsed
	for {
		n, err := sock.Read(raw)
		if err != nil {
			return
		}
		if fc := k.faultc.Load(); fc != nil {
			pt := fc.n6rx
			if uplink {
				pt = fc.n3rx
			}
			if !k.decide(fc, pt, raw[:n]) {
				continue
			}
		}
		b, err := k.pool.Get()
		if err != nil {
			k.dropped.Add(1)
			continue
		}
		if b.SetData(raw[:n]) != nil {
			b.Release()
			k.dropped.Add(1)
			continue
		}
		b.Meta.Uplink = uplink
		if k.u.Process(b, &p) {
			k.send(b)
		}
	}
}

// send writes a descriptor the UPF-U handed back out of the port its Meta
// names — N6 to the DN, N3 to the gNB at the outer address — and releases
// it. A descriptor the handler dropped was counted there.
func (k *KernelUPF) send(b *pktbuf.Buf) {
	defer b.Release()
	if b.Meta.Action != pktbuf.ActionToPort {
		return
	}
	toDN := b.Meta.Port == uint16(upf.PortN6)
	k.mu.RLock()
	dst := k.dnAddr
	if !toDN {
		dst = k.gnbAddrs[pkt.Addr(b.Meta.OuterIP)]
	}
	k.mu.RUnlock()
	if !dst.IsValid() {
		k.dropped.Add(1)
		return
	}
	sock := k.n3
	if toDN {
		sock = k.n6
	}
	if fc := k.faultc.Load(); fc != nil {
		pt := fc.n3tx
		if toDN {
			pt = fc.n6tx
		}
		if !k.decide(fc, pt, b.Bytes()) {
			return
		}
	}
	// A second kernel crossing and copy: the baseline's cost.
	tx := k.tracec.Load().Start("kern.syscall.tx")
	_, err := sock.WriteToUDPAddrPort(b.Bytes(), dst)
	tx.End()
	if err != nil {
		k.dropped.Add(1)
	}
}

// sendBurst is the UPF-U's emit path for a drained session buffer: it
// sends the packets in order and takes all of them.
func (k *KernelUPF) sendBurst(burst []*pktbuf.Buf) int {
	for _, b := range burst {
		k.send(b)
	}
	return len(burst)
}

// Close stops the loops and sockets.
func (k *KernelUPF) Close() error {
	if !k.closed.CompareAndSwap(false, true) {
		return nil
	}
	k.n3.Close()
	k.n6.Close()
	k.wg.Wait()
	return nil
}
