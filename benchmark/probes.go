package main

import (
	"fmt"
	"net"
	"runtime"
	"sync/atomic"
	"time"

	"l25gc/internal/classifier"
	"l25gc/internal/codec"
	"l25gc/internal/gtp"
	"l25gc/internal/nas"
	"l25gc/internal/ngap"
	"l25gc/internal/onvm"
	"l25gc/internal/pfcp"
	"l25gc/internal/pkt"
	"l25gc/internal/pktbuf"
	"l25gc/internal/ring"
	"l25gc/internal/rules"
	"l25gc/internal/sbi"
	"l25gc/internal/upf"
)

// The probe pass times calls into each layer's public functions, from
// outside, with the workloads' own inputs (the same frames, rule sets and
// session counts). Every figure is the median ns/op of probeBatches
// batches.
const (
	probeBatches = 21
	probeBatch   = time.Millisecond // target duration of one batch
)

var probeN3 = pkt.AddrFrom(10, 100, 0, 2)

// probe times op(n) — n back-to-back operations — sizing n so a batch
// lasts about probeBatch, and returns the median ns per operation.
func probe(op func(n int)) float64 {
	n := 1
	for {
		start := time.Now()
		op(n)
		if d := time.Since(start); d >= probeBatch || n >= 1<<22 {
			break
		}
		n *= 2
	}
	vals := make([]float64, probeBatches)
	for i := range vals {
		start := time.Now()
		op(n)
		vals[i] = float64(time.Since(start)) / float64(n)
	}
	return median(vals)
}

// probeChunks is probe for operations that consume their input: each
// chunk is prepared untimed (prep), then `chunk` operations are timed
// (op), then cleaned up untimed (done).
func probeChunks(chunk int, prep, op, done func()) float64 {
	once := func() time.Duration {
		if prep != nil {
			prep()
		}
		start := time.Now()
		op()
		d := time.Since(start)
		if done != nil {
			done()
		}
		return d
	}
	reps := 1
	if d := once(); d < probeBatch {
		reps = int(probeBatch/(d+1)) + 1
	}
	vals := make([]float64, probeBatches)
	for i := range vals {
		var total time.Duration
		for r := 0; r < reps; r++ {
			total += once()
		}
		vals[i] = float64(total) / float64(reps*chunk)
	}
	return median(vals)
}

// probeUPF is a UPF state holding sessions shaped like the SMF's (UL + DL
// PDR, forward FARs, QER, BAR) plus extra SDF PDRs each, built through the
// UPF-C's PFCP handler, with no switch around it.
type probeUPF struct {
	state *upf.State
	upfc  *upf.UPFC
	upfu  *upf.UPFU
	sess  []standingSession
}

func establishment(seid uint64, ueIP pkt.Addr) *pfcp.SessionEstablishmentRequest {
	return &pfcp.SessionEstablishmentRequest{
		NodeID: "smf.probe", CPSEID: seid, UEIP: ueIP,
		CreatePDRs: []*rules.PDR{
			{ID: 1, Precedence: 32, OuterHeaderRemoval: true, FARID: 1, QERID: 1,
				PDI: rules.PDI{SourceInterface: rules.IfAccess, HasTEID: true,
					UEIP: ueIP, HasUEIP: true, QFI: 9, HasQFI: true}},
			{ID: 2, Precedence: 32, FARID: 2, QERID: 1, BARID: 1,
				PDI: rules.PDI{SourceInterface: rules.IfCore,
					UEIP: ueIP, HasUEIP: true, QFI: 9, HasQFI: true}},
		},
		CreateFARs: []*rules.FAR{
			{ID: 1, Action: rules.FARForward, DestInterface: rules.IfCore},
			{ID: 2, Action: rules.FARForward, DestInterface: rules.IfAccess,
				HasOuterHeader: true, OuterTEID: 0x10001, OuterAddr: gnbAddrs[0]},
		},
		CreateQERs: []*rules.QER{{ID: 1, QFI: 9, GateUL: true, GateDL: true}},
		CreateBARs: []*rules.BAR{{ID: 1}},
	}
}

func newProbeUPF(n, extra int) (*probeUPF, error) {
	p := &probeUPF{state: upf.NewState("ps", 0)}
	p.upfc = upf.NewUPFC(p.state, probeN3, nil)
	p.upfu = upf.NewUPFU(p.state, p.upfc)
	for i := 0; i < n; i++ {
		ip := pkt.AddrFromUint32(0x0a3c0001 + uint32(i))
		seid := uint64(i + 1)
		resp, err := p.upfc.Handle(seid, establishment(seid, ip))
		er, _ := resp.(*pfcp.SessionEstablishmentResponse)
		if err != nil || er == nil || er.Cause != pfcp.CauseAccepted || len(er.CreatedPDRs) != 1 {
			return nil, fmt.Errorf("probe establishment %d: %v %v", i, resp, err)
		}
		s := standingSession{ip: ip, teid: er.CreatedPDRs[0].TEID, seid: seid}
		if extra > 0 {
			if _, err := p.upfc.Handle(seid, &pfcp.SessionModificationRequest{
				CreatePDRs: extraPDRs(ip, s.teid, extra)}); err != nil {
				return nil, err
			}
		}
		p.sess = append(p.sess, s)
	}
	return p, nil
}

// frames returns the UL and DL frames of every session for a payload size.
func (p *probeUPF) frames(size int) (ul, dl [][]byte) {
	for i, s := range p.sess {
		f := buildFrames(payloadTemplate(size, i), s)
		ul = append(ul, f.frame[dirUL])
		dl = append(dl, f.frame[dirDL])
	}
	return ul, dl
}

// processProbe times UPFU.Process on prepared buffers, no switch.
func (p *probeUPF) processProbe(pool *pktbuf.Pool, frames [][]byte, uplink bool) (float64, error) {
	const chunk = 256
	bufs := make([]*pktbuf.Buf, chunk)
	for i := range bufs {
		b, err := pool.Get()
		if err != nil {
			return 0, err
		}
		bufs[i] = b
	}
	defer func() {
		for _, b := range bufs {
			b.Release()
		}
	}()
	var scratch pkt.Parsed
	var bad int
	ns := probeChunks(chunk,
		func() {
			for i, b := range bufs {
				b.SetData(frames[i%len(frames)])
				b.Meta = pktbuf.Meta{Uplink: uplink}
			}
		},
		func() {
			for _, b := range bufs {
				p.upfu.Process(b, &scratch)
			}
		},
		func() {
			for _, b := range bufs {
				if b.Meta.Action != pktbuf.ActionToPort {
					bad++
				}
			}
		})
	if bad > 0 {
		return 0, fmt.Errorf("UPFU.Process left the fast path on %d probe packets", bad)
	}
	return ns, nil
}

// runProbes is the probe pass. It fills every per-layer metric that is a
// timing of a public function.
func runProbes(res *runResult) error {
	set := func(name string, v float64) { res.set(name, v, probeBatches) }
	pool := pktbuf.NewPool(1024, "probe")
	one, err := newProbeUPF(1, 0)
	if err != nil {
		return err
	}
	ul64, dl64 := one.frames(64)
	ul1400, _ := one.frames(1400)

	// --- ring ---
	{
		b, _ := pool.Get()
		r := ring.NewMPSC[*pktbuf.Buf](2048)
		set("ring.mpsc_pair_ns", probe(func(n int) {
			for i := 0; i < n; i++ {
				r.Enqueue(b)
				r.Dequeue()
			}
		}))
		var out [64]*pktbuf.Buf
		set("ring.mpsc_bulk64_ns", probe(func(n int) {
			for i := 0; i < n; i += 64 {
				for j := 0; j < 64; j++ {
					r.Enqueue(b)
				}
				r.DequeueBulk(out[:])
			}
		}))
		sh := ring.NewSharded[*pktbuf.Buf](2, 2048)
		set("ring.sharded_pair_ns", probe(func(n int) {
			h := uint64(0x9e3779b97f4a7c15)
			for i := 0; i < n; i++ {
				s := sh.ShardOf(h)
				sh.Enqueue(s, b)
				sh.Dequeue(s)
				h += 0x9e3779b97f4a7c15
			}
		}))
		b.Release()
	}

	// --- pktbuf, pkt, gtp ---
	{
		set("pktbuf.get_release_ns", probe(func(n int) {
			for i := 0; i < n; i++ {
				b, _ := pool.Get()
				b.Release()
			}
		}))
		b, _ := pool.Get()
		set("pktbuf.setdata64_ns", probe(func(n int) {
			for i := 0; i < n; i++ {
				b.SetData(ul64[0])
			}
		}))
		set("pktbuf.setdata1400_ns", probe(func(n int) {
			for i := 0; i < n; i++ {
				b.SetData(ul1400[0])
			}
		}))
		b.Release()
		var parsed pkt.Parsed
		set("pkt.parse_ipv4_ns", probe(func(n int) {
			for i := 0; i < n; i++ {
				parsed.ParseIPv4(dl64[0])
			}
		}))
		const chunk = 256
		bufs := make([]*pktbuf.Buf, chunk)
		for i := range bufs {
			bufs[i], _ = pool.Get()
		}
		set("gtp.decap_ns", probeChunks(chunk,
			func() {
				for _, b := range bufs {
					b.SetData(ul64[0])
				}
			},
			func() {
				for _, b := range bufs {
					gtp.Decap(b)
				}
			}, nil))
		set("gtp.encap_ns", probeChunks(chunk,
			func() {
				for _, b := range bufs {
					b.SetData(dl64[0])
				}
			},
			func() {
				for _, b := range bufs {
					gtp.Encap(b, 0x10001, 9, true)
				}
			}, nil))
		for _, b := range bufs {
			b.Release()
		}
	}

	// --- classifier ---
	{
		s := one.sess[0]
		dlKey := classifier.Key{Tuple: pkt.FiveTuple{Src: dnAddr, Dst: s.ip,
			SrcPort: dnPort, DstPort: uePort, Protocol: pkt.ProtoUDP}}
		ulKey := classifier.Key{Tuple: pkt.FiveTuple{Src: s.ip, Dst: dnAddr,
			SrcPort: uePort, DstPort: dnPort, Protocol: pkt.ProtoUDP},
			TEID: s.teid, FromAccess: true}
		est := establishment(1, s.ip)
		est.CreatePDRs[0].PDI.TEID = s.teid
		for _, depth := range []int{2, 8} {
			cls := classifier.New("ps")
			for _, p := range est.CreatePDRs {
				cls.Insert(p)
			}
			extra := extraPDRs(s.ip, s.teid, depth-2)
			for _, p := range extra {
				cls.Insert(p)
			}
			if d, u := cls.Lookup(&dlKey), cls.Lookup(&ulKey); d == nil || u == nil || d.ID != 2 || u.ID != 1 {
				return fmt.Errorf("classifier probe: depth-%d lookup missed the default rules", depth)
			}
			set(fmt.Sprintf("classifier.ps_lookup%d_ns", depth), probe(func(n int) {
				for i := 0; i < n; i += 2 {
					cls.Lookup(&dlKey)
					cls.Lookup(&ulKey)
				}
			}))
			if depth == 8 {
				p := extra[0]
				set("classifier.ps_update_ns", probe(func(n int) {
					for i := 0; i < n; i++ {
						cls.Remove(p.ID)
						cls.Insert(p)
					}
				}))
			}
		}
	}

	// --- upf: session tables, fast path, UPF-C ---
	{
		u16, err := newProbeUPF(16, 0)
		if err != nil {
			return err
		}
		u256, err := newProbeUPF(256, 6)
		if err != nil {
			return err
		}
		lookup := func(p *probeUPF, byIP bool) float64 {
			return probe(func(n int) {
				for i := 0; i < n; i++ {
					s := &p.sess[i%len(p.sess)]
					if byIP {
						p.state.ByUEIP(s.ip)
					} else {
						p.state.ByTEID(s.teid)
					}
				}
			})
		}
		set("upf.by_teid16_ns", lookup(u16, false))
		set("upf.by_teid256_ns", lookup(u256, false))
		set("upf.by_ueip256_ns", lookup(u256, true))
		for _, c := range []struct {
			name   string
			p      *probeUPF
			size   int
			uplink bool
		}{
			{"upf.process_ul64_ns", u16, 64, true},
			{"upf.process_dl64_ns", u16, 64, false},
			{"upf.process_ul1400_ns", u256, 1400, true},
			{"upf.process_dl1400_ns", u256, 1400, false},
		} {
			ul, dl := c.p.frames(c.size)
			frames := dl
			if c.uplink {
				frames = ul
			}
			ns, err := c.p.processProbe(pool, frames, c.uplink)
			if err != nil {
				return fmt.Errorf("%s: %w", c.name, err)
			}
			set(c.name, ns)
		}

		// UPF-C: establish, path-switch modify, delete, beside 16 sessions.
		const chunk = 128
		var est, mod, del [probeBatches]float64
		next := uint64(1000)
		for b := 0; b < probeBatches; b++ {
			base := next
			next += chunk
			t0 := time.Now()
			for i := uint64(0); i < chunk; i++ {
				ip := pkt.AddrFromUint32(0x0a400000 + uint32(i))
				u16.upfc.Handle(base+i, establishment(base+i, ip))
			}
			t1 := time.Now()
			for i := uint64(0); i < chunk; i++ {
				u16.upfc.Handle(base+i, &pfcp.SessionModificationRequest{UpdateFARs: []*rules.FAR{{
					ID: 2, Action: rules.FARForward, DestInterface: rules.IfAccess,
					HasOuterHeader: true, OuterTEID: 0x20001, OuterAddr: gnbAddrs[1]}}})
			}
			t2 := time.Now()
			for i := uint64(0); i < chunk; i++ {
				u16.upfc.Handle(base+i, &pfcp.SessionDeletionRequest{})
			}
			t3 := time.Now()
			est[b] = float64(t1.Sub(t0)) / chunk / 1e3
			mod[b] = float64(t2.Sub(t1)) / chunk / 1e3
			del[b] = float64(t3.Sub(t2)) / chunk / 1e3
		}
		if n := u16.state.Sessions(); n != 16 {
			return fmt.Errorf("UPF-C probe left %d sessions, want 16", n)
		}
		set("upf.upfc_establish_us", median(est[:]))
		set("upf.upfc_modify_us", median(mod[:]))
		set("upf.upfc_delete_us", median(del[:]))
	}

	// --- onvm: one switch hop through a no-op NF ---
	{
		u16, err := newProbeUPF(16, 0)
		if err != nil {
			return err
		}
		frames, _ := u16.frames(64)
		m := onvm.NewManager(onvm.Config{PoolSize: 8192, RingSize: 2048, PoolPrefix: "probe-onvm"})
		const sid, in, outPort = 7, 1, 2
		if _, err := m.Register(sid, "noop", func(b *pktbuf.Buf) bool {
			b.Meta.Action, b.Meta.Port = pktbuf.ActionToPort, outPort
			return true
		}); err != nil {
			return err
		}
		m.BindPortNF(in, sid)
		// Keep the pool's free ring off its full mark for the length of
		// the probe (see rig.sleeper for why).
		for i := 0; i < parked; i++ {
			if b, err := m.Pool().Get(); err == nil {
				defer b.Release()
			}
		}
		var got atomic.Uint64
		rtt := make(chan struct{}, 1)
		var signal atomic.Bool
		m.RegisterPort(outPort, func([]byte, pktbuf.Meta) {
			got.Add(1)
			if signal.Load() {
				rtt <- struct{}{}
			}
		})
		var sent uint64
		inject := func(i int) {
			for m.Inject(in, frames[i%len(frames)], pktbuf.Meta{Uplink: true}) != nil {
				runtime.Gosched()
			}
			sent++
		}
		gets0, _ := m.Pool().Stats()
		sent0 := sent
		set("onvm.hop_ns", probe(func(n int) {
			for i := 0; i < n; i++ {
				for sent-got.Load() >= 512 {
					runtime.Gosched()
				}
				inject(i)
			}
			for got.Load() != sent {
				runtime.Gosched()
			}
		}))
		gets1, _ := m.Pool().Stats()
		res.set("pktbuf.gets_per_pkt", float64(gets1-gets0)/float64(sent-sent0), int(sent-sent0))
		signal.Store(true)
		set("onvm.hop_rtt_us", probe(func(n int) {
			for i := 0; i < n; i++ {
				inject(i)
				<-rtt
			}
		})/1e3)
		m.Stop()
	}

	// --- core: caller-side cost of one injection ---
	if err := probeCoreInject(set); err != nil {
		return err
	}

	// --- control-plane transports and codecs ---
	{
		a, b := pfcp.NewMemPair(1024)
		b.SetHandler(func(uint64, pfcp.Message) (pfcp.Message, error) {
			return &pfcp.HeartbeatResponse{RecoveryTimestamp: 1}, nil
		})
		var perr error
		set("pfcp.mem_rtt_us", probe(func(n int) {
			for i := 0; i < n; i++ {
				if _, err := a.Request(0, false, &pfcp.HeartbeatRequest{RecoveryTimestamp: 1}); err != nil {
					perr = err
				}
			}
		})/1e3)
		a.Close()
		b.Close()
		if perr != nil {
			return fmt.Errorf("pfcp probe: %w", perr)
		}

		conn, srv := sbi.NewShmPair(1024, func(_ sbi.OpID, req codec.Message) (codec.Message, error) {
			return req, nil
		})
		msg := &sbi.SmContextCreateRequest{Supi: supi(1), PduSessionID: 5, Dnn: "internet", Sst: 1,
			Guami: "5G:mnc093.mcc208", RequestType: "INITIAL_REQUEST", N1SmMsg: make([]byte, 96),
			AnType: "3GPP_ACCESS", RatType: "NR"}
		set("sbi.shm_invoke_us", probe(func(n int) {
			for i := 0; i < n; i++ {
				if _, err := conn.Invoke(sbi.OpPostSmContexts, msg); err != nil {
					perr = err
				}
			}
		})/1e3)
		srv.Close()
		conn.Close()
		if perr != nil {
			return fmt.Errorf("sbi probe: %w", perr)
		}

		acc := &nas.RegistrationAccept{Guti: "5g-guti-20893cafe0000000001", TaiList: "208-93-000001", AllowedSst: 1}
		pdu, err := nas.Marshal(acc)
		if err != nil {
			return err
		}
		set("nas.marshal_ns", probe(func(n int) {
			for i := 0; i < n; i++ {
				nas.Marshal(acc)
			}
		}))
		set("nas.unmarshal_ns", probe(func(n int) {
			for i := 0; i < n; i++ {
				nas.Unmarshal(pdu)
			}
		}))

		rttUs, err := probeNGAP(pdu)
		if err != nil {
			return err
		}
		set("ngap.loopback_rtt_us", rttUs)
	}
	return nil
}

// probeCoreInject times Core.SendUL and Core.InjectDL themselves — what
// the caller pays per packet — on a core with 16 standing sessions,
// waiting (untimed) for each chunk to drain.
func probeCoreInject(set func(string, float64)) error {
	wl := workload{Name: "probe", PktSize: 64, Flows: 16, Burst: 8, Clients: 1}
	rg, err := setupRig(&wl, nil)
	if err != nil {
		return err
	}
	defer rg.close()
	var got atomic.Uint64
	rg.core.SetN6Sink(func([]byte) { got.Add(1) })
	var tx []flowTx
	for i, s := range rg.standing {
		s.ue.OnData = func([]byte) { got.Add(1) }
		tx = append(tx, buildFrames(payloadTemplate(64, i), s))
	}
	const chunk = 64
	var sent uint64
	var ierr error
	for _, c := range []struct {
		name   string
		dir    int
		inject func([]byte) error
	}{
		{"core.sendul_ns", dirUL, rg.core.SendUL},
		{"core.injectdl_ns", dirDL, rg.core.InjectDL},
	} {
		set(c.name, probeChunks(chunk, nil,
			func() {
				for i := 0; i < chunk; i++ {
					if err := c.inject(tx[i%len(tx)].frame[c.dir]); err != nil {
						ierr = err
					} else {
						sent++
					}
				}
			},
			func() {
				waitFor(time.Second, func() bool { return got.Load() == sent })
			}))
	}
	if ierr != nil {
		return fmt.Errorf("core inject probe: %w", ierr)
	}
	if got.Load() != sent {
		return fmt.Errorf("core inject probe: %d of %d packets delivered", got.Load(), sent)
	}
	return nil
}

// probeNGAP measures one NGAP message there and back over a loopback TCP
// connection, the transport N2 uses.
func probeNGAP(nasPdu []byte) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	echoDone := make(chan struct{})
	go func() {
		defer close(echoDone)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		conn := ngap.NewConn(c)
		defer conn.Close()
		for {
			m, err := conn.Recv()
			if err != nil {
				return
			}
			if conn.Send(m) != nil {
				return
			}
		}
	}()
	conn, err := ngap.Dial(ln.Addr().String())
	if err != nil {
		return 0, err
	}
	msg := &ngap.UplinkNASTransport{RanUeID: 1, AmfUeID: 1, NasPdu: nasPdu}
	var perr error
	ns := probe(func(n int) {
		for i := 0; i < n; i++ {
			if err := conn.Send(msg); err != nil {
				perr = err
				return
			}
			if _, err := conn.Recv(); err != nil {
				perr = err
				return
			}
		}
	})
	conn.Close()
	<-echoDone
	if perr != nil {
		return 0, fmt.Errorf("ngap probe: %w", perr)
	}
	return ns / 1e3, nil
}
