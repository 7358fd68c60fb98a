// Package core assembles a complete 5GC unit in one of three deployment
// modes, matching the systems compared in the paper's evaluation:
//
//   - ModeFree5GC — the baseline: HTTP/JSON SBI over kernel TCP sockets,
//     PFCP over kernel UDP sockets, kernel-socket UPF with linear-list PDR
//     lookup (Appendix B).
//   - ModeONVMUPF — the intermediate point of Fig. 8: the original REST
//     control plane, but the N4 interface and the UPF run on the
//     shared-memory platform.
//   - ModeL25GC — the paper's system: SBI and N4 over shared memory, the
//     data plane on the ONVM-style platform with PartitionSort lookup.
//
// A Core exposes a transport-independent surface to the RAN side
// (internal/ranue): AttachGNB for DL delivery, SendUL for N3 ingress,
// InjectDL / SetN6Sink for the data-network side. In every mode a frame is
// copied once on the way in (SendUL and InjectDL return with the caller's
// slice free to reuse) and not at all on the way out: a sink borrows the
// bytes it is handed until it returns, and copies whatever it keeps.
package core

import (
	"fmt"
	"maps"
	"net"
	"net/netip"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"l25gc/internal/codec"
	"l25gc/internal/faults"
	"l25gc/internal/kernelpath"
	"l25gc/internal/metrics"
	"l25gc/internal/nf/amf"
	"l25gc/internal/nf/ausf"
	"l25gc/internal/nf/nrf"
	"l25gc/internal/nf/pcf"
	"l25gc/internal/nf/smf"
	"l25gc/internal/nf/udm"
	"l25gc/internal/nf/udr"
	"l25gc/internal/onvm"
	"l25gc/internal/overload"
	"l25gc/internal/pfcp"
	"l25gc/internal/pkt"
	"l25gc/internal/pktbuf"
	"l25gc/internal/sbi"
	"l25gc/internal/supervisor"
	"l25gc/internal/telemetry"
	"l25gc/internal/trace"
	"l25gc/internal/upf"
)

// Mode selects the deployment flavour.
type Mode int

// Deployment modes.
const (
	ModeL25GC Mode = iota
	ModeFree5GC
	ModeONVMUPF
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeL25GC:
		return "l25gc"
	case ModeFree5GC:
		return "free5gc"
	case ModeONVMUPF:
		return "onvm-upf"
	default:
		return "unknown"
	}
}

// UPF N3 address inside the core.
var upfN3IP = pkt.AddrFrom(10, 100, 0, 2)

// Config parameterizes a 5GC unit.
type Config struct {
	Mode        Mode
	ClsAlgo     string // "ll", "tss", "ps"; defaults: free5GC="ll", others="ps"
	Subscribers []udr.Subscriber
	PoolPrefix  string // shared-memory security domain (default "l25gc")
	// NFShards stripes the AMF and SMF UE/session state (maps, locks, ID
	// allocators) across this many shards keyed by UE-ID hash. 0 means 1
	// shard; snapshots are byte-identical at any count. cmd/l25gc
	// defaults the flag to GOMAXPROCS.
	NFShards int

	// Tracer, when non-nil, threads span tracks through every traced
	// component (control-plane procedures, PFCP stages, data-plane hot
	// paths). Nil keeps the zero-cost disabled fast path.
	Tracer *trace.Tracer
	// Metrics, when non-nil, collects every component counter under
	// stable dotted names (onvm.*, pfcp.*, sbi.*, upf.*, kern.*).
	Metrics *metrics.Registry

	// Resilience arms the §3.5 supervisor over the AMF and SMF: each runs
	// as a supervised unit (active generation + frozen standby), every
	// inbound NGAP/SBI/N4 message is counter-stamped through the unit's
	// packet log, and state is checkpointed per message (output commit) so
	// a crash is recovered by promote+replay with no lost sessions.
	// Recovery spans land on the Tracer and supervisor.<unit>.* gauges on
	// the Metrics registry.
	Resilience bool
	// FaultInjector, with Resilience, supplies the crash/freeze semantics
	// and the liveness probe for the supervised units (targets "amf.gN",
	// "smf.gN"). Nil arms protection without a failure source.
	FaultInjector *faults.Injector

	// Telemetry, when non-nil, binds the continuous pipeline to this
	// unit: the pipeline becomes the Tracer's span observer (spans and
	// events stream into its flight recorder and stage sketches), the
	// Metrics registry becomes its sampling source, and the automatic
	// dump triggers arm — a supervisor promote or an overload
	// recovery-mode entry snapshots the flight ring. The sampler's
	// goroutine (if periodic) stops with the core.
	Telemetry *telemetry.Pipeline

	// Overload arms per-NF admission control: the AMF's N2 ingress, the
	// SMF's SBI ingress, and the UPF-C's N4 establishment path each get a
	// bounded, priority-classed gate whose shed level follows observed
	// procedure p99. Shed work receives explicit pushback (NAS reject with
	// backoff timer, SBI 503 + Retry-After, PFCP congestion cause) instead
	// of queueing unboundedly — the graceful-degradation layer that keeps
	// the core live through a registration storm.
	Overload bool
	// OverloadConfig tunes the controllers; the zero value picks the
	// package defaults. Its Seed makes reject/backoff schedules
	// reproducible under a chaos seed.
	OverloadConfig overload.Config

	// N4Assoc arms the PFCP association lifecycle on N4: the SMF drives
	// AssociationSetup + heartbeats toward the UPF, declares the path
	// down after N4MissThreshold consecutive heartbeat failures (each
	// already carrying the full T1/N1 retransmission budget), rejects
	// new establishments with SBI 503 + Retry-After while down, journals
	// deletions/modifications as pending intents, and reconciles the two
	// SEID tables after the path heals. Association down triggers a
	// telemetry flight dump when Telemetry is bound.
	N4Assoc bool
	// N4HeartbeatInterval is the live heartbeat cadence; 0 leaves the
	// association in manual-Tick mode (deterministic harnesses drive
	// SMF.Association().Tick() themselves).
	N4HeartbeatInterval time.Duration
	// N4MissThreshold overrides down detection (default 2 missed
	// heartbeat exchanges).
	N4MissThreshold int
	// N4Retry overrides the SMF endpoint's T1/N1 retransmission profile
	// (zero value keeps pfcp.DefaultRetry). Heartbeats ride the same
	// budget, so this also sets the path-down detection latency:
	// MissThreshold × (T1 × (N1+1)) in the worst case.
	N4Retry pfcp.RetryConfig
}

// Core is one running 5GC unit.
type Core struct {
	cfg Config

	NRF  *nrf.NRF
	UDR  *udr.UDR
	UDM  *udm.UDM
	AUSF *ausf.AUSF
	PCF  *pcf.PCF
	SMF  *smf.SMF
	AMF  *amf.AMF

	UPFState *upf.State
	UPFC     *upf.UPFC
	UPFU     *upf.UPFU

	// Per-NF admission controllers (nil unless Config.Overload).
	OverloadAMF *overload.Controller
	OverloadSMF *overload.Controller
	OverloadUPF *overload.Controller

	mgr  *onvm.Manager          // shared-memory modes
	kupf *kernelpath.KernelUPF  // kernel mode
	sup  *supervisor.Supervisor // resilience mode

	nb neighbors
	// The AMF's conn as the SMF sees it (paging); set once the AMF exists.
	amfConn atomic.Pointer[sbi.Conn]

	// Active generation's N4 association + SMF (supervised mode spawns
	// one association per SMF generation; these track the ticking one so
	// metrics registered once read across failovers).
	n4assoc atomic.Pointer[pfcp.Association]
	n4smf   atomic.Pointer[smf.SMF]

	// Egress sinks, read per packet without a lock: AttachGNB publishes a
	// new copy of the gNB map (under mu, which serialises attachers),
	// SetN6Sink swaps the pointer.
	gnbSinks atomic.Pointer[map[pkt.Addr]func(frame []byte)]
	n6Sink   atomic.Pointer[func(ipPkt []byte)]

	mu sync.Mutex

	// free5GC-mode sockets on the RAN/DN side, and the kernel UPF's
	// addresses, resolved once. SendUL writes from ulSock: any gNB socket
	// will do as the source, so the first one attached.
	gnbSocks       map[pkt.Addr]*net.UDPConn
	ulSock         atomic.Pointer[net.UDPConn]
	dnSock         *net.UDPConn
	kupfN3, kupfN6 netip.AddrPort

	closers []func()
}

// upfServiceID is the UPF-U's service ID on the platform.
const upfServiceID onvm.ServiceID = 7

// New builds and starts a 5GC unit.
func New(cfg Config) (*Core, error) {
	if cfg.ClsAlgo == "" {
		if cfg.Mode == ModeFree5GC {
			cfg.ClsAlgo = "ll"
		} else {
			cfg.ClsAlgo = "ps"
		}
	}
	if cfg.PoolPrefix == "" {
		cfg.PoolPrefix = "l25gc"
	}
	c := &Core{
		cfg:      cfg,
		gnbSocks: make(map[pkt.Addr]*net.UDPConn),
	}
	c.gnbSinks.Store(&map[pkt.Addr]func([]byte){})
	if err := c.start(); err != nil {
		c.Stop()
		return nil, err
	}
	return c, nil
}

// neighbors are the shared connections every AMF/SMF instance — the
// plain path's only one, or each supervised generation — is built over.
type neighbors struct {
	ausf, udmAmf, pcfAmf sbi.Conn // AMF's producers
	udmSmf, pcfSmf       sbi.Conn // SMF's producers
	n4                   pfcp.Endpoint
}

func (c *Core) track(name string) *trace.Track { return trace.NewTrack(c.cfg.Tracer, name) }

func (c *Core) start() error {
	cfg := c.cfg
	reg := cfg.Metrics

	// --- telemetry pipeline ---
	// Bound first so every later registration (gauges, tracks) is already
	// observable; the periodic sampler starts once and stops with the
	// core's closers (goroutine-leak tests cover this).
	tel := cfg.Telemetry
	if tel != nil {
		tel.Bind(cfg.Tracer, reg)
		tel.Start()
		c.closers = append(c.closers, tel.Stop)
	}

	// --- overload controllers ---
	if cfg.Overload {
		mk := func(nf string) *overload.Controller {
			ctl := overload.New(nf, cfg.OverloadConfig)
			ctl.SetTracer(c.track("overload." + nf))
			ctl.ExportMetrics(reg, "overload."+nf)
			if tel != nil {
				nf := nf
				ctl.SetRecoveryHook(func(entering bool) {
					if entering {
						tel.DumpNow("overload.recovery." + nf)
					}
				})
			}
			ctl.Start(0) // package-default tick
			c.closers = append(c.closers, ctl.Stop)
			return ctl
		}
		c.OverloadAMF = mk("amf")
		c.OverloadSMF = mk("smf")
		c.OverloadUPF = mk("upfc")
	}

	// --- repositories and registry ---
	c.NRF = nrf.New()
	c.UDR = udr.New()
	for _, s := range cfg.Subscribers {
		c.UDR.Provision(s)
	}

	// --- N4 + data plane ---
	smfEP, upfEP, err := c.newN4()
	if err != nil {
		return err
	}
	c.nb.n4 = smfEP
	if cfg.N4Assoc {
		c.exportN4AssocMetrics(reg)
	}
	c.UPFState = upf.NewState(cfg.ClsAlgo, 0)
	c.UPFState.ExportMetrics(reg, "upf")
	c.UPFC = upf.NewUPFC(c.UPFState, upfN3IP, upfEP)
	c.UPFC.SetOverload(c.OverloadUPF)
	c.UPFU = upf.NewUPFU(c.UPFState, c.UPFC)
	c.UPFU.SetTracer(c.track("upf"))
	c.UPFU.ExportMetrics(reg, "upf")
	if cfg.Mode == ModeFree5GC {
		k, err := kernelpath.New(c.UPFU)
		if err != nil {
			return err
		}
		c.kupf = k
		c.closers = append(c.closers, func() { k.Close() })
		c.kupfN3, c.kupfN6 = netip.MustParseAddrPort(k.N3Addr()), netip.MustParseAddrPort(k.N6Addr())
		k.SetTracer(c.track("kern"))
		k.ExportMetrics(reg, "kern")
	} else {
		c.mgr = onvm.NewManager(onvm.Config{
			PoolSize: 8192, RingSize: 2048, PoolPrefix: cfg.PoolPrefix,
		})
		c.closers = append(c.closers, c.mgr.Stop)
		c.mgr.SetTracer(c.track("onvm"))
		c.mgr.ExportMetrics(reg, "onvm")
		if _, err := c.UPFU.AttachONVM(c.mgr, upfServiceID); err != nil {
			return err
		}
		c.mgr.BindPortNF(uint16(upf.PortN3), upfServiceID)
		c.mgr.BindPortNF(uint16(upf.PortN6), upfServiceID)
		c.mgr.RegisterPort(uint16(upf.PortN3), c.n3Egress)
		c.mgr.RegisterPort(uint16(upf.PortN6), func(ipPkt []byte, _ pktbuf.Meta) { c.n6Egress(ipPkt) })
	}

	// --- control-plane NF mesh ---
	udrConn, err := c.connTo("UDR", c.UDR.Handle)
	if err != nil {
		return err
	}
	c.UDM = udm.New(udrConn)
	udmConnAusf, err := c.connTo("UDM", c.UDM.Handle)
	if err != nil {
		return err
	}
	if c.nb.udmAmf, err = c.connTo("UDM", c.UDM.Handle); err != nil {
		return err
	}
	if c.nb.udmSmf, err = c.connTo("UDM", c.UDM.Handle); err != nil {
		return err
	}
	c.AUSF = ausf.New(udmConnAusf)
	if c.nb.ausf, err = c.connTo("AUSF", c.AUSF.Handle); err != nil {
		return err
	}
	c.PCF = pcf.New(pcf.Policy{})
	if c.nb.pcfAmf, err = c.connTo("PCF", c.PCF.Handle); err != nil {
		return err
	}
	if c.nb.pcfSmf, err = c.connTo("PCF", c.PCF.Handle); err != nil {
		return err
	}

	if err := c.startCP(); err != nil {
		return err
	}
	return c.startDN()
}

// newN4 opens the N4 endpoint pair on the mode's transport — kernel UDP
// sockets for free5GC, a shared-memory ring pair otherwise — and applies
// the one wiring both transports share: tracks, counters, fault points
// and the SMF side's retransmission profile.
func (c *Core) newN4() (smfEP, upfEP pfcp.Endpoint, err error) {
	if c.cfg.Mode == ModeFree5GC {
		u, err := pfcp.NewUDPEndpoint("127.0.0.1:0")
		if err != nil {
			return nil, nil, err
		}
		c.closers = append(c.closers, func() { u.Close() })
		s, err := pfcp.NewUDPEndpoint("127.0.0.1:0")
		if err != nil {
			return nil, nil, err
		}
		c.closers = append(c.closers, func() { s.Close() })
		if err := s.Connect(u.Addr()); err != nil {
			return nil, nil, err
		}
		if err := u.Connect(s.Addr()); err != nil {
			return nil, nil, err
		}
		smfEP, upfEP = s, u
	} else {
		s, u := pfcp.NewMemPair(1024)
		c.closers = append(c.closers, func() { s.Close(); u.Close() })
		smfEP, upfEP = s, u
	}
	wire := func(ep pfcp.Endpoint, name string) {
		ep.SetTracer(c.track(name))
		ep.ExportMetrics(c.cfg.Metrics, name)
		if c.cfg.FaultInjector != nil {
			ep.SetInjector(c.cfg.FaultInjector, name)
		}
	}
	wire(smfEP, "pfcp.smf")
	wire(upfEP, "pfcp.upf")
	if c.cfg.N4Retry.T1 > 0 {
		smfEP.SetRetry(c.cfg.N4Retry)
	}
	return smfEP, upfEP, nil
}

// connTo builds a consumer connection to a producer handler according to
// the mode's SBI transport, registering the producer with the NRF.
func (c *Core) connTo(nfType string, h sbi.Handler) (sbi.Conn, error) {
	name := "sbi." + strings.ToLower(nfType)
	addr := "shm:" + nfType
	var conn sbi.Conn
	if c.cfg.Mode == ModeFree5GC || c.cfg.Mode == ModeONVMUPF {
		srv, err := sbi.NewHTTPServer("127.0.0.1:0", codec.JSON{}, h)
		if err != nil {
			return nil, err
		}
		hc := sbi.NewHTTPConn(srv.Addr(), codec.JSON{})
		hc.SetTracer(c.track(name))
		hc.ExportMetrics(c.cfg.Metrics, name)
		c.closers = append(c.closers, func() { srv.Close(); hc.Close() })
		addr, conn = srv.Addr(), hc
	} else {
		sc, srv := sbi.NewShmPair(1024, h)
		sc.SetTracer(c.track(name))
		sc.ExportMetrics(c.cfg.Metrics, name)
		c.closers = append(c.closers, func() { srv.Close(); sc.Close() })
		conn = sc
	}
	c.NRF.Handle(sbi.OpNFRegister, &sbi.NFRegisterRequest{
		NfInstanceID: nfType + "-1", NfType: nfType, Addr: addr,
	})
	return conn, nil
}

// spawnFunc builds one SMF or AMF instance. With u nil it builds a plain
// core's only instance and returns its producer handler; otherwise it
// builds generation gen of the supervised unit u, with the NF's NGAP/N4
// ingress tapped through the unit's packet log, and returns it as the
// unit's Instance. Generation 0, either way, is the Core's SMF or AMF.
type spawnFunc func(u *supervisor.Unit, gen int) (sbi.Handler, supervisor.Instance, error)

// startCP builds the SMF, then the AMF over the SMF's conn. With
// Config.Resilience each runs as a supervised unit: an active generation
// and a frozen standby, built by the same spawn function, with state
// checkpointed per applied message (output commit — a message whose SBI
// side effects already ran is never re-externalized by replay).
func (c *Core) startCP() error {
	if c.cfg.Resilience {
		supCfg := supervisor.Config{Tracer: c.cfg.Tracer, Metrics: c.cfg.Metrics}
		if tel := c.cfg.Telemetry; tel != nil {
			supCfg.OnRecovery = func(unit string, _ supervisor.RecoveryStats) {
				tel.DumpNow("supervisor.promote." + unit)
			}
		}
		c.sup = supervisor.New(supCfg)
	}
	// Generations share the N4 endpoint; the active one must hold its
	// inbound handler or session reports (paging triggers) would land on
	// the empty standby. Likewise only the active generation's association
	// heartbeats — the standby's stays in manual mode until promotion, and
	// the retired one is stopped via its closer.
	smfConn, err := c.startNF("SMF", c.OverloadSMF, c.spawnSMF, func(active supervisor.Instance) {
		s := active.(*supervisor.SMFInstance).S
		s.BindN4()
		c.armN4(s)
	})
	if err != nil {
		return err
	}
	amfConn, err := c.startNF("AMF", c.OverloadAMF, func(u *supervisor.Unit, gen int) (sbi.Handler, supervisor.Instance, error) {
		return c.spawnAMF(u, gen, smfConn)
	}, nil)
	if err != nil {
		return err
	}
	c.amfConn.Store(&amfConn)
	return nil
}

// startNF builds one NF with spawn and publishes its producer handler over
// the mode's SBI transport behind the NF's admission gate. The handler is
// the NF's own in a plain core and the unit conn's Invoke in a supervised
// one: the logged, deduplicated ingress that rides out a failover by
// waiting for recovery and retrying into the promoted generation's dedup
// cache. So a supervised NF has the same wire, NRF registration and
// sbi.<nf>.* counters and spans as a plain one, with the packet log
// behind the wire and in front of the NF. Admission runs once, at this
// boundary and never inside Handle: shed work is never logged, and
// replay, which re-enters Handle, never re-runs an admission decision.
func (c *Core) startNF(nfType string, ctrl *overload.Controller, spawn spawnFunc, onPromote func(supervisor.Instance)) (sbi.Conn, error) {
	var h sbi.Handler
	if c.sup == nil {
		var err error
		if h, _, err = spawn(nil, 0); err != nil {
			return nil, err
		}
	} else {
		u, err := c.sup.Register(supervisor.UnitConfig{
			Name: strings.ToLower(nfType), Injector: c.cfg.FaultInjector,
			CheckpointEvery: 1, Overload: ctrl, OnPromote: onPromote,
			Spawn: func(u *supervisor.Unit, gen int) (supervisor.Instance, error) {
				_, inst, err := spawn(u, gen)
				return inst, err
			},
		})
		if err != nil {
			return nil, err
		}
		// Closed where the plain NF is, so a unit's procedures in flight
		// at Stop still reach the conns they were built over.
		c.closers = append(c.closers, u.Close)
		h = u.Conn().Invoke
	}
	return c.connTo(nfType, overload.WrapSBI(ctrl, h))
}

// nodeName names an NF instance: "<nf>.l25gc", and ".g<gen>" after it for
// a supervised generation.
func nodeName(nf string, u *supervisor.Unit, gen int) string {
	if u == nil {
		return nf + ".l25gc"
	}
	return fmt.Sprintf("%s.l25gc.g%d", nf, gen)
}

// spawnSMF is the SMF's spawnFunc. The instance is built over the shared
// neighbors; its AMF connection resolves lazily through c.amfConn — the
// AMF is built after the SMF because it needs the SMF's conn. With
// Config.N4Assoc it gets its own association state machine over the
// (shared) N4 endpoint, attached for degraded-mode gating and snapshot
// persistence but not ticking until armN4: at once in a plain core, on
// promotion in a supervised one. Reconciliation is the OnUp hook, so a
// heal never advertises Up before the SEID tables agree; association down
// snapshots the telemetry flight ring.
func (c *Core) spawnSMF(u *supervisor.Unit, gen int) (sbi.Handler, supervisor.Instance, error) {
	cfg := c.cfg
	nodeID := nodeName("smf", u, gen)
	s := smf.New(smf.Config{
		NodeID: nodeID, UPFN3IP: upfN3IP,
		UEPoolBase: pkt.AddrFrom(10, 60, 0, 1),
		Shards:     cfg.NFShards,
	}, c.nb.udmSmf, c.nb.pcfSmf, c.nb.n4, func() sbi.Conn {
		if p := c.amfConn.Load(); p != nil {
			return *p
		}
		return nil
	})
	s.SetTracer(c.track("smf"))
	s.SetOverload(c.OverloadSMF)
	if cfg.N4Assoc {
		a := pfcp.NewAssociation(c.nb.n4, pfcp.AssocConfig{
			NodeID:            nodeID,
			RecoveryTimestamp: 1,
			HeartbeatInterval: cfg.N4HeartbeatInterval,
			MissThreshold:     cfg.N4MissThreshold,
			OnUp:              s.Reconcile,
			OnDown: func(reason string) {
				if tel := cfg.Telemetry; tel != nil {
					tel.DumpNow("pfcp.assoc.down")
				}
			},
		})
		a.SetTracer(c.track("pfcp.smf"))
		s.SetAssociation(a)
	}
	if gen == 0 {
		c.SMF = s
	}
	if u == nil {
		c.closers = append(c.closers, func() { stopN4(s) })
		c.armN4(s)
		return s.Handle, nil, nil
	}
	return nil, supervisor.NewSMFInstance(u, s, func() error { stopN4(s); return nil }), nil
}

// armN4 makes s the SMF whose association drives N4: the pfcp.assoc.*
// gauges read through it and its heartbeats tick. The first SMF armed
// also runs the initial setup exchange — best effort, a failure leaves
// the association probing (ticker or manual Ticks) rather than failing
// the core; a promoted generation carries its state in the checkpoint.
func (c *Core) armN4(s *smf.SMF) {
	a := s.Association()
	if a == nil {
		return
	}
	first := c.n4assoc.Swap(a) == nil
	c.n4smf.Store(s)
	if first {
		_ = a.Setup()
	}
	a.Start()
}

// stopN4 halts s's association ticker, if it has one.
func stopN4(s *smf.SMF) {
	if a := s.Association(); a != nil {
		a.Stop()
	}
}

// spawnAMF is the AMF's spawnFunc, over the shared neighbors and smfConn.
func (c *Core) spawnAMF(u *supervisor.Unit, gen int, smfConn sbi.Conn) (sbi.Handler, supervisor.Instance, error) {
	a, err := amf.New(amf.Config{
		Name: nodeName("amf", u, gen), Guami: "5G:mnc093.mcc208", Addr: "127.0.0.1:0",
		Shards: c.cfg.NFShards,
	}, c.nb.ausf, c.nb.udmAmf, c.nb.pcfAmf, smfConn)
	if err != nil {
		return nil, nil, err
	}
	a.SetTracer(c.track("amf"))
	a.SetOverload(c.OverloadAMF)
	if gen == 0 {
		c.AMF = a
	}
	if u == nil {
		c.closers = append(c.closers, func() { a.Close() })
		return a.Handle, nil, nil
	}
	return nil, supervisor.NewAMFInstance(u, a), nil
}

// exportN4AssocMetrics registers the pfcp.assoc.* family exactly once,
// reading through the ACTIVE generation's association and SMF — in
// supervised mode each generation spawns its own association, and
// registering per generation would sum retired instances' counters.
func (c *Core) exportN4AssocMetrics(reg *metrics.Registry) {
	counter := func(f func(pfcp.AssocCounters) uint64) func() uint64 {
		return func() uint64 {
			if a := c.n4assoc.Load(); a != nil {
				return f(a.Counters())
			}
			return 0
		}
	}
	reg.RegisterGauge("pfcp.assoc.state", func() uint64 {
		if a := c.n4assoc.Load(); a != nil {
			return uint64(a.State())
		}
		return 0
	})
	reg.RegisterGauge("pfcp.assoc.heartbeat.ok",
		counter(func(s pfcp.AssocCounters) uint64 { return s.HeartbeatOK }))
	reg.RegisterGauge("pfcp.assoc.heartbeat.miss",
		counter(func(s pfcp.AssocCounters) uint64 { return s.HeartbeatMiss }))
	reg.RegisterGauge("pfcp.assoc.down.total",
		counter(func(s pfcp.AssocCounters) uint64 { return s.Downs }))
	reg.RegisterGauge("pfcp.assoc.up.total",
		counter(func(s pfcp.AssocCounters) uint64 { return s.Ups }))
	reg.RegisterGauge("pfcp.assoc.peer.restarts",
		counter(func(s pfcp.AssocCounters) uint64 { return s.PeerRestarts }))
	reg.RegisterGauge("pfcp.assoc.setup.fail",
		counter(func(s pfcp.AssocCounters) uint64 { return s.SetupFails }))
	reg.RegisterGauge("pfcp.assoc.rejected_down", func() uint64 {
		if s := c.n4smf.Load(); s != nil {
			return s.RejectedWhileDown()
		}
		return 0
	})
	reg.RegisterGauge("pfcp.assoc.journal", func() uint64 {
		if s := c.n4smf.Load(); s != nil {
			return uint64(s.JournalLen())
		}
		return 0
	})
	reg.RegisterGauge("pfcp.assoc.reconcile.rebuilt", func() uint64 {
		if s := c.n4smf.Load(); s != nil {
			if r := s.LastReconcile(); r != nil {
				return uint64(r.Rebuilt)
			}
		}
		return 0
	})
	reg.RegisterGauge("pfcp.assoc.reconcile.purged", func() uint64 {
		if s := c.n4smf.Load(); s != nil {
			if r := s.LastReconcile(); r != nil {
				return uint64(r.Purged)
			}
		}
		return 0
	})
}

// N4Association returns the active SMF generation's association state
// machine (nil unless Config.N4Assoc).
func (c *Core) N4Association() *pfcp.Association { return c.n4assoc.Load() }

// startDN opens the free5GC-mode DN-side socket (no-op in the
// shared-memory modes).
func (c *Core) startDN() error {
	if c.cfg.Mode != ModeFree5GC {
		return nil
	}
	dn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return err
	}
	dn.SetReadBuffer(4 << 20)
	dn.SetWriteBuffer(4 << 20)
	c.dnSock = dn
	c.closers = append(c.closers, func() { dn.Close() })
	if err := c.kupf.SetDN(dn.LocalAddr().String()); err != nil {
		return err
	}
	go readLoop(dn, c.n6Egress)
	return nil
}

// --- RAN-side surface ---

// N2Addr returns the NGAP listen address — in resilience mode, the
// currently active AMF generation's (it changes across failovers; RAN
// nodes re-dial it, the S-BFD-steered re-attach of §3.5).
func (c *Core) N2Addr() string {
	if c.sup != nil {
		if u := c.sup.Unit("amf"); u != nil {
			return u.Active().(*supervisor.AMFInstance).A.N2Addr()
		}
	}
	return c.AMF.N2Addr()
}

// Supervisor exposes the resiliency orchestrator (nil unless the core
// was built with Config.Resilience).
func (c *Core) Supervisor() *supervisor.Supervisor { return c.sup }

// AttachGNB registers a gNB's DL frame sink under its N3 address. The
// sink borrows the frame: the bytes are valid until it returns (then the
// packet buffer, or in free5GC mode the socket read buffer, is reused),
// so a sink that keeps any of them copies what it keeps. Frames of one
// flow arrive in order; sinks must be goroutine-safe.
func (c *Core) AttachGNB(addr pkt.Addr, sink func(frame []byte)) error {
	c.mu.Lock()
	sinks := maps.Clone(*c.gnbSinks.Load())
	sinks[addr] = sink
	c.gnbSinks.Store(&sinks)
	c.mu.Unlock()
	if c.cfg.Mode != ModeFree5GC {
		return nil
	}
	// Kernel mode: the gNB side is a real UDP socket.
	sock, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return err
	}
	sock.SetReadBuffer(4 << 20)
	sock.SetWriteBuffer(4 << 20)
	c.mu.Lock()
	c.gnbSocks[addr] = sock
	c.mu.Unlock()
	c.ulSock.CompareAndSwap(nil, sock)
	c.closers = append(c.closers, func() { sock.Close() })
	if err := c.kupf.RegisterGNB(addr, sock.LocalAddr().String()); err != nil {
		return err
	}
	go readLoop(sock, sink)
	return nil
}

// SendUL injects a GTP-U frame from a gNB into the core's N3 interface.
func (c *Core) SendUL(frame []byte) error {
	if c.cfg.Mode == ModeFree5GC {
		sock := c.ulSock.Load()
		if sock == nil {
			return fmt.Errorf("core: no gNB attached")
		}
		_, err := sock.WriteToUDPAddrPort(frame, c.kupfN3)
		return err
	}
	return c.mgr.Inject(uint16(upf.PortN3), frame, pktbuf.Meta{Uplink: true})
}

// --- DN-side surface ---

// InjectDL delivers a plain IP packet from the data network into N6.
func (c *Core) InjectDL(ipPkt []byte) error {
	if c.cfg.Mode == ModeFree5GC {
		_, err := c.dnSock.WriteToUDPAddrPort(ipPkt, c.kupfN6)
		return err
	}
	return c.mgr.Inject(uint16(upf.PortN6), ipPkt, pktbuf.Meta{Uplink: false})
}

// SetN6Sink installs the receiver for uplink packets leaving toward the
// data network. The sink borrows the packet exactly as an AttachGNB sink
// borrows its frame: valid until it returns, copy what you keep.
func (c *Core) SetN6Sink(fn func(ipPkt []byte)) { c.n6Sink.Store(&fn) }

// n3Egress routes DL frames leaving the platform to the right gNB sink,
// which borrows the pool buffer's bytes for the call.
func (c *Core) n3Egress(frame []byte, meta pktbuf.Meta) {
	if sink := (*c.gnbSinks.Load())[pkt.Addr(meta.OuterIP)]; sink != nil {
		sink(frame)
	}
}

// n6Egress lends UL packets to the DN sink.
func (c *Core) n6Egress(ipPkt []byte) {
	if sink := c.n6Sink.Load(); sink != nil && *sink != nil {
		(*sink)(ipPkt)
	}
}

// readLoop (free5GC mode) lends every datagram arriving on a RAN- or
// DN-side socket to sink, one read buffer for the socket's lifetime,
// poisoned like a released pool buffer once sink has returned.
func readLoop(sock *net.UDPConn, sink func([]byte)) {
	buf := make([]byte, 64*1024)
	for {
		n, err := sock.Read(buf)
		if err != nil {
			return
		}
		sink(buf[:n])
		pktbuf.Poison(buf[:n])
	}
}

// DeployUPFCanary starts a second UPF-U instance on the platform (the
// canary of a rolling upgrade, §4) and steers the given percentage of
// flows to it. Shared-memory modes only.
func (c *Core) DeployUPFCanary(percent int) (*onvm.Instance, error) {
	if c.mgr == nil {
		return nil, fmt.Errorf("core: canary rollout needs the shared-memory platform")
	}
	inst, err := c.UPFU.AttachONVM(c.mgr, upfServiceID)
	if err != nil {
		return nil, err
	}
	if err := c.mgr.SetCanary(upfServiceID, percent); err != nil {
		return nil, err
	}
	return inst, nil
}

// Mode reports the deployment mode.
func (c *Core) Mode() Mode { return c.cfg.Mode }

// Stop shuts the unit down.
func (c *Core) Stop() {
	for i := len(c.closers) - 1; i >= 0; i-- {
		c.closers[i]()
	}
	c.closers = nil
}
