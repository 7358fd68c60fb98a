// Supervised-mesh chaos: the full control plane (AMF, SMF, UPF) runs
// under the supervisor while seeded faults crash one NF after another —
// including the promoted replica itself. The acceptance bar is the
// ISSUE's: every crash recovers automatically, no PDU session is lost,
// the UE never re-registers, and the packet logs stay bounded by the
// checkpoint cadence throughout.
package faults_test

import (
	"fmt"
	"net"
	"os"
	"strconv"
	"testing"
	"time"

	"l25gc/internal/codec"
	"l25gc/internal/faults"
	"l25gc/internal/nas"
	"l25gc/internal/nf/amf"
	"l25gc/internal/nf/ausf"
	"l25gc/internal/nf/pcf"
	"l25gc/internal/nf/smf"
	"l25gc/internal/nf/udm"
	"l25gc/internal/nf/udr"
	"l25gc/internal/ngap"
	"l25gc/internal/pkt"
	"l25gc/internal/sbi"
	"l25gc/internal/supervisor"
)

// chaosSeed reads the run's fault-schedule seed from L25GC_CHAOS_SEED
// (the multi-seed sweep in `make check` sets it), falling back to def.
func chaosSeed(def int64) int64 {
	if v := os.Getenv("L25GC_CHAOS_SEED"); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil {
			return n
		}
	}
	return def
}

type dcConn struct{ h sbi.Handler }

func (d dcConn) Invoke(op sbi.OpID, req codec.Message) (codec.Message, error) { return d.h(op, req) }
func (d dcConn) Close() error                                                 { return nil }

// chaosGnb is a scripted RAN node; it re-dials whichever AMF generation
// is active, the way S-BFD-steered peers re-attach after a failover.
type chaosGnb struct {
	t    *testing.T
	id   uint32
	conn *ngap.Conn
}

func dialChaosGnb(t *testing.T, addr string, id uint32) *chaosGnb {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial gNB %d: %v", id, err)
	}
	c.SetDeadline(time.Now().Add(30 * time.Second))
	g := &chaosGnb{t: t, id: id, conn: ngap.NewConn(c)}
	t.Cleanup(func() { g.conn.Close() })
	if err := g.conn.Send(&ngap.NGSetupRequest{GnbID: id, GnbName: "gnb-chaos", Tac: 1}); err != nil {
		t.Fatalf("NGSetup send: %v", err)
	}
	if resp := chaosRecv[*ngap.NGSetupResponse](g); !resp.Accepted {
		t.Fatalf("gNB %d: NGSetup rejected", id)
	}
	return g
}

func chaosRecv[T ngap.Message](g *chaosGnb) T {
	g.t.Helper()
	for {
		m, err := g.conn.Recv()
		if err != nil {
			g.t.Fatalf("gNB %d: recv: %v", g.id, err)
		}
		if want, ok := m.(T); ok {
			return want
		}
	}
}

func chaosRecvNAS(g *chaosGnb, want nas.MsgType) (nas.Message, uint64) {
	g.t.Helper()
	for {
		m, err := g.conn.Recv()
		if err != nil {
			g.t.Fatalf("gNB %d: recv: %v", g.id, err)
		}
		var pdu []byte
		var amfUeID uint64
		switch d := m.(type) {
		case *ngap.DownlinkNASTransport:
			pdu, amfUeID = d.NasPdu, d.AmfUeID
		case *ngap.InitialContextSetupRequest:
			pdu, amfUeID = d.NasPdu, d.AmfUeID
		case *ngap.PDUSessionResourceSetupRequest:
			pdu, amfUeID = d.NasPdu, d.AmfUeID
		default:
			continue
		}
		n, err := nas.Unmarshal(pdu)
		if err != nil {
			g.t.Fatalf("gNB %d: bad NAS: %v", g.id, err)
		}
		if n.NASType() == want {
			return n, amfUeID
		}
	}
}

func chaosSendNAS(g *chaosGnb, ranUeID, amfUeID uint64, m nas.Message) {
	g.t.Helper()
	pdu, err := nas.Marshal(m)
	if err != nil {
		g.t.Fatalf("marshal NAS: %v", err)
	}
	if err := g.conn.Send(&ngap.UplinkNASTransport{
		RanUeID: ranUeID, AmfUeID: amfUeID, NasPdu: pdu,
	}); err != nil {
		g.t.Fatalf("uplink NAS send: %v", err)
	}
}

// establishSession runs one PDU session establishment for the already
// registered UE and answers the resource setup with the gNB DL tunnel.
func establishSession(t *testing.T, g *chaosGnb, amfUeID uint64, psID, gnbTEID uint32) {
	t.Helper()
	chaosSendNAS(g, 1, amfUeID, &nas.PDUSessionEstablishmentRequest{
		PduSessionID: psID, Dnn: "internet", SscMode: 1,
	})
	chaosRecvNAS(g, nas.MsgPDUSessionEstablishmentAccept)
	if err := g.conn.Send(&ngap.PDUSessionResourceSetupResponse{
		RanUeID: 1, PduSessionID: psID, GnbTEID: gnbTEID, GnbAddr: "192.168.1.1",
	}); err != nil {
		t.Fatalf("resource setup response: %v", err)
	}
}

// activeAMF returns the promoted generation's AMF (for re-dialing).
func activeAMF(u *supervisor.Unit) *amf.AMF {
	return u.Active().(*supervisor.AMFInstance).A
}

// assertLogBounded fails if a unit's packet log outgrew its checkpoint
// cadence — the satellite-1 guarantee that auto-release on checkpoint
// keeps replay memory bounded no matter how long the mesh runs.
func assertLogBounded(t *testing.T, u *supervisor.Unit, every int, name string) {
	t.Helper()
	total := 0
	for _, d := range u.Logger().Depth() {
		total += d
	}
	if total > every {
		t.Fatalf("%s packet log holds %d frames; checkpoint cadence %d should bound it",
			name, total, every)
	}
}

// TestChaosSupervisedMeshSurvivesCascadingCrashes is the end-to-end
// resiliency scenario: a UE registers and establishes sessions through
// a fully supervised AMF/SMF/UPF mesh while the injector crashes the
// AMF twice (the second time killing the freshly promoted replica),
// then the SMF, then the UPF. After every crash the next control
// procedure must complete with no re-registration; at the end every
// session established along the way must still exist at the SMF and in
// the UPF forwarding state.
func TestChaosSupervisedMeshSurvivesCascadingCrashes(t *testing.T) {
	seed := chaosSeed(1902)
	inj := faults.New(seed)

	// Shared, unsupervised neighbors.
	u := udr.New()
	u.Provision(udr.Subscriber{
		Supi: "imsi-1", K: []byte("0123456789abcdef"), Opc: []byte("fedcba9876543210"),
		Dnn: "internet", AmbrUL: 1e9, AmbrDL: 2e9, Sst: 1, Sd: "010203",
	})
	um := udm.New(dcConn{u.Handle})
	au := ausf.New(dcConn{um.Handle})
	pc := pcf.New(pcf.Policy{RfspIndex: 1, MbrUL: 1e6, MbrDL: 1e6, Default5QI: 9})

	sup := supervisor.New(supervisor.Config{})
	defer sup.Stop()
	n3 := pkt.Addr{192, 168, 0, 1}

	// UPF unit: generations are full fast-path instances; N4 reaches the
	// active one through the unit's packet log.
	const upfCkptEvery = 4
	upfUnit, err := sup.Register(supervisor.UnitConfig{
		Name: "upf", Injector: inj, CheckpointEvery: upfCkptEvery,
		Spawn: func(_ *supervisor.Unit, _ int) (supervisor.Instance, error) {
			return supervisor.NewUPFInstance(n3), nil
		},
	})
	if err != nil {
		t.Fatalf("register upf: %v", err)
	}

	// SMF unit: session management state checkpoints every message so a
	// promoted replica replays only what never applied (the allocators in
	// the snapshot make any replayed create reproduce its original SEID).
	smfUnit, err := sup.Register(supervisor.UnitConfig{
		Name: "smf", Injector: inj, CheckpointEvery: 1,
		Spawn: func(su *supervisor.Unit, gen int) (supervisor.Instance, error) {
			s := smf.New(smf.Config{
				NodeID: fmt.Sprintf("smf-g%d", gen), UPFN3IP: n3,
				UEPoolBase: pkt.Addr{10, 60, 0, 1},
			}, dcConn{um.Handle}, dcConn{pc.Handle}, upfUnit.N4(), func() sbi.Conn { return nil })
			return supervisor.NewSMFInstance(su, s, nil), nil
		},
	})
	if err != nil {
		t.Fatalf("register smf: %v", err)
	}

	// AMF unit: per-message checkpoints give output commit — an NGAP
	// message whose side effects (an SBI call into the SMF) already ran
	// is checkpoint-covered the instant it completes, so replay after a
	// crash never re-externalizes it.
	amfUnit, err := sup.Register(supervisor.UnitConfig{
		Name: "amf", Injector: inj, CheckpointEvery: 1,
		Spawn: func(au2 *supervisor.Unit, gen int) (supervisor.Instance, error) {
			a, err := amf.New(amf.Config{
				Name: fmt.Sprintf("amf-g%d", gen), Guami: "guami-1", Addr: "127.0.0.1:0",
			}, dcConn{au.Handle}, dcConn{um.Handle}, dcConn{pc.Handle}, smfUnit.Conn())
			if err != nil {
				return nil, err
			}
			return supervisor.NewAMFInstance(au2, a), nil
		},
	})
	if err != nil {
		t.Fatalf("register amf: %v", err)
	}

	// Phase 0: register once, establish the first session.
	g := dialChaosGnb(t, activeAMF(amfUnit).N2Addr(), 1)
	pdu, _ := nas.Marshal(&nas.RegistrationRequest{Suci: "imsi-1", Capabilities: 0xf})
	if err := g.conn.Send(&ngap.InitialUEMessage{RanUeID: 1, NasPdu: pdu}); err != nil {
		t.Fatalf("initial UE message: %v", err)
	}
	chal, amfUeID := chaosRecvNAS(g, nas.MsgAuthenticationRequest)
	chaosSendNAS(g, 1, amfUeID, &nas.AuthenticationResponse{
		ResStar: udm.DeriveRes([]byte("0123456789abcdef"), chal.(*nas.AuthenticationRequest).Rand),
	})
	chaosRecvNAS(g, nas.MsgSecurityModeCommand)
	chaosSendNAS(g, 1, amfUeID, &nas.SecurityModeComplete{IMEISV: "imeisv-1"})
	acc, _ := chaosRecvNAS(g, nas.MsgRegistrationAccept)
	if acc.(*nas.RegistrationAccept).Guti == "" {
		t.Fatal("registration yielded no GUTI")
	}
	chaosSendNAS(g, 1, amfUeID, &nas.RegistrationComplete{Ack: true})
	establishSession(t, g, amfUeID, 5, 7001)

	// Phase 1: kill the primary AMF. The supervisor must promote the
	// standby; the gNB re-attaches and the *registered* UE opens another
	// session with no new RegistrationRequest on the wire.
	inj.Crash("amf.g0")
	if err := amfUnit.AwaitRecovery(1, 10*time.Second); err != nil {
		t.Fatalf("AMF crash 1: %v", err)
	}
	g = dialChaosGnb(t, activeAMF(amfUnit).N2Addr(), 1)
	establishSession(t, g, amfUeID, 6, 7002)

	// Phase 2: kill the replica that was just promoted. Surviving this is
	// what separates the supervisor from a scripted one-shot failover.
	inj.Crash("amf.g1")
	if err := amfUnit.AwaitRecovery(2, 10*time.Second); err != nil {
		t.Fatalf("AMF crash 2 (promoted replica): %v", err)
	}
	if amfUnit.Gen() != 2 {
		t.Fatalf("after two AMF crashes active generation = %d, want 2", amfUnit.Gen())
	}
	g = dialChaosGnb(t, activeAMF(amfUnit).N2Addr(), 1)
	establishSession(t, g, amfUeID, 7, 7003)

	// Phase 3: kill the SMF. The next session create flows AMF -> SMF
	// through the unit conn, which rides out the failover.
	inj.Crash("smf.g0")
	if err := smfUnit.AwaitRecovery(1, 10*time.Second); err != nil {
		t.Fatalf("SMF crash: %v", err)
	}
	establishSession(t, g, amfUeID, 8, 7004)

	// Phase 4: kill the UPF. The promoted generation is rebuilt from the
	// checkpointed rule state plus N4 replay; the next establishment's
	// PFCP request rides the recovery-retry path.
	inj.Crash("upf.g0")
	if err := upfUnit.AwaitRecovery(1, 10*time.Second); err != nil {
		t.Fatalf("UPF crash: %v", err)
	}
	establishSession(t, g, amfUeID, 9, 7005)

	// Zero session loss: all five sessions live at the promoted SMF and
	// in the promoted UPF's forwarding state.
	smfNF := smfUnit.Active().(*supervisor.SMFInstance).S
	if n := smfNF.Sessions(); n != 5 {
		t.Fatalf("SMF sessions after cascade = %d, want 5 (seed %d)", n, seed)
	}
	upfState := upfUnit.Active().(*supervisor.UPFInstance).State()
	for seid := uint64(0x101); seid <= 0x105; seid++ {
		if _, ok := upfState.Session(seid); !ok {
			t.Fatalf("UPF session %#x lost in cascade (seed %d)", seid, seed)
		}
	}
	if got := amfUnit.Recoveries() + smfUnit.Recoveries() + upfUnit.Recoveries(); got != 4 {
		t.Fatalf("recoveries = %d, want 4", got)
	}

	// Satellite guarantee: checkpoint auto-release kept every packet log
	// bounded by its cadence for the whole run.
	assertLogBounded(t, amfUnit, 1, "amf")
	assertLogBounded(t, smfUnit, 1, "smf")
	assertLogBounded(t, upfUnit, upfCkptEvery, "upf")
}
