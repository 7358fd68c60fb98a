package supervisor

import (
	"testing"

	"l25gc/internal/pfcp"
	"l25gc/internal/pkt"
	"l25gc/internal/resilience"
	"l25gc/internal/rules"
)

// TestUPFInstanceForwardsReleasedBuffer: a session established with a
// buffering downlink FAR parks its downlink packets; the modification that
// flips the FAR to forward releases them through the fast path and out of
// the instance's egress, counted like any forwarded packet.
func TestUPFInstanceForwardsReleasedBuffer(t *testing.T) {
	n3, gnb := pkt.AddrFrom(10, 100, 0, 2), pkt.AddrFrom(10, 100, 0, 10)
	ue, dn := pkt.AddrFrom(10, 60, 0, 1), pkt.AddrFrom(8, 8, 8, 8)
	const seid = 7
	u := NewUPFInstance(n3)
	dlFAR := func(action rules.FARAction) *rules.FAR {
		return &rules.FAR{ID: 2, Action: action, DestInterface: rules.IfAccess,
			HasOuterHeader: true, OuterTEID: 0x5001, OuterAddr: gnb}
	}
	control := func(m pfcp.Message) {
		t.Helper()
		if err := u.Deliver(resilience.DLControl, 0, pfcp.Marshal(m, seid, true, 1)); err != nil {
			t.Fatal(err)
		}
	}
	control(&pfcp.SessionEstablishmentRequest{
		NodeID: "smf", CPSEID: seid, UEIP: ue,
		CreatePDRs: []*rules.PDR{{ID: 2, Precedence: 32, FARID: 2,
			PDI: rules.PDI{SourceInterface: rules.IfCore, UEIP: ue, HasUEIP: true}}},
		CreateFARs: []*rules.FAR{dlFAR(rules.FARBuffer)},
	})
	frame := make([]byte, 256)
	n, err := pkt.BuildUDPv4(frame, dn, ue, 9000, 40000, 0, make([]byte, 40))
	if err != nil {
		t.Fatal(err)
	}
	const parked = 5
	for i := 0; i < parked; i++ {
		if err := u.Deliver(resilience.DLData, 0, frame[:n]); err != nil {
			t.Fatal(err)
		}
	}
	ctx, ok := u.State().Session(seid)
	if !ok {
		t.Fatal("session not installed")
	}
	if s := ctx.Stats(); s.Buffered != parked || s.QueueLen != parked || u.Forwarded() != 0 {
		t.Fatalf("before the flip: buffered %d, queued %d, forwarded %d; want %d, %d, 0",
			s.Buffered, s.QueueLen, u.Forwarded(), parked, parked)
	}
	control(&pfcp.SessionModificationRequest{UpdateFARs: []*rules.FAR{dlFAR(rules.FARForward)}})
	if s := ctx.Stats(); u.Forwarded() != parked || s.DLPkts != parked || s.Released != parked {
		t.Fatalf("after the flip: forwarded %d, DL packets %d, released %d; want %d each",
			u.Forwarded(), s.DLPkts, s.Released, parked)
	}
	if avail := u.pool.Avail(); avail != u.pool.Size() {
		t.Fatalf("%d buffers leaked", u.pool.Size()-avail)
	}
}
