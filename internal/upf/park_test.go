package upf

import (
	"testing"

	"l25gc/internal/pfcp"
	"l25gc/internal/pkt"
	"l25gc/internal/pktbuf"
	"l25gc/internal/rules"
)

// bufferFAR points FAR 2 of a burstUPF session at the session buffer.
var bufferFAR = &pfcp.SessionModificationRequest{
	UpdateFARs: []*rules.FAR{{ID: 2, Action: rules.FARBuffer, DestInterface: rules.IfAccess}},
}

// park sends n downlink packets of session k through the fast path, and
// requires each parked.
func (p *burstUPF) park(t *testing.T, k, n int) {
	t.Helper()
	var parsed pkt.Parsed
	for i := 0; i < n; i++ {
		if p.u.Process(p.dl(t, k, 20+i), &parsed) {
			t.Fatalf("session %d: packet %d was not parked", k, i)
		}
	}
}

// checkParked requires the State's parked-bytes total to be want and to
// equal what its sessions' buffers hold.
func (p *burstUPF) checkParked(t *testing.T, step string, want int) {
	t.Helper()
	held := 0
	for _, seid := range p.st.SEIDs() {
		ctx, _ := p.st.Session(seid)
		ctx.mu.Lock()
		held += ctx.queue.bytes
		ctx.mu.Unlock()
	}
	if got := p.st.ParkedBytes(); got != want || got != held {
		t.Fatalf("after %s: %d parked bytes, sessions hold %d, want %d", step, got, held, want)
	}
}

// TestParkedBytesConserved: every path that takes packets out of a
// session buffer gives their bytes back to the parked-bytes budget: a
// drain, a re-park during a drain, a deletion with packets parked, a
// drain whose pool runs empty (which counts the packets it could not
// rebuild as dropped), and Reset.
func TestParkedBytesConserved(t *testing.T) {
	p := newBurstUPF(t, 3, nil)
	var emitted []*pktbuf.Buf
	emitTo := func(pool *pktbuf.Pool) {
		p.u.SetEmit(func(burst []*pktbuf.Buf) int {
			emitted = append(emitted, burst...)
			return len(burst)
		}, pool)
	}
	emitTo(p.pool)
	// Packet i of park's is a 20+i-byte payload behind 28 bytes of
	// headers, in a record with a 2-byte length.
	bytesOf := func(n int) int { return n*(recHdr+28+20) + n*(n-1)/2 }

	const n = 50
	p.modify(t, 100, bufferFAR)
	p.park(t, 0, n)
	p.checkParked(t, "parking", bytesOf(n))
	p.modify(t, 100, &pfcp.SessionModificationRequest{UpdateFARs: []*rules.FAR{dlFAR(0x7777, rules.FARForward)}})
	if toPort, _ := releaseAll(emitted); toPort != n {
		t.Fatalf("drain sent %d of %d", toPort, n)
	}
	emitted = nil
	p.checkParked(t, "a drain", 0)

	// Re-park during a drain: the release points the PDR at a FAR that
	// buffers.
	p.modify(t, 100, bufferFAR)
	p.park(t, 0, n)
	p.modify(t, 100, &pfcp.SessionModificationRequest{
		CreateFARs: []*rules.FAR{{ID: 3, Action: rules.FARBuffer, DestInterface: rules.IfAccess}},
		UpdateFARs: []*rules.FAR{dlFAR(0x7777, rules.FARForward)},
		UpdatePDRs: []*rules.PDR{{ID: 2, Precedence: 32, FARID: 3,
			PDI: rules.PDI{SourceInterface: rules.IfCore, UEIP: p.ips[0], HasUEIP: true}}},
	})
	if len(emitted) != 0 {
		t.Fatalf("%d packets sent past a buffering FAR", len(emitted))
	}
	p.checkParked(t, "a re-park during a drain", bytesOf(n))
	far3 := dlFAR(0x7777, rules.FARForward)
	far3.ID = 3
	p.modify(t, 100, &pfcp.SessionModificationRequest{UpdateFARs: []*rules.FAR{far3}})
	if toPort, _ := releaseAll(emitted); toPort != n {
		t.Fatalf("second drain sent %d of %d", toPort, n)
	}
	emitted = nil
	p.checkParked(t, "the second drain", 0)

	p.modify(t, 101, bufferFAR)
	p.park(t, 1, n)
	deleted, _ := p.st.Session(101)
	if resp, err := p.c.Handle(101, &pfcp.SessionDeletionRequest{}); err != nil ||
		resp.(*pfcp.SessionDeletionResponse).Cause != pfcp.CauseAccepted {
		t.Fatalf("delete: %v %+v", err, resp)
	}
	p.checkParked(t, "a deletion", 0)
	// A caller that resolved the session before it left cannot park into
	// it after: nothing would drain it.
	if stored, _ := deleted.park(make([]byte, 40)); stored || p.st.ParkedBytes() != 0 {
		t.Fatalf("a deleted session parked a packet: %d parked bytes", p.st.ParkedBytes())
	}

	// A drain whose pool runs empty: the emit path keeps every buffer.
	const poolSize = 20
	small := pktbuf.NewPool(poolSize, "drain")
	emitTo(small)
	p.modify(t, 102, bufferFAR)
	p.park(t, 2, n)
	p.modify(t, 102, &pfcp.SessionModificationRequest{UpdateFARs: []*rules.FAR{dlFAR(0x7777, rules.FARForward)}})
	ctx, _ := p.st.Session(102)
	if s := ctx.Stats(); len(emitted) != poolSize || s.BufferDropped != n-poolSize || s.QueueLen != 0 ||
		p.u.parkDropped.Load() != n-poolSize {
		t.Fatalf("%d sent, %d counted dropped (session %+v), want %d and %d",
			len(emitted), p.u.parkDropped.Load(), s, poolSize, n-poolSize)
	}
	releaseAll(emitted)
	emitted = nil
	if small.Avail() != poolSize {
		t.Fatalf("%d drain buffers leaked", poolSize-small.Avail())
	}
	p.checkParked(t, "a drain out of buffers", 0)

	p.modify(t, 100, &pfcp.SessionModificationRequest{UpdateFARs: []*rules.FAR{
		{ID: 3, Action: rules.FARBuffer, DestInterface: rules.IfAccess}}})
	p.modify(t, 102, bufferFAR)
	p.park(t, 0, n)
	p.park(t, 2, n)
	p.st.Reset()
	if got := p.st.ParkedBytes(); got != 0 {
		t.Fatalf("after Reset: %d parked bytes", got)
	}
	p.checkNoLeak(t)
}

// TestParkBudgetReserve: a session past its share of the parked-bytes
// budget cannot take the reserve, so another session's first packets
// still park; past the whole budget nothing parks. Each refusal is a
// counted drop, not a lost packet.
func TestParkBudgetReserve(t *testing.T) {
	p := newBurstUPF(t, 2, nil)
	p.modify(t, 100, bufferFAR)
	p.modify(t, 101, bufferFAR)
	// Stand in for other sessions' bytes: all of the budget a session
	// past its share may use, but for one share.
	others := int64(parkBudget - parkReserve - parkShare)
	p.st.parked.bytes.Add(others)
	var parsed pkt.Parsed
	const payload = 200
	size := recHdr + 28 + payload
	parked := 0
	for {
		b := p.dl(t, 0, payload)
		if p.u.Process(b, &parsed) {
			b.Release()
			break
		}
		parked++
	}
	if parked != parkShare/size {
		t.Fatalf("a session past its share parked %d packets of %d bytes, want %d", parked, size, parkShare/size)
	}
	for i := 0; i < 3; i++ {
		if p.u.Process(p.dl(t, 1, payload), &parsed) {
			t.Fatalf("another session's packet %d was refused from the reserve", i)
		}
	}
	p.st.parked.bytes.Add(parkReserve)
	if b := p.dl(t, 1, payload); !p.u.Process(b, &parsed) {
		t.Fatal("a packet parked past the whole budget")
	} else {
		b.Release()
	}
	if d, s := p.u.parkDropped.Load(), p.u.Stats(); d != 2 || s.Dropped != 2 {
		t.Fatalf("park_dropped %d, upf %+v; want 2 refusals counted", d, s)
	}
	p.st.parked.bytes.Add(-others - parkReserve)
	p.checkParked(t, "parking", (parked+3)*size)
	p.st.Reset()
	p.checkParked(t, "Reset", 0)
	p.checkNoLeak(t)
}
