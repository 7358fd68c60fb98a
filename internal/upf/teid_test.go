package upf

import (
	"sync"
	"testing"

	"l25gc/internal/pkt"
)

// TestBindTEIDRaisesAllocatorFloor pins the restore/replay collision bug:
// a pinned bind (reconciliation re-establishing a session with its
// original UL TEID) must raise the allocator past the bound value, or a
// later AllocTEID hands the same TEID to a second session and uplink
// classification silently merges the two tunnels.
func TestBindTEIDRaisesAllocatorFloor(t *testing.T) {
	st := NewState("ps", 0)
	ctx, err := st.CreateSession(0x101, pkt.Addr{10, 60, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	st.BindTEID(0x2000, ctx)
	if teid := st.AllocTEID(); teid <= 0x2000 {
		t.Fatalf("AllocTEID after BindTEID(0x2000) returned %#x, want > 0x2000", teid)
	}
	// Binding below the current floor must not lower it.
	st.BindTEID(0x10, ctx)
	if teid := st.AllocTEID(); teid <= 0x2000 {
		t.Fatalf("AllocTEID after low re-bind returned %#x; floor regressed", teid)
	}
}

// Concurrent pinned binds and fresh allocations must never collide — the
// CAS-max loop in BindTEID races AllocTEID's fetch-add.
func TestBindTEIDConcurrentNoCollision(t *testing.T) {
	st := NewState("ps", 0)
	ctx, err := st.CreateSession(0x102, pkt.Addr{10, 60, 0, 2})
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	var wg sync.WaitGroup
	allocated := make([][]uint32, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if w == 0 {
					st.BindTEID(uint32(0x3000+i*8), ctx)
				} else {
					allocated[w] = append(allocated[w], st.AllocTEID())
				}
			}
		}(w)
	}
	wg.Wait()
	seen := make(map[uint32]bool)
	for _, ts := range allocated {
		for _, teid := range ts {
			if seen[teid] {
				t.Fatalf("AllocTEID handed out %#x twice", teid)
			}
			seen[teid] = true
		}
	}
	floor := st.AllocTEID()
	if floor <= 0x3000+(n-1)*8 {
		t.Fatalf("final allocator value %#x not above highest pinned bind", floor)
	}
}

// indexLen counts the entries of one lock-free session index.
func indexLen(m *sync.Map) int {
	n := 0
	m.Range(func(any, any) bool { n++; return true })
	return n
}

// TestDeleteSessionTouchesOnlyItsOwnEntries installs 10^4 sessions, each
// with two UL TEIDs, and deletes them one by one: every deletion removes
// exactly its session's entries — the other sessions still resolve by TEID
// and UE IP — and at the end both indexes are empty. A TEID re-bound to
// another session survives the deletion of the session it left.
func TestDeleteSessionTouchesOnlyItsOwnEntries(t *testing.T) {
	const n = 10_000
	st := NewState("ps", 0)
	ip := func(i int) pkt.Addr { return pkt.AddrFrom(10, 70, byte(i>>8), byte(i)) }
	for i := 0; i < n; i++ {
		ctx, err := st.CreateSession(uint64(i+1), ip(i))
		if err != nil {
			t.Fatal(err)
		}
		st.BindTEID(uint32(2*i+1), ctx)
		st.BindTEID(uint32(2*i+2), ctx)
		st.BindTEID(uint32(2*i+2), ctx) // a repeated bind is one entry
	}
	if ul, dl := indexLen(&st.ul), indexLen(&st.dl); ul != 2*n || dl != n {
		t.Fatalf("indexes hold %d TEIDs and %d UE IPs, want %d and %d", ul, dl, 2*n, n)
	}
	for i := 0; i < n; i++ {
		if _, err := st.DeleteSession(uint64(i + 1)); err != nil {
			t.Fatal(err)
		}
		if _, ok := st.ByUEIP(ip(i)); ok {
			t.Fatalf("session %d still resolves by UE IP after deletion", i)
		}
		if _, ok := st.ByTEID(uint32(2*i + 2)); ok {
			t.Fatalf("session %d still resolves by TEID after deletion", i)
		}
		if j := i + 1; j < n {
			c, ok := st.ByUEIP(ip(j))
			if !ok || c.Sess.UEIP != ip(j) {
				t.Fatalf("deleting session %d lost session %d's UE IP entry", i, j)
			}
			if c2, ok := st.ByTEID(uint32(2*j + 1)); !ok || c2 != c {
				t.Fatalf("deleting session %d lost session %d's TEID entry", i, j)
			}
		}
	}
	if ul, dl := indexLen(&st.ul), indexLen(&st.dl); ul != 0 || dl != 0 || st.Sessions() != 0 {
		t.Fatalf("after deleting every session: %d TEIDs, %d UE IPs, %d sessions left", ul, dl, st.Sessions())
	}

	a, _ := st.CreateSession(1, ip(1))
	b, _ := st.CreateSession(2, ip(2))
	st.BindTEID(7, a)
	st.BindTEID(7, b) // re-bound: the TEID now belongs to b
	st.DeleteSession(1)
	if c, ok := st.ByTEID(7); !ok || c != b {
		t.Fatal("deleting a session removed a TEID re-bound to another session")
	}
}
