package faults

import (
	"bytes"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestNilInjectorIsNoOp(t *testing.T) {
	var i *Injector
	sent := false
	i.Transmit("p", []byte("x"), func(b []byte) error { sent = true; return nil })
	if !sent {
		t.Fatal("nil injector must pass messages through")
	}
	if i.Decide("p", nil).Faulty() {
		t.Fatal("nil injector decided a fault")
	}
	if i.Crashed("x") || i.Frozen("x") || i.Partitioned("p") {
		t.Fatal("nil injector reports state faults")
	}
	if !i.AliveProbe("x")() {
		t.Fatal("nil injector probe must be alive")
	}
	i.Crash("x")
	i.Flush()
	_ = i.String()
}

func TestDropRuleProbabilityIsDeterministic(t *testing.T) {
	run := func(seed int64) []bool {
		inj := New(seed).Add(Rule{Point: "pfcp.tx", Kind: Drop, Prob: 0.3})
		out := make([]bool, 200)
		for n := range out {
			sent := false
			inj.Transmit("pfcp.tx", nil, func([]byte) error { sent = true; return nil })
			out[n] = sent
		}
		return out
	}
	a, b := run(42), run(42)
	for n := range a {
		if a[n] != b[n] {
			t.Fatalf("same seed diverged at message %d", n)
		}
	}
	drops := 0
	for _, sent := range a {
		if !sent {
			drops++
		}
	}
	if drops < 30 || drops > 90 {
		t.Fatalf("30%% drop rule fired %d/200 times", drops)
	}
	if diff := run(43); equalBools(a, diff) {
		t.Fatal("different seeds produced the identical schedule")
	}
}

func equalBools(a, b []bool) bool {
	for n := range a {
		if a[n] != b[n] {
			return false
		}
	}
	return true
}

func TestAfterAndCountWindows(t *testing.T) {
	inj := New(1).Add(Rule{Point: "p", Kind: Drop, After: 3, Count: 2})
	dropped := 0
	for n := 0; n < 10; n++ {
		if inj.Decide("p", nil).Drop {
			dropped++
			if n < 3 {
				t.Fatalf("rule fired inside the After window at message %d", n)
			}
		}
	}
	if dropped != 2 {
		t.Fatalf("Count=2 rule fired %d times", dropped)
	}
	if inj.Count("p", Drop) != 2 {
		t.Fatalf("stats report %d drops", inj.Count("p", Drop))
	}
}

func TestDuplicateAndDelay(t *testing.T) {
	inj := New(7).
		Add(Rule{Point: "dup", Kind: Duplicate, Count: 1}).
		Add(Rule{Point: "late", Kind: Delay, Delay: 10 * time.Millisecond, Count: 1})
	var sends atomic.Int32
	inj.Transmit("dup", []byte("m"), func([]byte) error { sends.Add(1); return nil })
	if sends.Load() != 2 {
		t.Fatalf("duplicate sent %d copies", sends.Load())
	}
	done := make(chan time.Duration, 1)
	start := time.Now()
	inj.Transmit("late", nil, func([]byte) error { done <- time.Since(start); return nil })
	select {
	case d := <-done:
		if d < 5*time.Millisecond {
			t.Fatalf("delayed message arrived after only %v", d)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("delayed message never arrived")
	}
}

// TestTransmitReturnsOnlyInlineErrors: Transmit returns the error of a send
// it ran itself; a delayed send fails on its timer's goroutine, and its
// error goes nowhere.
func TestTransmitReturnsOnlyInlineErrors(t *testing.T) {
	errSend := errors.New("peer closed")
	inj := New(7).Add(Rule{Point: "late", Kind: Delay, Delay: time.Millisecond})
	if err := inj.Transmit("now", nil, func([]byte) error { return errSend }); err != errSend {
		t.Fatalf("inline send: got %v, want %v", err, errSend)
	}
	ran := make(chan struct{})
	if err := inj.Transmit("late", nil, func([]byte) error { close(ran); return errSend }); err != nil {
		t.Fatalf("delayed send: got %v before it ran", err)
	}
	<-ran
}

func TestReorderHoldsUntilLaterTraffic(t *testing.T) {
	inj := New(3).Add(Rule{Point: "p", Kind: Reorder, HoldFor: 2, Count: 1})
	var mu sync.Mutex
	var order []int
	send := func(id int) func([]byte) error {
		return func([]byte) error {
			mu.Lock()
			order = append(order, id)
			mu.Unlock()
			return nil
		}
	}
	for id := 1; id <= 4; id++ {
		inj.Transmit("p", nil, send(id))
	}
	mu.Lock()
	defer mu.Unlock()
	want := []int{2, 1, 3, 4} // message 1 held for 2 messages, released at #3's Decide
	if len(order) != 4 {
		t.Fatalf("delivered %v", order)
	}
	for n := range want {
		if order[n] != want[n] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

func TestFlushReleasesHeld(t *testing.T) {
	inj := New(3).Add(Rule{Point: "p", Kind: Reorder, HoldFor: 100, Count: 1})
	sent := false
	inj.Transmit("p", nil, func([]byte) error { sent = true; return nil })
	if sent {
		t.Fatal("message should be held")
	}
	inj.Flush()
	if !sent {
		t.Fatal("Flush did not release the held message")
	}
}

func TestCorruptMutatesPayloadDeterministically(t *testing.T) {
	payload := func(seed int64) []byte {
		inj := New(seed).Add(Rule{Point: "p", Kind: Corrupt})
		data := []byte("hello-pfcp-wire-bytes")
		var got []byte
		inj.Transmit("p", data, func(b []byte) error { got = append([]byte(nil), b...); return nil })
		return got
	}
	a, b := payload(11), payload(11)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed corrupted differently")
	}
	if bytes.Equal(a, []byte("hello-pfcp-wire-bytes")) {
		t.Fatal("payload was not corrupted")
	}
}

func TestCrashRuleFiresHookAndProbe(t *testing.T) {
	inj := New(5).Add(Rule{Point: "lb.ingress", Kind: Crash, Target: "upf", After: 2, Count: 1})
	hook := make(chan struct{})
	inj.OnCrash("upf", func() { close(hook) })
	probe := inj.AliveProbe("upf")
	for n := 0; n < 2; n++ {
		inj.Decide("lb.ingress", nil)
		if !probe() {
			t.Fatalf("crashed early at message %d", n)
		}
	}
	inj.Decide("lb.ingress", nil) // third message trips the rule
	if probe() {
		t.Fatal("probe alive after scheduled crash")
	}
	select {
	case <-hook:
	case <-time.After(2 * time.Second):
		t.Fatal("crash hook never ran")
	}
	// Late registration fires immediately.
	late := make(chan struct{})
	inj.OnCrash("upf", func() { close(late) })
	select {
	case <-late:
	case <-time.After(2 * time.Second):
		t.Fatal("late crash hook never ran")
	}
	inj.Revive("upf")
	if !probe() {
		t.Fatal("Revive did not restore liveness")
	}
}

func TestPartitionBlackholesPrefix(t *testing.T) {
	inj := New(9)
	inj.Partition("pfcp.upf")
	if !inj.Decide("pfcp.upf.rx", nil).Drop {
		t.Fatal("partitioned point passed a message")
	}
	if inj.Decide("pfcp.smf.rx", nil).Drop {
		t.Fatal("partition leaked to an unrelated point")
	}
	if !inj.Partitioned("pfcp.upf.tx") {
		t.Fatal("Partitioned() misses the prefix")
	}
	inj.Heal("pfcp.upf")
	if inj.Decide("pfcp.upf.rx", nil).Drop {
		t.Fatal("healed partition still dropping")
	}
	if inj.Count("pfcp.upf.rx", Partition) == 0 {
		t.Fatal("partition drops not counted")
	}
}

func TestFreezeBlocksAndReviveRestores(t *testing.T) {
	inj := New(2)
	inj.Freeze("upf")
	if !inj.Frozen("upf") || !inj.Decide("upf.rx", nil).Drop {
		t.Fatal("freeze did not blackhole the component")
	}
	if inj.AliveProbe("upf")() {
		t.Fatal("frozen target reported alive")
	}
	inj.Revive("upf")
	if inj.Decide("upf.rx", nil).Drop {
		t.Fatal("revived component still blocked")
	}
}

func TestWildcardRuleMatchesPrefix(t *testing.T) {
	inj := New(4).Add(Rule{Point: "pfcp.*", Kind: Drop})
	if !inj.Decide("pfcp.smf.tx", nil).Drop || !inj.Decide("pfcp.upf.rx", nil).Drop {
		t.Fatal("wildcard rule missed a pfcp point")
	}
	if inj.Decide("sbi.http.tx", nil).Drop {
		t.Fatal("wildcard rule matched outside its prefix")
	}
	if inj.Total(Drop) != 2 {
		t.Fatalf("Total(Drop) = %d", inj.Total(Drop))
	}
	if inj.Seen("pfcp.smf.tx") != 1 {
		t.Fatalf("Seen = %d", inj.Seen("pfcp.smf.tx"))
	}
}

func TestKindStrings(t *testing.T) {
	for k := Drop; k < numKinds; k++ {
		if k.String() == "" {
			t.Fatalf("kind %d has no name", k)
		}
	}
	if Kind(200).String() != "kind(200)" {
		t.Fatal("unknown kind string")
	}
}
