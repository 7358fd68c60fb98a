package sbi

import (
	"errors"
	"testing"
	"time"

	"l25gc/internal/codec"
	"l25gc/internal/faults"
)

// A request the injector drops fails with ErrInjected and counts one drop;
// once the rule's count is spent, the caller's next Invoke gets through.
func TestHTTPInvokeRecoversFromInjectedLoss(t *testing.T) {
	srv, err := NewHTTPServer("127.0.0.1:0", codec.JSON{}, func(op OpID, req codec.Message) (codec.Message, error) {
		return op.NewResponse(), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn := NewHTTPConn(srv.Addr(), codec.JSON{})
	defer conn.Close()
	conn.SetTimeout(2 * time.Second)
	inj := faults.New(21).Add(faults.Rule{Point: "sbi.amf.invoke", Kind: faults.Drop, Count: 2})
	conn.SetInjector(inj, "sbi.amf")

	for i := 0; i < 2; i++ {
		if _, err := conn.Invoke(OpNFDiscover, &NFDiscoveryRequest{}); !errors.Is(err, ErrInjected) {
			t.Fatalf("invoke %d under an injected drop: %v, want ErrInjected", i, err)
		}
	}
	resp, err := conn.Invoke(OpNFDiscover, &NFDiscoveryRequest{})
	if err != nil || resp == nil {
		t.Fatalf("invoke after the drops: %v", err)
	}
	if n := inj.Count("sbi.amf.invoke", faults.Drop); n != 2 {
		t.Fatalf("drops = %d, want 2", n)
	}
}

// A lost request and a lost reply each cost the caller one deadline; the
// Invoke after them completes.
func TestShmInvokeRecoversFromInjectedLoss(t *testing.T) {
	cli, srv := NewShmPair(64, func(op OpID, req codec.Message) (codec.Message, error) {
		return op.NewResponse(), nil
	})
	defer cli.Close()
	defer srv.Close()
	cli.SetTimeout(50 * time.Millisecond)
	// Drop the first request frame and the first reply frame.
	inj := faults.New(33).
		Add(faults.Rule{Point: "sbi.shm.cli.invoke", Kind: faults.Drop, Count: 1}).
		Add(faults.Rule{Point: "sbi.shm.srv.reply", Kind: faults.Drop, Count: 1})
	cli.SetInjector(inj, "sbi.shm.cli")
	srv.SetInjector(inj, "sbi.shm.srv")

	for _, lost := range []string{"request", "reply"} {
		if _, err := cli.Invoke(OpNFDiscover, &NFDiscoveryRequest{}); err == nil {
			t.Fatalf("invoke with its %s lost succeeded", lost)
		}
	}
	resp, err := cli.Invoke(OpNFDiscover, &NFDiscoveryRequest{})
	if err != nil || resp == nil {
		t.Fatalf("invoke after the losses: %v", err)
	}
	if d := inj.Count("sbi.shm.cli.invoke", faults.Drop) + inj.Count("sbi.shm.srv.reply", faults.Drop); d != 2 {
		t.Fatalf("drops = %d, want 2", d)
	}
}

// TestShmDelayedSendLateError is the regression test for the send that
// returned an error variable its delayed delivery wrote later, from an
// injector timer (a data race under -race): an invoke delayed toward a
// closed producer fails at delivery, after Invoke has moved on, and only
// times out.
func TestShmDelayedSendLateError(t *testing.T) {
	cli, srv := NewShmPair(8, func(op OpID, req codec.Message) (codec.Message, error) {
		return op.NewResponse(), nil
	})
	defer cli.Close()
	cli.SetTimeout(50 * time.Millisecond)
	inj := faults.New(5).Add(faults.Rule{Point: "sbi.shm.cli.invoke", Kind: faults.Delay, Delay: 5 * time.Millisecond})
	cli.SetInjector(inj, "sbi.shm.cli")
	srv.Close()
	if _, err := cli.Invoke(OpNFDiscover, &NFDiscoveryRequest{}); err == nil {
		t.Fatal("invoke of a closed producer succeeded")
	}
	if n := inj.Count("sbi.shm.cli.invoke", faults.Delay); n != 1 {
		t.Fatalf("%d sends delayed, want 1", n)
	}
}
