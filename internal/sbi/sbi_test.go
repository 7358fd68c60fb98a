package sbi

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"l25gc/internal/codec"
	"l25gc/internal/metrics"
)

// fillMessage sets deterministic non-zero values into every schema field.
func fillMessage(m codec.Message, seed int) {
	for i, f := range m.Schema() {
		v := seed + i + 1
		switch f.Kind {
		case codec.KindUint32:
			*f.Ptr.(*uint32) = uint32(v)
		case codec.KindUint64:
			*f.Ptr.(*uint64) = uint64(v) << 20
		case codec.KindString:
			*f.Ptr.(*string) = fmt.Sprintf("field-%d", v)
		case codec.KindBytes:
			*f.Ptr.(*[]byte) = []byte{byte(v), byte(v + 1)}
		case codec.KindBool:
			*f.Ptr.(*bool) = v%2 == 0
		case codec.KindFloat64:
			*f.Ptr.(*float64) = float64(v) * 1.5
		}
	}
}

// TestEveryMessageRoundTripsAllCodecs is the exhaustive model test: every
// registered operation's request and response must survive every codec.
func TestEveryMessageRoundTripsAllCodecs(t *testing.T) {
	for _, op := range Ops() {
		for _, mk := range []struct {
			kind string
			mk   func() codec.Message
		}{{"req", op.NewRequest}, {"resp", op.NewResponse}} {
			for _, c := range codec.All() {
				name := fmt.Sprintf("%s/%s/%s", op.Name(), mk.kind, c.Name())
				t.Run(name, func(t *testing.T) {
					in := mk.mk()
					fillMessage(in, 7)
					raw, err := c.Marshal(in)
					if err != nil {
						t.Fatal(err)
					}
					out := mk.mk()
					if err := c.Unmarshal(raw, out); err != nil {
						t.Fatal(err)
					}
					// Compare via schema values (pointer fields differ).
					inF, outF := in.Schema(), out.Schema()
					for i := range inF {
						a := reflect.ValueOf(inF[i].Ptr).Elem().Interface()
						b := reflect.ValueOf(outF[i].Ptr).Elem().Interface()
						if !reflect.DeepEqual(a, b) {
							t.Fatalf("field tag %d: got %v want %v", inF[i].Tag, b, a)
						}
					}
				})
			}
		}
	}
}

func TestOpMetadata(t *testing.T) {
	if OpPostSmContexts.Path() != "/nsmf-pdusession/v1/sm-contexts" {
		t.Fatalf("path = %s", OpPostSmContexts.Path())
	}
	if OpPostSmContexts.Name() != "Nsmf_PDUSession_PostSmContexts" {
		t.Fatalf("name = %s", OpPostSmContexts.Name())
	}
	if OpInvalid.NewRequest() != nil || OpInvalid.Path() != "" {
		t.Fatal("invalid op should have no metadata")
	}
	// All paths must be distinct (mux requirement).
	seen := map[string]OpID{}
	for _, op := range Ops() {
		if prev, dup := seen[op.Path()]; dup {
			t.Fatalf("duplicate path %s for %v and %v", op.Path(), prev, op)
		}
		seen[op.Path()] = op
	}
}

func testHandler(op OpID, req codec.Message) (codec.Message, error) {
	switch op {
	case OpUEAuthenticationsPost:
		r := req.(*AuthenticationRequest)
		return &AuthenticationResponse{
			AuthType:  "5G_AKA",
			AuthCtxID: "ctx-" + r.SuciOrSupi,
			Rand:      []byte{1, 2, 3, 4},
		}, nil
	case OpPostSmContexts:
		r := req.(*SmContextCreateRequest)
		return &SmContextCreateResponse{
			SmContextRef: fmt.Sprintf("%s-%d", r.Supi, r.PduSessionID),
			Status:       201,
			UeIPv4:       "10.60.0.1",
		}, nil
	case OpNFDiscover:
		return &NFDiscoveryResponse{Addrs: "127.0.0.1:9999"}, nil
	}
	return nil, fmt.Errorf("unhandled op %v", op)
}

func exerciseConn(t *testing.T, conn Conn) {
	t.Helper()
	resp, err := conn.Invoke(OpUEAuthenticationsPost, &AuthenticationRequest{
		SuciOrSupi: "imsi-208930000000001", ServingNetworkName: "5G:mnc093.mcc208",
	})
	if err != nil {
		t.Fatal(err)
	}
	ar := resp.(*AuthenticationResponse)
	if ar.AuthCtxID != "ctx-imsi-208930000000001" || ar.AuthType != "5G_AKA" {
		t.Fatalf("got %+v", ar)
	}
	resp, err = conn.Invoke(OpPostSmContexts, &SmContextCreateRequest{
		Supi: "imsi-1", PduSessionID: 5, Dnn: "internet",
	})
	if err != nil {
		t.Fatal(err)
	}
	sr := resp.(*SmContextCreateResponse)
	if sr.SmContextRef != "imsi-1-5" || sr.Status != 201 {
		t.Fatalf("got %+v", sr)
	}
	// Error propagation.
	if _, err := conn.Invoke(OpSMPolicyCreate, &SMPolicyCreateRequest{}); err == nil {
		t.Fatal("unhandled op should surface an error")
	}
}

func TestHTTPTransport(t *testing.T) {
	for _, c := range codec.All() {
		c := c
		t.Run(c.Name(), func(t *testing.T) {
			srv, err := NewHTTPServer("127.0.0.1:0", c, testHandler)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			conn := NewHTTPConn(srv.Addr(), c)
			defer conn.Close()
			exerciseConn(t, conn)
		})
	}
}

func TestShmTransport(t *testing.T) {
	conn, srv := NewShmPair(64, testHandler)
	defer srv.Close()
	defer conn.Close()
	exerciseConn(t, conn)
}

func TestShmTransportPointerIdentity(t *testing.T) {
	// The shared-memory SBI must pass the same object through — the
	// zero-copy property the paper's Fig. 9 speedup comes from.
	var received codec.Message
	conn, srv := NewShmPair(8, func(op OpID, req codec.Message) (codec.Message, error) {
		received = req
		return &NFDiscoveryResponse{}, nil
	})
	defer srv.Close()
	defer conn.Close()
	req := &NFDiscoveryRequest{TargetNfType: "UPF"}
	if _, err := conn.Invoke(OpNFDiscover, req); err != nil {
		t.Fatal(err)
	}
	if received != codec.Message(req) {
		t.Fatal("shm transport must pass the identical message pointer")
	}
}

func TestShmConcurrentInvokes(t *testing.T) {
	conn, srv := NewShmPair(128, func(op OpID, req codec.Message) (codec.Message, error) {
		r := req.(*AuthenticationRequest)
		return &AuthenticationResponse{AuthCtxID: r.SuciOrSupi}, nil
	})
	defer srv.Close()
	defer conn.Close()
	errs := make(chan error, 20)
	for i := 0; i < 20; i++ {
		go func(i int) {
			id := fmt.Sprintf("supi-%d", i)
			resp, err := conn.Invoke(OpUEAuthenticationsPost, &AuthenticationRequest{SuciOrSupi: id})
			if err == nil && resp.(*AuthenticationResponse).AuthCtxID != id {
				err = fmt.Errorf("mismatched response for %s", id)
			}
			errs <- err
		}(i)
	}
	for i := 0; i < 20; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestShmInvokeInlineAndQueued pins who runs the producer's handler and
// what the deadline bounds. An idle producer's handler runs on the
// invoker's goroutine (served_inline). A handler that blocks while being
// served inline blocks its caller past the deadline, as a direct call
// would; an invoke queued behind it does time out at the deadline, and its
// request — still in the ring — is served by the first invoker's drain
// (served_queued) once the handler returns, its reply finding nobody.
func TestShmInvokeInlineAndQueued(t *testing.T) {
	block, entered := make(chan struct{}), make(chan struct{})
	var calls atomic.Int32
	conn, srv := NewShmPair(8, func(op OpID, req codec.Message) (codec.Message, error) {
		if calls.Add(1) == 2 {
			close(entered)
			<-block
		}
		return &NFDiscoveryResponse{}, nil
	})
	defer srv.Close()
	defer conn.Close()
	reg := metrics.NewRegistry()
	conn.ExportMetrics(reg, "sbi.nrf")
	const deadline = 30 * time.Millisecond
	conn.SetTimeout(deadline)
	req := &NFDiscoveryRequest{TargetNfType: "UPF"}

	if _, err := conn.Invoke(OpNFDiscover, req); err != nil {
		t.Fatal(err)
	}
	inHandler := make(chan error, 1)
	go func() {
		_, err := conn.Invoke(OpNFDiscover, req)
		inHandler <- err
	}()
	<-entered
	start := time.Now()
	if _, err := conn.Invoke(OpNFDiscover, req); err == nil {
		t.Fatal("an invoke queued behind a blocked handler must time out")
	}
	if d := time.Since(start); d < deadline {
		t.Fatalf("queued invoke gave up after %v, before its %v deadline", d, deadline)
	}
	select {
	case err := <-inHandler:
		t.Fatalf("invoke returned (%v) while its handler is still blocked", err)
	default:
	}
	close(block)
	if err := <-inHandler; err != nil {
		t.Fatalf("invoke served inline: %v", err)
	}
	if n := calls.Load(); n != 3 {
		t.Fatalf("handler ran %d times, want 3 (the timed-out request stays in the ring)", n)
	}
	snap := reg.Snapshot()
	for name, want := range map[string]uint64{
		"sbi.nrf.invokes": 3, "sbi.nrf.errors": 1,
		"sbi.nrf.served_inline": 2, "sbi.nrf.served_queued": 1,
	} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}
