package supervisor

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"l25gc/internal/codec"
	"l25gc/internal/faults"
	"l25gc/internal/resilience"
	"l25gc/internal/sbi"
	"l25gc/internal/testutil"
)

// kvInstance is a minimal supervised NF: state is a string map, messages
// are "k=v" assignments. encoding/json sorts map keys, so Snapshot is
// deterministic by construction.
type kvInstance struct {
	mu sync.Mutex
	m  map[string]string
}

func newKV() *kvInstance { return &kvInstance{m: make(map[string]string)} }

func (k *kvInstance) Snapshot() ([]byte, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	return json.Marshal(k.m)
}

func (k *kvInstance) Restore(b []byte) error {
	m := make(map[string]string)
	if err := json.Unmarshal(b, &m); err != nil {
		return err
	}
	k.mu.Lock()
	k.m = m
	k.mu.Unlock()
	return nil
}

func (k *kvInstance) Deliver(_ resilience.Class, _ uint64, data []byte) error {
	kv := strings.SplitN(string(data), "=", 2)
	if len(kv) != 2 {
		return fmt.Errorf("bad kv message %q", data)
	}
	k.mu.Lock()
	k.m[kv[0]] = kv[1]
	k.mu.Unlock()
	return nil
}

func (k *kvInstance) get(key string) string {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.m[key]
}

func (k *kvInstance) len() int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return len(k.m)
}

func kvUnit(t *testing.T, s *Supervisor, inj *faults.Injector, every int) *Unit {
	t.Helper()
	u, err := s.Register(UnitConfig{
		Name:            "kv",
		Spawn:           func(*Unit, int) (Instance, error) { return newKV(), nil },
		Injector:        inj,
		CheckpointEvery: every,
	})
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	return u
}

// TestSupervisorCheckpointBoundsLog is the satellite check that the
// automatic ReleaseUpTo on checkpoint keeps replay memory bounded under
// a long message stream.
func TestSupervisorCheckpointBoundsLog(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	s := New(Config{})
	defer s.Stop()
	u := kvUnit(t, s, nil, 10)
	for i := 0; i < 500; i++ {
		if _, err := u.Ingress(resilience.ULControl, []byte(fmt.Sprintf("k%d=v%d", i, i))); err != nil {
			t.Fatalf("ingress %d: %v", i, err)
		}
	}
	depth := u.Logger().Depth()
	total := depth[0] + depth[1] + depth[2] + depth[3]
	if total > 10 {
		t.Fatalf("packet log grew to %d entries despite checkpoint-every-10 (depth %v)",
			total, depth)
	}
	if got := u.Active().(*kvInstance).len(); got != 500 {
		t.Fatalf("active state has %d keys, want 500", got)
	}
}

// TestSupervisorSurvivesRepeatedCrashes is the core tentpole property:
// two successive crashes — the second against the freshly promoted
// generation — are both recovered automatically, with every message
// (including the ones rejected during the outage windows) present in the
// final active state via checkpoint + replay.
func TestSupervisorSurvivesRepeatedCrashes(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	inj := faults.New(1902)
	s := New(Config{})
	defer s.Stop()
	u := kvUnit(t, s, inj, 20)

	for i := 0; i < 50; i++ {
		if _, err := u.Ingress(resilience.ULControl, []byte(fmt.Sprintf("k%d=v%d", i, i))); err != nil {
			t.Fatalf("ingress %d: %v", i, err)
		}
	}

	// First crash: g0 dies; the next deliveries are lost at the instance
	// but stay in the log.
	inj.Crash("kv.g0")
	for i := 50; i < 60; i++ {
		if _, err := u.Ingress(resilience.ULControl, []byte(fmt.Sprintf("k%d=v%d", i, i))); err == nil {
			t.Fatalf("ingress %d against crashed g0 unexpectedly succeeded", i)
		}
	}
	if err := u.AwaitRecovery(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if u.Gen() != 1 {
		t.Fatalf("active generation = %d after first failover, want 1", u.Gen())
	}
	st := u.Active().(*kvInstance)
	if st.len() != 60 {
		t.Fatalf("promoted g1 has %d keys, want 60 (replay lost the outage window)", st.len())
	}
	if st.get("k55") != "v55" {
		t.Fatalf("k55 = %q after replay, want v55", st.get("k55"))
	}
	if rs := u.LastRecovery(); rs.Replayed == 0 {
		t.Fatal("failover replayed nothing; outage-window messages should replay")
	}

	// Second crash: the promoted generation dies too. The supervisor must
	// have resynced a fresh standby (g2) for this to be survivable.
	for i := 60; i < 70; i++ {
		if _, err := u.Ingress(resilience.ULControl, []byte(fmt.Sprintf("k%d=v%d", i, i))); err != nil {
			t.Fatalf("ingress %d on g1: %v", i, err)
		}
	}
	inj.Crash("kv.g1")
	for i := 70; i < 75; i++ {
		u.Ingress(resilience.ULControl, []byte(fmt.Sprintf("k%d=v%d", i, i)))
	}
	if err := u.AwaitRecovery(2, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if u.Gen() != 2 {
		t.Fatalf("active generation = %d after second failover, want 2", u.Gen())
	}
	st = u.Active().(*kvInstance)
	if st.len() != 75 {
		t.Fatalf("promoted g2 has %d keys, want 75", st.len())
	}
	if u.Recoveries() != 2 {
		t.Fatalf("recoveries = %d, want 2", u.Recoveries())
	}
}

// TestUnitConnDedupAcrossFailover drives an SBI request into a crashing
// unit: the conn must hold the in-flight request through the recovery and
// complete it exactly once (replay applies it, the retry hits the dedup
// cache), never erroring back to the caller.
func TestUnitConnDedupAcrossFailover(t *testing.T) {
	inj := faults.New(7)
	var executions atomic.Uint64
	handler := func(op sbi.OpID, req codec.Message) (codec.Message, error) {
		executions.Add(1)
		r := req.(*sbi.NFDiscoveryRequest)
		return &sbi.NFDiscoveryResponse{Addrs: "addr-of-" + r.TargetNfType}, nil
	}
	// The handler is shared across generations; state lives in a shared kv
	// snapshotter standing in for the NF's context store.
	shared := newKV()
	s := New(Config{})
	defer s.Stop()
	u, err := s.Register(UnitConfig{
		Name: "ctl",
		Spawn: func(*Unit, int) (Instance, error) {
			return newCPInstance(shared, handler, 0, nil, nil), nil
		},
		Injector: inj,
		// Checkpoint after every request so completed requests never
		// re-execute on the promoted generation; only the in-flight one
		// replays.
		CheckpointEvery: 1,
	})
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	conn := u.Conn()

	// Healthy path.
	resp, err := conn.Invoke(sbi.OpNFDiscover, &sbi.NFDiscoveryRequest{TargetNfType: "SMF"})
	if err != nil {
		t.Fatalf("invoke: %v", err)
	}
	if got := resp.(*sbi.NFDiscoveryResponse).Addrs; got != "addr-of-SMF" {
		t.Fatalf("resp = %q", got)
	}

	// Crash, then invoke while down: the request must ride through the
	// failover and complete.
	inj.Crash("ctl.g0")
	resp, err = conn.Invoke(sbi.OpNFDiscover, &sbi.NFDiscoveryRequest{TargetNfType: "UDM"})
	if err != nil {
		t.Fatalf("invoke across failover: %v", err)
	}
	if got := resp.(*sbi.NFDiscoveryResponse).Addrs; got != "addr-of-UDM" {
		t.Fatalf("resp across failover = %q", got)
	}
	if u.Recoveries() != 1 {
		t.Fatalf("recoveries = %d, want 1", u.Recoveries())
	}
	// Exactly-once: the UDM request executed once (replay) and the retry
	// hit the dedup cache; total = 1 healthy + 1 recovered.
	if got := executions.Load(); got != 2 {
		t.Fatalf("handler executed %d times, want 2 (dedup failed)", got)
	}
}

// TestUnitConnDedupBounded: the dedup cache gives up each result as its
// caller reads it, so a long healthy run leaves no entries behind.
func TestUnitConnDedupBounded(t *testing.T) {
	handler := func(op sbi.OpID, req codec.Message) (codec.Message, error) {
		return &sbi.NFDiscoveryResponse{Addrs: req.(*sbi.NFDiscoveryRequest).TargetNfType}, nil
	}
	shared := newKV()
	s := New(Config{})
	defer s.Stop()
	u, err := s.Register(UnitConfig{
		Name: "ctl",
		Spawn: func(*Unit, int) (Instance, error) {
			return newCPInstance(shared, handler, 0, nil, nil), nil
		},
		CheckpointEvery: 1,
	})
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	conn := u.Conn()
	const invokes = 10000
	for i := 0; i < invokes; i++ {
		if _, err := conn.Invoke(sbi.OpNFDiscover, &sbi.NFDiscoveryRequest{TargetNfType: "SMF"}); err != nil {
			t.Fatalf("invoke %d: %v", i, err)
		}
	}
	inst := u.Active().(*cpInstance)
	inst.mu.Lock()
	n := len(inst.seen)
	inst.mu.Unlock()
	if n > 1 {
		t.Fatalf("dedup cache holds %d entries after %d healthy invokes, want at most 1", n, invokes)
	}
}

// TestSBIFrameRoundTrip pins the [2B op][8B reqID][payload] wire format.
func TestSBIFrameRoundTrip(t *testing.T) {
	in := &sbi.NFDiscoveryRequest{TargetNfType: "AMF", RequesterNfType: "SMF"}
	frame, err := EncodeSBIFrame(sbi.OpNFDiscover, 42, in)
	if err != nil {
		t.Fatal(err)
	}
	op, reqID, req, err := DecodeSBIFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	if op != sbi.OpNFDiscover || reqID != 42 {
		t.Fatalf("decoded (op=%d, reqID=%d)", op, reqID)
	}
	out := req.(*sbi.NFDiscoveryRequest)
	if out.TargetNfType != "AMF" || out.RequesterNfType != "SMF" {
		t.Fatalf("decoded payload %+v", out)
	}
	if _, _, _, err := DecodeSBIFrame(frame[:5]); err == nil {
		t.Fatal("truncated frame decoded without error")
	}
}

// TestNGAPFrameRoundTrip pins the [4B gnbID][wire] framing.
func TestNGAPFrameRoundTrip(t *testing.T) {
	frame := EncodeNGAPFrame(0xdeadbeef, []byte("ngap-pdu"))
	id, wire, err := DecodeNGAPFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	if id != 0xdeadbeef || string(wire) != "ngap-pdu" {
		t.Fatalf("decoded (%#x, %q)", id, wire)
	}
	if _, _, err := DecodeNGAPFrame([]byte{1, 2}); err == nil {
		t.Fatal("truncated frame decoded without error")
	}
}
