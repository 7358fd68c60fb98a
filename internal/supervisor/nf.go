package supervisor

import (
	"fmt"
	"sync"

	"l25gc/internal/codec"
	"l25gc/internal/nf/amf"
	"l25gc/internal/nf/smf"
	"l25gc/internal/resilience"
	"l25gc/internal/sbi"
)

// sbiResult caches one request's outcome for dedup.
type sbiResult struct {
	resp codec.Message
	err  error
}

// sbiResponder is implemented by instances that can answer framed SBI
// requests (cpInstance and the NF types built on it); Unit.Conn requires
// it.
type sbiResponder interface {
	Result(reqID uint64) (sbiResult, bool)
}

// cpInstance is one generation of a supervised control-plane NF. It
// dispatches a replayed or live frame by kind tag back into the handler
// live traffic uses: SBI requests to the NF's sbi.Handler behind a
// per-generation dedup cache, and the NF's one other kind (NGAP for the
// AMF, N4 for the SMF) to deliver. Handler-level SBI errors are cached
// and reported to the retrying caller, not treated as delivery failures
// (replay continues past them, mirroring the original execution).
//
// The dedup cache gives SBI requests exactly-once semantics across
// failover, the same idea as the PFCP responder's sequence-number dedup:
// a request replayed from the log and then retried by its caller (who saw
// ErrUnitDown) finds its cached result instead of executing twice. Result
// takes the entry it returns, so the cache holds at most the requests
// replayed into this generation whose callers have not retried yet.
type cpInstance struct {
	snap    resilience.Snapshotter
	h       sbi.Handler
	kind    byte                    // the frame kind deliver applies
	deliver func(data []byte) error // nil: only SBI frames reach this NF
	closer  func() error

	mu   sync.Mutex
	seen map[uint64]sbiResult
}

func newCPInstance(snap resilience.Snapshotter, h sbi.Handler, kind byte, deliver func([]byte) error, closer func() error) *cpInstance {
	return &cpInstance{snap: snap, h: h, kind: kind, deliver: deliver, closer: closer,
		seen: make(map[uint64]sbiResult)}
}

// Snapshot implements resilience.Snapshotter.
func (i *cpInstance) Snapshot() ([]byte, error) { return i.snap.Snapshot() }

// Restore implements resilience.Snapshotter.
func (i *cpInstance) Restore(b []byte) error { return i.snap.Restore(b) }

// Deliver implements Instance: SBI frames through the dedup handler, the
// NF's other frame kind through deliver.
//
//l25gc:replay
func (i *cpInstance) Deliver(_ resilience.Class, _ uint64, data []byte) error {
	switch {
	case len(data) == 0:
		return fmt.Errorf("supervisor: empty frame")
	case data[0] == FrameSBI:
		return i.deliverSBI(data)
	case data[0] == i.kind && i.deliver != nil:
		return i.deliver(data)
	default:
		return fmt.Errorf("supervisor: unknown frame kind %d", data[0])
	}
}

// deliverSBI decodes the framed request and runs the handler unless the
// dedup cache already holds its result.
func (i *cpInstance) deliverSBI(data []byte) error {
	op, reqID, req, err := DecodeSBIFrame(data)
	if err != nil {
		return err
	}
	i.mu.Lock()
	_, dup := i.seen[reqID]
	i.mu.Unlock()
	if dup {
		return nil
	}
	resp, herr := i.h(op, req)
	i.mu.Lock()
	i.seen[reqID] = sbiResult{resp: resp, err: herr}
	i.mu.Unlock()
	return nil
}

// Result takes the cached outcome for reqID out of the dedup cache.
func (i *cpInstance) Result(reqID uint64) (sbiResult, bool) {
	i.mu.Lock()
	defer i.mu.Unlock()
	r, ok := i.seen[reqID]
	delete(i.seen, reqID)
	return r, ok
}

// Close implements Closer.
func (i *cpInstance) Close() error {
	if i.closer != nil {
		return i.closer()
	}
	return nil
}

// AMFInstance is one supervised AMF generation: SBI frames (N1N2
// transfers from the SMF) reach Handle, NGAP frames DeliverNGAP.
type AMFInstance struct {
	*cpInstance
	A *amf.AMF
}

// NewAMFInstance wraps a freshly spawned AMF as generation of u and routes
// its inbound NGAP stream through u's packet log, so every message is
// counter-stamped and replays in order on a promoted generation. Closing
// the generation releases its N2 listener and gNB connections.
func NewAMFInstance(u *Unit, a *amf.AMF) *AMFInstance {
	a.SetIngressTap(func(gnbID uint32, wire []byte, apply func() error) error {
		_, err := u.IngressApply(resilience.ULControl, EncodeNGAPFrame(gnbID, wire), apply)
		return err
	})
	deliver := func(data []byte) error {
		gnbID, wire, err := DecodeNGAPFrame(data)
		if err != nil {
			return err
		}
		return a.DeliverNGAP(gnbID, wire)
	}
	return &AMFInstance{cpInstance: newCPInstance(a, a.Handle, FrameNGAP, deliver, a.Close), A: a}
}

// SMFInstance is one supervised SMF generation: SBI frames (session
// management from the AMF) reach Handle, N4 frames (UPF session reports)
// DeliverN4.
type SMFInstance struct {
	*cpInstance
	S *smf.SMF
}

// NewSMFInstance wraps a freshly spawned SMF as generation of u and routes
// its inbound N4 requests through u's packet log. closer, when non-nil, is
// invoked on retirement (e.g. to stop the generation's N4 association).
func NewSMFInstance(u *Unit, s *smf.SMF, closer func() error) *SMFInstance {
	s.SetN4Tap(func(wire []byte, apply func() error) error {
		_, err := u.IngressApply(resilience.DLControl, EncodeN4Frame(wire), apply)
		return err
	})
	deliver := func(data []byte) error {
		wire, err := DecodeN4Frame(data)
		if err != nil {
			return err
		}
		return s.DeliverN4(wire)
	}
	return &SMFInstance{cpInstance: newCPInstance(s, s.Handle, FrameN4, deliver, closer), S: s}
}
