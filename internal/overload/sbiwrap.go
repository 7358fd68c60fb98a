package overload

import (
	"l25gc/internal/codec"
	"l25gc/internal/sbi"
)

// ClassifyOp maps an SBI operation to its admission class. Sub-calls that
// serve an already-admitted procedure (auth vectors, subscription data,
// policy creation, NRF bookkeeping) classify as Drain — the front door
// (AMF N2 ingress, SMF session create) already gated the procedure, and
// shedding its internals would strand admitted work half-done.
func ClassifyOp(op sbi.OpID) Class {
	switch op {
	case sbi.OpPostSmContexts:
		return ClassSession
	case sbi.OpUpdateSmContext, sbi.OpN1N2MessageTransfer:
		// Idle-mode wake-ups and downlink-triggered paging: emergency
		// tier, shed only at drain-only.
		return ClassEmergency
	case sbi.OpReleaseSmContext:
		return ClassDrain
	default:
		return ClassDrain
	}
}

// WrapSBI gates an SBI producer handler with the controller, classing
// each operation by ClassifyOp: shed operations answer 503 with the
// controller's advised Retry-After instead of executing. The gate does
// not observe latency; each NF observes its own procedures.
func WrapSBI(c *Controller, h sbi.Handler) sbi.Handler {
	if c == nil {
		return h
	}
	return func(op sbi.OpID, req codec.Message) (codec.Message, error) {
		cl := ClassifyOp(op)
		if !c.Admit(cl) {
			return nil, &sbi.StatusError{
				Code:       sbi.StatusServiceUnavailable,
				RetryAfter: c.Backoff(cl),
				Reason:     "overload: " + cl.Name() + " shed",
			}
		}
		defer c.Release(cl)
		return h(op, req)
	}
}
