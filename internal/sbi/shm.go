package sbi

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"l25gc/internal/codec"
	"l25gc/internal/faults"
	"l25gc/internal/metrics"
	"l25gc/internal/shm"
	"l25gc/internal/trace"
)

// shmFrame is the descriptor passed through the mailbox: the message struct
// travels by pointer, which is the zero-serialization SBI of L²5GC.
type shmFrame struct {
	op  OpID
	seq uint32
	err string
	// status/retryAfterMs carry a producer StatusError structurally, so
	// overload pushback (503 + Retry-After) survives the descriptor
	// transport just as it does the HTTP one.
	status       int
	retryAfterMs int64
	msg          codec.Message
}

// ShmServer is the producer side of the shared-memory SBI. It has no
// goroutine: its handler runs on whichever consumer goroutine is draining
// the request ring (shm.Mailbox), and the reply is handed straight to the
// waiting Invoke, never through a ring.
type ShmServer struct {
	handler Handler
	in      *shm.Mailbox[shmFrame]
	replies *shm.Calls[shmFrame]

	inj     *faults.Injector
	txPoint faults.Point
}

// ShmConn is the consumer side of the shared-memory SBI.
type ShmConn struct {
	out     *shm.Mailbox[shmFrame]
	replies *shm.Calls[shmFrame]
	seq     atomic.Uint32
	timeout atomic.Int64 // per-invoke deadline, ns

	inj     *faults.Injector
	txPoint faults.Point

	tracec  atomic.Pointer[trace.Track]
	invokes atomic.Uint64
	errs    atomic.Uint64
}

// NewShmPair wires a consumer connection to a producer server through a
// request ring of the given capacity.
func NewShmPair(ringSize int, h Handler) (*ShmConn, *ShmServer) {
	srv := &ShmServer{handler: h, replies: shm.NewCalls[shmFrame]()}
	srv.in = shm.NewMailbox(ringSize, srv.serve)
	cli := &ShmConn{out: srv.in, replies: srv.replies}
	cli.timeout.Store(int64(DefaultSBITimeout))
	return cli, srv
}

// SetInjector threads a fault injector through the producer's reply path
// (point prefix+".reply"). Call before traffic flows.
func (s *ShmServer) SetInjector(inj *faults.Injector, prefix string) {
	s.inj = inj
	s.txPoint = faults.Point(prefix + ".reply")
}

// serve runs the handler for one request descriptor and completes the
// caller waiting for it.
func (s *ShmServer) serve(f shmFrame) {
	resp, err := s.handler(f.op, f.msg)
	rf := shmFrame{op: f.op, seq: f.seq, msg: resp}
	if err != nil {
		var se *StatusError
		if errors.As(err, &se) {
			rf.status = se.Code
			rf.retryAfterMs = se.RetryAfter.Milliseconds()
			rf.err = se.Reason
		} else {
			rf.err = err.Error()
		}
	}
	if s.inj != nil {
		s.inj.Transmit(s.txPoint, nil, func([]byte) error {
			s.replies.Complete(rf.seq, rf)
			return nil
		})
		return
	}
	s.replies.Complete(rf.seq, rf)
}

// Close shuts the producer down: queued requests are discarded and later
// Invokes fail with shm.ErrClosed.
func (s *ShmServer) Close() error {
	s.in.Close()
	return nil
}

// SetTimeout bounds each Invoke round trip.
func (c *ShmConn) SetTimeout(d time.Duration) { c.timeout.Store(int64(d)) }

// SetInjector threads a fault injector through the consumer's send path
// (point prefix+".invoke"). Call before traffic flows.
func (c *ShmConn) SetInjector(inj *faults.Injector, prefix string) {
	c.inj = inj
	c.txPoint = faults.Point(prefix + ".invoke")
}

// SetTracer installs a trace track; Invoke emits an "sbi.invoke" root span
// with a single "sbi.transfer.shm" child — no encode/decode stages exist
// on this transport, which is the point of the descriptor-passing SBI.
// The child covers the ring pass and, when the request is served inline,
// the producer's handler with it.
func (c *ShmConn) SetTracer(tk *trace.Track) { c.tracec.Store(tk) }

// ExportMetrics registers the consumer counters under prefix:
// served_inline counts requests the producer's handler ran for on the
// invoking goroutine, served_queued those another invoker's drain ran.
func (c *ShmConn) ExportMetrics(reg *metrics.Registry, prefix string) {
	reg.RegisterGauge(prefix+".invokes", c.invokes.Load)
	reg.RegisterGauge(prefix+".errors", c.errs.Load)
	reg.RegisterGauge(prefix+".served_inline", c.out.ServedInline)
	reg.RegisterGauge(prefix+".served_queued", c.out.ServedQueued)
}

// send passes one request descriptor through the fault point into the ring.
func (c *ShmConn) send(f shmFrame) error {
	if c.inj == nil {
		return c.out.Send(f)
	}
	return c.inj.Transmit(c.txPoint, nil, func([]byte) error { return c.out.Send(f) })
}

// Invoke implements Conn. With the producer idle the handler runs right
// here and the reply is in hand when the ring pass returns: no goroutine
// parks, no timer is armed. The deadline bounds what is queued behind
// another invoker, dropped or delayed; a handler that blocks while being
// served inline blocks this call past it.
func (c *ShmConn) Invoke(op OpID, req codec.Message) (codec.Message, error) {
	c.invokes.Add(1)
	root := c.tracec.Load().Start("sbi.invoke")
	root.Attr("op", op.Name())
	defer root.End()
	seq := c.seq.Add(1)
	w := c.replies.Begin(seq)
	defer c.replies.End(seq, w)
	tx := root.Child("sbi.transfer.shm")
	err := c.send(shmFrame{op: op, seq: seq, msg: req})
	tx.End()
	if err != nil {
		c.errs.Add(1)
		return nil, err
	}
	f, ok := w.Poll()
	if !ok {
		if f, err = w.Wait(time.Duration(c.timeout.Load()), nil); err != nil {
			c.errs.Add(1)
			return nil, fmt.Errorf("sbi: shm invoke %s timed out", op.Name())
		}
	}
	if f.status != 0 {
		c.errs.Add(1)
		return nil, &StatusError{
			Code:       f.status,
			RetryAfter: time.Duration(f.retryAfterMs) * time.Millisecond,
			Reason:     f.err,
		}
	}
	if f.err != "" {
		c.errs.Add(1)
		return nil, fmt.Errorf("sbi: producer error: %s", f.err)
	}
	return f.msg, nil
}

// Close implements Conn.
func (c *ShmConn) Close() error {
	c.out.Close()
	return nil
}
