package sbi

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"l25gc/internal/codec"
	"l25gc/internal/faults"
	"l25gc/internal/metrics"
	"l25gc/internal/trace"
)

// HTTPServer exposes a producer NF's operations over REST, the way
// free5GC's OpenAPI-generated servers do: one POST route per operation,
// bodies encoded with the configured codec (JSON by default).
type HTTPServer struct {
	handler Handler
	codec   codec.Codec
	ln      net.Listener
	srv     *http.Server
}

// NewHTTPServer starts a server on addr ("127.0.0.1:0" for ephemeral)
// routing every registered operation to h, with bodies in c.
func NewHTTPServer(addr string, c codec.Codec, h Handler) (*HTTPServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &HTTPServer{handler: h, codec: c, ln: ln}
	mux := http.NewServeMux()
	for op := range opTable {
		op := op
		mux.HandleFunc(op.Path(), func(w http.ResponseWriter, r *http.Request) {
			s.serve(op, w, r)
		})
	}
	s.srv = &http.Server{Handler: mux}
	go s.srv.Serve(ln)
	return s, nil
}

// Addr returns the bound listen address.
func (s *HTTPServer) Addr() string { return s.ln.Addr().String() }

func (s *HTTPServer) serve(op OpID, w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	req := op.NewRequest()
	if err := s.codec.Unmarshal(body, req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	resp, err := s.handler(op, req)
	if err != nil {
		var se *StatusError
		if errors.As(err, &se) {
			if se.RetryAfter > 0 {
				secs := int(se.RetryAfter / time.Second)
				if se.RetryAfter%time.Second != 0 {
					secs++
				}
				w.Header().Set("Retry-After", strconv.Itoa(secs))
				// Sub-second precision for the deterministic backoff
				// schedules the chaos suite replays.
				w.Header().Set("X-Retry-After-Ms",
					strconv.FormatInt(se.RetryAfter.Milliseconds(), 10))
			}
			http.Error(w, se.Reason, se.Code)
			return
		}
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	out, err := s.codec.Marshal(resp)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", contentType(s.codec))
	w.WriteHeader(http.StatusOK)
	w.Write(out)
}

// Close shuts the server down.
func (s *HTTPServer) Close() error { return s.srv.Close() }

func contentType(c codec.Codec) string {
	if c.Name() == "json" {
		return "application/json"
	}
	return "application/octet-stream"
}

// HTTPConn is the consumer side of the REST SBI: it serializes the request
// with the codec, POSTs it over a (kept-alive) kernel TCP connection, and
// deserializes the response — paying exactly the serialization + socket
// costs the paper attributes to the HTTP SBI.
type HTTPConn struct {
	base    string
	codec   codec.Codec
	client  *http.Client
	timeout atomic.Int64 // per-request deadline, ns

	inj     *faults.Injector
	txPoint faults.Point

	tracec  atomic.Pointer[trace.Track]
	invokes atomic.Uint64
	errs    atomic.Uint64
}

// DefaultSBITimeout is the default per-request deadline.
const DefaultSBITimeout = 5 * time.Second

// ErrInjected marks a transport failure produced by the fault injector.
var ErrInjected = errors.New("sbi: injected transport fault")

// NewHTTPConn dials a producer at host:port.
func NewHTTPConn(addr string, c codec.Codec) *HTTPConn {
	h := &HTTPConn{
		base:  "http://" + addr,
		codec: c,
		client: &http.Client{
			Transport: &http.Transport{
				MaxIdleConnsPerHost: 16,
				IdleConnTimeout:     90 * time.Second,
			},
		},
	}
	h.timeout.Store(int64(DefaultSBITimeout))
	return h
}

// SetTimeout bounds each Invoke round trip (context deadline).
func (c *HTTPConn) SetTimeout(d time.Duration) { c.timeout.Store(int64(d)) }

// SetInjector threads a fault injector through the consumer side; the
// injection point is prefix+".invoke". Call before traffic flows.
func (c *HTTPConn) SetInjector(inj *faults.Injector, prefix string) {
	c.inj = inj
	c.txPoint = faults.Point(prefix + ".invoke")
}

// SetTracer installs a trace track; Invoke emits an "sbi.invoke" root span
// with encode/http.do/decode children — the serialization and socket
// stages the shm SBI does not pay.
func (c *HTTPConn) SetTracer(tk *trace.Track) { c.tracec.Store(tk) }

// ExportMetrics registers the consumer counters under prefix.
func (c *HTTPConn) ExportMetrics(reg *metrics.Registry, prefix string) {
	reg.RegisterGauge(prefix+".invokes", c.invokes.Load)
	reg.RegisterGauge(prefix+".errors", c.errs.Load)
}

// fail counts one failed invoke.
func (c *HTTPConn) fail(err error) (codec.Message, error) {
	c.errs.Add(1)
	return nil, err
}

// Invoke implements Conn: one POST bounded by the per-request deadline.
func (c *HTTPConn) Invoke(op OpID, req codec.Message) (codec.Message, error) {
	c.invokes.Add(1)
	root := c.tracec.Load().Start("sbi.invoke")
	root.Attr("op", op.Name())
	defer root.End()
	enc := root.Child("sbi.encode")
	body, err := c.codec.Marshal(req)
	enc.End()
	if err != nil {
		return c.fail(err)
	}
	if c.inj != nil {
		act := c.inj.Decide(c.txPoint, body)
		if act.Drop {
			return c.fail(fmt.Errorf("%w: request lost", ErrInjected))
		}
		if act.Delay > 0 {
			time.Sleep(act.Delay)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(),
		time.Duration(c.timeout.Load()))
	defer cancel()
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost,
		c.base+op.Path(), bytes.NewReader(body))
	if err != nil {
		return c.fail(err)
	}
	httpReq.Header.Set("Content-Type", contentType(c.codec))
	do := root.Child("sbi.http.do")
	httpResp, err := c.client.Do(httpReq)
	if err != nil {
		do.End()
		return c.fail(err)
	}
	out, err := io.ReadAll(httpResp.Body)
	httpResp.Body.Close()
	do.End()
	if err != nil {
		return c.fail(err)
	}
	if httpResp.StatusCode/100 != 2 {
		se := &StatusError{Code: httpResp.StatusCode, Reason: string(bytes.TrimSpace(out))}
		if ms := httpResp.Header.Get("X-Retry-After-Ms"); ms != "" {
			if v, perr := strconv.ParseInt(ms, 10, 64); perr == nil {
				se.RetryAfter = time.Duration(v) * time.Millisecond
			}
		} else if ra := httpResp.Header.Get("Retry-After"); ra != "" {
			if v, perr := strconv.Atoi(ra); perr == nil {
				se.RetryAfter = time.Duration(v) * time.Second
			}
		}
		return c.fail(se)
	}
	resp := op.NewResponse()
	dec := root.Child("sbi.decode")
	err = c.codec.Unmarshal(out, resp)
	dec.End()
	if err != nil {
		return c.fail(err)
	}
	return resp, nil
}

// Close implements Conn.
func (c *HTTPConn) Close() error {
	c.client.CloseIdleConnections()
	return nil
}
