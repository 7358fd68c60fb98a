package bench

import (
	"fmt"
	"time"

	"l25gc/internal/codec"
	"l25gc/internal/metrics"
	"l25gc/internal/sbi"
)

// fig6Message builds the PostSmContextsRequest exchanged in the Fig. 6
// microbenchmark.
func fig6Message() *sbi.SmContextCreateRequest {
	return &sbi.SmContextCreateRequest{
		Supi: "imsi-208930000000001", Pei: "imeisv-4370816125816151",
		Gpsi: "msisdn-0900000000", PduSessionID: 5, Dnn: "internet",
		Sst: 1, Sd: "010203", ServingNfID: "amf-1",
		Guami: "5G:mnc093.mcc208", ServingNetwork: "208/93",
		RequestType: "INITIAL_REQUEST",
		N1SmMsg:     make([]byte, 96), // NAS PDU session establishment request
		AnType:      "3GPP_ACCESS", RatType: "NR",
		UeLocation:     "nrCellId-000000100",
		SmCtxStatusURI: "http://amf.l25gc/callback/v1/smContextStatus/1",
		GnbTunnelAddr:  "10.100.0.10", GnbTunnelTEID: 0x10001,
	}
}

// measure times fn over iters runs and returns the mean.
func measure(iters int, fn func()) time.Duration {
	// Warm up.
	for i := 0; i < iters/10+1; i++ {
		fn()
	}
	start := time.Now()
	for i := 0; i < iters; i++ {
		fn()
	}
	return time.Since(start) / time.Duration(iters)
}

// Fig6 regenerates the serialization-cost comparison: for each codec, the
// serialize and deserialize cost of a PostSmContextsRequest and the wire
// size; the shared-memory row is the zero-cost pointer pass.
func Fig6() (*Result, error) {
	msg := fig6Message()
	tab := metrics.NewTable("encoding", "serialize", "deserialize", "total", "bytes")
	const iters = 5000
	for _, c := range codec.All() {
		c := c
		wire, err := c.Marshal(msg)
		if err != nil {
			return nil, err
		}
		ser := measure(iters, func() { c.Marshal(msg) })
		out := &sbi.SmContextCreateRequest{}
		de := measure(iters, func() { c.Unmarshal(wire, out) })
		tab.Row(c.Name(), ser, de, ser+de, len(wire))
	}
	// L²5GC: the message struct is passed by pointer through shared
	// memory; serialization cost is literally zero. Measure the pointer
	// hand-off through a descriptor mailbox for honesty.
	conn, srv := sbi.NewShmPair(64, func(op sbi.OpID, req codec.Message) (codec.Message, error) {
		return req, nil
	})
	defer srv.Close()
	defer conn.Close()
	shm := measure(2000, func() {
		conn.Invoke(sbi.OpPostSmContexts, msg)
	})
	tab.Row("shm (L25GC)", time.Duration(0), time.Duration(0), shm, 0)
	return &Result{
		ID:    "fig6",
		Title: "Serialization/deserialization cost, PostSmContextsRequest",
		Table: tab,
		Notes: []string{
			"paper: JSON is costliest; FlatBuffers/Protobuf reduce but do not remove the cost;",
			"L25GC's shared memory removes serialization entirely (the shm row's 'total' is the",
			"full round trip through the descriptor ring: enqueue, handler on the caller's goroutine, reply).",
			fmt.Sprintf("shm round trip includes request+response delivery: %v", shm),
		},
	}, nil
}
