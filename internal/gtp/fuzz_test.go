package gtp

import (
	"bytes"
	"testing"

	"l25gc/internal/pktbuf"
)

// FuzzDecode feeds arbitrary bytes to the GTP-U header parser, which the
// N3 path hands every uplink frame and whose TEID and inner packet make the
// UPF-U's flow key. Decode must never panic. For a frame it accepts,
// Decap on a packet buffer must strip exactly the header Decode read, and
// re-encapsulating what is left (Encap, as toward a gNB) must decode back
// to the same tunnel, QoS flow and inner bytes. The checked-in corpus
// (testdata/fuzz/FuzzDecode) adds a few hand-built frames to the seeds
// below.
func FuzzDecode(f *testing.F) {
	for _, h := range []Header{
		{MsgType: MsgGPDU, TEID: 0x1001},
		{MsgType: MsgGPDU, TEID: 0x1002, HasQFI: true, QFI: 9, PDUType: 1},
		{MsgType: MsgGPDU, TEID: 0x1003, HasQFI: true, QFI: 5},
		{MsgType: MsgGPDU, TEID: 0x1004, HasSeq: true, Seq: 77},
		{MsgType: MsgEchoRequest, HasSeq: true, Seq: 1},
		{MsgType: MsgEndMarker, TEID: 0x1005},
	} {
		inner := []byte{0x45, 0, 0, 20, 1, 2, 3, 4, 64, 17, 0, 0, 10, 60, 0, 1, 8, 8, 8, 8}
		b := make([]byte, h.HeaderSize()+len(inner))
		n, err := h.Encode(b, len(inner))
		if err != nil {
			f.Fatal(err)
		}
		copy(b[n:], inner)
		f.Add(b)
		f.Add(b[:n-1]) // header cut short
	}
	pool := pktbuf.NewPool(1, "fuzz")
	f.Fuzz(func(t *testing.T, data []byte) {
		var h Header
		payload, err := h.Decode(data)
		if err != nil {
			return
		}
		if h.totalLen < HeaderLen || h.totalLen > len(data) || !bytes.HasPrefix(data[h.totalLen:], payload) {
			t.Fatalf("header of %d bytes, payload %d bytes, frame %d bytes", h.totalLen, len(payload), len(data))
		}
		buf, err := pool.Get()
		if err != nil {
			t.Fatal(err)
		}
		defer buf.Release()
		if buf.SetData(data) != nil {
			return // larger than a frame
		}
		dh, err := Decap(buf)
		if err != nil {
			t.Fatalf("Decode accepted the frame, Decap did not: %v", err)
		}
		if dh != h || !bytes.Equal(buf.Bytes(), data[h.totalLen:]) {
			t.Fatalf("Decap read %+v and left %d bytes; Decode read %+v, header %d bytes", dh, buf.Len(), h, h.totalLen)
		}
		inner := append([]byte(nil), buf.Bytes()...)
		if err := Encap(buf, h.TEID, h.QFI, h.PDUType == 0); err != nil {
			t.Fatalf("Encap: %v", err)
		}
		var rh Header
		rpayload, err := rh.Decode(buf.Bytes())
		if err != nil {
			t.Fatalf("re-encapsulated frame does not decode: %v", err)
		}
		var pduType uint8 // Encap writes DL (0) or UL (1)
		if h.PDUType != 0 {
			pduType = 1
		}
		if rh.MsgType != MsgGPDU || rh.TEID != h.TEID || !rh.HasQFI || rh.QFI != h.QFI ||
			rh.PDUType != pduType || !bytes.Equal(rpayload, inner) {
			t.Fatalf("round trip drifted: %+v -> %+v, inner %d -> %d bytes", h, rh, len(inner), len(rpayload))
		}
	})
}
