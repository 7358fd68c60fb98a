package codec_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"l25gc/internal/codec"
	"l25gc/internal/nas"
	"l25gc/internal/ngap"
	"l25gc/internal/sbi"
)

// wireTypes lists a constructor for every message type that crosses a wire
// as a Proto body: every NAS and NGAP type its package's New knows (the
// decoders' own dispatch), and every SBI operation's request and response.
func wireTypes() map[string]func() codec.Message {
	out := map[string]func() codec.Message{}
	for t := 0; t < 256; t++ {
		t := t
		if m := nas.New(nas.MsgType(t)); m != nil {
			out[fmt.Sprintf("nas/%T", m)] = func() codec.Message { return nas.New(nas.MsgType(t)) }
		}
		if m := ngap.New(ngap.MsgType(t)); m != nil {
			out[fmt.Sprintf("ngap/%T", m)] = func() codec.Message { return ngap.New(ngap.MsgType(t)) }
		}
	}
	for _, op := range sbi.Ops() {
		out["sbi/"+op.Name()+"/req"] = op.NewRequest
		out["sbi/"+op.Name()+"/resp"] = op.NewResponse
	}
	return out
}

// randomize fills every schema field from rng, with empty strings and
// byte slices, zeros and maxima among the values.
func randomize(rng *rand.Rand, m codec.Message) {
	blob := func() []byte {
		b := make([]byte, rng.Intn(4)*rng.Intn(40))
		rng.Read(b)
		return b
	}
	for _, f := range m.Schema() {
		switch p := f.Ptr.(type) {
		case *uint32:
			*p = uint32(rng.Uint64() >> uint(rng.Intn(64)))
		case *uint64:
			*p = rng.Uint64() >> uint(rng.Intn(64))
		case *string:
			*p = string(blob())
		case *[]byte:
			*p = blob()
		case *bool:
			*p = rng.Intn(2) == 0
		case *float64:
			*p = rng.NormFloat64()
		}
	}
}

// sameFields compares two messages of one type field by field (an empty
// byte slice decodes as nil, which is the same value on the wire).
func sameFields(t *testing.T, what string, want, got codec.Message) {
	t.Helper()
	wf, gf := want.Schema(), got.Schema()
	if len(wf) != len(gf) {
		t.Fatalf("%s: %d fields, want %d", what, len(gf), len(wf))
	}
	for i := range wf {
		w := reflect.ValueOf(wf[i].Ptr).Elem().Interface()
		g := reflect.ValueOf(gf[i].Ptr).Elem().Interface()
		if wb, ok := w.([]byte); ok && bytes.Equal(wb, g.([]byte)) {
			continue
		}
		if !reflect.DeepEqual(w, g) {
			t.Fatalf("%s: field tag %d = %v, want %v", what, wf[i].Tag, g, w)
		}
	}
}

// reordered is the same message as an encoder that writes fields in another
// order, and one field the decoder has never heard of, would put it on the
// wire: protobuf-style decoders must accept both.
type reordered struct {
	fields []codec.Field
}

func (r reordered) Schema() []codec.Field { return r.fields }

// TestProtoDecodeEncodeRoundTrip is the decode∘encode property over every
// NGAP, NAS and SBI message type: decode(encode(m)) has m's field values,
// encoding it again gives the same bytes, and neither the order the fields
// arrive in nor an unknown field between them changes what is decoded.
func TestProtoDecodeEncodeRoundTrip(t *testing.T) {
	types := wireTypes()
	if len(types) < 60 {
		t.Fatalf("only %d wire types enumerated", len(types))
	}
	names := make([]string, 0, len(types))
	for n := range types {
		names = append(names, n)
	}
	sort.Strings(names)
	var p codec.Proto
	for _, name := range names {
		mk := types[name]
		rng := rand.New(rand.NewSource(int64(len(name))*7919 + int64(name[len(name)-1])))
		for round := 0; round < 64; round++ {
			in := mk()
			randomize(rng, in)
			wire, err := p.Marshal(in)
			if err != nil {
				t.Fatalf("%s: marshal: %v", name, err)
			}
			out := mk()
			if err := p.Unmarshal(wire, out); err != nil {
				t.Fatalf("%s: unmarshal: %v", name, err)
			}
			sameFields(t, name, in, out)
			again, err := p.Marshal(out)
			if err != nil || !bytes.Equal(wire, again) {
				t.Fatalf("%s: re-encoding changed the bytes (%v)\n was %x\n now %x", name, err, wire, again)
			}

			fields := in.Schema()
			rng.Shuffle(len(fields), func(i, j int) { fields[i], fields[j] = fields[j], fields[i] })
			stray := "stray"
			at := rng.Intn(len(fields) + 1)
			fields = append(fields[:at:at], append([]codec.Field{
				{Tag: 1 << 20, Kind: codec.KindString, Ptr: &stray}}, fields[at:]...)...)
			shuffled, err := p.Marshal(reordered{fields})
			if err != nil {
				t.Fatalf("%s: marshal reordered: %v", name, err)
			}
			out = mk()
			if err := p.Unmarshal(shuffled, out); err != nil {
				t.Fatalf("%s: unmarshal reordered: %v", name, err)
			}
			sameFields(t, name+" (reordered)", in, out)
		}
	}
}
