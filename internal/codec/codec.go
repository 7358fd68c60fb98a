// Package codec implements the serialization alternatives compared in
// Fig. 6 of the paper for SBI message exchange:
//
//   - JSON — the de-facto REST encoding used by free5GC (encoding/json).
//   - Proto — a protobuf-style tag/varint wire format (Buyakar et al.'s
//     gRPC approach), hand-implemented so the module stays stdlib-only.
//   - Flat — a FlatBuffers-style fixed-offset format (Neutrino's choice)
//     whose deserialization is near zero-cost: accessors read fields in
//     place without a parse step.
//
// The fourth alternative, L²5GC's shared memory, needs no codec at all —
// message structs are passed by pointer — which is exactly the comparison
// the figure makes. Messages describe themselves with a Schema, so each
// codec is written once and works for every SBI message.
package codec

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sync"
)

// Kind enumerates field types supported by schemas.
type Kind uint8

// Field kinds.
const (
	KindUint32 Kind = iota
	KindUint64
	KindString
	KindBytes
	KindBool
	KindFloat64
)

// Field describes one message field: a stable tag, its kind, and a pointer
// to the Go field.
type Field struct {
	Tag  uint32
	Kind Kind
	Ptr  any // *uint32, *uint64, *string, *[]byte, *bool or *float64
}

// Message is any SBI payload that exposes a schema.
type Message interface {
	Schema() []Field
}

// FieldAppender is an optional Message refinement for hot-path types:
// AppendSchema appends the message's fields to fs, letting encoders
// reuse one pooled scratch slice across calls instead of allocating a
// fresh schema per message. Types implementing it conventionally define
// Schema as AppendSchema(nil), keeping one source of truth.
type FieldAppender interface {
	AppendSchema(fs []Field) []Field
}

// Codec serializes schema-described messages.
type Codec interface {
	Name() string
	Marshal(m Message) ([]byte, error)
	Unmarshal(b []byte, m Message) error
}

// Errors returned by the binary codecs.
var (
	ErrTruncated = errors.New("codec: truncated input")
	ErrBadField  = errors.New("codec: field/kind mismatch")
)

// --- JSON ---

// JSON encodes with encoding/json; struct tags on the message types drive
// the field names as the OpenAPI-generated free5GC models do.
type JSON struct{}

// Name implements Codec.
func (JSON) Name() string { return "json" }

// Marshal implements Codec.
func (JSON) Marshal(m Message) ([]byte, error) { return json.Marshal(m) }

// Unmarshal implements Codec.
func (JSON) Unmarshal(b []byte, m Message) error { return json.Unmarshal(b, m) }

// --- Proto (tag/varint wire format) ---

// Proto is the protobuf-style codec: each field is a varint key
// (tag<<3|wiretype) followed by a varint or length-delimited value.
type Proto struct{}

// Name implements Codec.
func (Proto) Name() string { return "proto" }

const (
	wireVarint  = 0
	wireFixed64 = 1
	wireBytes   = 2
)

// Marshal implements Codec.
func (p Proto) Marshal(m Message) ([]byte, error) {
	return p.AppendMarshal(make([]byte, 0, 128), m)
}

// fieldScratch recycles schema slices for FieldAppender messages so the
// append-marshal path performs zero allocations in steady state.
var fieldScratch = sync.Pool{
	New: func() any {
		fs := make([]Field, 0, 16)
		return &fs
	},
}

// schemaOf returns m's fields: for a FieldAppender, scanned into a pooled
// scratch slice (scratch non-nil, to be handed back with releaseSchema),
// otherwise a fresh m.Schema().
func schemaOf(m Message) (fields []Field, scratch *[]Field) {
	fa, ok := m.(FieldAppender)
	if !ok {
		return m.Schema(), nil
	}
	scratch = fieldScratch.Get().(*[]Field)
	return fa.AppendSchema((*scratch)[:0]), scratch
}

func releaseSchema(fields []Field, scratch *[]Field) {
	if scratch != nil {
		*scratch = fields[:0]
		fieldScratch.Put(scratch)
	}
}

// AppendMarshal encodes m appended to dst and returns the extended
// slice — the allocation-free spelling hot paths use with pooled
// buffers (Marshal is AppendMarshal into a fresh slice). Messages
// implementing FieldAppender avoid even the schema-slice allocation.
func (Proto) AppendMarshal(dst []byte, m Message) ([]byte, error) {
	fields, scratch := schemaOf(m)
	defer releaseSchema(fields, scratch)
	b := dst
	for _, f := range fields {
		switch f.Kind {
		case KindUint32:
			b = appendKey(b, f.Tag, wireVarint)
			b = binary.AppendUvarint(b, uint64(*f.Ptr.(*uint32)))
		case KindUint64:
			b = appendKey(b, f.Tag, wireVarint)
			b = binary.AppendUvarint(b, *f.Ptr.(*uint64))
		case KindBool:
			b = appendKey(b, f.Tag, wireVarint)
			v := uint64(0)
			if *f.Ptr.(*bool) {
				v = 1
			}
			b = binary.AppendUvarint(b, v)
		case KindString:
			s := *f.Ptr.(*string)
			b = appendKey(b, f.Tag, wireBytes)
			b = binary.AppendUvarint(b, uint64(len(s)))
			b = append(b, s...)
		case KindBytes:
			s := *f.Ptr.(*[]byte)
			b = appendKey(b, f.Tag, wireBytes)
			b = binary.AppendUvarint(b, uint64(len(s)))
			b = append(b, s...)
		case KindFloat64:
			b = appendKey(b, f.Tag, wireFixed64)
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(*f.Ptr.(*float64)))
		default:
			return nil, fmt.Errorf("%w: kind %d", ErrBadField, f.Kind)
		}
	}
	return b, nil
}

func appendKey(b []byte, tag uint32, wt uint8) []byte {
	return binary.AppendUvarint(b, uint64(tag)<<3|uint64(wt))
}

// Unmarshal implements Codec.
//
// A schema is a dozen fields that an encoder wrote in schema order, so the
// field for a tag is found by scanning on from the previous match — no
// per-call map, and for FieldAppender messages no per-call schema slice.
func (Proto) Unmarshal(b []byte, m Message) error {
	fields, scratch := schemaOf(m)
	defer releaseSchema(fields, scratch)
	next := 0 // index after the last matched field
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return ErrTruncated
		}
		b = b[n:]
		tag := uint32(key >> 3)
		wt := uint8(key & 7)
		var f Field
		known := false
		for i := range fields {
			if j := (next + i) % len(fields); fields[j].Tag == tag {
				f, known, next = fields[j], true, j+1
				break
			}
		}
		switch wt {
		case wireVarint:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return ErrTruncated
			}
			b = b[n:]
			if !known {
				continue
			}
			switch f.Kind {
			case KindUint32:
				*f.Ptr.(*uint32) = uint32(v)
			case KindUint64:
				*f.Ptr.(*uint64) = v
			case KindBool:
				*f.Ptr.(*bool) = v != 0
			default:
				return ErrBadField
			}
		case wireFixed64:
			if len(b) < 8 {
				return ErrTruncated
			}
			v := binary.LittleEndian.Uint64(b)
			b = b[8:]
			if !known {
				continue
			}
			if f.Kind != KindFloat64 {
				return ErrBadField
			}
			*f.Ptr.(*float64) = math.Float64frombits(v)
		case wireBytes:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return ErrTruncated
			}
			v := b[n : n+int(l)]
			b = b[n+int(l):]
			if !known {
				continue
			}
			switch f.Kind {
			case KindString:
				*f.Ptr.(*string) = string(v)
			case KindBytes:
				*f.Ptr.(*[]byte) = append([]byte(nil), v...)
			default:
				return ErrBadField
			}
		default:
			return fmt.Errorf("codec: unknown wire type %d", wt)
		}
	}
	return nil
}

// --- Flat (fixed-offset table) ---

// Flat is the FlatBuffers-style codec: a fixed-size slot table (one 8-byte
// slot per schema field, in schema order) followed by a heap for variable
// data. Scalar fields live in the slot; string/bytes slots hold
// offset(4)+len(4) into the heap. "Deserialization" is a bounds check plus
// in-place reads, which is what makes FlatBuffers cheap to decode and is
// faithfully reproduced here.
type Flat struct{}

// Name implements Codec.
func (Flat) Name() string { return "flat" }

const flatSlot = 8

// Marshal implements Codec.
func (Flat) Marshal(m Message) ([]byte, error) {
	fields := m.Schema()
	table := len(fields) * flatSlot
	b := make([]byte, table, table+64)
	for i, f := range fields {
		slot := b[i*flatSlot : i*flatSlot+flatSlot]
		switch f.Kind {
		case KindUint32:
			binary.LittleEndian.PutUint64(slot, uint64(*f.Ptr.(*uint32)))
		case KindUint64:
			binary.LittleEndian.PutUint64(slot, *f.Ptr.(*uint64))
		case KindBool:
			if *f.Ptr.(*bool) {
				slot[0] = 1
			}
		case KindFloat64:
			binary.LittleEndian.PutUint64(slot, math.Float64bits(*f.Ptr.(*float64)))
		case KindString:
			s := *f.Ptr.(*string)
			binary.LittleEndian.PutUint32(slot[0:4], uint32(len(b)))
			binary.LittleEndian.PutUint32(slot[4:8], uint32(len(s)))
			b = append(b, s...)
		case KindBytes:
			s := *f.Ptr.(*[]byte)
			binary.LittleEndian.PutUint32(slot[0:4], uint32(len(b)))
			binary.LittleEndian.PutUint32(slot[4:8], uint32(len(s)))
			b = append(b, s...)
		default:
			return nil, fmt.Errorf("%w: kind %d", ErrBadField, f.Kind)
		}
	}
	return b, nil
}

// Unmarshal implements Codec.
func (Flat) Unmarshal(b []byte, m Message) error {
	fields := m.Schema()
	if len(b) < len(fields)*flatSlot {
		return ErrTruncated
	}
	for i, f := range fields {
		slot := b[i*flatSlot : i*flatSlot+flatSlot]
		switch f.Kind {
		case KindUint32:
			*f.Ptr.(*uint32) = uint32(binary.LittleEndian.Uint64(slot))
		case KindUint64:
			*f.Ptr.(*uint64) = binary.LittleEndian.Uint64(slot)
		case KindBool:
			*f.Ptr.(*bool) = slot[0] != 0
		case KindFloat64:
			*f.Ptr.(*float64) = math.Float64frombits(binary.LittleEndian.Uint64(slot))
		case KindString, KindBytes:
			off := binary.LittleEndian.Uint32(slot[0:4])
			l := binary.LittleEndian.Uint32(slot[4:8])
			if uint64(off)+uint64(l) > uint64(len(b)) {
				return ErrTruncated
			}
			v := b[off : off+l]
			if f.Kind == KindString {
				*f.Ptr.(*string) = string(v)
			} else {
				*f.Ptr.(*[]byte) = append([]byte(nil), v...)
			}
		default:
			return ErrBadField
		}
	}
	return nil
}

// All returns the codecs in the order Fig. 6 compares them.
func All() []Codec { return []Codec{JSON{}, Flat{}, Proto{}} }

// ByName returns the codec with the given name.
func ByName(name string) (Codec, error) {
	for _, c := range All() {
		if c.Name() == name {
			return c, nil
		}
	}
	return nil, fmt.Errorf("codec: unknown codec %q", name)
}
