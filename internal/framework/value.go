package framework

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"freepart.dev/freepart/internal/object"
)

// ValueKind discriminates argument/result values.
type ValueKind uint8

// Value kinds.
const (
	ValNil ValueKind = iota
	ValInt
	ValFloat
	ValStr
	ValBool
	ValObj // a process-local object id (rewritten to a Ref across the boundary)
	ValRef // a cross-process object reference (lazy data copy)
)

// Value is one argument or result of a framework API call. Exactly one
// field corresponding to Kind is meaningful.
type Value struct {
	Kind  ValueKind
	Int   int64
	Float float64
	Str   string
	Bool  bool
	// Obj is a process-local object table id (ValObj).
	Obj uint64
	// Ref is a cross-process reference (ValRef).
	Ref object.Ref
}

// Convenience constructors.

// Nil returns the nil value.
func Nil() Value { return Value{Kind: ValNil} }

// Int64 wraps an integer.
func Int64(v int64) Value { return Value{Kind: ValInt, Int: v} }

// Float64 wraps a float.
func Float64(v float64) Value { return Value{Kind: ValFloat, Float: v} }

// Str wraps a string.
func Str(v string) Value { return Value{Kind: ValStr, Str: v} }

// Bool wraps a bool.
func Bool(v bool) Value { return Value{Kind: ValBool, Bool: v} }

// Obj wraps a process-local object id.
func Obj(id uint64) Value { return Value{Kind: ValObj, Obj: id} }

// RefVal wraps a cross-process object reference.
func RefVal(r object.Ref) Value { return Value{Kind: ValRef, Ref: r} }

// IsObj reports whether the value carries an object (local or remote).
func (v Value) IsObj() bool { return v.Kind == ValObj || v.Kind == ValRef }

// String renders the value for logs.
func (v Value) String() string {
	switch v.Kind {
	case ValNil:
		return "nil"
	case ValInt:
		return fmt.Sprintf("%d", v.Int)
	case ValFloat:
		return fmt.Sprintf("%g", v.Float)
	case ValStr:
		return fmt.Sprintf("%q", v.Str)
	case ValBool:
		return fmt.Sprintf("%t", v.Bool)
	case ValObj:
		return fmt.Sprintf("obj#%d", v.Obj)
	case ValRef:
		return fmt.Sprintf("ref{pid=%d id=%d %dB}", v.Ref.PID, v.Ref.ID, v.Ref.Size)
	default:
		return fmt.Sprintf("value(kind=%d)", v.Kind)
	}
}

// Call is a marshalled API invocation: the API name plus its arguments.
// Payloads carries eager object payloads positionally aligned with Args
// (nil for pass-by-reference under lazy data copy).
type Call struct {
	API      string
	Args     []Value
	Payloads [][]byte
}

// Reply is a marshalled API result.
type Reply struct {
	Results  []Value
	Payloads [][]byte
	// UpdatedArgs carries post-call argument state for out-parameters
	// (agent_update_arg in Fig. 10-(c)), aligned with the request's Args.
	UpdatedArgs     []Value
	UpdatedPayloads [][]byte
}

// Wire format (DESIGN §4): strings, byte slices and lists carry a uvarint
// length prefix; a value is its kind byte plus only that kind's field; a
// payload is a presence byte (0 nil, 1 set) plus, when set, its
// length-prefixed bytes, so nil (pass by reference) and empty stay
// distinct. Decoding is canonical: it rejects short fields, counts above
// the bytes left, non-minimal uvarints, bool bytes other than 0 and 1,
// unknown kinds and trailing bytes, so an accepted message re-encodes to
// the same bytes and allocation stays proportional to the input. The
// encoded length is the size ipc charges as copied bytes.

// EncodeCall serializes a Call for the ring buffer.
func EncodeCall(c Call) ([]byte, error) {
	b := appendBytes(make([]byte, 0, len(c.API)+sizeHint(len(c.Args), c.Payloads)), c.API)
	b, err := appendValues(b, c.Args)
	if err != nil {
		return nil, fmt.Errorf("framework: encode call: %w", err)
	}
	return appendPayloads(b, c.Payloads), nil
}

// DecodeCall parses a serialized Call.
func DecodeCall(b []byte) (Call, error) {
	d := decoder{b: b}
	c := Call{API: string(d.bytes()), Args: d.values(), Payloads: d.payloads()}
	if err := d.finish(); err != nil {
		return Call{}, fmt.Errorf("framework: decode call: %w", err)
	}
	return c, nil
}

// EncodeReply serializes a Reply.
func EncodeReply(r Reply) ([]byte, error) {
	b := make([]byte, 0, sizeHint(len(r.Results)+len(r.UpdatedArgs), r.Payloads, r.UpdatedPayloads))
	b, err := appendValues(b, r.Results)
	if err == nil {
		b, err = appendValues(appendPayloads(b, r.Payloads), r.UpdatedArgs)
	}
	if err != nil {
		return nil, fmt.Errorf("framework: encode reply: %w", err)
	}
	return appendPayloads(b, r.UpdatedPayloads), nil
}

// DecodeReply parses a serialized Reply.
func DecodeReply(b []byte) (Reply, error) {
	d := decoder{b: b}
	r := Reply{Results: d.values(), Payloads: d.payloads()}
	r.UpdatedArgs, r.UpdatedPayloads = d.values(), d.payloads()
	if err := d.finish(); err != nil {
		return Reply{}, fmt.Errorf("framework: decode reply: %w", err)
	}
	return r, nil
}

// sizeHint is a buffer capacity most messages fit without regrowing.
func sizeHint(values int, payloads ...[][]byte) int {
	n := 16 + 48*values
	for _, ps := range payloads {
		for _, p := range ps {
			n += 2 + len(p)
		}
	}
	return n
}

func appendBytes[S string | []byte](b []byte, s S) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func appendValues(b []byte, vs []Value) ([]byte, error) {
	b = binary.AppendUvarint(b, uint64(len(vs)))
	for _, v := range vs {
		b = append(b, byte(v.Kind))
		switch v.Kind {
		case ValNil:
		case ValInt:
			b = binary.BigEndian.AppendUint64(b, uint64(v.Int))
		case ValFloat:
			b = binary.BigEndian.AppendUint64(b, math.Float64bits(v.Float))
		case ValStr:
			b = appendBytes(b, v.Str)
		case ValBool:
			b = append(b, 0)
			if v.Bool {
				b[len(b)-1] = 1
			}
		case ValObj:
			b = binary.BigEndian.AppendUint64(b, v.Obj)
		case ValRef:
			b = binary.AppendUvarint(b, uint64(object.RefFixedLen+len(v.Ref.Header)))
			b = v.Ref.AppendEncode(b)
		default:
			return nil, fmt.Errorf("unknown value kind %d", v.Kind)
		}
	}
	return b, nil
}

func appendPayloads(b []byte, ps [][]byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(ps)))
	for _, p := range ps {
		if p == nil {
			b = append(b, 0)
		} else {
			b = appendBytes(append(b, 1), p)
		}
	}
	return b
}

// decoder reads fields off the front of b. The first failure sticks: it
// empties b, so later reads fail too, and finish reports it.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
	d.b = nil
}

func (d *decoder) finish() error {
	if d.err == nil && len(d.b) > 0 {
		d.err = fmt.Errorf("%d trailing bytes", len(d.b))
	}
	return d.err
}

// take returns the next n bytes, aliasing the input.
func (d *decoder) take(n uint64) []byte {
	if n > uint64(len(d.b)) {
		d.fail(fmt.Errorf("field of %d bytes overruns the %d left", n, len(d.b)))
		return nil
	}
	p := d.b[:n]
	d.b = d.b[n:]
	return p
}

// uint reads an n-byte big-endian integer; 0 once decoding has failed.
func (d *decoder) uint(n uint64) uint64 {
	var v uint64
	for _, c := range d.take(n) {
		v = v<<8 | uint64(c)
	}
	return v
}

func (d *decoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 || (n > 1 && d.b[n-1] == 0) {
		d.fail(errors.New("bad uvarint"))
		return 0
	}
	d.b = d.b[n:]
	return v
}

// bytes reads a length-prefixed field, aliasing the input.
func (d *decoder) bytes() []byte { return d.take(d.uvarint()) }

// count reads a list length. Every element takes at least one byte, so a
// larger count than the bytes left is malformed and allocates nothing.
func (d *decoder) count() int {
	n := d.uvarint()
	if n > uint64(len(d.b)) {
		d.fail(fmt.Errorf("count %d exceeds the %d bytes left", n, len(d.b)))
		return 0
	}
	return int(n)
}

func (d *decoder) values() []Value {
	n := d.count()
	if n == 0 {
		return nil
	}
	vs := make([]Value, n)
	for i := 0; i < len(vs) && d.err == nil; i++ {
		v := &vs[i]
		switch v.Kind = ValueKind(d.uint(1)); v.Kind {
		case ValNil:
		case ValInt:
			v.Int = int64(d.uint(8))
		case ValFloat:
			v.Float = math.Float64frombits(d.uint(8))
		case ValStr:
			v.Str = string(d.bytes())
		case ValBool:
			c := d.uint(1)
			v.Bool = c == 1
			if c > 1 {
				d.fail(errors.New("bad bool"))
			}
		case ValObj:
			v.Obj = d.uint(8)
		case ValRef:
			ref, err := object.DecodeRef(d.bytes())
			if err != nil {
				d.fail(err)
			}
			v.Ref = ref
		default:
			d.fail(fmt.Errorf("unknown value kind %d", v.Kind))
		}
	}
	return vs
}

// payloads reads a payload list, copying each payload out of the input.
func (d *decoder) payloads() [][]byte {
	n := d.count()
	if n == 0 {
		return nil
	}
	ps := make([][]byte, n)
	for i := 0; i < len(ps) && d.err == nil; i++ {
		switch d.uint(1) {
		case 0:
		case 1:
			ps[i] = append([]byte{}, d.bytes()...)
		default:
			d.fail(errors.New("bad payload presence byte"))
		}
	}
	return ps
}
