package framework

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"reflect"
	"testing"

	"freepart.dev/freepart/internal/object"
)

// matRef is the ref of a 16x16 single-channel Mat, as the call path ships
// it under lazy data copy.
func matRef(pid uint32, id uint64) object.Ref {
	h := binary.BigEndian.AppendUint32(nil, 16)
	h = binary.BigEndian.AppendUint32(h, 16)
	h = binary.BigEndian.AppendUint32(h, 1)
	return object.Ref{PID: pid, ID: id, Size: 256, Kind: object.KindMat, Hash: 0x9e3779b97f4a7c15, Header: h}
}

// oneOfEach holds one value of every kind.
var oneOfEach = []Value{
	Nil(), Int64(-3), Float64(1.5), Str("/in.png"), Bool(true), Obj(7),
	RefVal(matRef(2, 1)), RefVal(object.Ref{PID: 1, ID: 9, Size: 4}),
}

// Round-trip fixtures, also the fuzz seeds. Empty lists are nil: the wire
// does not tell an empty list from a nil one.
var (
	callFixtures = []Call{
		{API: "cv.imread", Args: []Value{Str("/in.png"), Int64(3), Obj(7)}, Payloads: [][]byte{nil, nil, {1, 2, 3}}},
		{API: "cv.threshold", Args: []Value{RefVal(matRef(2, 1))}, Payloads: [][]byte{nil}},
		{API: "np.add", Args: oneOfEach, Payloads: [][]byte{nil, {}, {0}, nil}},
		{},
	}
	replyFixtures = []Reply{
		{Results: []Value{Bool(true), Obj(5)}, Payloads: [][]byte{nil, {9}}, UpdatedArgs: []Value{Obj(2)}, UpdatedPayloads: [][]byte{{4, 4}}},
		{Results: []Value{RefVal(matRef(2, 2))}, Payloads: [][]byte{nil}},
		{Results: oneOfEach, Payloads: [][]byte{{}, nil}, UpdatedArgs: []Value{Nil()}, UpdatedPayloads: [][]byte{nil, {}}},
		{},
	}
)

// roundTrip checks that decode(encode(x)) deep-equals x for every fixture;
// DeepEqual tells a nil payload from an empty one.
func roundTrip[T any](t *testing.T, fixtures []T, enc func(T) ([]byte, error), dec func([]byte) (T, error)) {
	t.Helper()
	for _, x := range fixtures {
		b, err := enc(x)
		if err != nil {
			t.Fatal(err)
		}
		got, err := dec(b)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, x) {
			t.Fatalf("round trip = %+v, want %+v", got, x)
		}
	}
}

func TestCallEncodeDecodeRoundTrip(t *testing.T) {
	roundTrip(t, callFixtures, EncodeCall, DecodeCall)
}

func TestReplyEncodeDecodeRoundTrip(t *testing.T) {
	roundTrip(t, replyFixtures, EncodeReply, DecodeReply)
}

// TestWireSizes pins the encoded sizes DESIGN.md's formula gives. The
// call-path pair is cv.threshold on a Mat ref and its reply, with no
// payload; gob took 321 B and 342 B for the same two messages.
func TestWireSizes(t *testing.T) {
	size := func(b []byte, err error) int {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return len(b)
	}
	if got := size(EncodeCall(callFixtures[1])); got != 59 {
		t.Errorf("call-path call = %d B, want 59", got)
	}
	if got := size(EncodeReply(replyFixtures[1])); got != 48 {
		t.Errorf("call-path reply = %d B, want 48", got)
	}
	// A call with one argument and no payloads costs 3 B around the value.
	for _, c := range []struct {
		v    Value
		want int
	}{
		{Nil(), 1}, {Int64(-3), 9}, {Float64(1.5), 9}, {Str("abc"), 5},
		{Bool(false), 2}, {Obj(7), 9},
		{RefVal(object.Ref{PID: 1}), 31}, {RefVal(matRef(2, 1)), 43},
	} {
		if got := size(EncodeCall(Call{Args: []Value{c.v}})) - 3; got != c.want {
			t.Errorf("%v: %d B, want %d", c.v, got, c.want)
		}
	}
}

// TestWireBytes pins one message byte for byte.
func TestWireBytes(t *testing.T) {
	b, err := EncodeCall(Call{API: "f", Args: []Value{Int64(1), Bool(true), Str("hi")}, Payloads: [][]byte{nil, {}, {7}}})
	if err != nil {
		t.Fatal(err)
	}
	const want = "0166" + "03" + "01" + "0000000000000001" + "0401" + "03026869" + "03" + "00" + "0100" + "010107"
	if got := hex.EncodeToString(b); got != want {
		t.Fatalf("wire = %s, want %s", got, want)
	}
}

func TestEncodeUnknownKind(t *testing.T) {
	if _, err := EncodeCall(Call{Args: []Value{{Kind: 99}}}); err == nil {
		t.Fatal("unknown kind should fail to encode")
	}
	if _, err := EncodeReply(Reply{UpdatedArgs: []Value{{Kind: 99}}}); err == nil {
		t.Fatal("unknown kind should fail to encode")
	}
}

func TestDecodeGarbage(t *testing.T) {
	if _, err := DecodeCall([]byte("junk")); err == nil {
		t.Fatal("garbage call should fail to decode")
	}
	if _, err := DecodeReply([]byte{0xFF}); err == nil {
		t.Fatal("garbage reply should fail to decode")
	}
}

// TestDecodeRejects covers each malformation the decoder checks. The huge
// counts would need gigabytes if a count were trusted before its bytes.
func TestDecodeRejects(t *testing.T) {
	for name, hexCall := range map[string]string{
		"empty":             "",
		"short api":         "05666f",
		"non-minimal len":   "8000" + "00" + "00",
		"huge arg count":    "00" + "ffffffff0f",
		"huge payloads":     "00" + "00" + "ffffffffffffffffff01",
		"unknown kind":      "00" + "01" + "09" + "00",
		"bad bool":          "00" + "01" + "0402" + "00",
		"short int":         "00" + "01" + "01000000" + "00",
		"short ref":         "00" + "01" + "06" + "03010203" + "00",
		"bad presence byte": "00" + "00" + "01" + "02",
		"trailing bytes":    "00" + "00" + "00" + "00",
		"uvarint overflow":  "ffffffffffffffffffff01",
	} {
		b, err := hex.DecodeString(hexCall)
		if err != nil {
			t.Fatal(err)
		}
		if c, err := DecodeCall(b); err == nil {
			t.Errorf("%s: decoded %+v, want an error", name, c)
		}
	}
}

// fuzzDecode seeds the corpus with the fixtures' encodings and checks
// that arbitrary input never panics and that every accepted input
// re-encodes to the same bytes. Decoding is deterministic, so that also
// makes decode(encode(x)) deep-equal x for every decoded x, nil and empty
// payloads included.
func fuzzDecode[T any](f *testing.F, fixtures []T, enc func(T) ([]byte, error), dec func([]byte) (T, error)) {
	for _, x := range fixtures {
		b, err := enc(x)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		x, err := dec(b)
		if err != nil {
			return
		}
		if again, err := enc(x); err != nil || !bytes.Equal(again, b) {
			t.Fatalf("re-encode of %+v = %x, %v; want %x", x, again, err, b)
		}
	})
}

func FuzzDecodeCall(f *testing.F) { fuzzDecode(f, callFixtures, EncodeCall, DecodeCall) }

func FuzzDecodeReply(f *testing.F) { fuzzDecode(f, replyFixtures, EncodeReply, DecodeReply) }
