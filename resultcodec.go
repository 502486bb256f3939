package clocksched

import (
	"bytes"
	"encoding"
	"encoding/gob"
	"math"
	"math/bits"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// resultCodec is a process-wide gob codec for one wire type T. A fresh gob
// stream opens with descriptors of every type in T's tree (about nine
// tenths of a short cell's Result bytes) and a fresh decoder compiles its
// decode engine from them. Paid per value, those two would be most of the
// codec's cost; the codec pays them once per process, and does without
// a gob encoder or decoder after that:
//
//   - The descriptor prefix and T's type id are learned from gob at the
//     first encode, by encoding the zero T twice on one encoder: the
//     first output is prefix + value message, the second the value
//     message alone.
//   - T's field table (wireStruct) writes and reads a value message's body
//     as gob does, by reflection. An encode writes prefix ‖ byte count ‖
//     type id ‖ body into an output of exactly that size.
//   - A decode reads in place any input that opens with the prefix and
//     T's type id. Anything the table refuses, and any other input
//     (another process's type numbering, a corrupt or truncated file),
//     decodes on a fresh decoder, so success, value and error text match
//     a fresh decoder's exactly.
//
// The table is published only if it passes checkTable against gob's own
// bytes and values; if it could not be built or failed its check, every
// encode and decode runs fresh.
//
// gob numbers types in the order a process first encodes them, and
// decoding numbers none. Deriving the prefix is an encode, so only the
// encode side may do it: a process whose first gob action is a decode (a
// fabric coordinator, a daemon serving a disk-cache hit) decodes fresh
// until it has encoded a T, and the type ids of everything it encodes
// stay what they were.
type resultCodec[T any] struct {
	once sync.Once
	warm atomic.Pointer[codecWarmup] // nil until the first encode derives it
}

// The process's codecs: a cell's Result, a registry policy reference, and
// the sweep envelope. The envelope codec lends its prefix, type id and
// cell table to writeEnvelope and readEnvelope (sweepenvelope.go), which
// write and read the envelope around its cells.
var (
	codec    resultCodec[resultWire]
	refCodec resultCodec[policyRefWire]
	envCodec resultCodec[sweepResultEnvelope]
)

// codecWarmup is what the first encode learned from gob.
type codecWarmup struct {
	prefix []byte // the type descriptors that open a fresh stream of T
	// valueID is the encoded type id that opens the type's value
	// messages, after the message's byte count.
	valueID []byte
	table   *wireStruct // T's fields, checked against gob
}

// encode returns v's canonical gob encoding, equal to what a fresh
// gob.Encoder writes for it.
func (c *resultCodec[T]) encode(v *T) ([]byte, error) {
	return c.appendEncode(nil, v)
}

// appendEncode appends v's canonical gob encoding to dst, growing it once.
func (c *resultCodec[T]) appendEncode(dst []byte, v *T) ([]byte, error) {
	c.once.Do(c.derive)
	warm := c.warm.Load()
	if warm == nil {
		b, err := freshEncode(v)
		if err != nil || dst == nil {
			return b, err
		}
		return append(dst, b...), nil
	}
	return warm.appendValue(dst, reflect.ValueOf(v).Elem())
}

// appendValue appends the stream a fresh encoder writes for v, a T: the
// body is measured first, so that dst grows once.
func (w *codecWarmup) appendValue(dst []byte, v reflect.Value) ([]byte, error) {
	m := wireWriter{sizing: true}
	if _, err := m.writeStruct(nil, w.table, v); err != nil {
		return nil, err
	}
	size := uint64(len(w.valueID) + m.n)
	dst = slices.Grow(dst, len(w.prefix)+gobUintSize(size)+int(size))
	dst = append(dst, w.prefix...)
	dst = append(appendGobUint(dst, size), w.valueID...)
	return new(wireWriter).writeStruct(dst, w.table, v)
}

// decode fills v from b exactly as a fresh gob.Decoder would. A []byte
// field of v is left in b.
func (c *resultCodec[T]) decode(b []byte, v *T) error {
	if warm := c.warm.Load(); warm != nil {
		if msg, ok := warm.body(b); ok {
			rd := wireReader{msg: msg}
			if rd.readStruct(warm.table, reflect.ValueOf(v).Elem()) && len(rd.msg) == 0 {
				return nil
			}
			// Let a fresh decoder give the answer, error and all.
			var zero T
			*v = zero
		}
	}
	return freshDecode(b, v)
}

// derive learns the descriptor prefix from gob and builds T's table. If
// gob refuses, or the table cannot be built or fails checkTable, warm
// stays nil and every encode and decode runs fresh.
func (c *resultCodec[T]) derive() {
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	if enc.Encode(new(T)) != nil {
		return
	}
	stream := bytes.Clone(buf.Bytes())
	buf.Reset()
	if enc.Encode(new(T)) != nil || !bytes.HasSuffix(stream, buf.Bytes()) {
		return
	}
	prefix, msg := stream[:len(stream)-buf.Len()], stream[len(stream)-buf.Len():]
	_, n := gobUint(msg)
	_, m := gobUint(msg[n:])
	if n == 0 || m == 0 {
		return
	}
	warm := &codecWarmup{prefix: prefix, valueID: msg[n : n+m], table: newWireStruct(reflect.TypeFor[T](), nil)}
	if warm.table != nil && checkTable[T](warm) {
		c.warm.Store(warm)
	}
}

// body returns the body of b's value message, after its byte count and
// type id, if b is the prefix followed by a whole message whose type id
// is the codec's; such a message defines no types, and its body is the
// table's to read. It reports false for any other input.
func (w *codecWarmup) body(b []byte) ([]byte, bool) {
	if !bytes.HasPrefix(b, w.prefix) {
		return nil, false
	}
	rest := b[len(w.prefix):]
	size, k := gobUint(rest)
	if k == 0 || size >= gobTooBig || size > uint64(len(rest)-k) || !bytes.HasPrefix(rest[k:k+int(size)], w.valueID) {
		return nil, false
	}
	return rest[k+len(w.valueID) : k+int(size)], true
}

// gobTooBig is gob's bound on a message and on a slice's bytes.
const gobTooBig = (1 << 30) << (^uint(0) >> 62)

// gobUint returns the unsigned integer gob wrote at the front of b and its
// length in bytes; a length of 0 if b does not start with one. gob writes
// a value below 128 as one byte, and anything larger as its negated byte
// count followed by that many big-endian bytes.
func gobUint(b []byte) (x uint64, n int) {
	if len(b) == 0 {
		return 0, 0
	}
	if b[0] < 0x80 {
		return uint64(b[0]), 1
	}
	k := -int(int8(b[0]))
	if k < 1 || k > 8 || len(b) < 1+k {
		return 0, 0
	}
	for _, c := range b[1 : 1+k] {
		x = x<<8 | uint64(c)
	}
	return x, 1 + k
}

// appendGobUint appends x as gob writes an unsigned integer.
func appendGobUint(b []byte, x uint64) []byte {
	if x < 0x80 {
		return append(b, byte(x))
	}
	n := gobUintSize(x) - 1
	b = append(b, byte(-n))
	for i := n - 1; i >= 0; i-- {
		b = append(b, byte(x>>(8*i)))
	}
	return b
}

// gobInt is the unsigned integer gob writes for i: its low bit says
// whether to complement the rest.
func gobInt(i int64) uint64 {
	if i < 0 {
		return uint64(^i<<1) | 1
	}
	return uint64(i << 1)
}

// gobUintSize is the length of appendGobUint's encoding of x.
func gobUintSize(x uint64) int {
	n := 1
	if x >= 0x80 {
		for ; x > 0; x >>= 8 {
			n++
		}
	}
	return n
}

func freshEncode[T any](v *T) ([]byte, error) {
	var b bytes.Buffer
	if err := gob.NewEncoder(&b).Encode(v); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

func freshDecode[T any](b []byte, v *T) error {
	return gob.NewDecoder(bytes.NewReader(b)).Decode(v)
}

// wireOp is how a field's value is written and read.
type wireOp uint8

const (
	opBool wireOp = iota
	opInt
	opUint
	opFloat
	opString
	opBytes // a []byte, read in place
	opStruct
	opPtr   // a pointer to a struct
	opRef   // a *PolicyRef, as its GobEncode bytes
	opSlice // a slice of anything but bytes, pointers and refs
)

// wireField is one field gob sends of a struct, or a slice's elements.
type wireField struct {
	index int // the field's index in its struct
	op    wireOp
	elem  *wireStruct // the struct of an opStruct or opPtr value
	item  *wireField  // the elements of an opSlice value
}

// wireStruct is a struct type's field table: the fields gob sends, in the
// order it numbers them.
type wireStruct struct {
	typ    reflect.Type
	fields []wireField
}

// newWireStruct builds t's field table by reflection. It numbers the
// fields as gob does: the exported ones, less chans, funcs and pointers to
// them. It returns nil for a struct with any field newWireField cannot
// take, an embedded field, or itself inside itself.
func newWireStruct(t reflect.Type, outer []reflect.Type) *wireStruct {
	if t.Kind() != reflect.Struct || marshalsItself(t) || slices.Contains(outer, t) {
		return nil
	}
	outer = append(outer, t)
	ws := &wireStruct{typ: t}
	for i := range t.NumField() {
		f := t.Field(i)
		base := f.Type
		for base.Kind() == reflect.Pointer {
			base = base.Elem()
		}
		if !f.IsExported() || base.Kind() == reflect.Chan || base.Kind() == reflect.Func {
			continue
		}
		wf, ok := newWireField(f.Type, outer)
		if !ok || f.Anonymous {
			return nil
		}
		wf.index = i
		ws.fields = append(ws.fields, wf)
	}
	return ws
}

// newWireField returns the op for a value of type t. It refuses a kind
// wireOp does not name, a slice of pointers or refs, which gob cannot send
// with a nil among them, and a type gob leaves to its own methods (a
// GobEncoder, BinaryMarshaler or TextMarshaler, or their decoders) other
// than *PolicyRef.
func newWireField(t reflect.Type, outer []reflect.Type) (wireField, bool) {
	var f wireField
	switch k := t.Kind(); {
	case t == reflect.TypeFor[*PolicyRef]():
		f.op = opRef
	case marshalsItself(t):
		return f, false
	case k == reflect.Bool:
		f.op = opBool
	case k >= reflect.Int && k <= reflect.Int64:
		f.op = opInt
	case k >= reflect.Uint && k <= reflect.Uintptr:
		f.op = opUint
	case k == reflect.Float32 || k == reflect.Float64:
		f.op = opFloat
	case k == reflect.String:
		f.op = opString
	case k == reflect.Slice && t.Elem().Kind() == reflect.Uint8 && !marshalsItself(t.Elem()):
		f.op = opBytes
	case k == reflect.Slice:
		item, ok := newWireField(t.Elem(), outer)
		if !ok || item.op == opPtr || item.op == opRef {
			return f, false
		}
		f.op, f.item = opSlice, &item
	case k == reflect.Struct:
		f.op, f.elem = opStruct, newWireStruct(t, outer)
	case k == reflect.Pointer:
		f.op, f.elem = opPtr, newWireStruct(t.Elem(), outer)
	default:
		return f, false
	}
	return f, (f.op != opStruct && f.op != opPtr) || f.elem != nil
}

// marshalers are the interfaces through which gob leaves a type's wire
// form to the type.
var marshalers = [...]reflect.Type{
	reflect.TypeFor[gob.GobEncoder](), reflect.TypeFor[gob.GobDecoder](),
	reflect.TypeFor[encoding.BinaryMarshaler](), reflect.TypeFor[encoding.BinaryUnmarshaler](),
	reflect.TypeFor[encoding.TextMarshaler](), reflect.TypeFor[encoding.TextUnmarshaler](),
}

// marshalsItself reports whether gob would leave t's wire form to its
// methods: if t, a pointer to it, or what t points to has any of them.
func marshalsItself(t reflect.Type) bool {
	for ; ; t = t.Elem() {
		for _, m := range marshalers {
			if t.Implements(m) || reflect.PointerTo(t).Implements(m) {
				return true
			}
		}
		if t.Kind() != reflect.Pointer {
			return false
		}
	}
}

// wireWriter appends struct bodies as gob's encoder writes them or,
// sizing, only counts their bytes.
type wireWriter struct {
	n      int // the bytes counted
	sizing bool
}

// writeStruct appends v's fields to b as gob's encodeStruct writes them,
// then a zero delta to end.
func (w *wireWriter) writeStruct(b []byte, ws *wireStruct, v reflect.Value) ([]byte, error) {
	b, _, err := w.writeFields(b, ws.fields, v)
	if err != nil {
		return nil, err
	}
	return w.uint(b, 0), nil
}

// writeFields appends those of fields, v's first fields, that gob sends:
// each as the delta of its number from the last one sent, then its value.
// It returns the number of the last one sent, -1 if none. gob leaves out
// a zero bool or number, −0 included, an empty string or slice, nil or
// not, and a nil pointer or ref; it sends a nested struct always, and a
// non-nil pointer or ref whatever it points to.
func (w *wireWriter) writeFields(b []byte, fields []wireField, v reflect.Value) ([]byte, int, error) {
	last := -1
	for i := range fields {
		f := &fields[i]
		fv := v.Field(f.index)
		switch f.op {
		case opBool, opInt, opUint, opFloat:
			if x, sent := scalar(f.op, fv); sent {
				b = w.uint(w.uint(b, uint64(i-last)), x)
				last = i
			}
			continue
		case opString, opBytes, opSlice:
			if fv.Len() == 0 {
				continue
			}
		case opPtr, opRef:
			if fv.IsNil() {
				continue
			}
		}
		b = w.uint(b, uint64(i-last))
		last = i
		var err error
		if b, err = w.writeValue(b, f, fv); err != nil {
			return nil, 0, err
		}
	}
	return b, last, nil
}

// scalar returns the unsigned integer gob writes for v, a bool or number,
// and whether gob sends it as a field: not if it is zero or −0.
func scalar(op wireOp, v reflect.Value) (uint64, bool) {
	switch op {
	case opBool:
		if v.Bool() {
			return 1, true
		}
		return 0, false
	case opInt:
		x := gobInt(v.Int())
		return x, x != 0
	case opUint:
		x := v.Uint()
		return x, x != 0
	}
	f := v.Float()
	return bits.ReverseBytes64(math.Float64bits(f)), f != 0
}

// writeValue appends v whatever its value, as gob writes a slice's
// elements: a −0 float keeps its sign and a struct element leaves out its
// own zero fields.
func (w *wireWriter) writeValue(b []byte, f *wireField, v reflect.Value) ([]byte, error) {
	switch f.op {
	case opBool, opInt, opUint, opFloat:
		x, _ := scalar(f.op, v)
		return w.uint(b, x), nil
	case opString:
		return writeRaw(w, b, v.String()), nil
	case opBytes:
		return writeRaw(w, b, v.Bytes()), nil
	case opStruct:
		return w.writeStruct(b, f.elem, v)
	case opPtr:
		return w.writeStruct(b, f.elem, v.Elem())
	case opRef:
		ref, err := v.Interface().(*PolicyRef).GobEncode()
		if err != nil {
			return nil, err
		}
		return writeRaw(w, b, ref), nil
	}
	b = w.uint(b, uint64(v.Len())) // opSlice
	for i := range v.Len() {
		var err error
		if b, err = w.writeValue(b, f.item, v.Index(i)); err != nil {
			return nil, err
		}
	}
	return b, nil
}

func (w *wireWriter) uint(b []byte, x uint64) []byte {
	switch {
	case w.sizing:
		w.n += gobUintSize(x)
		return b
	case x < 0x80:
		return append(b, byte(x))
	}
	return appendGobUint(b, x)
}

// writeRaw appends s's length, then s.
func writeRaw[S string | []byte](w *wireWriter, b []byte, s S) []byte {
	b = w.uint(b, uint64(len(s)))
	if w.sizing {
		w.n += len(s)
		return b
	}
	return append(b, s...)
}

// wireReader reads struct bodies in place as gob's decoder does.
type wireReader struct {
	msg []byte // what is left of the message
	// ref is the policy ref read last, decoded from refGob, a sub-slice of
	// the input; a run of refs with equal bytes shares it.
	ref    *PolicyRef
	refGob []byte
	// strs holds strings read lately, so that equal ones (a workload, a
	// speed setter) are allocated once per run of them.
	strs [8]string
	next int // the slot of strs to fill next
}

// readStruct reads a struct's fields into v as gob's decodeStruct does. It
// refuses a struct the message ends inside, which gob would take as ended.
func (rd *wireReader) readStruct(ws *wireStruct, v reflect.Value) bool {
	at, ok := rd.readFields(ws.fields, v)
	return ok && at < 0
}

// readFields reads fields, v's first fields, as gob's decodeStruct does:
// each as the delta of its number from the last one read, then its value,
// up to a zero delta, when it returns -1, or up to the delta of a field
// past them, whose number it returns.
func (rd *wireReader) readFields(fields []wireField, v reflect.Value) (int, bool) {
	for field := -1; ; {
		delta, ok := rd.uint()
		if !ok || delta > uint64(len(fields)-field) {
			return 0, false
		}
		if delta == 0 {
			return -1, true
		}
		if field += int(delta); field == len(fields) {
			return field, true
		}
		if !rd.readValue(&fields[field], v.Field(fields[field].index)) {
			return 0, false
		}
	}
}

// readValue reads one value into v, refusing values gob refuses: integers
// and floats that overflow v, and lengths past the message. Every length
// is held to the bytes left before anything is allocated for it.
func (rd *wireReader) readValue(f *wireField, v reflect.Value) bool {
	switch f.op {
	case opBool:
		x, ok := rd.uint()
		if !ok {
			return false
		}
		v.SetBool(x != 0)
	case opInt:
		x, ok := rd.int()
		if !ok || v.OverflowInt(x) {
			return false
		}
		v.SetInt(x)
	case opUint:
		x, ok := rd.uint()
		if !ok || v.OverflowUint(x) {
			return false
		}
		v.SetUint(x)
	case opFloat:
		x, ok := rd.uint()
		fl := math.Float64frombits(bits.ReverseBytes64(x))
		if !ok || v.OverflowFloat(fl) {
			return false
		}
		v.SetFloat(fl)
	case opString:
		s, ok := rd.bytes()
		if !ok {
			return false
		}
		v.SetString(rd.string(s))
	case opBytes:
		s, ok := rd.bytes()
		if !ok {
			return false
		}
		if len(s) > 0 {
			v.SetBytes(s)
		}
	case opStruct:
		return rd.readStruct(f.elem, v)
	case opPtr:
		p := reflect.New(f.elem.typ)
		v.Set(p)
		return rd.readStruct(f.elem, p.Elem())
	case opRef:
		s, ok := rd.bytes()
		if !ok {
			return false
		}
		if rd.ref == nil || !bytes.Equal(s, rd.refGob) {
			ref := new(PolicyRef)
			if ref.GobDecode(s) != nil {
				return false
			}
			rd.ref, rd.refGob = ref, s
		}
		v.Set(reflect.ValueOf(rd.ref))
	case opSlice:
		// Each element takes at least a byte, and gob bounds the slice.
		n, ok := rd.uint()
		if !ok || n > uint64(len(rd.msg)) || n > gobTooBig/uint64(max(v.Type().Elem().Size(), 1)) {
			return false
		}
		if n == 0 {
			return true // gob leaves the slice nil
		}
		s := reflect.MakeSlice(v.Type(), int(n), int(n))
		for i := range int(n) {
			if !rd.readValue(f.item, s.Index(i)) {
				return false
			}
		}
		v.Set(s)
	}
	return true
}

// uint reads an unsigned integer as gob writes it.
func (rd *wireReader) uint() (uint64, bool) {
	x, n := gobUint(rd.msg)
	rd.msg = rd.msg[n:]
	return x, n > 0
}

// int reads a signed integer as gob writes it (gobInt).
func (rd *wireReader) int() (int64, bool) {
	x, ok := rd.uint()
	if x&1 != 0 {
		return ^int64(x >> 1), ok
	}
	return int64(x >> 1), ok
}

// bytes reads a length and that many bytes, left in the input and capped
// at their length.
func (rd *wireReader) bytes() ([]byte, bool) {
	n, ok := rd.uint()
	if !ok || n > uint64(len(rd.msg)) {
		return nil, false
	}
	b := rd.msg[:n:n]
	rd.msg = rd.msg[n:]
	return b, true
}

// string returns b as a string, the one read lately if it is equal.
func (rd *wireReader) string(b []byte) string {
	for _, s := range rd.strs {
		if s == string(b) {
			return s
		}
	}
	s := string(b)
	rd.strs[rd.next] = s
	rd.next = (rd.next + 1) % len(rd.strs)
	return s
}

// checkTable is derive's check of warm's table against gob on samples of
// T: the zero T and fill's samples 0 to 3. Writing each through the table
// must give a fresh encoder's bytes, and reading those bytes through it
// must give a fresh decoder's value. The samples' refs carry gob forms
// built by sampleRef, so the check encodes no ref and registers no gob
// type a plain encoding of T would not.
func checkTable[T any](warm *codecWarmup) bool {
	refs := []*PolicyRef{
		sampleRef("constant", "mhz", 0),
		sampleRef("constant", "mhz", math.Copysign(0, -1)),
		sampleRef(strings.Repeat("p", 130), "lo_percent", 93),
	}
	for k := -1; k < 4; k++ {
		var sample, want, got T
		if k >= 0 {
			warm.table.fill(reflect.ValueOf(&sample).Elem(), k, refs)
		}
		b, err := freshEncode(&sample)
		if err != nil {
			return false
		}
		if w, err := warm.appendValue(nil, reflect.ValueOf(&sample).Elem()); err != nil || !bytes.Equal(w, b) {
			return false
		}
		msg, ok := warm.body(b)
		rd := wireReader{msg: msg}
		if !ok || freshDecode(b, &want) != nil || !rd.readStruct(warm.table, reflect.ValueOf(&got).Elem()) ||
			len(rd.msg) != 0 || !reflect.DeepEqual(got, want) {
			return false
		}
	}
	return true
}

// fill sets v, a struct ws reads, to sample k of checkTable, whose mode is
// k%3. Mode 0 gives every field a value that gob leaves out or that looks
// zero: −0, an empty non-nil slice, a non-nil pointer to a struct of such
// values, a nil ref. Mode 1 sets every field non-zero, and mode 2 does
// too but leaves pointers and refs nil. Integers are negative and up to
// four bytes long, strings and bytes run over 127 bytes for k%16 == 1,
// and sample 1's slices hold 130 elements. The elements of a slice take
// k+1+i, so they cycle through the modes. Ref fields take one of refs,
// the same for up to three k in a row, for k under 24: gob decodes each
// ref on a decoder of its own, about 10 KB each.
func (ws *wireStruct) fill(v reflect.Value, k int, refs []*PolicyRef) {
	for j := range ws.fields {
		f := &ws.fields[j]
		f.fill(v.Field(f.index), k, k*len(ws.fields)+j+1, refs)
	}
}

func (f *wireField) fill(v reflect.Value, k, x int, refs []*PolicyRef) {
	zero, bare := k%3 == 0, k%3 == 2
	n := 1 + x%5
	if k%16 == 1 {
		n += 129
	}
	switch f.op {
	case opBool:
		v.SetBool(!zero)
	case opInt:
		if i := -int64(x) << (8 * (x % 4)); !zero && !v.OverflowInt(i) {
			v.SetInt(i)
		} else if !zero {
			v.SetInt(-1)
		}
	case opUint:
		if u := uint64(x) << (8 * (x % 4)); !zero && !v.OverflowUint(u) {
			v.SetUint(u)
		} else if !zero {
			v.SetUint(1)
		}
	case opFloat:
		if zero {
			v.SetFloat(math.Copysign(0, -1))
		} else {
			v.SetFloat(float64(x) / 8)
		}
	case opString:
		if !zero {
			v.SetString(strings.Repeat("s", n))
		}
	case opBytes:
		if zero {
			n = 0
		}
		v.SetBytes(bytes.Repeat([]byte{byte(x)}, n))
	case opStruct:
		f.elem.fill(v, k, refs)
	case opPtr:
		if !bare {
			p := reflect.New(f.elem.typ)
			f.elem.fill(p.Elem(), k, refs)
			v.Set(p)
		}
	case opRef:
		if !zero && !bare && k < 24 {
			v.Set(reflect.ValueOf(refs[k/9%len(refs)]))
		}
	case opSlice:
		switch {
		case zero:
			n = 0
		case k == 1:
			n = 130
		default:
			n = 1 + x%3
		}
		s := reflect.MakeSlice(v.Type(), n, n)
		for i := range n {
			f.item.fill(s.Index(i), k+1+i, x+i, refs)
		}
		v.Set(s)
	}
}

// refWireDescriptors is the type descriptors a fresh gob encoder writes
// before a policyRefWire value, policyRefWire numbered 64 (refWireID).
// sampleRef writes a value message after it by hand, because encoding one
// would number policyRefWire in this process sooner than plain gob does.
const (
	refWireDescriptors = "\x37\x7f\x03\x01\x01\x0dpolicyRefWire\x01\xff\x80\x00\x01\x03\x01\x04Name\x01\x0c\x00" +
		"\x01\x04Keys\x01\xff\x82\x00\x01\x04Vals\x01\xff\x84\x00\x00\x00" +
		"\x16\xff\x81\x02\x01\x01\x08[]string\x01\xff\x82\x00\x01\x0c\x00\x00" +
		"\x17\xff\x83\x02\x01\x01\x09[]float64\x01\xff\x84\x00\x01\x08\x00\x00"
	refWireID = "\xff\x80"
)

// sampleRef returns a ref whose gob form is a fresh encoder's for
// policyRefWire{Name: name, Keys: {key}, Vals: {v}}.
func sampleRef(name, key string, v float64) *PolicyRef {
	body := appendGobUint(nil, 1) // Name
	body = append(appendGobUint(body, uint64(len(name))), name...)
	body = append(body, 1, 1) // Keys, one of them
	body = append(appendGobUint(body, uint64(len(key))), key...)
	body = append(body, 1, 1) // Vals, one of them
	body = append(appendGobUint(body, bits.ReverseBytes64(math.Float64bits(v))), 0)
	b := appendGobUint([]byte(refWireDescriptors), uint64(len(refWireID)+len(body)))
	b = append(append(b, refWireID...), body...)
	return &PolicyRef{Name: name, Params: map[string]float64{key: v}, wire: b}
}
