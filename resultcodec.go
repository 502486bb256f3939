package clocksched

import (
	"bytes"
	"encoding/gob"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
)

// resultCodec is a process-wide gob codec for one wire type T. A fresh gob
// stream opens with descriptors of every type in T's tree (about nine
// tenths of a short cell's Result bytes) and a fresh decoder compiles its
// decode engine from them. Paid per value, those two would be most of the
// codec's cost; the codec pays them once per process:
//
//   - The descriptor prefix is learned from gob at the first encode, by
//     encoding the zero T twice on one encoder: the first output is
//     prefix + value message, the second the value message alone.
//   - Pooled encoders have already sent the types; an encode writes
//     prefix + the value message, byte-identical to a fresh encoder's
//     output.
//   - Pooled decoders have read the prefix. An input that starts with it
//     and continues with a value message of T's type id decodes on one of
//     them; anything else (another process's type numbering, a corrupt or
//     truncated file) decodes on a fresh decoder, and so does any input
//     the warm path fails on, so success and error match a fresh
//     decoder's exactly.
//   - No pooled encoder or decoder keeps a buffer over retainLimit: an
//     encoder that grew past it is dropped, and a decoder that read a
//     larger message rereads the small warm-up message before it is
//     pooled, so gob lets go of the large one.
//
// gob numbers types in the order a process first encodes them, and
// decoding numbers none. Deriving the prefix is an encode, so only the
// encode side may do it: a process whose first gob action is a decode (a
// fabric coordinator, a daemon serving a disk-cache hit) decodes fresh
// until it has encoded a T, and the type ids of everything it encodes
// stay what they were.
type resultCodec[T any] struct {
	// check, if set, vets what derive learned; if it reports false the
	// codec stays cold and every encode and decode runs fresh.
	check    func(*codecWarmup) bool
	once     sync.Once
	warm     atomic.Pointer[codecWarmup] // nil until the first encode derives it
	encoders sync.Pool                   // *warmEncoder
	decoders sync.Pool                   // *warmDecoder
}

// The process's codecs: a cell's Result, a registry policy reference, and
// the sweep envelope and its cells. The envelope codec only decodes and
// lends its prefix and type id to writeEnvelope, which writes the
// envelope around its cells' bodies (sweepenvelope.go).
var (
	codec     resultCodec[resultWire]
	refCodec  resultCodec[policyRefWire]
	cellCodec resultCodec[sweepCellEnvelope]
	envCodec  = resultCodec[sweepResultEnvelope]{check: checkEnvelopeAssembly}
)

// retainLimit bounds the buffer a pooled encoder or decoder may keep.
const retainLimit = 64 << 10

// errCodecCold reports that a codec has no warm encoder to offer.
var errCodecCold = errors.New("clocksched: gob codec not warmed")

// codecWarmup is what the first encode learned from gob.
type codecWarmup struct {
	// stream is the zero value's full encoding: prefix, then a value
	// message. Encoders and decoders are warmed on it.
	stream []byte
	prefix []byte // stream's type descriptors
	// valueID is the encoded type id that opens the type's value
	// messages, after the message's byte count.
	valueID []byte
}

type warmEncoder struct {
	buf bytes.Buffer
	enc *gob.Encoder
}

type warmDecoder struct {
	r   bytes.Reader // swapped to each input; an io.ByteReader, so gob reads no further than a message
	dec *gob.Decoder
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
	e := c.encoder(warm)
	if e == nil {
		b, err := freshEncode(v)
		if err != nil || dst == nil {
			return b, err
		}
		return append(dst, b...), nil
	}
	e.buf.Reset()
	if err := e.enc.Encode(v); err != nil {
		return nil, err // e is dropped: its stream state is unknown
	}
	dst = slices.Grow(dst, len(warm.prefix)+e.buf.Len())
	dst = append(append(dst, warm.prefix...), e.buf.Bytes()...)
	c.putEncoder(e)
	return dst, nil
}

// body encodes v on e, one of c's warm encoders, and returns the body of
// its value message: what follows the message's byte count and type id.
// gob writes the same bytes for v as an element of a []T, which sweep
// envelope assembly relies on. The bytes are e's until it encodes again.
func (c *resultCodec[T]) body(e *warmEncoder, v *T) ([]byte, error) {
	e.buf.Reset()
	if err := e.enc.Encode(v); err != nil {
		return nil, err
	}
	msg := e.buf.Bytes()
	return msg[gobUintLen(msg)+len(c.warm.Load().valueID):], nil
}

// putEncoder pools e unless its buffer grew past retainLimit.
func (c *resultCodec[T]) putEncoder(e *warmEncoder) {
	if e.buf.Cap() <= retainLimit {
		c.encoders.Put(e)
	}
}

// decode fills v from b exactly as a fresh gob.Decoder would.
func (c *resultCodec[T]) decode(b []byte, v *T) error {
	warm := c.warm.Load()
	if warm == nil || !warm.opensValue(b) {
		return freshDecode(b, v)
	}
	d := c.decoder(warm)
	if d == nil {
		return freshDecode(b, v)
	}
	d.r.Reset(b[len(warm.prefix):])
	if err := d.dec.Decode(v); err != nil {
		// Drop d and let a fresh decoder give the answer, error and all.
		var zero T
		*v = zero
		return freshDecode(b, v)
	}
	if len(b)-len(warm.prefix) > retainLimit {
		// gob keeps the last message it read; swap it for the warm-up's.
		d.r.Reset(warm.stream[len(warm.prefix):])
		if d.dec.Decode(new(T)) != nil {
			return nil
		}
	}
	d.r.Reset(nil) // do not pin the caller's bytes in the pool
	c.decoders.Put(d)
	return nil
}

// derive learns the descriptor prefix from gob. If gob refuses, or check
// does, warm stays nil and every encode and decode runs fresh.
func (c *resultCodec[T]) derive() {
	e := newWarmEncoder[T]()
	if e == nil {
		return
	}
	stream := bytes.Clone(e.buf.Bytes())
	e.buf.Reset()
	if e.enc.Encode(new(T)) != nil || !bytes.HasSuffix(stream, e.buf.Bytes()) {
		return
	}
	prefix, msg := stream[:len(stream)-e.buf.Len()], stream[len(stream)-e.buf.Len():]
	n := gobUintLen(msg)
	m := gobUintLen(msg[n:])
	if n == 0 || m == 0 {
		return
	}
	warm := &codecWarmup{stream: stream, prefix: prefix, valueID: msg[n : n+m]}
	if c.check != nil && !c.check(warm) {
		return
	}
	c.warm.Store(warm)
	c.encoders.Put(e)
}

// encoder returns a pooled encoder, or a new one if its warm-up wrote the
// stream the prefix came from; nil if there is no warmup or it did not.
func (c *resultCodec[T]) encoder(warm *codecWarmup) *warmEncoder {
	if warm == nil {
		return nil
	}
	if e, ok := c.encoders.Get().(*warmEncoder); ok {
		return e
	}
	if e := newWarmEncoder[T](); e != nil && bytes.Equal(e.buf.Bytes(), warm.stream) {
		return e
	}
	return nil
}

// newWarmEncoder returns an encoder that has sent T's types by encoding
// the zero T, with that stream left in its buffer; nil if gob refuses.
func newWarmEncoder[T any]() *warmEncoder {
	e := &warmEncoder{}
	e.enc = gob.NewEncoder(&e.buf)
	if e.enc.Encode(new(T)) != nil {
		return nil
	}
	return e
}

// decoder returns a pooled decoder, or a new one warmed on the zero T's
// stream; nil if gob refuses the stream.
func (c *resultCodec[T]) decoder(warm *codecWarmup) *warmDecoder {
	if d, ok := c.decoders.Get().(*warmDecoder); ok {
		return d
	}
	d := &warmDecoder{}
	d.r.Reset(warm.stream)
	d.dec = gob.NewDecoder(&d.r)
	if d.dec.Decode(new(T)) != nil {
		return nil
	}
	return d
}

// opensValue reports whether b is the prefix followed by a message whose
// type id is the codec's. On such input a warm decoder reads exactly one
// value message and defines no types, so it leaves the decoder as it found
// it; a message that defines a type would stay defined for the next input.
func (w *codecWarmup) opensValue(b []byte) bool {
	if !bytes.HasPrefix(b, w.prefix) {
		return false
	}
	rest := b[len(w.prefix):]
	n := gobUintLen(rest)
	return n > 0 && bytes.HasPrefix(rest[n:], w.valueID)
}

// gobUintLen returns the length in bytes of the unsigned integer gob wrote
// at the front of b, or 0 if b does not start with one. gob writes a value
// below 128 as one byte, and anything larger as its negated byte count
// followed by that many big-endian bytes.
func gobUintLen(b []byte) int {
	if len(b) == 0 {
		return 0
	}
	if b[0] < 0x80 {
		return 1
	}
	k := -int(int8(b[0]))
	if k < 1 || k > 8 || len(b) < 1+k {
		return 0
	}
	return 1 + k
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
