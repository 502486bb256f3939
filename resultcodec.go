package clocksched

import (
	"bytes"
	"encoding/gob"
	"sync"
	"sync/atomic"
)

// resultCodec is the process-wide gob codec behind encodeResult and
// decodeResult. A fresh gob stream opens with descriptors of every type in
// resultWire's tree (about nine tenths of a short cell's bytes) and a fresh
// decoder compiles its decode engine from them. Paid per cell, those two
// would be most of the codec's cost; the codec pays them once per process:
//
//   - The descriptor prefix is learned from gob at the first encode, by
//     encoding the zero resultWire twice on one encoder: the first output
//     is prefix + value message, the second the value message alone.
//   - Pooled encoders have already sent the types; an encode writes
//     prefix + the value message, byte-identical to a fresh encoder's
//     output.
//   - Pooled decoders have read the prefix. An input that starts with it
//     and continues with a value message of resultWire's type id decodes
//     on one of them; anything else (another process's type numbering, a
//     corrupt or truncated file) decodes on a fresh decoder, and so does
//     any input the warm path fails on, so success and error match a
//     fresh decoder's exactly.
//
// gob numbers types in the order a process first encodes them, and
// decoding numbers none. Deriving the prefix is an encode, so only the
// encode side may do it: a process whose first gob action is a decode (a
// fabric coordinator, a daemon serving a disk-cache hit) decodes fresh
// until it has encoded a Result, and the type ids of everything it encodes
// stay what they were.
type resultCodec struct {
	once     sync.Once
	warm     atomic.Pointer[codecWarmup] // nil until the first encode derives it
	encoders sync.Pool                   // *warmEncoder
	decoders sync.Pool                   // *warmDecoder
}

// codecWarmup is what the first encode learned from gob.
type codecWarmup struct {
	// stream is the zero resultWire's full encoding: prefix, then a value
	// message. Encoders and decoders are warmed on it.
	stream []byte
	prefix []byte // stream's type descriptors
	// valueID is the encoded type id that opens resultWire's value
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

var codec resultCodec

// encode returns w's canonical gob encoding, equal to what a fresh
// gob.Encoder writes for it.
func (c *resultCodec) encode(w *resultWire) ([]byte, error) {
	c.once.Do(c.derive)
	warm := c.warm.Load()
	e := c.encoder(warm)
	if e == nil {
		return freshEncode(w)
	}
	e.buf.Reset()
	if err := e.enc.Encode(w); err != nil {
		return nil, err // e is dropped: its stream state is unknown
	}
	out := make([]byte, len(warm.prefix)+e.buf.Len())
	copy(out[copy(out, warm.prefix):], e.buf.Bytes())
	c.encoders.Put(e)
	return out, nil
}

// decode fills w from b exactly as a fresh gob.Decoder would.
func (c *resultCodec) decode(b []byte, w *resultWire) error {
	warm := c.warm.Load()
	if warm == nil || !warm.opensValue(b) {
		return freshDecode(b, w)
	}
	d := c.decoder(warm)
	if d == nil {
		return freshDecode(b, w)
	}
	d.r.Reset(b[len(warm.prefix):])
	if err := d.dec.Decode(w); err != nil {
		// Drop d and let a fresh decoder give the answer, error and all.
		*w = resultWire{}
		return freshDecode(b, w)
	}
	d.r.Reset(nil) // do not pin the caller's bytes in the pool
	c.decoders.Put(d)
	return nil
}

// derive learns the descriptor prefix from gob. If gob refuses, warm stays
// nil and every encode and decode runs fresh.
func (c *resultCodec) derive() {
	e := newWarmEncoder()
	if e == nil {
		return
	}
	stream := bytes.Clone(e.buf.Bytes())
	e.buf.Reset()
	if e.enc.Encode(&resultWire{}) != nil || !bytes.HasSuffix(stream, e.buf.Bytes()) {
		return
	}
	prefix, msg := stream[:len(stream)-e.buf.Len()], stream[len(stream)-e.buf.Len():]
	n := gobUintLen(msg)
	m := gobUintLen(msg[n:])
	if n == 0 || m == 0 {
		return
	}
	c.warm.Store(&codecWarmup{stream: stream, prefix: prefix, valueID: msg[n : n+m]})
	c.encoders.Put(e)
}

// encoder returns a pooled encoder, or a new one if its warm-up wrote the
// stream the prefix came from; nil if there is no warmup or it did not.
func (c *resultCodec) encoder(warm *codecWarmup) *warmEncoder {
	if warm == nil {
		return nil
	}
	if e, ok := c.encoders.Get().(*warmEncoder); ok {
		return e
	}
	if e := newWarmEncoder(); e != nil && bytes.Equal(e.buf.Bytes(), warm.stream) {
		return e
	}
	return nil
}

// newWarmEncoder returns an encoder that has sent resultWire's types by
// encoding the zero resultWire, with that stream left in its buffer; nil
// if gob refuses.
func newWarmEncoder() *warmEncoder {
	e := &warmEncoder{}
	e.enc = gob.NewEncoder(&e.buf)
	if e.enc.Encode(&resultWire{}) != nil {
		return nil
	}
	return e
}

// decoder returns a pooled decoder, or a new one warmed on the zero
// resultWire's stream; nil if gob refuses the stream.
func (c *resultCodec) decoder(warm *codecWarmup) *warmDecoder {
	if d, ok := c.decoders.Get().(*warmDecoder); ok {
		return d
	}
	d := &warmDecoder{}
	d.r.Reset(warm.stream)
	d.dec = gob.NewDecoder(&d.r)
	if d.dec.Decode(&resultWire{}) != nil {
		return nil
	}
	return d
}

// opensValue reports whether b is the prefix followed by a message whose
// type id is resultWire's. On such input a warm decoder reads exactly one
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

func freshEncode(w *resultWire) ([]byte, error) {
	var b bytes.Buffer
	if err := gob.NewEncoder(&b).Encode(w); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

func freshDecode(b []byte, w *resultWire) error {
	return gob.NewDecoder(bytes.NewReader(b)).Decode(w)
}
