package clocksched

import (
	"bytes"
	"encoding"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"clocksched/internal/sim"
)

// sweepCellEnvelope is one cell of the canonical SweepResult wire form:
// the resolved cell spec plus either the cell's canonically encoded Result
// or its error text.
type sweepCellEnvelope struct {
	Spec   CellSpec
	Result []byte
	Error  string
}

// sweepResultEnvelope is the canonical serialization of a whole
// SweepResult. It covers the measurement content only — grid shape, each
// cell's resolved configuration, result bytes, and error — and excludes
// runtime provenance (cache/replay flags, attempt counts, pool
// telemetry), so a resumed, cached, or remotely executed sweep of a spec
// encodes byte-identically to an uninterrupted local run of the same
// spec.
type sweepResultEnvelope struct {
	SimVersion string
	NW, NP, NS int
	Cells      []sweepCellEnvelope
}

// EncodeSweepResult serializes the sweep result canonically: equal
// measurement content produces equal bytes, whatever mix of fresh runs,
// cache hits, and journal replays produced it. The sweep service stores
// and serves these bytes; DecodeSweepResult reverses them.
//
// The bytes are those of a fresh gob.Encoder given the whole envelope,
// but they are written around the cells' bodies, each encoded on a pooled
// warm encoder: once to measure it, once to append it to an output of
// exactly the right size, the output being the one envelope-sized
// allocation (see writeEnvelope).
func EncodeSweepResult(r *SweepResult) ([]byte, error) {
	// gob numbers types as the process first encodes them, and the plain
	// encoding encodes every cell's Result before the envelope: derive
	// the Result codec before the envelope's, as that would.
	if slices.ContainsFunc(r.Cells, func(c SweepCell) bool { return c.Err == nil && c.Result != nil }) {
		codec.once.Do(codec.derive)
	}
	envCodec.once.Do(envCodec.derive)
	if warm := envCodec.warm.Load(); warm != nil {
		hdr := sweepResultEnvelope{SimVersion: sim.Version, NW: r.nw, NP: r.np, NS: r.ns}
		if b, err := writeEnvelope(warm, &hdr, &resultCells{r: r}); err == nil {
			return b, nil
		}
		// Let plain gob give the answer, error and all.
	}
	env, err := newSweepResultEnvelope(r)
	if err != nil {
		return nil, err
	}
	return freshEncode(&env)
}

// newSweepResultEnvelope builds r's whole envelope, each cell's Result
// encoded.
func newSweepResultEnvelope(r *SweepResult) (sweepResultEnvelope, error) {
	env := sweepResultEnvelope{
		SimVersion: sim.Version,
		NW:         r.nw, NP: r.np, NS: r.ns,
		Cells: make([]sweepCellEnvelope, len(r.Cells)),
	}
	for i, c := range r.Cells {
		ce := sweepCellEnvelope{Spec: newCellSpec(c.Config)}
		switch {
		case c.Err != nil:
			ce.Error = c.Err.Error()
		case c.Result != nil:
			enc, err := encodeResult(c.Result)
			if err != nil {
				return env, fmt.Errorf("clocksched: encoding cell %d: %w", i, err)
			}
			ce.Result = enc
		}
		env.Cells[i] = ce
	}
	return env, nil
}

// resultCells gives writeEnvelope a SweepResult's cells. They share one
// scratch each for their envelope, their Result's wire form and its
// encoding, and a cell's policy ref is the copy refs holds for its run of
// equal refs, so that a cell allocates nothing. ce and w are shared also
// because gob takes them as interfaces, which would move each to the heap.
type resultCells struct {
	r       *SweepResult
	ce      sweepCellEnvelope
	w       resultWire
	scratch []byte
	refs    refRuns
}

func (rc *resultCells) len() int { return len(rc.r.Cells) }

func (rc *resultCells) cell(i int) (*sweepCellEnvelope, error) {
	if i == 0 {
		rc.refs.at = -1 // a pass starts: its runs come in the same order
	}
	c := &rc.r.Cells[i]
	rc.ce = sweepCellEnvelope{Spec: newCellSpec(c.Config)}
	if ref := c.Config.Policy.Ref; ref != nil {
		rc.ce.Spec.Policy.Ref = rc.refs.lookup(ref)
	}
	switch {
	case c.Err != nil:
		rc.ce.Error = c.Err.Error()
	case c.Result != nil:
		rc.w = newResultWire(c.Result, rc.w.Residency)
		var err error
		if rc.scratch, err = codec.appendEncode(rc.scratch[:0], &rc.w); err != nil {
			return nil, err
		}
		rc.ce.Result = rc.scratch
	}
	return &rc.ce, nil
}

// refRuns holds a copy of the first ref of each run of equal policy refs
// in an envelope's cells, its gob form encoded once and kept in wire, so
// that an envelope pays one ref encode per run, not one per cell and pass.
// The copies never leave the envelope encode: nothing outside it can see
// or change the bytes they share with gob, and a ref mutated before the
// next encode starts a new run there.
type refRuns struct {
	runs []PolicyRef
	at   int // the run of the ref last looked up; -1 before the first
}

// lookup returns the copy standing for ref: the current run's or the next
// one's if ref is the same as it, else a new run's. A ref whose encode
// fails is returned as it is, for gob to meet the error.
func (m *refRuns) lookup(ref *PolicyRef) *PolicyRef {
	for j := max(m.at, 0); j < len(m.runs) && j <= m.at+1; j++ {
		if m.runs[j].same(ref) {
			m.at = j
			return &m.runs[j]
		}
	}
	b, err := ref.GobEncode()
	if err != nil {
		return ref
	}
	m.runs = append(m.runs, PolicyRef{Name: ref.Name, Params: ref.Params, wire: b})
	m.at = len(m.runs) - 1
	return &m.runs[m.at]
}

// Field indices of sweepResultEnvelope, as gob numbers them.
const (
	envFieldSimVersion = iota
	envFieldNW
	envFieldNP
	envFieldNS
	envFieldCells
)

// maxEnvelopeMessage is the largest message writeEnvelope writes; gob
// refuses messages of 1 GiB and more on 32-bit hosts, and plain gob gives
// the answer for anything that large.
const maxEnvelopeMessage = 1<<30 - 1

// envelopeCells gives writeEnvelope an envelope's cells by index. It asks
// for every cell twice, in order from cell 0 each time, and reads each
// only before it asks for the next.
type envelopeCells interface {
	len() int
	cell(i int) (*sweepCellEnvelope, error)
}

// writeEnvelope writes the gob stream a fresh encoder writes for env with
// the cells of cells (env.Cells is ignored):
//
//	prefix ‖ byte count ‖ type id ‖ header fields ‖ cells delta ‖ n ‖ bodies ‖ 0
//
// gob encodes a struct that is a slice element exactly as it encodes a
// top-level value's body, so each body is what a warm sweepCellEnvelope
// encoder writes after its message's byte count and type id. The
// descriptor prefix and type id come from gob (warm); the header is
// written here, each non-zero field as the delta of its index from the
// last field written, then its value, and envCodec's derive-time check
// holds this against gob's own bytes.
//
// Each cell is encoded twice on one warm encoder: first to measure its
// body, then to append it to an output of exactly the size measured, the
// only envelope-sized allocation. If the second pass's bodies do not fill
// the output exactly, the cells changed under the encode, and it fails.
func writeEnvelope(warm *codecWarmup, env *sweepResultEnvelope, cells envelopeCells) ([]byte, error) {
	cellCodec.once.Do(cellCodec.derive)
	e := cellCodec.encoder(cellCodec.warm.Load())
	if e == nil {
		return nil, errCodecCold
	}

	var hb [64]byte
	h, last := append(hb[:0], warm.valueID...), -1
	field := func(i int) {
		h = appendGobUint(h, uint64(i-last))
		last = i
	}
	if env.SimVersion != "" {
		field(envFieldSimVersion)
		h = appendGobUint(h, uint64(len(env.SimVersion)))
		h = append(h, env.SimVersion...)
	}
	for i, v := range [...]int{env.NW, env.NP, env.NS} {
		if v != 0 {
			field(envFieldNW + i)
			h = appendGobInt(h, int64(v))
		}
	}
	n := cells.len()
	if n > 0 {
		field(envFieldCells)
		h = appendGobUint(h, uint64(n))
	}

	size := len(h) + 1 // + the struct's terminating 0
	for i := 0; i < n; i++ {
		b, err := encodeCell(e, cells, i)
		if err != nil {
			return nil, err
		}
		if size += len(b); size > maxEnvelopeMessage {
			return nil, errEnvelopeTooBig
		}
	}
	out := make([]byte, 0, len(warm.prefix)+gobUintSize(uint64(size))+size)
	out = append(out, warm.prefix...)
	out = appendGobUint(out, uint64(size))
	out = append(out, h...)
	for i := 0; i < n; i++ {
		b, err := encodeCell(e, cells, i)
		if err != nil {
			return nil, err
		}
		if len(out)+len(b) >= cap(out) {
			return nil, errEnvelopeChanged
		}
		out = append(out, b...)
	}
	if len(out) != cap(out)-1 {
		return nil, errEnvelopeChanged
	}
	cellCodec.putEncoder(e) // on an error e is dropped: its stream state may be unknown
	return append(out, 0), nil
}

// encodeCell returns the body of cell i of cells, encoded on e.
func encodeCell(e *warmEncoder, cells envelopeCells, i int) ([]byte, error) {
	ce, err := cells.cell(i)
	if err != nil {
		return nil, err
	}
	return cellCodec.body(e, ce)
}

var (
	errEnvelopeTooBig  = errors.New("clocksched: sweep envelope too big to assemble")
	errEnvelopeChanged = errors.New("clocksched: sweep envelope cells changed while it was encoded")
)

// appendGobUint appends x as gob writes an unsigned integer: below 128 as
// one byte, otherwise its negated byte count and then its big-endian
// bytes.
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

// appendGobInt appends i as gob writes a signed integer: an unsigned one
// whose low bit says whether to complement the rest.
func appendGobInt(b []byte, i int64) []byte {
	if i < 0 {
		return appendGobUint(b, uint64(^i<<1)|1)
	}
	return appendGobUint(b, uint64(i<<1))
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

// checkEnvelopeAssembly is envCodec's derive-time check: writeEnvelope
// must reproduce a fresh encoder's bytes for sample envelopes that cover
// what its framing depends on — zero and non-zero header fields, no cells,
// and counts and bodies long enough for multi-byte gob integers. If it
// does not, the envelope stays on plain gob. The samples hold no policy
// reference, so the check registers no gob type a plain encoding of the
// envelope would not.
func checkEnvelopeAssembly(warm *codecWarmup) bool {
	rich := sweepResultEnvelope{SimVersion: sim.Version, NW: 1, NS: -300}
	for i := 0; i < 130; i++ {
		ce := sweepCellEnvelope{Spec: CellSpec{Workload: MPEG, Policy: Policy{Up: Peg, Down: Peg, LoPercent: 93, HiPercent: 98}, Seed: uint64(i) << 20, Duration: Duration(time.Second)}}
		switch i % 3 {
		case 0:
			ce.Result = bytes.Repeat([]byte{byte(i)}, 200)
			ce.Spec.Faults = &FaultPlan{ClockChangeFailProb: 0.25}
		case 1:
			ce.Error = "cell failed"
			ce.Spec.Watchdog = &WatchdogConfig{Window: i}
		}
		rich.Cells = append(rich.Cells, ce)
	}
	for _, env := range []*sweepResultEnvelope{{}, &rich} {
		want, err := freshEncode(env)
		if err != nil {
			return false
		}
		got, err := writeEnvelope(warm, env, givenCells(env.Cells))
		if err != nil || !bytes.Equal(got, want) {
			return false
		}
	}
	return true
}

// givenCells gives writeEnvelope cells already built.
type givenCells []sweepCellEnvelope

func (g givenCells) len() int { return len(g) }

func (g givenCells) cell(i int) (*sweepCellEnvelope, error) { return &g[i], nil }

// DecodeSweepResult reverses EncodeSweepResult. Cell errors come back as
// plain errors carrying the original text (their concrete types do not
// cross the wire), and runtime provenance — Cached/Replayed/Attempts and
// the pool telemetry — is zero, because the envelope never carried it.
//
// Once this process has encoded an envelope, b is read in place
// (readEnvelope): no copy of the envelope or of a cell's Result bytes is
// made, and the cells of each run of equal policy references share one
// decoded *PolicyRef, as the cells of a local Sweep share their
// SweepConfig's. The result does not alias b. Any input the reader refuses
// or fails on decodes on gob, so success, value and error text are a
// fresh gob.Decoder's.
func DecodeSweepResult(b []byte) (*SweepResult, error) {
	if warm, fields := envCodec.warm.Load(), cellFields.Load(); warm != nil && fields != nil {
		var sink resultSink
		if readEnvelope(warm, fields, b, &sink) {
			return sink.r, nil
		}
	}
	var env sweepResultEnvelope
	if err := envCodec.decode(b, &env); err != nil {
		return nil, fmt.Errorf("clocksched: decoding sweep result: %w", err)
	}
	return newSweepResult(&env)
}

// newSweepResult reverses newSweepResultEnvelope. It refuses an envelope
// whose grid does not hold its cells, on which CellAt would index past
// them.
func newSweepResult(env *sweepResultEnvelope) (*SweepResult, error) {
	var s resultSink
	if err := s.open(env, len(env.Cells)); err != nil {
		return nil, err
	}
	for i := range env.Cells {
		if err := s.cell(i, &env.Cells[i]); err != nil {
			return nil, err
		}
	}
	return s.r, nil
}

// gridHolds reports whether an nw×np×ns grid holds exactly n cells,
// without computing a product that could overflow. All-zero dimensions
// are an explicit grid, which holds any number of cells.
func gridHolds(nw, np, ns, n int) bool {
	switch {
	case nw < 0 || np < 0 || ns < 0:
		return false
	case nw == 0 || np == 0 || ns == 0:
		return nw|np|ns == 0 || n == 0
	}
	return n%ns == 0 && n/ns%np == 0 && n/ns/np == nw
}

// cellFields is sweepCellEnvelope's field table for readEnvelope. envCodec's
// derive sets it if the table could be built and passed its check; until
// then, and for good if not, every envelope decodes on gob.
var cellFields atomic.Pointer[wireStruct]

// gobTooBig is gob's bound on a message and on a slice's bytes.
const gobTooBig = (1 << 30) << (^uint(0) >> 62)

// envelopeSink takes an envelope's header with the number of its cells,
// then each cell in order. From readEnvelope, the cell is a scratch the
// next one reuses and its Result lies in readEnvelope's input. An error
// from either method fails the read.
type envelopeSink interface {
	open(hdr *sweepResultEnvelope, n int) error
	cell(i int, ce *sweepCellEnvelope) error
}

// readEnvelope is writeEnvelope's mirror: it reads b, the stream a fresh
// encoder writes for a sweep envelope, into sink without gob. It takes
// only input that opens with warm's prefix and type id, whose wire types
// are therefore this binary's own and number their fields as fields does.
// It parses the header here and each cell body with fields, straight from
// b: a cell's Result is a sub-slice of b, and each run of byte-equal
// policy ref encodings is decoded once, all the run's cells sharing that
// *PolicyRef. It reports false for any input it refuses — anything gob
// would refuse among it, and some gob would take, such as bytes after the
// envelope's terminator inside its message — and the caller then leaves
// the answer to gob.
func readEnvelope(warm *codecWarmup, fields *wireStruct, b []byte, sink envelopeSink) bool {
	if !warm.opensValue(b) {
		return false
	}
	rest := b[len(warm.prefix):]
	size, k := gobUint(rest)
	if size >= gobTooBig || size > uint64(len(rest)-k) || size < uint64(len(warm.valueID)) {
		return false
	}
	rd := &envelopeReader{msg: rest[k+len(warm.valueID) : k+int(size)]}
	cell := reflect.ValueOf(&rd.ce).Elem()

	var hdr sweepResultEnvelope
	n, cells := 0, false
	for field := -1; !cells; {
		delta, ok := rd.uint()
		if !ok || delta > uint64(envFieldCells-field) {
			return false
		}
		if delta == 0 {
			break
		}
		field += int(delta)
		switch field {
		case envFieldSimVersion:
			s, ok := rd.bytes()
			if !ok {
				return false
			}
			hdr.SimVersion = rd.string(s)
		case envFieldNW, envFieldNP, envFieldNS:
			x, ok := rd.int()
			if !ok || int64(int(x)) != x {
				return false
			}
			*[...]*int{&hdr.NW, &hdr.NP, &hdr.NS}[field-envFieldNW] = int(x)
		case envFieldCells:
			u, ok := rd.uint()
			// Each cell takes at least a byte, and gob bounds the slice.
			if !ok || u > uint64(len(rd.msg)) || u > gobTooBig/uint64(cell.Type().Size()) {
				return false
			}
			n, cells = int(u), true
		}
	}
	if sink.open(&hdr, n) != nil {
		return false
	}
	for i := 0; i < n; i++ {
		rd.ce = sweepCellEnvelope{}
		if !rd.readStruct(fields, cell) || sink.cell(i, &rd.ce) != nil {
			return false
		}
	}
	if cells {
		if end, ok := rd.uint(); !ok || end != 0 {
			return false
		}
	}
	return len(rd.msg) == 0
}

// envelopeReader is readEnvelope's state.
type envelopeReader struct {
	msg []byte            // what is left of the envelope's message
	ce  sweepCellEnvelope // the cell being read
	// ref is the policy ref of the current run, decoded from refGob, a
	// sub-slice of the input.
	ref    *PolicyRef
	refGob []byte
	// strs holds strings read lately, so that equal ones (a workload, a
	// speed setter) are allocated once per run of them.
	strs [8]string
	next int // the slot of strs to fill next
}

// readStruct reads a struct's fields into v as gob's decodeStruct does:
// each as the delta of its number from the last one read, then its value,
// up to a zero delta. It refuses a struct the message ends inside, which
// gob would take as ended.
func (rd *envelopeReader) readStruct(ws *wireStruct, v reflect.Value) bool {
	for field := -1; ; {
		delta, ok := rd.uint()
		if !ok || delta > uint64(len(ws.fields)-1-field) {
			return false
		}
		if delta == 0 {
			return true
		}
		field += int(delta)
		if !rd.readField(&ws.fields[field], v.Field(ws.fields[field].index)) {
			return false
		}
	}
}

// readField reads one field's value into v, refusing values gob refuses:
// integers and floats that overflow v, and lengths past the message.
func (rd *envelopeReader) readField(f *wireField, v reflect.Value) bool {
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
	case opBytes, opView:
		s, ok := rd.bytes()
		switch {
		case !ok:
			return false
		case len(s) > 0 && f.op == opBytes:
			v.SetBytes(bytes.Clone(s))
		case len(s) > 0:
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
	}
	return true
}

// uint reads an unsigned integer as gob writes it.
func (rd *envelopeReader) uint() (uint64, bool) {
	x, n := gobUint(rd.msg)
	rd.msg = rd.msg[n:]
	return x, n > 0
}

// int reads a signed integer as gob writes it (appendGobInt).
func (rd *envelopeReader) int() (int64, bool) {
	x, ok := rd.uint()
	if x&1 != 0 {
		return ^int64(x >> 1), ok
	}
	return int64(x >> 1), ok
}

// bytes reads a length and that many bytes, left in the input and capped
// at their length.
func (rd *envelopeReader) bytes() ([]byte, bool) {
	n, ok := rd.uint()
	if !ok || n > uint64(len(rd.msg)) {
		return nil, false
	}
	b := rd.msg[:n:n]
	rd.msg = rd.msg[n:]
	return b, true
}

// string returns b as a string, the one read lately if it is equal.
func (rd *envelopeReader) string(b []byte) string {
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

// gobUint returns the unsigned integer gob wrote at the front of b and its
// length in bytes; a length of 0 if b does not start with one.
func gobUint(b []byte) (x uint64, n int) {
	switch n = gobUintLen(b); n {
	case 0:
		return 0, 0
	case 1:
		return uint64(b[0]), 1
	}
	for _, c := range b[1:n] {
		x = x<<8 | uint64(c)
	}
	return x, n
}

// resultSink builds a SweepResult from an envelope's cells.
type resultSink struct{ r *SweepResult }

func (s *resultSink) open(hdr *sweepResultEnvelope, n int) error {
	if !gridHolds(hdr.NW, hdr.NP, hdr.NS, n) {
		return fmt.Errorf("clocksched: decoding sweep result: a %d×%d×%d grid does not hold its %d cells", hdr.NW, hdr.NP, hdr.NS, n)
	}
	s.r = &SweepResult{Cells: make([]SweepCell, n), nw: hdr.NW, np: hdr.NP, ns: hdr.NS}
	return nil
}

func (s *resultSink) cell(i int, ce *sweepCellEnvelope) error {
	c := &s.r.Cells[i]
	c.Config = ce.Spec.config()
	switch {
	case ce.Error != "":
		c.Err = errors.New(ce.Error)
	case ce.Result != nil:
		res, err := decodeResult(ce.Result)
		if err != nil {
			return fmt.Errorf("clocksched: decoding cell %d: %w", i, err)
		}
		c.Result = res
	}
	return nil
}

// wireOp is how readField reads a field.
type wireOp uint8

const (
	opBool wireOp = iota
	opInt
	opUint
	opFloat
	opString
	opBytes // a []byte, copied
	opView  // a []byte left in the input: a cell's Result, which resultSink decodes and drops
	opStruct
	opPtr // a pointer to a struct
	opRef // a *PolicyRef, as its GobEncode bytes
)

// wireField is one field gob sends of a struct.
type wireField struct {
	index int // the field's index in its struct
	op    wireOp
	elem  *wireStruct // the fields of an opStruct or opPtr field's struct
}

// wireStruct is a struct type's field table: the fields gob sends, in the
// order it numbers them.
type wireStruct struct {
	typ    reflect.Type
	fields []wireField
}

// newCellFields builds sweepCellEnvelope's field table, its Result read in
// place; nil if newWireStruct cannot.
func newCellFields() *wireStruct {
	ws := newWireStruct(reflect.TypeFor[sweepCellEnvelope](), nil)
	if ws == nil {
		return nil
	}
	result, ok := ws.typ.FieldByName("Result")
	for i := range ws.fields {
		if f := &ws.fields[i]; ok && f.index == result.Index[0] && f.op == opBytes {
			f.op = opView
		}
	}
	return ws
}

// newWireStruct builds t's field table by reflection. It numbers the
// fields as gob does: the exported ones, less chans, funcs and pointers to
// them. It returns nil for a struct with any field it cannot read as gob
// would: a kind wireOp does not name, an embedded field, a struct inside
// itself, or a type gob leaves to its own methods (a GobEncoder,
// BinaryMarshaler or TextMarshaler, or their decoders) other than
// *PolicyRef.
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
		wf := wireField{index: i}
		switch ft := f.Type; {
		case f.Anonymous:
			return nil
		case ft == reflect.TypeFor[*PolicyRef]():
			wf.op = opRef
		case marshalsItself(ft):
			return nil
		case ft.Kind() == reflect.Bool:
			wf.op = opBool
		case ft.Kind() >= reflect.Int && ft.Kind() <= reflect.Int64:
			wf.op = opInt
		case ft.Kind() >= reflect.Uint && ft.Kind() <= reflect.Uintptr:
			wf.op = opUint
		case ft.Kind() == reflect.Float32 || ft.Kind() == reflect.Float64:
			wf.op = opFloat
		case ft.Kind() == reflect.String:
			wf.op = opString
		case ft.Kind() == reflect.Slice && ft.Elem().Kind() == reflect.Uint8 && !marshalsItself(ft.Elem()):
			wf.op = opBytes
		case ft.Kind() == reflect.Struct:
			wf.op, wf.elem = opStruct, newWireStruct(ft, outer)
		case ft.Kind() == reflect.Pointer:
			wf.op, wf.elem = opPtr, newWireStruct(ft.Elem(), outer)
		default:
			return nil
		}
		if (wf.op == opStruct || wf.op == opPtr) && wf.elem == nil {
			return nil
		}
		ws.fields = append(ws.fields, wf)
	}
	return ws
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

// checkEnvelopeCodec is envCodec's derive-time check. The envelope
// assembly must pass checkEnvelopeAssembly, or the instance stays cold.
// The reader is turned on only if its field table can be built and passes
// checkEnvelopeReader.
func checkEnvelopeCodec(warm *codecWarmup) bool {
	if !checkEnvelopeAssembly(warm) {
		return false
	}
	if fields := newCellFields(); fields != nil && checkEnvelopeReader(warm, fields) {
		cellFields.Store(fields)
	}
	return true
}

// checkEnvelopeReader holds readEnvelope to a fresh gob.Decoder on two
// sample envelopes: one all zero, and one whose header fields are all
// non-zero and whose 130 cells take turns at having every field non-zero
// (Faults, Watchdog and, in the first 12, a ref included), an error only,
// a Result only, and nothing. Some of its strings and bodies run over 127
// bytes, and its refs come in runs, 0 and −0 parameters among them. The
// refs carry gob forms built by sampleRef, so the check encodes no ref
// and registers no gob type a plain encoding of the envelope would not.
func checkEnvelopeReader(warm *codecWarmup, fields *wireStruct) bool {
	refs := []*PolicyRef{
		sampleRef("constant", "mhz", 0),
		sampleRef("constant", "mhz", math.Copysign(0, -1)),
		sampleRef(strings.Repeat("p", 130), "lo_percent", 93),
	}
	rich := sweepResultEnvelope{SimVersion: sim.Version, NW: 1 << 20, NP: -3, NS: 130}
	for i := 0; i < 130; i++ {
		var ce sweepCellEnvelope
		fields.fill(reflect.ValueOf(&ce).Elem(), i, refs)
		if i >= 12 {
			// gob decodes each cell's ref on a decoder of its own, about
			// 10 KB each: a few runs will do.
			ce.Spec.Policy.Ref = nil
		}
		switch i % 4 {
		case 1:
			ce.Result = nil
		case 2:
			ce.Error, ce.Spec.Faults, ce.Spec.Watchdog, ce.Spec.Policy.Ref = "", nil, nil, nil
		case 3:
			ce = sweepCellEnvelope{}
		}
		rich.Cells = append(rich.Cells, ce)
	}
	for _, env := range []*sweepResultEnvelope{{}, &rich} {
		b, err := freshEncode(env)
		if err != nil {
			return false
		}
		var want sweepResultEnvelope
		var got envelopeCopy
		if freshDecode(b, &want) != nil || !readEnvelope(warm, fields, b, &got) || !reflect.DeepEqual(got.env, want) {
			return false
		}
	}
	return true
}

// envelopeCopy keeps what readEnvelope reads, each cell copied.
type envelopeCopy struct{ env sweepResultEnvelope }

func (c *envelopeCopy) open(hdr *sweepResultEnvelope, n int) error {
	c.env = *hdr
	return nil
}

func (c *envelopeCopy) cell(i int, ce *sweepCellEnvelope) error {
	c.env.Cells = append(c.env.Cells, *ce)
	return nil
}

// fill sets every field of v that ws reads to a non-zero value drawn from
// k: integers negative and up to four bytes long, strings and bytes over
// 127 long for every 16th k, and a ref field to one of refs, the same for
// three k in a row.
func (ws *wireStruct) fill(v reflect.Value, k int, refs []*PolicyRef) {
	for j, f := range ws.fields {
		fv := v.Field(f.index)
		x := int64(k*len(ws.fields) + j + 1)
		n := 1 + int(x%5)
		if k%16 == 0 {
			n += 129
		}
		switch f.op {
		case opBool:
			fv.SetBool(true)
		case opInt:
			if i := -x << (8 * (x % 4)); !fv.OverflowInt(i) {
				fv.SetInt(i)
			} else {
				fv.SetInt(-1)
			}
		case opUint:
			if u := uint64(x) << (8 * (x % 4)); !fv.OverflowUint(u) {
				fv.SetUint(u)
			} else {
				fv.SetUint(1)
			}
		case opFloat:
			fv.SetFloat(float64(x) / 8)
		case opString:
			fv.SetString(strings.Repeat("s", n))
		case opBytes, opView:
			fv.SetBytes(bytes.Repeat([]byte{byte(x)}, n))
		case opStruct:
			f.elem.fill(fv, k, refs)
		case opPtr:
			p := reflect.New(f.elem.typ)
			f.elem.fill(p.Elem(), k, refs)
			fv.Set(p)
		case opRef:
			fv.Set(reflect.ValueOf(refs[k/3%len(refs)]))
		}
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
