package clocksched

import (
	"errors"
	"fmt"
	"reflect"
	"slices"

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
// but they are written around the cells' bodies, each written by the
// envelope codec's cell table: once to measure it, once into an output
// of exactly the right size, the output being the one envelope-sized
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
// equal refs, so that a cell allocates nothing.
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

// envFieldCells is the number gob gives sweepResultEnvelope's Cells, its
// last field: the header is the fields before it.
const envFieldCells = 4

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

// cellTable is the field table of the envelope's cells, within warm's.
func (w *codecWarmup) cellTable() *wireStruct {
	return w.table.fields[envFieldCells].item.elem
}

// writeEnvelope writes the gob stream a fresh encoder writes for env with
// the cells of cells (env.Cells is ignored):
//
//	prefix ‖ byte count ‖ type id ‖ header fields ‖ cells delta ‖ n ‖ bodies ‖ 0
//
// gob encodes a struct that is a slice element exactly as it encodes a
// top-level value's body, so each body is what warm's cell table writes.
// The descriptor prefix and type id come from gob (warm), and the header
// fields are written by warm's table, as for a whole envelope; the cells
// delta follows the last header field written.
//
// The cells are written twice: first to measure their bodies, then into
// an output of exactly the size measured, the only envelope-sized
// allocation. If the second pass does not fill the output exactly, the
// cells changed under the encode, and it fails.
func writeEnvelope(warm *codecWarmup, env *sweepResultEnvelope, cells envelopeCells) ([]byte, error) {
	var hw wireWriter
	var hb [64]byte
	h, last, err := hw.writeFields(append(hb[:0], warm.valueID...), warm.table.fields[:envFieldCells], reflect.ValueOf(env).Elem())
	if err != nil {
		return nil, err
	}
	n := cells.len()
	if n > 0 {
		h = appendGobUint(appendGobUint(h, uint64(envFieldCells-last)), uint64(n))
	}

	table := warm.cellTable()
	bodies := func(w *wireWriter, b []byte) ([]byte, error) {
		for i := 0; i < n; i++ {
			ce, err := cells.cell(i)
			if err != nil {
				return nil, err
			}
			if b, err = w.writeStruct(b, table, reflect.ValueOf(ce).Elem()); err != nil {
				return nil, err
			}
			if w.n > maxEnvelopeMessage {
				return nil, errEnvelopeTooBig
			}
		}
		return b, nil
	}
	m := wireWriter{sizing: true}
	if _, err := bodies(&m, nil); err != nil {
		return nil, err
	}
	size := len(h) + m.n + 1 // + the struct's terminating 0
	if size > maxEnvelopeMessage {
		return nil, errEnvelopeTooBig
	}
	out := make([]byte, 0, len(warm.prefix)+gobUintSize(uint64(size))+size)
	out = append(out, warm.prefix...)
	out = append(appendGobUint(out, uint64(size)), h...)
	out, err = bodies(&wireWriter{}, out)
	if err != nil {
		return nil, err
	}
	if len(out) != cap(out)-1 {
		return nil, errEnvelopeChanged
	}
	return append(out, 0), nil
}

var (
	errEnvelopeTooBig  = errors.New("clocksched: sweep envelope too big to assemble")
	errEnvelopeChanged = errors.New("clocksched: sweep envelope cells changed while it was encoded")
)

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
// or fails on decodes on a fresh gob.Decoder, so success, value and error
// text are a fresh decoder's.
func DecodeSweepResult(b []byte) (*SweepResult, error) {
	if warm := envCodec.warm.Load(); warm != nil {
		var sink resultSink
		if readEnvelope(warm, b, &sink) {
			return sink.r, nil
		}
	}
	var env sweepResultEnvelope
	if err := freshDecode(b, &env); err != nil {
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
// are therefore this binary's own and number their fields as warm's table
// does. It reads the header fields with the table, stopping at the cells
// delta, and each cell body with the cell table, straight from b: a cell's Result is a sub-slice of b, and each
// run of byte-equal policy ref encodings is decoded once, all the run's
// cells sharing that *PolicyRef. It reports false for any input it
// refuses — anything gob would refuse among it, and some gob would take,
// such as bytes after the envelope's terminator inside its message — and
// the caller then leaves the answer to gob.
func readEnvelope(warm *codecWarmup, b []byte, sink envelopeSink) bool {
	msg, ok := warm.body(b)
	if !ok {
		return false
	}
	rd := &wireReader{msg: msg}
	var ce sweepCellEnvelope
	cell := reflect.ValueOf(&ce).Elem()

	var hdr sweepResultEnvelope
	n := 0
	at, ok := rd.readFields(warm.table.fields[:envFieldCells], reflect.ValueOf(&hdr).Elem())
	if !ok {
		return false
	}
	if at == envFieldCells {
		u, ok := rd.uint()
		// Each cell takes at least a byte, and gob bounds the slice.
		if !ok || u > uint64(len(rd.msg)) || u > gobTooBig/uint64(cell.Type().Size()) {
			return false
		}
		n = int(u)
	}
	if sink.open(&hdr, n) != nil {
		return false
	}
	table := warm.cellTable()
	for i := 0; i < n; i++ {
		ce = sweepCellEnvelope{}
		if !rd.readStruct(table, cell) || sink.cell(i, &ce) != nil {
			return false
		}
	}
	if at == envFieldCells {
		if end, ok := rd.uint(); !ok || end != 0 {
			return false
		}
	}
	return len(rd.msg) == 0
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
