package clocksched

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
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
func DecodeSweepResult(b []byte) (*SweepResult, error) {
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
	if !gridHolds(env.NW, env.NP, env.NS, len(env.Cells)) {
		return nil, fmt.Errorf("clocksched: decoding sweep result: a %d×%d×%d grid does not hold its %d cells", env.NW, env.NP, env.NS, len(env.Cells))
	}
	r := &SweepResult{
		Cells: make([]SweepCell, len(env.Cells)),
		nw:    env.NW, np: env.NP, ns: env.NS,
	}
	for i, ce := range env.Cells {
		cell := SweepCell{Config: ce.Spec.config()}
		switch {
		case ce.Error != "":
			cell.Err = errors.New(ce.Error)
		case ce.Result != nil:
			res, err := decodeResult(ce.Result)
			if err != nil {
				return nil, fmt.Errorf("clocksched: decoding cell %d: %w", i, err)
			}
			cell.Result = res
		}
		r.Cells[i] = cell
	}
	return r, nil
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
