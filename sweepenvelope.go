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
// but they are assembled: each cell's body comes from a pooled warm
// encoder and is copied once into an output of exactly the right size
// (see assembleEnvelope).
func EncodeSweepResult(r *SweepResult) ([]byte, error) {
	// gob numbers types as the process first encodes them, and the plain
	// encoding encodes every cell's Result before the envelope: derive
	// the Result codec before the envelope's, as that would.
	if slices.ContainsFunc(r.Cells, func(c SweepCell) bool { return c.Err == nil && c.Result != nil }) {
		codec.once.Do(codec.derive)
	}
	envCodec.once.Do(envCodec.derive)
	if warm := envCodec.warm.Load(); warm != nil {
		if b, err := assembleSweepResult(warm, r); err == nil {
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

// assembleSweepResult encodes r's envelope through assembleEnvelope. Each
// cell's Result is encoded into scratch, which the cell's body copies, so
// a cell costs one allocation: its body. ce and w are reused because gob
// takes them as interfaces, which would move each to the heap.
func assembleSweepResult(warm *codecWarmup, r *SweepResult) ([]byte, error) {
	bodies := make([][]byte, len(r.Cells))
	var (
		ce      sweepCellEnvelope
		w       resultWire
		scratch []byte
		err     error
	)
	for i, c := range r.Cells {
		ce = sweepCellEnvelope{Spec: newCellSpec(c.Config)}
		switch {
		case c.Err != nil:
			ce.Error = c.Err.Error()
		case c.Result != nil:
			w = newResultWire(c.Result)
			if scratch, err = codec.appendEncode(scratch[:0], &w); err != nil {
				return nil, err
			}
			ce.Result = scratch
		}
		if bodies[i], err = cellCodec.encodeBody(&ce); err != nil {
			return nil, err
		}
	}
	return assembleEnvelope(warm, &sweepResultEnvelope{SimVersion: sim.Version, NW: r.nw, NP: r.np, NS: r.ns}, bodies)
}

// Field indices of sweepResultEnvelope, as gob numbers them.
const (
	envFieldSimVersion = iota
	envFieldNW
	envFieldNP
	envFieldNS
	envFieldCells
)

// maxEnvelopeMessage is the largest message assembleEnvelope writes; gob
// refuses messages of 1 GiB and more on 32-bit hosts, and plain gob gives
// the answer for anything that large.
const maxEnvelopeMessage = 1<<30 - 1

// assembleEnvelope writes the gob stream a fresh encoder writes for env
// with cells whose bodies are given (env.Cells is ignored):
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
func assembleEnvelope(warm *codecWarmup, env *sweepResultEnvelope, bodies [][]byte) ([]byte, error) {
	h := gobStruct{b: append(make([]byte, 0, 64), warm.valueID...), last: -1}
	if env.SimVersion != "" {
		h.field(envFieldSimVersion)
		h.b = appendGobUint(h.b, uint64(len(env.SimVersion)))
		h.b = append(h.b, env.SimVersion...)
	}
	for i, v := range [...]int{env.NW, env.NP, env.NS} {
		if v != 0 {
			h.field(envFieldNW + i)
			h.b = appendGobInt(h.b, int64(v))
		}
	}
	size := len(h.b) + 1 // + the struct's terminating 0
	if len(bodies) > 0 {
		h.field(envFieldCells)
		h.b = appendGobUint(h.b, uint64(len(bodies)))
		size = len(h.b) + 1
		for _, b := range bodies {
			size += len(b)
			if size > maxEnvelopeMessage {
				return nil, errEnvelopeTooBig
			}
		}
	}
	out := make([]byte, 0, len(warm.prefix)+gobUintSize(uint64(size))+size)
	out = append(out, warm.prefix...)
	out = appendGobUint(out, uint64(size))
	out = append(out, h.b...)
	for _, b := range bodies {
		out = append(out, b...)
	}
	return append(out, 0), nil
}

var errEnvelopeTooBig = errors.New("clocksched: sweep envelope too big to assemble")

// gobStruct writes a struct's fields as gob does.
type gobStruct struct {
	b    []byte
	last int // index of the field last written; -1 before the first
}

// field writes the delta that opens field i.
func (s *gobStruct) field(i int) {
	s.b = appendGobUint(s.b, uint64(i-s.last))
	s.last = i
}

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

// checkEnvelopeAssembly is envCodec's derive-time check: assembleEnvelope
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
		bodies := make([][]byte, len(env.Cells))
		for i := range env.Cells {
			if bodies[i], err = cellCodec.encodeBody(&env.Cells[i]); err != nil {
				return false
			}
		}
		got, err := assembleEnvelope(warm, env, bodies)
		if err != nil || !bytes.Equal(got, want) {
			return false
		}
	}
	return true
}

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

// newSweepResult reverses newSweepResultEnvelope.
func newSweepResult(env *sweepResultEnvelope) (*SweepResult, error) {
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
