package clocksched

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"clocksched/internal/sim"
)

// plainEncodeSweepResult is the reference EncodeSweepResult is held to:
// the whole envelope built first, then handed to a fresh gob.Encoder.
func plainEncodeSweepResult(r *SweepResult) ([]byte, error) {
	env, err := newSweepResultEnvelope(r)
	if err != nil {
		return nil, err
	}
	var b bytes.Buffer
	if err := gob.NewEncoder(&b).Encode(env); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// plainDecodeSweepResult is DecodeSweepResult on a fresh gob.Decoder.
func plainDecodeSweepResult(b []byte) (*SweepResult, error) {
	var env sweepResultEnvelope
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&env); err != nil {
		return nil, fmt.Errorf("clocksched: decoding sweep result: %w", err)
	}
	return newSweepResult(&env)
}

// encodeEnvelope encodes r with EncodeSweepResult and calls the envelope
// writer itself on r: EncodeSweepResult answers a writer error with plain
// gob, which would hide a writer defect from every test that goes through
// it. The writer must succeed and write EncodeSweepResult's bytes.
func encodeEnvelope(t testing.TB, what string, r *SweepResult) []byte {
	t.Helper()
	got, err := EncodeSweepResult(r)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	hdr := sweepResultEnvelope{SimVersion: sim.Version, NW: r.nw, NP: r.np, NS: r.ns}
	b, err := writeEnvelope(envCodec.warm.Load(), &hdr, &resultCells{r: r})
	if err != nil || !bytes.Equal(b, got) {
		t.Fatalf("%s: the envelope writer failed (err %v) or wrote other bytes than EncodeSweepResult", what, err)
	}
	return got
}

// envelopeSample is a SweepResult of n synthetic cells on an nw×np×ns
// grid, shaped by the fuzzer: kinds picks each cell's Result, error or
// neither; refParams how many parameters (0..3) each registry reference
// carries, in its low bits, and in its high four bits how many cells (1 to
// 16) each run of equal references spans. No two cells share a ref, so a
// run's refs are equal but not the same pointer.
func envelopeSample(n int, nw, np, ns int, kinds, refParams byte, energy float64, errText string) *SweepResult {
	r := &SweepResult{nw: nw, np: np, ns: ns}
	params := []string{"mhz", "low_voltage", "lo_percent"}
	runLen := 1 + int(refParams>>4)
	for i := 0; i < n; i++ {
		c := SweepCell{Config: Config{Workload: Workloads()[i%len(Workloads())], Policy: pastPegPegFlat, Seed: uint64(i) * 977, Duration: time.Duration(i) * time.Millisecond}}
		run := i / runLen
		if k := (int(refParams) + run) % 5; k < 4 {
			ref := &PolicyRef{Name: fmt.Sprintf("ref-%d", run%7)}
			for j := 0; j < k; j++ {
				if ref.Params == nil {
					ref.Params = map[string]float64{}
				}
				ref.Params[params[j]] = float64(run*j) + energy
			}
			c.Config.Policy.Ref = ref
		}
		if i%4 == 1 {
			c.Config.Faults = &FaultPlan{ClockChangeFailProb: 0.125, TimerJitterMax: time.Duration(i)}
		}
		if i%5 == 2 {
			c.Config.Watchdog = &WatchdogConfig{Window: i}
		}
		if i%6 == 3 {
			c.Config.CaptureTrace, c.Config.Policy.VoltageScale, c.Config.Policy.MHz = true, true, -float64(i)
		}
		switch (int(kinds) >> (i % 4 * 2)) & 3 {
		case 0, 3:
			c.Result = &Result{
				EnergyJoules: energy + float64(i),
				Misses:       i,
				TimeAtMHz:    map[float64]time.Duration{59: time.Duration(i), 206.4: time.Second},
			}
			if i%3 == 0 {
				c.Result.trace = make([]UtilPoint, i%40)
			}
		case 1:
			c.Err = errors.New(errText + fmt.Sprint(i))
		}
		r.Cells = append(r.Cells, c)
	}
	return r
}

// checkSweepDecodeAgrees decodes in through DecodeSweepResult and through a
// fresh decoder: both must fail with the same error text or both succeed
// with the same value, compared by canonical bytes. EncodeSweepResult
// writes them, which FuzzSweepResultCodec holds to a fresh encoder's bytes,
// because a fresh encoder would take most of a fuzzing run's time.
func checkSweepDecodeAgrees(t *testing.T, what string, in []byte) {
	t.Helper()
	got, gotErr := DecodeSweepResult(in)
	want, wantErr := plainDecodeSweepResult(in)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: DecodeSweepResult error %v, fresh decoder %v", what, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	a, errA := EncodeSweepResult(got)
	b, errB := EncodeSweepResult(want)
	if fmt.Sprint(errA) != fmt.Sprint(errB) || !bytes.Equal(a, b) {
		t.Fatalf("%s: DecodeSweepResult and a fresh decoder disagree", what)
	}
}

// checkRefDecodeAgrees decodes in as a PolicyRef's gob form through the
// ref codec and through a fresh decoder.
func checkRefDecodeAgrees(t *testing.T, what string, in []byte) {
	t.Helper()
	var warm, fresh policyRefWire
	warmErr := refCodec.decode(in, &warm)
	freshErr := freshDecode(in, &fresh)
	if fmt.Sprint(warmErr) != fmt.Sprint(freshErr) {
		t.Fatalf("%s: ref codec decode error %v, fresh decoder %v", what, warmErr, freshErr)
	}
	if warmErr == nil && fmt.Sprintf("%#v", warm) != fmt.Sprintf("%#v", fresh) {
		t.Fatalf("%s: ref codec decoded %#v, fresh decoder %#v", what, warm, fresh)
	}
}

// FuzzSweepResultCodec holds the assembled sweep envelope to gob's own
// encoding of the whole envelope, byte for byte, over the shapes its
// framing depends on: no cells, error-only cells, more than 127 cells and
// bodies over 127 bytes (multi-byte gob counts), zero and non-zero grid
// dimensions, and registry references with 0 to 3 parameters, alone or in
// runs of equal ones. The sample's grid holds its cells: all-zero
// dimensions if any drawn one is zero, else small dimensions whose
// product is the cell count. The drawn dimensions, negative ones
// included, frame as gob frames them too, and unless they hold the cells,
// decoding refuses them. Decoding of truncated, bit-flipped and forged
// envelopes and references must match a fresh decoder in value and error
// text, and so must that of envelopes with bytes changed, inserted or
// deleted inside their cell bodies (checkCellEdits).
func FuzzSweepResultCodec(f *testing.F) {
	f.Add(uint16(0), int16(0), int16(0), int16(0), byte(0), byte(0), 1.5, "", uint16(0), uint16(0), byte(0), []byte(nil), []byte(nil))
	f.Add(uint16(5), int16(1), int16(5), int16(1), byte(0xff), byte(4), 0.0, "boom", uint16(300), uint16(17), byte(0x40), []byte{5, 0xff, 0x82}, []byte{0, 3, 0, 0x80, 2, 40, 1, 7, 4, 200, 2, 0})
	f.Add(uint16(130), int16(0), int16(-7), int16(200), byte(0x55), byte(1), 2.25, "cell failed: ", uint16(9000), uint16(1234), byte(0x01), []byte{0x7f}, []byte{9, 0, 0, 0xff, 9, 1, 1, 0x81, 77, 30, 0, 1})
	f.Add(uint16(140), int16(-1), int16(0), int16(0), byte(0x1b), byte(2), math.Inf(1), "x", uint16(40), uint16(5), byte(0x80), []byte{0x81, 0x80, 0}, []byte{1, 2, 2, 0, 1, 9, 0, 0x7f})
	f.Add(uint16(0), int16(3), int16(5), int16(-10), byte(0x36), byte(0x71), 3.0, "y", uint16(77), uint16(99), byte(0x10), []byte{1}, []byte{0, 0, 1, 0x80})
	f.Add(uint16(60), int16(2), int16(-4), int16(29), byte(0x00), byte(0xf3), -1.0, "", uint16(500), uint16(3), byte(0x02), []byte(nil), []byte{3, 60, 0, 1, 3, 61, 0, 2, 3, 62, 0, 3})
	f.Fuzz(func(t *testing.T, n uint16, nw, np, ns int16, kinds, refParams byte, energy float64,
		errText string, cut, flip uint16, xor byte, tail, edits []byte) {
		cells, gw, gp, gs := int(n%300), 0, 0, 0
		if nw != 0 && np != 0 && ns != 0 {
			gw, gp, gs = 1+int(uint16(nw))%3, 1+int(uint16(np))%5, 1+int(uint16(ns))%30
			cells = gw * gp * gs
		}
		r := envelopeSample(cells, gw, gp, gs, kinds, refParams, energy, errText)
		got := encodeEnvelope(t, "sample", r)
		want, err := plainEncodeSweepResult(r)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("EncodeSweepResult differs from a fresh encoder's:\n%x\n%x", got, want)
		}
		if envCodec.warm.Load() == nil {
			t.Fatal("the envelope assembly's derive-time check failed")
		}
		checkDrawnGrid(t, r.Cells, int(nw), int(np), int(ns))
		back, err := DecodeSweepResult(got)
		if err != nil {
			t.Fatalf("round trip: %v", err)
		}
		if !readEnvelope(envCodec.warm.Load(), got, &resultSink{}) {
			t.Fatal("the envelope reader refused an envelope EncodeSweepResult wrote")
		}
		if again, err := EncodeSweepResult(back); err != nil || !bytes.Equal(again, got) {
			t.Fatalf("round trip is not canonical (err %v)", err)
		}

		checkSweepDecodeAgrees(t, "truncated", got[:int(cut)%(len(got)+1)])
		corrupt := bytes.Clone(got)
		corrupt[int(flip)%len(corrupt)] ^= xor
		checkSweepDecodeAgrees(t, "corrupted", corrupt)
		checkSweepDecodeAgrees(t, "forged", append(bytes.Clone(envCodec.warm.Load().prefix), tail...))
		checkCellEdits(t, got, cellBodies(t, r, got), edits)

		for _, c := range r.Cells {
			ref := c.Config.Policy.Ref
			if ref == nil {
				continue
			}
			b, err := ref.GobEncode()
			if err != nil {
				t.Fatal(err)
			}
			var w policyRefWire
			if err := refCodec.decode(b, &w); err != nil {
				t.Fatal(err)
			}
			if fresh, err := freshEncode(&w); err != nil || !bytes.Equal(fresh, b) {
				t.Fatalf("ref codec encode differs from a fresh encoder's (err %v)", err)
			}
			checkRefDecodeAgrees(t, "truncated ref", b[:int(cut)%(len(b)+1)])
			corrupt := bytes.Clone(b)
			corrupt[int(flip)%len(corrupt)] ^= xor
			checkRefDecodeAgrees(t, "corrupted ref", corrupt)
			checkRefDecodeAgrees(t, "forged ref", append(bytes.Clone(refCodec.warm.Load().prefix), tail...))
			break
		}
	})
}

// checkCellEdits makes the edits edits names in the cell bodies of env,
// which lie where bodies says (cellBodies), and checks each edited
// envelope through
// checkSweepDecodeAgrees, once with its message's byte count as it was and
// once set to the edited length. edits is read four bytes at a time: a
// cell, an offset into its body, an edit (0 sets the byte, 1 inserts one
// before it, 2 deletes it) and the byte set or inserted. The edits are
// checked one by one, then all together.
func checkCellEdits(t *testing.T, env []byte, bodies [][2]int, edits []byte) {
	t.Helper()
	if len(bodies) == 0 {
		return
	}
	type edit struct {
		at   int
		kind byte
		b    byte
	}
	apply := func(b []byte, e edit) []byte {
		switch {
		case e.at >= len(b): // deletes at one offset ate the bytes after it
			return b
		case e.kind == 0:
			b[e.at] = e.b
			return b
		case e.kind == 1:
			return slices.Insert(b, e.at, e.b)
		}
		return slices.Delete(b, e.at, e.at+1)
	}
	var all []edit
	for ; len(edits) >= 4 && len(all) < 8; edits = edits[4:] {
		body := bodies[int(edits[0])%len(bodies)]
		e := edit{at: body[0] + int(edits[1])%(body[1]-body[0]), kind: edits[2] % 3, b: edits[3]}
		all = append(all, e)
		checkReframed(t, fmt.Sprintf("edit %+v", e), apply(bytes.Clone(env), e))
		if len(all) > 1 && (len(edits) < 8 || len(all) == 8) {
			// Apply from the last offset back, so every offset still
			// points where it did in env.
			slices.SortStableFunc(all, func(a, b edit) int { return b.at - a.at })
			combined := bytes.Clone(env)
			for _, e := range all {
				combined = apply(combined, e)
			}
			checkReframed(t, "combined edits", combined)
		}
	}
}

// checkReframed checks b, an edited envelope, through
// checkSweepDecodeAgrees as it is and with its message's byte count set to
// what follows the count.
func checkReframed(t *testing.T, what string, b []byte) {
	t.Helper()
	checkSweepDecodeAgrees(t, what, b)
	prefix := envCodec.warm.Load().prefix
	msg := b[len(prefix):]
	_, n := gobUint(msg)
	msg = msg[n:]
	checkSweepDecodeAgrees(t, what+", reframed", append(appendGobUint(bytes.Clone(prefix), uint64(len(msg))), msg...))
}

// cellBodies returns where each cell's body lies in env, r's envelope: the
// bodies run back to back up to the envelope's terminating 0, each what
// the envelope codec's cell table writes.
func cellBodies(t *testing.T, r *SweepResult, env []byte) [][2]int {
	t.Helper()
	cells, err := newSweepResultEnvelope(r)
	if err != nil {
		t.Fatal(err)
	}
	table := envCodec.warm.Load().cellTable()
	bodies := make([][2]int, len(cells.Cells))
	end := len(env) - 1
	for i := len(cells.Cells) - 1; i >= 0; i-- {
		body, err := new(wireWriter).writeStruct(nil, table, reflect.ValueOf(&cells.Cells[i]).Elem())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasSuffix(env[:end], body) {
			t.Fatalf("cell %d's body is not where the envelope has it", i)
		}
		n := len(body)
		bodies[i] = [2]int{end - n, end}
		end -= n
	}
	return bodies
}

// TestSweepEnvelopeLargeDecode decodes an envelope over 64 KiB, between
// small ones: each decode must agree with a fresh decoder.
func TestSweepEnvelopeLargeDecode(t *testing.T) {
	const large = 64 << 10
	b := encodeEnvelope(t, "large", envelopeSample(200, 1, 2, 100, 0, 0, 1, ""))
	if len(b) <= large {
		t.Fatalf("sample envelope is %d bytes, want over %d", len(b), large)
	}
	small := encodeEnvelope(t, "small", envelopeSample(3, 1, 3, 1, 0, 0, 1, ""))
	for i := 0; i < 3; i++ {
		checkSweepDecodeAgrees(t, "large envelope", b)
		checkSweepDecodeAgrees(t, "small envelope", small)
	}
}

// checkDrawnGrid encodes cells on an nw×np×ns grid, whatever it holds: the
// bytes must be gob's own, and decoding must refuse them unless the
// dimensions are all zero or their product is the cell count.
func checkDrawnGrid(t *testing.T, cells []SweepCell, nw, np, ns int) {
	t.Helper()
	r := &SweepResult{Cells: cells, nw: nw, np: np, ns: ns}
	got := encodeEnvelope(t, "drawn grid", r)
	if want, err := plainEncodeSweepResult(r); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("a %d×%d×%d grid over %d cells: EncodeSweepResult differs from a fresh encoder's (err %v)", nw, np, ns, len(cells), err)
	}
	holds := nw == 0 && np == 0 && ns == 0 || nw >= 0 && np >= 0 && ns >= 0 && int64(nw)*int64(np)*int64(ns) == int64(len(cells))
	if _, err := DecodeSweepResult(got); (err == nil) != holds {
		t.Fatalf("a %d×%d×%d grid over %d cells decoded with error %v", nw, np, ns, len(cells), err)
	}
	checkSweepDecodeAgrees(t, "drawn grid", got)
}

// TestDecodeSweepResultGridMismatch holds DecodeSweepResult to its
// envelope's grid: dimensions that are negative, or whose product is not
// the cell count, even by overflowing to it, are an error, where CellAt
// would index past the cells. All-zero dimensions are an explicit grid,
// valid over any number of cells.
func TestDecodeSweepResultGridMismatch(t *testing.T) {
	half := 1 << (strconv.IntSize / 2) // half·half wraps to 0
	for _, tc := range []struct {
		n, nw, np, ns int
		ok            bool
	}{
		{3, 2, 2, 2, false},
		{8, 2, 2, 2, true},
		{3, 0, 0, 0, true},
		{0, 0, 0, 0, true},
		{0, 1, 0, 3, true},
		{3, 1, 0, 3, false},
		{2, -1, -1, 2, false},
		{0, -1, 0, 0, false},
		{0, half, half, 1, false},
		{1, half, half, 1, false},
	} {
		b := encodeEnvelope(t, "grid", envelopeSample(tc.n, tc.nw, tc.np, tc.ns, 0, 0, 1, ""))
		res, err := DecodeSweepResult(b)
		if (err == nil) != tc.ok {
			t.Errorf("%d cells on a %d×%d×%d grid: decode error %v, want ok=%v", tc.n, tc.nw, tc.np, tc.ns, err, tc.ok)
			continue
		}
		checkSweepDecodeAgrees(t, "grid", b)
		if err == nil && tc.nw > 0 && tc.n > 0 {
			if c := res.CellAt(tc.nw-1, tc.np-1, tc.ns-1); c != &res.Cells[len(res.Cells)-1] {
				t.Errorf("%d cells on a %d×%d×%d grid: CellAt of the last corner is not the last cell", tc.n, tc.nw, tc.np, tc.ns)
			}
		}
	}
}

// TestEncodeSweepResultRefRuns holds the envelope's per-run ref encoding
// to gob's own bytes where a run could wrongly be reused: a run's shared
// ref mutated between encodes, one cell of a run given other parameters,
// refs that differ only in the sign of a zero, runs that return after
// another, and refs to the zero PolicyRef.
func TestEncodeSweepResultRefRuns(t *testing.T) {
	res := table2Result(t, 4)
	before := checkEnvelope(t, "table 2", res)

	// The five policies each share one ref across their seeds.
	shared := res.Cells[0].Config.Policy.Ref
	shared.Params["mhz"] = 59
	mutated := checkEnvelope(t, "mutated params", res)
	if bytes.Equal(mutated, before) {
		t.Fatal("mutating a ref's params left the envelope unchanged")
	}
	shared.Params["mhz"] = 206.4
	if again := checkEnvelope(t, "restored params", res); !bytes.Equal(again, before) {
		t.Fatal("restoring a ref's params did not restore the envelope")
	}

	// One cell in the middle of a run, with a ref of its own.
	split := *shared
	split.Params = map[string]float64{"mhz": 132.7}
	res.Cells[1].Config.Policy.Ref = &split
	checkEnvelope(t, "split run", res)

	zero, negZero := PolicyRef{Name: "constant", Params: map[string]float64{"mhz": 0}}, PolicyRef{Name: "constant", Params: map[string]float64{"mhz": math.Copysign(0, -1)}}
	a, b := PolicyRef{Name: "a"}, PolicyRef{Name: "b", Params: map[string]float64{"x": 1}}
	var empty PolicyRef // non-nil, so gob sends it, though its value is zero
	var r SweepResult
	for _, ref := range []*PolicyRef{&zero, &negZero, &zero, &a, &a, &b, &a, &b, &b, &zero, &empty, &empty, &a} {
		c := SweepCell{Config: Config{Workload: MPEG, Policy: pastPegPegFlat}, Err: errors.New("failed")}
		c.Config.Policy.Ref = ref
		r.Cells = append(r.Cells, c)
	}
	checkEnvelope(t, "interleaved runs", &r)
}

// TestPolicyRefGobEncodeOwnsBytes: a slice GobEncode returned is the
// caller's, so changing it changes no later encoding of the ref, inside an
// envelope or alone.
func TestPolicyRefGobEncodeOwnsBytes(t *testing.T) {
	ref := PolicyRef{Name: "constant", Params: map[string]float64{"mhz": 132.7}}
	first, err := ref.GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Clone(first)
	res := table2Result(t, 2)
	env := checkEnvelope(t, "table 2", res)
	for i := range first {
		first[i] ^= 0xff
	}
	if again, err := ref.GobEncode(); err != nil || !bytes.Equal(again, want) {
		t.Fatalf("GobEncode after its last result was changed: %x, want %x (err %v)", again, want, err)
	}
	wantEnv := bytes.Clone(env)
	clear(env)
	if again := checkEnvelope(t, "after its last bytes were changed", res); !bytes.Equal(again, wantEnv) {
		t.Fatal("the envelope changed after a returned envelope was")
	}
}

// checkEnvelope encodes r and holds it to a fresh encoder's bytes.
func checkEnvelope(t *testing.T, what string, r *SweepResult) []byte {
	t.Helper()
	got := encodeEnvelope(t, what, r)
	if want, err := plainEncodeSweepResult(r); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("%s: EncodeSweepResult differs from a fresh encoder's (err %v)", what, err)
	}
	return got
}

// TestEncodeSweepResultConcurrentRefs encodes envelopes over interleaved
// runs of the same refs from many goroutines at once; run under -race, it
// shows the per-run encodings are each encode's own.
func TestEncodeSweepResultConcurrentRefs(t *testing.T) {
	refs := []*PolicyRef{
		{Name: "constant", Params: map[string]float64{"mhz": 206.4}},
		{Name: "constant", Params: map[string]float64{"mhz": 132.7, "low_voltage": 1}},
		{Name: "past-peg-peg"},
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var r SweepResult
			for i := 0; i < 40; i++ {
				c := SweepCell{Config: Config{Workload: MPEG, Policy: pastPegPegFlat, Seed: uint64(i)}}
				c.Config.Policy.Ref = refs[(i/(1+g%4)+g)%len(refs)]
				if i%3 == 0 {
					c.Err = errors.New("failed")
				} else {
					c.Result = &Result{EnergyJoules: float64(g * i), TimeAtMHz: map[float64]time.Duration{59: time.Duration(i)}}
				}
				r.Cells = append(r.Cells, c)
			}
			for k := 0; k < 20; k++ {
				got, err := EncodeSweepResult(&r)
				if err != nil {
					t.Error(err)
					return
				}
				if want, err := plainEncodeSweepResult(&r); err != nil || !bytes.Equal(got, want) {
					t.Errorf("goroutine %d: EncodeSweepResult differs from a fresh encoder's (err %v)", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestDecodeSweepResultSharesRefRuns: the cells of a run of equal policy
// refs share one decoded *PolicyRef, as a local Sweep's cells share their
// SweepConfig's. Refs with the same name but bit-different parameters, or
// 0 against −0, start new runs, and so does a ref that returns after
// another.
func TestDecodeSweepResultSharesRefRuns(t *testing.T) {
	res := table2Result(t, 4)
	got := roundTrip(t, res)
	for i, c := range got.Cells {
		want := got.Cells[i/4*4].Config.Policy.Ref // five runs of four seeds
		if c.Config.Policy.Ref != want {
			t.Errorf("cell %d: ref %p, want its run's %p", i, c.Config.Policy.Ref, want)
		}
		if !c.Config.Policy.Ref.same(res.Cells[i].Config.Policy.Ref) {
			t.Errorf("cell %d: ref %+v, want %+v", i, *c.Config.Policy.Ref, *res.Cells[i].Config.Policy.Ref)
		}
	}

	mhz := 132.7
	refs := []*PolicyRef{
		{Name: "constant", Params: map[string]float64{"mhz": mhz}},
		{Name: "constant", Params: map[string]float64{"mhz": mhz}},
		{Name: "constant", Params: map[string]float64{"mhz": math.Nextafter(mhz, 0)}},
		{Name: "constant", Params: map[string]float64{"mhz": 0}},
		{Name: "constant", Params: map[string]float64{"mhz": math.Copysign(0, -1)}},
		{Name: "constant", Params: map[string]float64{"mhz": mhz}},
	}
	var r SweepResult
	for _, ref := range refs {
		c := SweepCell{Config: Config{Workload: MPEG, Policy: pastPegPegFlat}, Err: errors.New("failed")}
		c.Config.Policy.Ref = ref
		r.Cells = append(r.Cells, c)
	}
	got = roundTrip(t, &r)
	for i, c := range got.Cells {
		ref := c.Config.Policy.Ref
		if !ref.same(refs[i]) {
			t.Errorf("cell %d: ref %+v, want %+v", i, *ref, *refs[i])
		}
		if shared := i > 0 && ref == got.Cells[i-1].Config.Policy.Ref; shared != (i == 1) {
			t.Errorf("cell %d shares its predecessor's ref: %v, want %v", i, shared, i == 1)
		}
	}
}

// roundTrip encodes r and decodes it again.
func roundTrip(t *testing.T, r *SweepResult) *SweepResult {
	t.Helper()
	back, err := DecodeSweepResult(encodeEnvelope(t, "round trip", r))
	if err != nil {
		t.Fatal(err)
	}
	return back
}

// TestDecodeSweepResultOwnsItsBytes: a decoded result shares no memory with
// its input, so overwriting the input leaves its re-encoding as it was.
func TestDecodeSweepResultOwnsItsBytes(t *testing.T) {
	r := envelopeSample(40, 0, 0, 0, 0xe4, 0x31, 2.5, "failed: ")
	r.Cells = append(r.Cells, table2Result(t, 2).Cells...)
	in := encodeEnvelope(t, "sample", r)
	want := bytes.Clone(in)
	back, err := DecodeSweepResult(in)
	if err != nil {
		t.Fatal(err)
	}
	for i := range in {
		in[i] = ^in[i]
	}
	if again, err := EncodeSweepResult(back); err != nil || !bytes.Equal(again, want) {
		t.Fatalf("re-encoding after the input was overwritten: err %v, bytes equal %v", err, bytes.Equal(again, want))
	}
}

// TestEnvelopeReaderFieldTable: the codec's field table numbers the
// fields gob sends, reads slices of structs and of basic kinds, and
// refuses a struct with any field it cannot read as gob would, leaving
// such an envelope to gob.
func TestEnvelopeReaderFieldTable(t *testing.T) {
	EncodeSweepResult(&SweepResult{})
	warm := envCodec.warm.Load()
	if warm == nil {
		t.Fatal("the envelope codec failed its derive-time check")
	}
	if fields := warm.cellTable(); len(fields.fields) != 3 || fields.fields[1].op != opBytes {
		t.Fatalf("sweepCellEnvelope's table %+v, want three fields, Result read in place", fields.fields)
	}

	type skipped struct {
		C      chan int
		F      func()
		hidden int
		N      int
	}
	if ws := newWireStruct(reflect.TypeFor[skipped](), nil); ws == nil || len(ws.fields) != 1 || ws.fields[0].index != 3 {
		t.Errorf("a struct with chan, func and unexported fields: table %+v, want field 3 alone", ws)
	}
	type self struct{ Next *self }
	type Inner struct{ N int }
	type embedded struct{ Inner }
	for _, typ := range []reflect.Type{
		reflect.TypeFor[struct{ S []int }](),
		reflect.TypeFor[struct{ S []Inner }](),
		reflect.TypeFor[struct{ S [][]string }](),
	} {
		if ws := newWireStruct(typ, nil); ws == nil || ws.fields[0].op != opSlice {
			t.Errorf("%v: table %+v, want a slice", typ, ws)
		}
	}
	for _, typ := range []reflect.Type{
		reflect.TypeFor[struct{ M map[string]int }](),
		reflect.TypeFor[struct{ S []*Inner }](),     // gob cannot send a nil element
		reflect.TypeFor[struct{ S []*PolicyRef }](), // nor a nil ref
		reflect.TypeFor[struct{ P *int }](),
		reflect.TypeFor[struct{ A [2]byte }](),
		reflect.TypeFor[struct{ I any }](),
		reflect.TypeFor[struct{ T time.Time }](),  // a BinaryMarshaler
		reflect.TypeFor[struct{ T *time.Time }](), // through a pointer
		reflect.TypeFor[struct{ R PolicyRef }](),  // a GobEncoder not behind its pointer
		reflect.TypeFor[struct{ S struct{ M map[int]int } }](),
		reflect.TypeFor[self](),
		reflect.TypeFor[embedded](),
	} {
		if ws := newWireStruct(typ, nil); ws != nil {
			t.Errorf("%v: got a table, want none", typ)
		}
	}

	// The check has teeth: a table that swaps two fields of one kind,
	// CellSpec's Duration and DeadlineSlack, fails it.
	bad := *warm
	bad.table = newWireStruct(reflect.TypeFor[sweepResultEnvelope](), nil)
	spec := bad.cellTable().fields[0].elem.fields
	spec[3].index, spec[4].index = spec[4].index, spec[3].index
	if checkTable[sweepResultEnvelope](&bad) {
		t.Error("a table that swaps Duration and DeadlineSlack passed the check")
	}
}

// TestEnvelopeReaderSampleRefs: the refs the reader's check carries decode
// to the names and parameters they stand for, the sign of a zero kept.
func TestEnvelopeReaderSampleRefs(t *testing.T) {
	for _, want := range []PolicyRef{
		{Name: "constant", Params: map[string]float64{"mhz": 0}},
		{Name: "constant", Params: map[string]float64{"mhz": math.Copysign(0, -1)}},
		{Name: strings.Repeat("p", 130), Params: map[string]float64{"lo_percent": 93}},
	} {
		var key string
		for key = range want.Params {
		}
		var got PolicyRef
		if err := got.GobDecode(sampleRef(want.Name, key, want.Params[key]).wire); err != nil {
			t.Fatal(err)
		}
		if !got.same(&want) {
			t.Errorf("sampleRef decodes to %+v, want %+v", got, want)
		}
	}
}

// TestDecodeSweepResultConcurrent decodes envelopes from many goroutines
// at once; run under -race, it shows the reader shares nothing mutable
// between decodes but its immutable field table.
func TestDecodeSweepResultConcurrent(t *testing.T) {
	var envs [][]byte
	for _, r := range []*SweepResult{table2Result(t, 3), envelopeSample(50, 0, 0, 0, 0xb1, 0x23, 0.5, "x")} {
		envs = append(envs, encodeEnvelope(t, "sample", r))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 10; k++ {
				want := envs[(g+k)%len(envs)]
				back, err := DecodeSweepResult(want)
				if err != nil {
					t.Error(err)
					return
				}
				if got, err := EncodeSweepResult(back); err != nil || !bytes.Equal(got, want) {
					t.Errorf("goroutine %d: decode and re-encode changed the envelope (err %v)", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestDecodeSweepResultEditedCells makes every single-byte edit of a few
// kinds at every offset of each cell's spec, where a cell's fields lie,
// and holds DecodeSweepResult to a fresh decoder on each: a bool read as
// anything but non-zero, an integer or length read a byte off, a field
// delta out of range let through. Fuzzing reaches these offsets only by
// chance, since a cell's Result bytes make up most of its body.
func TestDecodeSweepResultEditedCells(t *testing.T) {
	r := envelopeSample(6, 0, 0, 0, 0x55, 0x11, 1.5, "e") // error cells: a spec each, no Result
	env := encodeEnvelope(t, "error cells", r)
	bodies := cellBodies(t, r, env)
	for c, body := range bodies {
		for off := 0; off < min(body[1]-body[0], 64); off++ {
			for _, e := range [][]byte{{0, 2}, {0, 0xff}, {1, 1}, {2, 0}} {
				checkCellEdits(t, env, bodies, []byte{byte(c), byte(off), e[0], e[1]})
			}
		}
	}
}

// TestEncodeSweepResultCellOrder is a metamorphic test of the envelope
// writer: an explicit-cell sweep of Table 2 (five policies × four seeds)
// run in grid order and in a seeded permutation must give every cell the
// same Result bytes and decoded Config in both envelopes, both written by
// writeEnvelope. The writer's state shared between cells — the residency
// scratch and the runs of equal policy refs, which a permutation breaks
// up — must carry nothing from one cell to the next.
func TestEncodeSweepResultCellOrder(t *testing.T) {
	grid, err := Table2Config(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	var cells []Config
	for _, p := range grid.Policies {
		for _, s := range grid.Seeds {
			cells = append(cells, Config{Workload: MPEG, Policy: p, Seed: s, Duration: 10 * time.Second})
		}
	}
	perm := rand.New(rand.NewPCG(1, 2)).Perm(len(cells))
	shuffled := make([]Config, len(cells))
	for i, j := range perm {
		shuffled[i] = cells[j]
	}
	read := func(cells []Config) *cellRecorder {
		res, err := Sweep(context.Background(), SweepConfig{Cells: cells, FailFast: true})
		if err != nil {
			t.Fatal(err)
		}
		b := checkEnvelope(t, "explicit cells", res)
		var rec cellRecorder
		if !readEnvelope(envCodec.warm.Load(), b, &rec) {
			t.Fatal("the envelope reader refused an envelope EncodeSweepResult wrote")
		}
		return &rec
	}
	inOrder, permuted := read(cells), read(shuffled)
	for i, j := range perm {
		if !bytes.Equal(permuted.results[i], inOrder.results[j]) {
			t.Errorf("cell %d (%v seed %d): its Result bytes moved with its place in the envelope", j, cells[j].Policy.Name(), cells[j].Seed)
		}
		if !reflect.DeepEqual(permuted.configs[i], inOrder.configs[j]) {
			t.Errorf("cell %d: decoded Config %+v in the permuted envelope, %+v in grid order", j, permuted.configs[i], inOrder.configs[j])
		}
	}
}

// cellRecorder keeps each cell readEnvelope reads: its Result bytes,
// copied, and its Config.
type cellRecorder struct {
	results [][]byte
	configs []Config
}

func (c *cellRecorder) open(*sweepResultEnvelope, int) error { return nil }

func (c *cellRecorder) cell(_ int, ce *sweepCellEnvelope) error {
	c.results = append(c.results, bytes.Clone(ce.Result))
	c.configs = append(c.configs, ce.Spec.config())
	return nil
}
