package clocksched

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"strconv"
	"sync"
	"testing"
	"time"
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
// with the same value, compared by canonical bytes.
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
	a, errA := plainEncodeSweepResult(got)
	b, errB := plainEncodeSweepResult(want)
	if fmt.Sprint(errA) != fmt.Sprint(errB) || !bytes.Equal(a, b) {
		t.Fatalf("%s: DecodeSweepResult and a fresh decoder disagree", what)
	}
}

// checkRefDecodeAgrees decodes in as a PolicyRef's gob form through the
// pooled codec and through a fresh decoder.
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
// text.
func FuzzSweepResultCodec(f *testing.F) {
	f.Add(uint16(0), int16(0), int16(0), int16(0), byte(0), byte(0), 1.5, "", uint16(0), uint16(0), byte(0), []byte(nil))
	f.Add(uint16(5), int16(1), int16(5), int16(1), byte(0xff), byte(4), 0.0, "boom", uint16(300), uint16(17), byte(0x40), []byte{5, 0xff, 0x82})
	f.Add(uint16(130), int16(0), int16(-7), int16(200), byte(0x55), byte(1), 2.25, "cell failed: ", uint16(9000), uint16(1234), byte(0x01), []byte{0x7f})
	f.Add(uint16(140), int16(-1), int16(0), int16(0), byte(0x1b), byte(2), math.Inf(1), "x", uint16(40), uint16(5), byte(0x80), []byte{0x81, 0x80, 0})
	f.Add(uint16(0), int16(3), int16(5), int16(-10), byte(0x36), byte(0x71), 3.0, "y", uint16(77), uint16(99), byte(0x10), []byte{1})
	f.Add(uint16(60), int16(2), int16(-4), int16(29), byte(0x00), byte(0xf3), -1.0, "", uint16(500), uint16(3), byte(0x02), []byte(nil))
	f.Fuzz(func(t *testing.T, n uint16, nw, np, ns int16, kinds, refParams byte, energy float64,
		errText string, cut, flip uint16, xor byte, tail []byte) {
		cells, gw, gp, gs := int(n%300), 0, 0, 0
		if nw != 0 && np != 0 && ns != 0 {
			gw, gp, gs = 1+int(uint16(nw))%3, 1+int(uint16(np))%5, 1+int(uint16(ns))%30
			cells = gw * gp * gs
		}
		r := envelopeSample(cells, gw, gp, gs, kinds, refParams, energy, errText)
		got, err := EncodeSweepResult(r)
		if err != nil {
			t.Fatal(err)
		}
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
		if again, err := EncodeSweepResult(back); err != nil || !bytes.Equal(again, got) {
			t.Fatalf("round trip is not canonical (err %v)", err)
		}

		checkSweepDecodeAgrees(t, "truncated", got[:int(cut)%(len(got)+1)])
		corrupt := bytes.Clone(got)
		corrupt[int(flip)%len(corrupt)] ^= xor
		checkSweepDecodeAgrees(t, "corrupted", corrupt)
		checkSweepDecodeAgrees(t, "forged", append(bytes.Clone(envCodec.warm.Load().prefix), tail...))

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
				t.Fatalf("pooled ref encode differs from a fresh encoder's (err %v)", err)
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

// TestSweepEnvelopeLargeDecode decodes an envelope larger than
// retainLimit, after which a pooled decoder rereads the warm-up message
// before it goes back to the pool: the next decodes must still agree with
// a fresh decoder.
func TestSweepEnvelopeLargeDecode(t *testing.T) {
	b, err := EncodeSweepResult(envelopeSample(200, 1, 2, 100, 0, 0, 1, ""))
	if err != nil {
		t.Fatal(err)
	}
	if len(b) <= retainLimit {
		t.Fatalf("sample envelope is %d bytes, want over %d", len(b), retainLimit)
	}
	small, err := EncodeSweepResult(envelopeSample(3, 1, 3, 1, 0, 0, 1, ""))
	if err != nil {
		t.Fatal(err)
	}
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
	got, err := EncodeSweepResult(r)
	if err != nil {
		t.Fatal(err)
	}
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
		b, err := EncodeSweepResult(envelopeSample(tc.n, tc.nw, tc.np, tc.ns, 0, 0, 1, ""))
		if err != nil {
			t.Fatal(err)
		}
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
// refs that differ only in the sign of a zero, and runs that return after
// another.
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
	var r SweepResult
	for _, ref := range []*PolicyRef{&zero, &negZero, &zero, &a, &a, &b, &a, &b, &b, &zero} {
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
	got, err := EncodeSweepResult(r)
	if err != nil {
		t.Fatal(err)
	}
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
