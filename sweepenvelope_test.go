package clocksched

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
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

// envelopeSample is a SweepResult of n synthetic cells, shaped by the
// fuzzer: kinds picks each cell's Result, error or neither, refParams how
// many parameters (0..3) each registry reference carries.
func envelopeSample(n int, nw, np, ns int, kinds, refParams byte, energy float64, errText string) *SweepResult {
	r := &SweepResult{nw: nw, np: np, ns: ns}
	params := []string{"mhz", "low_voltage", "lo_percent"}
	for i := 0; i < n; i++ {
		c := SweepCell{Config: Config{Workload: Workloads()[i%len(Workloads())], Policy: PASTPegPeg(), Seed: uint64(i) * 977, Duration: time.Duration(i) * time.Millisecond}}
		if k := (int(refParams) + i) % 5; k < 4 {
			ref := &PolicyRef{Name: fmt.Sprintf("ref-%d", i%7)}
			for j := 0; j < k; j++ {
				if ref.Params == nil {
					ref.Params = map[string]float64{}
				}
				ref.Params[params[j]] = float64(i*j) + energy
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
// dimensions, and registry references with 0 to 3 parameters. Decoding of
// truncated, bit-flipped and forged envelopes and references must match a
// fresh decoder in value and error text.
func FuzzSweepResultCodec(f *testing.F) {
	f.Add(uint16(0), int16(0), int16(0), int16(0), byte(0), byte(0), 1.5, "", uint16(0), uint16(0), byte(0), []byte(nil))
	f.Add(uint16(5), int16(1), int16(5), int16(1), byte(0xff), byte(4), 0.0, "boom", uint16(300), uint16(17), byte(0x40), []byte{5, 0xff, 0x82})
	f.Add(uint16(130), int16(0), int16(-7), int16(200), byte(0x55), byte(1), 2.25, "cell failed: ", uint16(9000), uint16(1234), byte(0x01), []byte{0x7f})
	f.Add(uint16(140), int16(-1), int16(0), int16(0), byte(0x1b), byte(2), math.Inf(1), "x", uint16(40), uint16(5), byte(0x80), []byte{0x81, 0x80, 0})
	f.Fuzz(func(t *testing.T, n uint16, nw, np, ns int16, kinds, refParams byte, energy float64,
		errText string, cut, flip uint16, xor byte, tail []byte) {
		r := envelopeSample(int(n%300), int(nw), int(np), int(ns), kinds, refParams, energy, errText)
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
