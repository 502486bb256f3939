package clocksched

import (
	"bytes"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"sync"
	"testing"
	"time"
)

// raceEnabled is set in race-detector builds.
var raceEnabled bool

// codecSample is one 5 s MPEG cell's Result, the size of a short sweep cell.
func codecSample(tb testing.TB) *Result {
	tb.Helper()
	res, err := Run(Config{Workload: MPEG, Policy: mustPolicy(tb, "past-peg-peg", nil), Seed: 1, Duration: 5 * time.Second})
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// checkDecodeAgrees decodes in through the codec and through a fresh
// gob.Decoder: both must fail with the same error or both succeed with the
// same value, compared by canonical bytes so NaNs compare equal.
func checkDecodeAgrees(t *testing.T, what string, in []byte) {
	t.Helper()
	var warm, fresh resultWire
	warmErr := codec.decode(in, &warm)
	freshErr := freshDecode(in, &fresh)
	if fmt.Sprint(warmErr) != fmt.Sprint(freshErr) {
		t.Fatalf("%s: codec decode error %v, fresh decoder %v", what, warmErr, freshErr)
	}
	if warmErr != nil {
		return
	}
	a, errA := freshEncode(&warm)
	b, errB := freshEncode(&fresh)
	if errA != nil || errB != nil || !bytes.Equal(a, b) {
		t.Fatalf("%s: codec decoded %+v, fresh decoder %+v", what, warm, fresh)
	}
}

// FuzzResultCodec checks the pooled codec against gob's fresh encoder and
// decoder: every encode byte for byte, and every decode of a truncated,
// corrupted or forged input in its success or its error.
func FuzzResultCodec(f *testing.F) {
	f.Add(1.5, 3, int64(time.Millisecond), true, false, []byte{59, 132, 206}, []byte{1, 2, 3}, uint16(40), uint16(7), byte(0x10), []byte{3, 0xff, 0x82, 0})
	f.Add(0.0, 0, int64(0), false, true, []byte(nil), []byte(nil), uint16(0), uint16(0), byte(0), []byte(nil))
	f.Fuzz(func(t *testing.T, energy float64, misses int, late int64, faults, watchdog bool,
		residency, trace []byte, cut, flip uint16, xor byte, tail []byte) {
		w := resultWire{
			EnergyJoules:  energy,
			AvgPowerWatts: energy / 3,
			Deadlines:     misses * 2,
			Misses:        misses,
			MaxLateness:   time.Duration(late),
			StallTime:     time.Duration(late / 7),
			IdleShare:     float64(len(trace)) / 10,
			Telemetry:     RunTelemetry{EventsFired: uint64(len(residency)), Quanta: misses},
		}
		for i, b := range residency {
			w.Residency = append(w.Residency, residencyWire{MHz: float64(b) * 0.8, D: time.Duration(i) * time.Millisecond})
		}
		for i, b := range trace {
			w.Trace = append(w.Trace, UtilPoint{At: time.Duration(i) * 10 * time.Millisecond, Utilization: float64(b) / 255, MHz: 206.4})
		}
		if faults {
			w.Faults = &FaultReport{ClockChangeFails: misses, ExtraStallTime: time.Duration(late), Total: misses + 1}
		}
		if watchdog {
			w.Watchdog = &WatchdogReport{Trips: misses, InSafeMode: faults}
		}

		got, err := codec.encode(&w)
		if err != nil {
			t.Fatal(err)
		}
		want, err := freshEncode(&w)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("pooled encode differs from a fresh encoder's:\n%x\n%x", got, want)
		}
		var back resultWire
		if err := codec.decode(got, &back); err != nil {
			t.Fatalf("round trip: %v", err)
		}
		if again, err := codec.encode(&back); err != nil || !bytes.Equal(again, got) {
			t.Fatalf("round trip is not canonical (err %v)", err)
		}

		checkDecodeAgrees(t, "truncated", got[:int(cut)%(len(got)+1)])
		corrupt := bytes.Clone(got)
		corrupt[int(flip)%len(corrupt)] ^= xor
		checkDecodeAgrees(t, "corrupted", corrupt)
		checkDecodeAgrees(t, "forged", append(bytes.Clone(codec.warm.Load().prefix), tail...))
	})
}

// TestResultCodecConcurrent shares the codecs' pools, the Result's and the
// sweep envelope's, between goroutines; run it under -race.
func TestResultCodecConcurrent(t *testing.T) {
	base := codecSample(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				r := *base
				r.EnergyJoules += float64(g*100 + i)
				r.Misses = i
				got, err := encodeResult(&r)
				if err != nil {
					t.Error(err)
					return
				}
				back, err := decodeResult(got)
				if err != nil {
					t.Error(err)
					return
				}
				if back.EnergyJoules != r.EnergyJoules || back.Misses != r.Misses {
					t.Errorf("goroutine %d: decoded %v J / %d misses, encoded %v J / %d", g,
						back.EnergyJoules, back.Misses, r.EnergyJoules, r.Misses)
					return
				}
				w := resultWire{EnergyJoules: r.EnergyJoules, Misses: r.Misses}
				pooled, err := codec.encode(&w)
				if err != nil {
					t.Error(err)
					return
				}
				if fresh, err := freshEncode(&w); err != nil || !bytes.Equal(pooled, fresh) {
					t.Errorf("goroutine %d: pooled encode differs from a fresh encoder's", g)
					return
				}
				if i%5 != 0 {
					continue
				}
				sr := envelopeSample(g+i/5, 1, 2, 3, byte(g), byte(i), r.EnergyJoules, "failed")
				env, err := EncodeSweepResult(sr)
				if err != nil {
					t.Error(err)
					return
				}
				if want, err := plainEncodeSweepResult(sr); err != nil || !bytes.Equal(env, want) {
					t.Errorf("goroutine %d: EncodeSweepResult differs from a fresh encoder's", g)
					return
				}
				srBack, err := DecodeSweepResult(env)
				if err != nil {
					t.Error(err)
					return
				}
				if again, err := EncodeSweepResult(srBack); err != nil || !bytes.Equal(again, env) {
					t.Errorf("goroutine %d: sweep envelope round trip is not canonical (err %v)", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestResultCodecAllocs guards the per-cell codec cost, as
// TestTable2CellAllocBytes guards the simulation's: a fresh gob encoder
// re-sends every type descriptor and a fresh decoder recompiles its engine
// on every cell (38 and 401 allocations for this Result).
func TestResultCodecAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled codecs at random")
	}
	const maxEncode, maxDecode = 8, 16
	res := codecSample(t)
	b, err := encodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	enc := testing.AllocsPerRun(100, func() {
		if _, err := encodeResult(res); err != nil {
			t.Fatal(err)
		}
	})
	dec := testing.AllocsPerRun(100, func() {
		if _, err := decodeResult(b); err != nil {
			t.Fatal(err)
		}
	})
	if enc > maxEncode || dec > maxDecode {
		t.Errorf("codec allocates %.0f per encode and %.0f per decode, want at most %d and %d",
			enc, dec, maxEncode, maxDecode)
	}
}

// codecProbe is a type no other code encodes; its gob bytes carry the type
// id the process gave it.
type codecProbe struct{ N int }

// typeIDSample is the sweep result the type-id subprocess tests encode:
// cells with Results, with errors, and with registry references.
func typeIDSample() *SweepResult { return envelopeSample(6, 1, 2, 3, 0x24, 1, 1.5, "failed") }

// TestResultCodecTypeIDsChild is the subprocess half of
// TestResultCodecDecodeFirstKeepsTypeIDs. Its first gob action is the one
// CLOCKSCHED_CODEC_CHILD names, on the input CLOCKSCHED_CODEC_CHILD_INPUT
// holds; then it prints the gob bytes of a probe value, a sweep result, a
// Result and a policy reference. With CLOCKSCHED_CODEC_CHILD_PLAIN set it
// leaves every pooled codec cold and encodes and decodes sweep results
// with the plain reference code, as the package did before its codecs
// were pooled. It skips unless the parent set the environment.
func TestResultCodecTypeIDsChild(t *testing.T) {
	first, ok := os.LookupEnv("CLOCKSCHED_CODEC_CHILD")
	if !ok {
		t.Skip("subprocess helper; run via TestResultCodecDecodeFirstKeepsTypeIDs")
	}
	encodeSweep, decodeSweep := EncodeSweepResult, DecodeSweepResult
	if os.Getenv("CLOCKSCHED_CODEC_CHILD_PLAIN") != "" {
		for _, o := range []*sync.Once{&codec.once, &refCodec.once, &cellCodec.once, &envCodec.once} {
			o.Do(func() {})
		}
		encodeSweep, decodeSweep = plainEncodeSweepResult, plainDecodeSweepResult
	}
	in, err := hex.DecodeString(os.Getenv("CLOCKSCHED_CODEC_CHILD_INPUT"))
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	emit := func(name string, b []byte, err error) {
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, fmt.Sprintf("%s %x", name, b))
	}
	switch first {
	case "none":
	case "decode-result":
		_, err = decodeResult(in)
	case "decode-sweep":
		_, err = decodeSweep(in)
	case "decode-ref":
		err = new(PolicyRef).GobDecode(in)
	case "encode-errors", "encode-errors-flat":
		r := typeIDSample()
		for i := range r.Cells {
			r.Cells[i].Result, r.Cells[i].Err = nil, fmt.Errorf("cell %d failed", i)
			if first == "encode-errors-flat" {
				r.Cells[i].Config.Policy.Ref = nil
			}
		}
		b, err := encodeSweep(r)
		emit("errors", b, err)
	default:
		t.Fatalf("unknown first action %q", first)
	}
	if err != nil {
		t.Fatal(err)
	}
	var probe bytes.Buffer
	emit("probe", probe.Bytes(), gob.NewEncoder(&probe).Encode(codecProbe{N: 7}))
	sweep, err := encodeSweep(typeIDSample())
	emit("sweep", sweep, err)
	res, err := encodeResult(&Result{EnergyJoules: 1.5, TimeAtMHz: map[float64]time.Duration{59: time.Second}})
	emit("result", res, err)
	ref, err := PolicyRef{Name: "constant", Params: map[string]float64{"mhz": 59}}.GobEncode()
	emit("ref", ref, err)
	again, err := encodeSweep(typeIDSample())
	emit("sweep", again, err)
	fmt.Printf("codec-child-output\n%s\ncodec-child-end\n", strings.Join(out, "\n"))
}

// TestResultCodecDecodeFirstKeepsTypeIDs runs child processes whose first
// gob action is decoding a Result, a sweep result or a policy reference (a
// fabric coordinator verifying a shard, a daemon serving a disk-cache hit),
// or encoding a sweep result whose cells all failed (so no Result is
// encoded before the envelope), with and without registry references, and
// compares each with a sibling that
// takes the same first action on plain gob. gob numbers types as a process
// first encodes them, so if a pooled codec registered a type sooner or
// later than plain gob does, every type encoded after it would carry a
// different id and different bytes.
func TestResultCodecDecodeFirstKeepsTypeIDs(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	result, err := encodeResult(codecSample(t))
	if err != nil {
		t.Fatal(err)
	}
	sweep, err := EncodeSweepResult(typeIDSample())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := PolicyRef{Name: "past-peg-peg", Params: map[string]float64{"lo_percent": 90, "voltage_scale": 1}}.GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	run := func(first string, input []byte, plain bool) string {
		child := exec.Command(os.Args[0], "-test.run=^TestResultCodecTypeIDsChild$", "-test.v")
		child.Env = append(os.Environ(), "CLOCKSCHED_CODEC_CHILD="+first, "CLOCKSCHED_CODEC_CHILD_INPUT="+hex.EncodeToString(input))
		if plain {
			child.Env = append(child.Env, "CLOCKSCHED_CODEC_CHILD_PLAIN=1")
		}
		out, err := child.CombinedOutput()
		if err != nil {
			t.Fatalf("child %s (plain %v): %v\n%s", first, plain, err, out)
		}
		_, body, ok := strings.Cut(string(out), "codec-child-output\n")
		body, _, end := strings.Cut(body, "\ncodec-child-end")
		if !ok || !end {
			t.Fatalf("child %s (plain %v) printed no output:\n%s", first, plain, out)
		}
		return body
	}
	for _, c := range []struct {
		first string
		input []byte
	}{
		{"none", nil},
		{"decode-result", result},
		{"decode-sweep", sweep},
		{"decode-ref", ref},
		{"encode-errors", nil},
		{"encode-errors-flat", nil},
	} {
		if pooled, plain := run(c.first, c.input, false), run(c.first, c.input, true); pooled != plain {
			t.Errorf("first action %s: pooled codecs gave gob types other ids than plain gob:\npooled:\n%s\nplain:\n%s", c.first, pooled, plain)
		}
	}
}
