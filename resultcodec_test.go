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
	res, err := Run(Config{Workload: MPEG, Policy: PASTPegPeg(), Seed: 1, Duration: 5 * time.Second})
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

// TestResultCodecConcurrent shares the codec's pools between goroutines;
// run it under -race.
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

// TestResultCodecTypeIDsChild is the subprocess half of
// TestResultCodecDecodeFirstKeepsTypeIDs: it optionally decodes a Result
// first, then prints the gob bytes of a probe value and of a Result. It
// skips unless the parent set the environment variable.
func TestResultCodecTypeIDsChild(t *testing.T) {
	first, ok := os.LookupEnv("CLOCKSCHED_CODEC_CHILD_DECODE")
	if !ok {
		t.Skip("subprocess helper; run via TestResultCodecDecodeFirstKeepsTypeIDs")
	}
	if first != "" {
		b, err := hex.DecodeString(first)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := decodeResult(b); err != nil {
			t.Fatal(err)
		}
	}
	var probe bytes.Buffer
	if err := gob.NewEncoder(&probe).Encode(codecProbe{N: 7}); err != nil {
		t.Fatal(err)
	}
	res, err := encodeResult(&Result{EnergyJoules: 1.5, TimeAtMHz: map[float64]time.Duration{59: time.Second}})
	if err != nil {
		t.Fatal(err)
	}
	fmt.Printf("probe %x\nresult %x\n", probe.Bytes(), res)
}

// TestResultCodecDecodeFirstKeepsTypeIDs runs a process whose first gob
// action is decoding a Result — a fabric coordinator verifying a shard, a
// daemon serving a disk-cache hit — beside one that decodes nothing. gob
// numbers types as a process first encodes them, so if the decode had
// registered resultWire's types, every type encoded later would carry a
// different id and different bytes.
func TestResultCodecDecodeFirstKeepsTypeIDs(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	b, err := encodeResult(codecSample(t))
	if err != nil {
		t.Fatal(err)
	}
	run := func(decodeFirst string) string {
		child := exec.Command(os.Args[0], "-test.run=^TestResultCodecTypeIDsChild$", "-test.v")
		child.Env = append(os.Environ(), "CLOCKSCHED_CODEC_CHILD_DECODE="+decodeFirst)
		out, err := child.CombinedOutput()
		if err != nil {
			t.Fatalf("child: %v\n%s", err, out)
		}
		var lines []string
		for _, l := range strings.Split(string(out), "\n") {
			if strings.HasPrefix(l, "probe ") || strings.HasPrefix(l, "result ") {
				lines = append(lines, l)
			}
		}
		if len(lines) != 2 {
			t.Fatalf("child printed no probe and result:\n%s", out)
		}
		return strings.Join(lines, "\n")
	}
	if plain, decodeFirst := run(""), run(hex.EncodeToString(b)); plain != decodeFirst {
		t.Errorf("decoding a Result first changed gob's type ids:\nencode only:\n%s\ndecode first:\n%s", plain, decodeFirst)
	}
}
