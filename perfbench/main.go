// Command perfbench is the repository's benchmark. It measures what it
// costs the clocksched stack to turn policy × workload cells into verified
// results, locally, through the sweepd daemon, across the fabric and as a
// fleet, and breaks the time of each down into layers.
//
// A run measures one workload, chosen with -workload:
//
//   - table2-serial: the paper's Table 2 grid (5 policies × MPEG 60 s) over
//     100 seeds, 500 cells, through clocksched.Sweep on one worker with no
//     cache and no journal. Nearly all host time is in the
//     sim/kernel/policy/daq hot loop and no durable or network layer runs,
//     so simulator optimisations show here and nowhere else.
//   - fleet-durable: a 200-device fleet (2 s sessions, 0.5 s arrival
//     spread, the default class mix, the eight registered policies plus a
//     pinned 59 MHz constant that gives the feasibility pre-pass real
//     skips) through the calls fleet.RunPlan makes for a local fleet,
//     clocksched.Sweep on nproc workers and then fleet.Reduce, with a disk
//     cache and a journal in a fresh directory every round. Short cold
//     cells make the per-cell fixed costs dominate: workload construction,
//     gob encode, cache put and journal fsync.
//   - sweepd-jobs: an in-process sweepd daemon behind loopback HTTP and a
//     closed loop of nproc clients submitting 300 two-cell jobs, every second
//     one a repeat the cache serves. HTTP, the manifest and journal fsyncs
//     and SSE dominate; cold writes sit beside cache reads, so a cache or
//     codec change that helps one path and hurts the other shows.
//   - fabric-1peer: the fabric coordinator with its default configuration
//     leasing the Table 2 grid over 40 seeds (200 cells) to one
//     in-process sweepd peer: submit, status polls, result fetch, sha256
//     verify, ledger fsync and merge.
//
// Every input is generated from -seed. A run sets up fresh state and runs
// one untimed warm-up round, then repeats set-up and a timed round of the
// same fixed work until -seconds have passed, and reports each metric as
// its median over the rounds. Every round hashes its canonical output;
// rounds must agree with each other, sweepd-jobs and fabric-1peer with a
// local serial clocksched.Sweep of the same specs, and at the default seed
// every workload with the digests committed in digests.json. The last line
// of standard output is the result:
//
//	{"correct": true, "attempted": 9000, "failed": 0, "metrics": {...}}
//
// The metrics are set-up time, peak resident memory and bytes allocated per
// cell. The run's full record, printed before the result, adds quartiles,
// provenance, cells/s and the latency percentiles of the workloads that
// observe them.
//
// With -trace 1 the run alternates untraced and traced rounds. Traced
// rounds record spans around the calls into each layer (through
// clocksched.DiskFS/journal.FS, the service client's RoundTripper and the
// sweep telemetry). After each, a simulator probe runs the Table 2 grid
// through expt.RunContext under a timing kernel.SpeedPolicy. The per-layer
// metrics replace the end-to-end ones, an attribution table (Σ layer self
// time + residual = traced round wall time) goes to standard error and the
// spans to a JSON file under -workdir.
//
// Usage:
//
//	bash perfbench/run.sh --workload table2-serial --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --workload all --seed 7 --out runs.jsonl
//	bash perfbench/run.sh -compare base.jsonl change.jsonl
//
// -workload all runs every workload in turn, each in a child process of
// its own so its memory peak is its own.
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"

	"clocksched"
)

// defaultSeed is the seed whose output digests digests.json records.
const defaultSeed = 1

//go:embed digests.json
var digestsJSON []byte

// endToEnd are the metrics an untraced run reports, every workload alike.
// Throughput and latency are not among them: on a 2-CPU shared virtual
// machine, neighbours slow the simulator's memory-bound code by up to a
// half for seconds to minutes at a time, so cells/s over ten runs of this
// length spreads by up to 44% (interquartile range over median), more than
// a bound of 10% can judge. They are in the full record's extra.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "max_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "alloc_mb_per_cell", Unit: "MB/cell", Better: "lower"},
}

// shareLayers are the rows of the attribution table; each is also reported
// as the per-layer metric "<layer>.share", its fraction of the traced round.
// Every row is timed in the round itself: a span, a telemetry timer, or a
// timed span's self time less the timed calls inside it. What no row times
// is the residual.
var shareLayers = []string{
	"cell", "codec", "gate", "cache", "journal", "store",
	"service.submit", "service.events", "service.status", "service.result", "client",
	"fabric.peer_wait", "fabric.poll_lag", "fleet.compile", "fleet.reduce",
}

// perLayer are the metrics a traced run reports.
var perLayer = func() []metricDef {
	ms := []metricDef{
		{Name: "kernel.run_us_per_cell", Unit: "us", Better: "lower"},
		{Name: "sim.ns_per_event", Unit: "ns", Better: "lower"},
		{Name: "policy.decide_ns", Unit: "ns", Better: "lower"},
		{Name: "daq.integrate_us_per_cell", Unit: "us", Better: "lower"},
		{Name: "codec.encode_us_per_cell", Unit: "us", Better: "lower"},
		{Name: "codec.decode_us_per_cell", Unit: "us", Better: "lower"},
		{Name: "trace.round_s", Unit: "s", Better: "lower"},
		{Name: "trace.overhead_frac", Unit: "frac", Better: "lower"},
		{Name: "trace.residual_frac", Unit: "frac", Better: "lower"},
		{Name: "sim.events_per_cell", Unit: "count", Better: "lower"},
		{Name: "kernel.quanta_per_cell", Unit: "count", Better: "lower"},
		{Name: "daq.samples_per_cell", Unit: "count", Better: "lower"},
		{Name: "cache.hit_ratio", Unit: "frac", Better: "higher"},
		{Name: "journal.fsyncs_per_cell", Unit: "count", Better: "lower"},
		{Name: "journal.bytes_per_cell", Unit: "bytes", Better: "lower"},
		{Name: "service.requests_per_job", Unit: "count", Better: "lower"},
		{Name: "fabric.shards", Unit: "count", Better: "lower"},
		{Name: "fabric.status_polls_per_shard", Unit: "count", Better: "lower"},
		{Name: "fleet.skip_rate", Unit: "frac", Better: "higher"},
	}
	for _, l := range shareLayers {
		ms = append(ms, metricDef{Name: l + ".share", Unit: "frac", Better: "lower"})
	}
	return ms
}()

// minRounds is the fewest timed rounds an untraced run reports medians
// over, however short -seconds is; a traced run needs two of each kind.
// max_rss_mb is the peak over the warm-up and this many rounds: a peak over
// fewer rounds varied by more than 3% between runs with the heap's
// garbage-collection timing.
const minRounds = 6

// setupsPerRound is how often set-up is timed per round: the round's own
// set-up and extra ones torn down at once. setup_s is the median over the
// rounds of each round's fastest set-up. The daemon workloads' set-up, well
// under a millisecond, creates files, and while a neighbour on a shared
// host keeps the disk busy most such set-ups wait on it for ten times as
// long; work added to set-up slows every one, the fastest too.
const setupsPerRound = 9

// options configures one run.
type options struct {
	workload *workload
	seed     uint64
	seconds  float64
	trace    bool
	workdir  string
	small    bool // tiny inputs, for the package's own tests
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// stat is a metric in the full record: its median with quartiles and the
// sample count behind it.
type stat struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

func statOf(xs []float64, unit string) stat {
	d := summarize(xs)
	return stat{Value: d.Median, Unit: unit, Q1: d.Q1, Q3: d.Q3, N: d.N}
}

// provenance records what a run measured on.
type provenance struct {
	NumCPU       int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	GoVersion    string  `json:"go_version"`
	SimVersion   string  `json:"sim_version"`
	Seed         uint64  `json:"seed"`
	Seconds      float64 `json:"seconds"`
	Rounds       int     `json:"rounds"`
	TracedRounds int     `json:"traced_rounds,omitempty"`
	Small        bool    `json:"small,omitempty"`
	// Parallel marks figures of workloads that run nproc workers or
	// clients: on a 1-CPU host they measure one worker, and their
	// parallel scaling is unmeasured.
	Parallel string `json:"parallel,omitempty"`
}

// record is everything one run reports; -out appends it as one JSON line.
type record struct {
	Workload   string          `json:"workload"`
	Seed       uint64          `json:"seed"`
	Trace      bool            `json:"trace"`
	Correct    bool            `json:"correct"`
	Attempted  int             `json:"attempted"`
	Failed     int             `json:"failed"`
	Digest     string          `json:"digest"`
	Problems   []string        `json:"problems,omitempty"`
	Provenance provenance      `json:"provenance"`
	Metrics    map[string]stat `json:"metrics"`
	// Extra holds figures that are not benchmark metrics: cells/s, latency
	// percentiles of the workloads that observe per-operation latency, and
	// per-operation layer timings of traced runs.
	Extra map[string]stat `json:"extra,omitempty"`
}

// result is the final line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func (r *record) result() result {
	out := result{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]value{}}
	for name, s := range r.Metrics {
		out.Metrics[name] = value{Value: s.Value, Unit: s.Unit}
	}
	return out
}

func main() {
	var (
		name     = flag.String("workload", "", "workload to measure: "+strings.Join(workloadNames(), ", "))
		seed     = flag.Uint64("seed", defaultSeed, "seed the workload's inputs are generated from")
		seconds  = flag.Float64("seconds", 10, "how long to keep running timed rounds")
		traceArg = flag.Int("trace", 0, "1 alternates untraced and traced rounds and reports per-layer metrics")
		workdir  = flag.String("workdir", ".bench_build", "directory for the rounds' scratch state and the trace file")
		out      = flag.String("out", "", "append the run's full record to this file as one JSON line")
		cmp      = flag.Bool("compare", false, "compare two files of records: -compare A.jsonl B.jsonl")
		specPath = flag.String("spec", "BENCHMARK.json", "benchmark description -compare reads the bounds from")
	)
	flag.Parse()

	if *cmp {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "perfbench: -compare takes two record files")
			os.Exit(2)
		}
		os.Exit(runCompare(*specPath, flag.Arg(0), flag.Arg(1)))
	}
	w := findWorkload(*name)
	if (w == nil && *name != "all") || (*traceArg != 0 && *traceArg != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want -workload all or one of %s, and -trace 0 or 1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if w == nil {
		os.Exit(runAll(ctx))
	}
	rec, err := run(ctx, options{workload: w, seed: *seed, seconds: *seconds, trace: *traceArg == 1, workdir: *workdir})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	full, err := json.Marshal(rec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(full))
	if *out != "" {
		if err := appendLine(*out, full); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
	last, err := json.Marshal(rec.result())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(last))
	for _, p := range rec.Problems {
		fmt.Fprintln(os.Stderr, "perfbench: INCORRECT:", p)
	}
	if !rec.Correct {
		os.Exit(1)
	}
}

// runAll runs every workload in a child process of this binary, one after
// another, with this run's other flags.
func runAll(ctx context.Context) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	var args []string
	flag.Visit(func(f *flag.Flag) {
		if f.Name != "workload" {
			args = append(args, "-"+f.Name+"="+f.Value.String())
		}
	})
	code := 0
	for _, w := range workloads {
		cmd := exec.CommandContext(ctx, self, append(args, "-workload="+w.name)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			code = 1
		}
		if ctx.Err() != nil {
			return 1
		}
	}
	return code
}

func runCompare(specPath, pathA, pathB string) int {
	spec, err := readSpec(specPath)
	if err == nil {
		var a, b []record
		if a, err = readRecords(pathA); err == nil {
			b, err = readRecords(pathB)
		}
		if err == nil {
			if compare(os.Stdout, spec, a, b) {
				return 0
			}
			return 1
		}
	}
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	return 2
}

func appendLine(path string, line []byte) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sample is what one timed round measured.
type sample struct {
	setups     []time.Duration
	wall       time.Duration
	allocBytes uint64
	out        roundResult
	traced     *observation // traced rounds only
}

// run performs one benchmark run: warm-up, timed rounds, verification.
func run(ctx context.Context, o options) (*record, error) {
	inst, err := o.workload.prepare(o.seed, o.small)
	if err != nil {
		return nil, fmt.Errorf("%s: preparing inputs: %w", o.workload.name, err)
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, err
	}
	base, err := os.MkdirTemp(o.workdir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(base)

	rec := &record{
		Workload: o.workload.name,
		Seed:     o.seed,
		Trace:    o.trace,
		Metrics:  map[string]stat{},
		Extra:    map[string]stat{},
		Provenance: provenance{
			NumCPU:     runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion:  runtime.Version(),
			SimVersion: clocksched.SimVersion(),
			Seed:       o.seed,
			Seconds:    o.seconds,
			Small:      o.small,
		},
	}
	if o.workload.parallel && runtime.NumCPU() == 1 {
		rec.Provenance.Parallel = "unmeasured: 1 CPU, so nproc workers is one worker"
	}
	warm, err := playRound(ctx, inst, filepath.Join(base, "warmup"), false, o.seed)
	if err != nil {
		return nil, fmt.Errorf("%s: warm-up round: %w", o.workload.name, err)
	}
	syscall.Sync()

	var plain, traced []sample
	var rssMB float64
	start := time.Now()
	for i := 0; ; i++ {
		enough := len(plain) >= minRounds
		if o.trace {
			enough = len(plain) >= 2 && len(traced) >= 2
		}
		if enough && time.Since(start).Seconds() >= o.seconds {
			break
		}
		withTrace := o.trace && i%2 == 1
		s, err := playRound(ctx, inst, filepath.Join(base, fmt.Sprintf("round-%d", i)), withTrace, o.seed)
		if err != nil {
			return nil, fmt.Errorf("%s: round %d: %w", o.workload.name, i, err)
		}
		// The round's files are gone; flush what deleting them left for the
		// disk before the next set-up, so no round pays for another's
		// cleanup.
		syscall.Sync()
		if withTrace {
			s.traced.round = i
			traced = append(traced, s)
		} else {
			plain = append(plain, s)
		}
		if len(plain) == minRounds && !withTrace {
			// The peak so far covers the warm-up and a fixed number of
			// rounds, however many more the time allows.
			rssMB = maxRSSMB()
		}
		kind := "round"
		if withTrace {
			kind = "traced round"
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s %s %d: fastest setup %.6fs, %.3fs, %d cells, %d failed\n",
			o.workload.name, kind, i, slices.Min(s.setups).Seconds(), s.wall.Seconds(),
			s.out.cells, s.out.failed)
	}
	rec.Provenance.Rounds, rec.Provenance.TracedRounds = len(plain), len(traced)
	if err := verify(ctx, o, inst, rec, warm, append(append([]sample(nil), plain...), traced...)); err != nil {
		return nil, err
	}

	if !o.trace {
		reportEndToEnd(rec, plain, rssMB)
		return rec, nil
	}
	if err := reportPerLayer(rec, o, plain, traced); err != nil {
		return nil, err
	}
	return rec, nil
}

// verify checks each round's output digest against what it must be: the
// local serial reference where the workload has one, the committed digest
// at the default seed, and otherwise the warm-up round's, so rounds agree
// with each other and traced rounds with untraced ones. A round whose
// output is wrong counts every operation it attempted as failed.
func verify(ctx context.Context, o options, inst instance, rec *record, warm sample, rounds []sample) error {
	want, source := warm.out.digest, "the warm-up round's"
	ref, err := inst.reference(ctx)
	if err != nil {
		return fmt.Errorf("%s: reference: %w", o.workload.name, err)
	}
	if ref != "" {
		want, source = ref, "the local serial reference"
	}
	if o.seed == defaultSeed {
		committed, err := committedDigest(o.workload.name, o.small)
		if err != nil {
			rec.Problems = append(rec.Problems, err.Error())
		} else {
			if ref != "" && ref != committed {
				rec.Problems = append(rec.Problems, fmt.Sprintf("the local serial reference %s differs from the committed digest %s", ref, committed))
			}
			want, source = committed, "the committed default-seed digest"
		}
	}
	rec.Digest = warm.out.digest
	wrong := 0
	for i, s := range append([]sample{warm}, rounds...) {
		if s.out.digest != want {
			wrong++
			rec.Digest = s.out.digest
		}
		if i == 0 {
			continue // the warm-up is checked but not counted
		}
		rec.Attempted += s.out.units
		if s.out.digest != want {
			rec.Failed += s.out.units
		} else {
			rec.Failed += s.out.failed
		}
	}
	if wrong > 0 {
		rec.Problems = append(rec.Problems, fmt.Sprintf("%d of %d rounds' output differs from %s %s", wrong, len(rounds)+1, source, want))
	}
	if rec.Failed > 0 {
		rec.Problems = append(rec.Problems, fmt.Sprintf("%d of %d %s failed", rec.Failed, rec.Attempted, o.workload.unit))
	}
	rec.Correct = len(rec.Problems) == 0
	return nil
}

// playRound sets up fresh state under dir, runs one round on it and tears
// it down again. Only set-up and the round itself are timed.
func playRound(ctx context.Context, inst instance, dir string, withTrace bool, seed uint64) (sample, error) {
	var s sample
	var tr *tracer
	if withTrace {
		tr = newTracer(dir)
	}
	runtime.GC()
	for k := 1; k < setupsPerRound; k++ {
		extra := fmt.Sprintf("%s-setup%d", dir, k)
		d, r, err := timeSetup(inst, extra, nil)
		if err != nil {
			return s, fmt.Errorf("setup: %w", err)
		}
		r.close()
		os.RemoveAll(extra)
		s.setups = append(s.setups, d)
	}
	defer os.RemoveAll(dir)
	d, r, err := timeSetup(inst, dir, tr)
	if err != nil {
		return s, fmt.Errorf("setup: %w", err)
	}
	defer r.close()
	s.setups = append(s.setups, d)

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	rctx, end := tr.begin(ctx, "round", "round")
	t1 := time.Now()
	s.out, err = r.run(rctx)
	s.wall = time.Since(t1)
	end()
	runtime.ReadMemStats(&m1)
	s.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	if err != nil {
		return s, err
	}
	if s.out.cells == 0 {
		return s, errors.New("round delivered no cells")
	}
	if withTrace {
		s.traced, err = observe(ctx, seed, r, tr, s)
	}
	// Only the digest outlives the round: output kept alive would grow the
	// heap every later round runs against.
	s.out.results, s.out.encoded = nil, nil
	return s, err
}

// timeSetup creates a round directory and sets a round up in it.
func timeSetup(inst instance, dir string, tr *tracer) (time.Duration, round, error) {
	start := time.Now()
	err := os.MkdirAll(dir, 0o755)
	var r round
	if err == nil {
		r, err = inst.setup(dir, tr)
	}
	return time.Since(start), r, err
}

func reportEndToEnd(rec *record, rounds []sample, rssMB float64) {
	var setup, rate, alloc []float64
	lat := map[string][]float64{}
	for _, s := range rounds {
		setup = append(setup, slices.Min(s.setups).Seconds())
		rate = append(rate, float64(s.out.cells)/s.wall.Seconds())
		alloc = append(alloc, float64(s.allocBytes)/(1<<20)/float64(s.out.cells))
		if s.out.latName == "" {
			continue
		}
		// Percentiles are nearest-rank within a round, and quoted only
		// when at least minBeyond samples lie beyond them.
		for _, p := range []float64{50, 99} {
			if v, _, ok := percentile(s.out.latencies, p); ok {
				key := fmt.Sprintf("%s_p%.0f", s.out.latName, p)
				lat[key] = append(lat[key], v)
			}
		}
		lat[s.out.latName+"_samples"] = append(lat[s.out.latName+"_samples"], float64(len(s.out.latencies)))
	}
	rec.Metrics["setup_s"] = statOf(setup, "s")
	rec.Metrics["max_rss_mb"] = statOf([]float64{rssMB}, "MB")
	rec.Metrics["alloc_mb_per_cell"] = statOf(alloc, "MB/cell")
	rec.Extra["cells_per_s"] = statOf(rate, "cells/s")
	for key, xs := range lat {
		unit := "ms"
		if strings.HasSuffix(key, "_samples") {
			unit = "count"
		}
		rec.Extra[key] = statOf(xs, unit)
	}
}

// maxRSSMB is the process's peak resident set so far.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// committedDigest returns the default-seed output digest recorded in
// digests.json for the workload at the given input size.
func committedDigest(name string, small bool) (string, error) {
	var all map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &all); err != nil {
		return "", fmt.Errorf("digests.json: %w", err)
	}
	size := "full"
	if small {
		size = "small"
	}
	d, ok := all[size][name]
	if !ok {
		return "", fmt.Errorf("digests.json records no %s digest for %s", size, name)
	}
	return d, nil
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// sortedKeys returns m's keys in order, for stable output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
