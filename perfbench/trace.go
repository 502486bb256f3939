package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"clocksched"
	"clocksched/internal/cpu"
	"clocksched/internal/daq"
	"clocksched/internal/expt"
	"clocksched/internal/journal"
	"clocksched/internal/kernel"
	"clocksched/internal/sim"
	wl "clocksched/internal/workload"
)

// span is one timed call into a layer, relative to the start of its round.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	// Path is a filesystem span's file, relative to the round directory.
	Path string `json:"path,omitempty"`
	// Job is the sweepd job a request or file belongs to.
	Job   string  `json:"job,omitempty"`
	Bytes int     `json:"bytes,omitempty"`
	Start float64 `json:"start_us"`
	End   float64 `json:"end_us"`
}

func (s span) ms() float64 { return (s.End - s.Start) / 1e3 }

// tracer keeps one traced round's spans in memory. A nil tracer is the
// untraced round: every method is a no-op and every seam it would hand out
// is the plain one.
type tracer struct {
	dir string // the round directory
	t0  time.Time

	mu    sync.Mutex
	next  int
	spans []span
}

func newTracer(dir string) *tracer {
	return &tracer{dir: dir, t0: time.Now()}
}

type spanKey struct{}

// parentOf returns the span a context was opened under, 0 for none.
func parentOf(ctx context.Context) int {
	id, _ := ctx.Value(spanKey{}).(int)
	return id
}

// begin opens a span as a child of ctx's span and returns a context
// carrying it; calling end records it.
func (t *tracer) begin(ctx context.Context, layer, name string) (context.Context, func()) {
	if t == nil {
		return ctx, func() {}
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	parent := parentOf(ctx)
	start := time.Now()
	return context.WithValue(ctx, spanKey{}, id), func() {
		t.add(span{ID: id, Parent: parent, Layer: layer, Name: name}, start, time.Now())
	}
}

// add records a finished span, assigning it an id unless it has one.
func (t *tracer) add(s span, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if s.ID == 0 {
		t.next++
		s.ID = t.next
	}
	s.Start = float64(start.Sub(t.t0).Nanoseconds()) / 1e3
	s.End = float64(end.Sub(t.t0).Nanoseconds()) / 1e3
	t.spans = append(t.spans, s)
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// fs returns the filesystem seam for the round's durable writes: nil (the
// real filesystem) untraced, a timing wrapper traced. The one value serves
// both journal.FS and clocksched.DiskFS, which have the same methods.
func (t *tracer) fs() journal.FS {
	if t == nil {
		return nil
	}
	return tracingFS{t}
}

// tracingFS times every write, fsync and rename of durable sweep state.
type tracingFS struct{ t *tracer }

func (f tracingFS) Write(file *os.File, p []byte) (int, error) {
	start := time.Now()
	n, err := file.Write(p)
	f.t.fileSpan("write", file.Name(), n, start)
	return n, err
}

func (f tracingFS) Sync(file *os.File) error {
	start := time.Now()
	err := file.Sync()
	f.t.fileSpan("fsync", file.Name(), 0, start)
	return err
}

func (f tracingFS) Rename(oldpath, newpath string) error {
	start := time.Now()
	err := os.Rename(oldpath, newpath)
	f.t.fileSpan("rename", newpath, 0, start)
	return err
}

func (t *tracer) fileSpan(op, path string, n int, start time.Time) {
	end := time.Now()
	rel, err := filepath.Rel(t.dir, path)
	if err != nil {
		rel = path
	}
	rel = filepath.ToSlash(rel)
	t.add(span{Layer: fileLayer(rel), Name: op, Path: rel, Job: jobInPath(rel), Bytes: n}, start, end)
}

// fileLayer names the layer that owns a durable file: write-ahead
// journals (sweep, manifest and fabric ledgers), stored results, and the
// sweep cache.
func fileLayer(rel string) string {
	base := filepath.Base(rel)
	switch {
	case strings.Contains(base, ".wal"):
		return "journal"
	case strings.HasPrefix(base, "result.bin"), strings.HasPrefix(base, "shard-") && strings.Contains(base, ".bin"):
		return "store"
	case strings.Contains(rel, "cache/"):
		return "cache"
	}
	return "fs"
}

// jobInPath extracts the sweepd job id from a daemon data-dir path
// (…/jobs/<id>/…), "" for files no single job owns.
func jobInPath(rel string) string {
	parts := strings.Split(rel, "/")
	for i := 0; i+2 < len(parts); i++ {
		if parts[i] == "jobs" {
			return parts[i+1]
		}
	}
	return ""
}

// newTransport returns the HTTP transport every client of a round shares.
// It holds at most nproc connections, so the load comes from at most nproc
// connections whatever the workload does, and it times every request
// (until its body is closed) when the round is traced.
func newTransport(t *tracer) (http.RoundTripper, func()) {
	n := runtime.NumCPU()
	base := &http.Transport{
		MaxConnsPerHost:       n,
		MaxIdleConnsPerHost:   n,
		ResponseHeaderTimeout: 30 * time.Second,
	}
	if t == nil {
		return base, base.CloseIdleConnections
	}
	return &tracingTransport{t: t, base: base}, base.CloseIdleConnections
}

type tracingTransport struct {
	t    *tracer
	base http.RoundTripper
}

func (tt *tracingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	s := span{Parent: parentOf(req.Context()), Layer: "service", Name: httpOp(req), Job: jobInURL(req.URL.Path)}
	resp, err := tt.base.RoundTrip(req)
	if err != nil {
		tt.t.add(s, start, time.Now())
		return nil, err
	}
	resp.Body = &tracedBody{ReadCloser: resp.Body, done: func(n int) {
		s.Bytes = n
		tt.t.add(s, start, time.Now())
	}}
	return resp, nil
}

// tracedBody ends its request's span when the caller closes the body, so
// the span covers the whole download.
type tracedBody struct {
	io.ReadCloser
	n    int
	once sync.Once
	done func(n int)
}

func (b *tracedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += n
	return n, err
}

func (b *tracedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.done(b.n) })
	return err
}

// httpOp names a sweepd API request.
func httpOp(req *http.Request) string {
	p := req.URL.Path
	switch {
	case req.Method == http.MethodPost && p == "/v1/jobs":
		return "submit"
	case req.Method == http.MethodDelete:
		return "cancel"
	case strings.HasSuffix(p, "/result"):
		return "result"
	case strings.HasSuffix(p, "/events"):
		return "events"
	case strings.HasPrefix(p, "/v1/jobs/"):
		return "status"
	}
	return "other"
}

func jobInURL(p string) string {
	rest, ok := strings.CutPrefix(p, "/v1/jobs/")
	if !ok {
		return ""
	}
	id, _, _ := strings.Cut(rest, "/")
	return id
}

// timedPolicy wraps a kernel.SpeedPolicy and accumulates the wall time of
// its decisions.
type timedPolicy struct {
	inner     kernel.SpeedPolicy
	decisions int64
	dur       time.Duration
}

func (p *timedPolicy) OnQuantum(now sim.Time, utilPP10K int, s cpu.Step, v cpu.Voltage) (cpu.Step, cpu.Voltage) {
	start := time.Now()
	s, v = p.inner.OnQuantum(now, utilPP10K, s, v)
	p.dur += time.Since(start)
	p.decisions++
	return s, v
}

// timedSink is a timedPolicy over a policy that also consumes application
// deadlines; the workload finds the sink through the wrapper.
type timedSink struct {
	*timedPolicy
	sink wl.DeadlineSink
}

func (p timedSink) Submit(cycles int64, due sim.Time) int { return p.sink.Submit(cycles, due) }
func (p timedSink) Complete(id int)                       { p.sink.Complete(id) }

func timePolicy(inner kernel.SpeedPolicy) (kernel.SpeedPolicy, *timedPolicy) {
	tp := &timedPolicy{inner: inner}
	if ds, ok := inner.(wl.DeadlineSink); ok {
		return timedSink{tp, ds}, tp
	}
	return tp, tp
}

// noopPolicy decides nothing; timing it calibrates timedPolicy.
type noopPolicy struct{}

func (noopPolicy) OnQuantum(_ sim.Time, _ int, s cpu.Step, v cpu.Voltage) (cpu.Step, cpu.Voltage) {
	return s, v
}

// decoratorCost is what timing one decision adds, in nanoseconds: inside
// the decision's measured interval, and in all to the run around it.
var decoratorCost = sync.OnceValues(func() (inside, total float64) {
	const n = 1 << 16
	for range 2 { // the first pass warms up
		tp := &timedPolicy{inner: noopPolicy{}}
		start := time.Now()
		for range n {
			tp.OnQuantum(0, 0, 0, 0)
		}
		inside, total = float64(tp.dur)/n, float64(time.Since(start))/n
	}
	return inside, total
})

// simProbe times the simulator's layers on the Table 2 grid: each cell
// runs through expt.RunContext under a timed policy, and daq.Integrate is
// re-run on its recorded power timeline.
type simProbe struct {
	cells, decisions, events int64
	run, integrate, decide   time.Duration
}

func probeSimulator(ctx context.Context, seed uint64) (simProbe, error) {
	var p simProbe
	grid, err := expt.Table2Grid()
	if err != nil {
		return p, err
	}
	for i, gc := range grid {
		spec := gc.Spec()
		spec.Seed = seed + uint64(i%expt.Table2Runs)
		var tp *timedPolicy
		if spec.Policy != nil {
			spec.Policy, tp = timePolicy(spec.Policy)
		}
		start := time.Now()
		out, err := expt.RunContext(ctx, spec)
		p.run += time.Since(start)
		if err != nil {
			return p, fmt.Errorf("simulator probe: %w", err)
		}
		length := spec.Duration
		if length == 0 {
			length = out.Workload.Duration()
		}
		start = time.Now()
		if _, err := daq.Integrate(out.Kernel.Recorder(), 0, length, daq.DefaultConfig()); err != nil {
			return p, fmt.Errorf("simulator probe: %w", err)
		}
		p.integrate += time.Since(start)
		p.events += int64(out.Kernel.Engine().Fired())
		p.cells++
		if tp != nil {
			p.decide += tp.dur
			p.decisions += tp.decisions
		}
	}
	return p, nil
}

// perCell returns the probe's per-cell milliseconds of the kernel (the
// RunContext time less Integrate, the decisions and the cost of timing
// them), the policy's decisions, and Integrate.
func (p simProbe) perCell() (kernelMS, decideMS, integrateMS float64) {
	inside, total := decoratorCost()
	n := float64(p.cells)
	decide := float64(p.decide) - float64(p.decisions)*inside
	kern := float64(p.run-p.integrate) - decide - float64(p.decisions)*total
	return kern / 1e6 / n, decide / 1e6 / n, p.integrate.Seconds() * 1e3 / n
}

// observation is what one traced round left behind: its spans, the probes
// run on it, and what its workload made of them.
type observation struct {
	round int
	wall  float64 // ms, the round span
	cells int
	spans []span
	sim   simProbe

	rows    map[string]float64 // attribution: layer → ms of the round
	layers  map[string]float64 // per-layer metric values
	details map[string]float64 // per-operation timings
}

// observe turns a traced round into per-layer figures: it probes the
// simulator and the codec, counts the work the cells did, and lets the
// round attribute its wall time to layers.
func observe(ctx context.Context, seed uint64, r round, tr *tracer, s sample) (*observation, error) {
	ob := &observation{
		cells:   s.out.cells,
		spans:   tr.snapshot(),
		rows:    map[string]float64{},
		layers:  map[string]float64{},
		details: map[string]float64{},
	}
	for _, sp := range ob.spans {
		if sp.Layer == "round" {
			ob.wall = sp.ms()
		}
	}
	var err error
	if ob.sim, err = probeSimulator(ctx, seed); err != nil {
		return nil, err
	}
	kern, decide, integ := ob.sim.perCell()
	ob.layers["kernel.run_us_per_cell"] = kern * 1e3
	ob.layers["daq.integrate_us_per_cell"] = integ * 1e3
	if ob.sim.decisions > 0 {
		ob.layers["policy.decide_ns"] = decide * 1e6 * float64(ob.sim.cells) / float64(ob.sim.decisions)
	}
	if ob.sim.events > 0 {
		ob.layers["sim.ns_per_event"] = kern * 1e6 * float64(ob.sim.cells) / float64(ob.sim.events)
	}
	if err := ob.probeCodec(s.out); err != nil {
		return nil, err
	}
	ob.countJournal()
	if err := r.attribute(ctx, ob); err != nil {
		return nil, err
	}
	for _, l := range shareLayers {
		ob.layers[l+".share"] = ob.rows[l] / ob.wall
	}
	ob.layers["trace.residual_frac"] = ob.residual() / ob.wall
	return ob, nil
}

// residual is the part of the round no layer accounts for.
func (ob *observation) residual() float64 {
	r := ob.wall
	for _, ms := range ob.rows {
		r -= ms
	}
	return r
}

// probeCodec times EncodeSweepResult and DecodeSweepResult on the round's
// own output and counts what its cells simulated. Output that came over
// HTTP is decoded first and re-encoded; the rest the other way round.
func (ob *observation) probeCodec(out roundResult) error {
	var enc, dec time.Duration
	encode := func(rs []*clocksched.SweepResult) ([][]byte, error) {
		var bs [][]byte
		for _, r := range rs {
			start := time.Now()
			b, err := clocksched.EncodeSweepResult(r)
			enc += time.Since(start)
			if err != nil {
				return nil, err
			}
			bs = append(bs, b)
		}
		return bs, nil
	}
	encoded := out.encoded
	if encoded == nil {
		var err error
		if encoded, err = encode(out.results); err != nil {
			return err
		}
	}
	var results []*clocksched.SweepResult
	for _, b := range encoded {
		start := time.Now()
		r, err := clocksched.DecodeSweepResult(b)
		dec += time.Since(start)
		if err != nil {
			return err
		}
		results = append(results, r)
	}
	if out.encoded != nil {
		if _, err := encode(results); err != nil {
			return err
		}
	}
	var cells, events, quanta, samples float64
	for _, r := range results {
		for _, c := range r.Cells {
			if c.Result == nil {
				continue
			}
			cells++
			events += float64(c.Result.Telemetry.EventsFired)
			quanta += float64(c.Result.Telemetry.Quanta)
			samples += float64(c.Result.Telemetry.DAQSamples)
		}
	}
	if cells == 0 {
		return fmt.Errorf("round output holds no results")
	}
	ob.layers["codec.encode_us_per_cell"] = enc.Seconds() * 1e6 / cells
	ob.layers["codec.decode_us_per_cell"] = dec.Seconds() * 1e6 / cells
	ob.layers["sim.events_per_cell"] = events / cells
	ob.layers["kernel.quanta_per_cell"] = quanta / cells
	ob.layers["daq.samples_per_cell"] = samples / cells
	return nil
}

// countJournal reports the round's journal traffic per delivered cell and
// its fsync latency.
func (ob *observation) countJournal() {
	var fsyncs []float64
	bytes := 0
	for _, s := range ob.spans {
		if s.Layer != "journal" {
			continue
		}
		switch s.Name {
		case "fsync":
			fsyncs = append(fsyncs, s.ms())
		case "write":
			bytes += s.Bytes
		}
	}
	ob.layers["journal.fsyncs_per_cell"] = float64(len(fsyncs)) / float64(ob.cells)
	ob.layers["journal.bytes_per_cell"] = float64(bytes) / float64(ob.cells)
	ob.quote("journal.fsync_ms", fsyncs)
}

// quote records the median and 99th percentile of per-operation timings
// in the details, each only when enough samples lie beyond it.
func (ob *observation) quote(name string, ms []float64) {
	for _, p := range []float64{50, 99} {
		if v, _, ok := percentile(ms, p); ok {
			ob.details[fmt.Sprintf("%s_p%.0f", name, p)] = v
		}
	}
}

// ival is a time interval in microseconds since the round started.
type ival struct{ lo, hi float64 }

func (s span) ival() ival { return ival{s.Start, s.End} }

// covered is the length of the union of xs within [lo, hi], in ms.
func covered(xs []ival, lo, hi float64) float64 {
	var in []ival
	for _, x := range xs {
		if a, b := max(x.lo, lo), min(x.hi, hi); b > a {
			in = append(in, ival{a, b})
		}
	}
	sort.Slice(in, func(i, j int) bool { return in[i].lo < in[j].lo })
	total, end := 0.0, lo
	for _, x := range in {
		if x.hi <= end {
			continue
		}
		total += x.hi - max(x.lo, end)
		end = x.hi
	}
	return total / 1e3
}

// uncovered is the length of [lo, hi] that xs leave open, in ms.
func uncovered(xs []ival, lo, hi float64) float64 {
	if hi <= lo {
		return 0
	}
	return (hi-lo)/1e3 - covered(xs, lo, hi)
}

// reportPerLayer fills a traced run's record with the median of every
// per-layer metric over its traced rounds, prints the attribution table
// and writes the spans to the trace file.
func reportPerLayer(rec *record, o options, plain, traced []sample) error {
	var walls, tracedWalls []float64
	for _, s := range plain {
		walls = append(walls, s.wall.Seconds())
	}
	values := map[string][]float64{}
	details := map[string][]float64{}
	rows := map[string][]float64{}
	for _, s := range traced {
		ob := s.traced
		tracedWalls = append(tracedWalls, s.wall.Seconds())
		for _, m := range perLayer {
			values[m.Name] = append(values[m.Name], ob.layers[m.Name])
		}
		for k, v := range ob.details {
			details[k] = append(details[k], v)
		}
		for _, l := range shareLayers {
			rows[l] = append(rows[l], ob.rows[l])
		}
		rows["residual"] = append(rows["residual"], ob.residual())
		rows["wall"] = append(rows["wall"], ob.wall)
	}
	values["trace.round_s"] = tracedWalls
	values["trace.overhead_frac"] = []float64{summarize(tracedWalls).Median/summarize(walls).Median - 1}
	for _, m := range perLayer {
		rec.Metrics[m.Name] = statOf(values[m.Name], m.Unit)
	}
	for k, xs := range details {
		unit := "ms"
		if strings.HasSuffix(k, "_us") || strings.Contains(k, "_us_") {
			unit = "us"
		}
		rec.Extra[k] = statOf(xs, unit)
	}

	w := os.Stderr
	fmt.Fprintf(w, "attribution: %s, seed %d, median of %d traced rounds\n", o.workload.name, o.seed, len(traced))
	fmt.Fprintf(w, "  %-18s %12s %8s\n", "layer", "ms/round", "share")
	wall := summarize(rows["wall"]).Median
	for _, l := range append(append([]string(nil), shareLayers...), "residual") {
		ms := summarize(rows[l]).Median
		if ms == 0 && l != "residual" {
			continue
		}
		fmt.Fprintf(w, "  %-18s %12.2f %7.1f%%\n", l, ms, 100*ms/wall)
	}
	fmt.Fprintf(w, "  %-18s %12.2f %7.1f%%\n", "traced round", wall, 100.0)
	fmt.Fprintf(w, "trace overhead: %+.1f%% (traced %.3fs vs untraced %.3fs, medians)\n",
		100*rec.Metrics["trace.overhead_frac"].Value, summarize(tracedWalls).Median, summarize(walls).Median)
	for _, k := range sortedKeys(rec.Extra) {
		fmt.Fprintf(w, "  %-34s %10.3f %s\n", k, rec.Extra[k].Value, rec.Extra[k].Unit)
	}
	return writeTraceFile(o, traced)
}

// writeTraceFile writes every traced round's spans and attribution to
// <workdir>/trace-<workload>-seed<N>.json.
func writeTraceFile(o options, traced []sample) error {
	type roundOut struct {
		Round       int                `json:"round"`
		WallMS      float64            `json:"wall_ms"`
		Attribution map[string]float64 `json:"attribution_ms"`
		Details     map[string]float64 `json:"details,omitempty"`
		Spans       []span             `json:"spans"`
	}
	doc := struct {
		Workload string     `json:"workload"`
		Seed     uint64     `json:"seed"`
		Rounds   []roundOut `json:"rounds"`
	}{Workload: o.workload.name, Seed: o.seed}
	for _, s := range traced {
		ob := s.traced
		attr := map[string]float64{"residual": ob.residual()}
		for l, ms := range ob.rows {
			attr[l] = ms
		}
		doc.Rounds = append(doc.Rounds, roundOut{Round: ob.round, WallMS: ob.wall, Attribution: attr, Details: ob.details, Spans: ob.spans})
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	path := filepath.Join(o.workdir, fmt.Sprintf("trace-%s-seed%d.json", o.workload.name, o.seed))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "perfbench: spans written to", path)
	return nil
}
