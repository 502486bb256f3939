package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"clocksched"
	"clocksched/internal/fabric"
	"clocksched/internal/fleet"
	"clocksched/internal/service"
	"clocksched/internal/telemetry"
)

// workload is one benchmark workload: a fixed round of work generated from
// the seed, run against fresh state every round.
type workload struct {
	name     string
	unit     string // what a run's attempted and failed counts count
	parallel bool   // runs nproc workers or clients
	prepare  func(seed uint64, small bool) (instance, error)
}

// instance is a workload with its inputs generated.
type instance interface {
	// setup builds the fresh state one round runs against under dir; tr is
	// nil for an untraced round.
	setup(dir string, tr *tracer) (round, error)
	// reference returns the digest the rounds must reproduce, computed
	// through an independent local path, or "" when agreement between
	// rounds and the committed default-seed digest are the only checks.
	reference(ctx context.Context) (string, error)
}

// round is one set-up round, ready to run once.
type round interface {
	run(ctx context.Context) (roundResult, error)
	// attribute splits a traced round's wall time into the layers of the
	// attribution table and adds the workload's own per-layer figures.
	attribute(ctx context.Context, ob *observation) error
	close()
}

// roundResult is what one round delivered.
type roundResult struct {
	digest string // sha256 of the round's canonical output
	cells  int    // cells delivered to the caller
	units  int    // operations attempted: cells, or jobs
	failed int

	// latName names latencies, the per-operation times the workload
	// observes from outside ("cell_ms", "job_ms"), if any.
	latName   string
	latencies []float64

	// The output itself, for the traced rounds' codec probe: decoded
	// sweeps, or encoded sweep results as a daemon serves them.
	results []*clocksched.SweepResult
	encoded [][]byte
}

// workloads are in the order -workload all runs them. Deleting a
// fleet-durable round's thousands of cache files leaves a
// filesystem mounted with discard slow to fsync for the best part of a
// minute, so the workload that never touches the disk runs next, and the
// daemon workloads, whose set-up fsyncs, after it.
var workloads = []*workload{
	{name: "fleet-durable", unit: "cells", parallel: true, prepare: prepareFleet},
	{name: "table2-serial", unit: "cells", prepare: prepareSerial},
	{name: "sweepd-jobs", unit: "jobs", parallel: true, prepare: prepareJobs},
	{name: "fabric-1peer", unit: "cells", parallel: true, prepare: prepareFabric},
}

// Input sizes, full and small (for the package's own tests). A full round
// takes 1–2 s on a 2-CPU virtual machine, so that a 10 s run is a warm-up
// and several timed rounds, however slow the host is that day.
const (
	serialSeeds, serialSeedsSmall   = 100, 4
	fleetDevices, fleetDevicesSmall = 200, 24
	jobCount, jobCountSmall         = 300, 8
	fabricSeeds, fabricSeedsSmall   = 40, 4
)

// benchPolicies and benchWorkloads are the registry names and workload
// classes the fleet and job inputs draw from. They are pinned rather than
// read from the registry, so registering a new policy later does not
// silently change what the benchmark measures.
var (
	benchPolicies  = []string{"avr", "bkp", "constant", "deadline", "oa", "past-peg-peg", "pering-avg-n", "proportional"}
	benchWorkloads = []clocksched.Workload{clocksched.MPEG, clocksched.Web, clocksched.Chess,
		clocksched.TalkingEditor, clocksched.RectWave, clocksched.Feedback}
)

func nproc() int { return runtime.NumCPU() }

// table2Config is the paper's Table 2 grid — three constant-speed
// baselines and the best PAST peg-peg policy with and without voltage
// scaling, on MPEG — over seeds seed..seed+n-1.
func table2Config(seed uint64, n int) (clocksched.SweepConfig, error) {
	var ps []clocksched.Policy
	for _, ref := range []struct {
		name   string
		params map[string]float64
	}{
		{"constant", map[string]float64{"mhz": 206.4}},
		{"constant", map[string]float64{"mhz": 132.7}},
		{"constant", map[string]float64{"mhz": 132.7, "low_voltage": 1}},
		{"past-peg-peg", nil},
		{"past-peg-peg", map[string]float64{"voltage_scale": 1}},
	} {
		p, err := clocksched.NewPolicy(ref.name, ref.params)
		if err != nil {
			return clocksched.SweepConfig{}, err
		}
		ps = append(ps, p)
	}
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = seed + uint64(i)
	}
	return clocksched.SweepConfig{
		Workloads: []clocksched.Workload{clocksched.MPEG},
		Policies:  ps,
		Seeds:     seeds,
		FailFast:  true,
	}, nil
}

// canonical hashes a sweep's canonical encoding: the output gate of the
// workloads whose output is one SweepResult.
func canonical(ctx context.Context, tr *tracer, res *clocksched.SweepResult) (roundResult, error) {
	_, end := tr.begin(ctx, "codec", "EncodeSweepResult")
	b, err := clocksched.EncodeSweepResult(res)
	end()
	if err != nil {
		return roundResult{}, err
	}
	_, end = tr.begin(ctx, "gate", "sha256")
	sum := sha256.Sum256(b)
	end()
	return roundResult{
		digest:  hex.EncodeToString(sum[:]),
		cells:   len(res.Cells),
		units:   len(res.Cells),
		results: []*clocksched.SweepResult{res},
	}, nil
}

// localDigest runs a sweep spec serially in this process with no cache or
// journal and hashes its canonical encoding: the reference the daemon and
// fabric workloads are checked against.
func localDigest(ctx context.Context, spec clocksched.SweepSpec) ([32]byte, error) {
	cfg, err := spec.Config()
	if err != nil {
		return [32]byte{}, err
	}
	cfg.Workers = 1
	res, err := clocksched.Sweep(ctx, cfg)
	if err != nil {
		return [32]byte{}, err
	}
	b, err := clocksched.EncodeSweepResult(res)
	if err != nil {
		return [32]byte{}, err
	}
	return sha256.Sum256(b), nil
}

// layerSum adds up the milliseconds of the spans in one layer.
func layerSum(spans []span, layer string) float64 {
	ms := 0.0
	for _, s := range spans {
		if s.Layer == layer {
			ms += s.ms()
		}
	}
	return ms
}

// --- table2-serial ---------------------------------------------------------

type serialBench struct {
	seed uint64
	n    int
}

func prepareSerial(seed uint64, small bool) (instance, error) {
	b := &serialBench{seed: seed, n: serialSeeds}
	if small {
		b.n = serialSeedsSmall
	}
	return b, nil
}

func (b *serialBench) setup(_ string, tr *tracer) (round, error) {
	cfg, err := table2Config(b.seed, b.n)
	if err != nil {
		return nil, err
	}
	cfg.Workers = 1
	return &serialRound{cfg: cfg, tr: tr}, nil
}

func (b *serialBench) reference(context.Context) (string, error) { return "", nil }

type serialRound struct {
	cfg clocksched.SweepConfig
	tr  *tracer
}

func (r *serialRound) run(ctx context.Context) (roundResult, error) {
	sctx, end := r.tr.begin(ctx, "sweep", "clocksched.Sweep")
	sweepID := parentOf(sctx)
	// With one worker, consecutive Progress calls bracket one cell. The
	// first cell has no call before it, so its time is left untimed along
	// with the sweep's up-front validation and key hashing.
	var lat []float64
	var last time.Time
	r.cfg.Progress = func(done, _ int) {
		now := time.Now()
		if done > 1 {
			lat = append(lat, float64(now.Sub(last).Nanoseconds())/1e6)
			r.tr.add(span{Parent: sweepID, Layer: "cell", Name: "cell"}, last, now)
		}
		last = now
	}
	res, err := clocksched.Sweep(sctx, r.cfg)
	end()
	if err != nil {
		return roundResult{}, err
	}
	out, err := canonical(ctx, r.tr, res)
	out.latName, out.latencies = "cell_ms", lat
	return out, err
}

// attribute reports the timed cells, the encoding and the hash. The
// sweep's own time around the cells (validation, key hashing, the first
// cell, result assembly) is left to the residual. How a cell divides
// between the kernel, the policy and Integrate is not timed in the round;
// the simulator probe's per-layer metrics estimate it.
func (r *serialRound) attribute(_ context.Context, ob *observation) error {
	ob.rows["cell"] = layerSum(ob.spans, "cell")
	ob.rows["codec"] = layerSum(ob.spans, "codec")
	ob.rows["gate"] = layerSum(ob.spans, "gate")
	return nil
}

func (r *serialRound) close() {}

// --- fleet-durable ---------------------------------------------------------

type fleetBench struct{ spec fleet.Spec }

func prepareFleet(seed uint64, small bool) (instance, error) {
	n := fleetDevices
	if small {
		n = fleetDevicesSmall
	}
	spec := fleet.NewSpec(n, seed)
	spec.Duration = clocksched.Duration(2 * time.Second)
	spec.ArrivalSpread = clocksched.Duration(500 * time.Millisecond)
	for _, name := range benchPolicies {
		p, err := clocksched.NewPolicy(name, nil)
		if err != nil {
			return nil, err
		}
		spec.Policies = append(spec.Policies, p)
	}
	// A pinned 59 MHz constant cannot keep up with the heavier classes, so
	// the feasibility pre-pass has real skips to make.
	slow, err := clocksched.NewPolicy("constant", map[string]float64{"mhz": 59, "low_voltage": 1})
	if err != nil {
		return nil, err
	}
	spec.Policies = append(spec.Policies, slow)
	return &fleetBench{spec: spec}, spec.Validate()
}

func (b *fleetBench) setup(dir string, tr *tracer) (round, error) {
	cache, err := clocksched.NewSweepCache(0, filepath.Join(dir, "cache"))
	if err != nil {
		return nil, err
	}
	cache.SetFS(tr.fs())
	r := &fleetRound{spec: b.spec, cache: cache, journal: filepath.Join(dir, "fleet.wal"), tr: tr}
	if tr != nil {
		r.tel = clocksched.NewTelemetry()
	}
	return r, nil
}

func (b *fleetBench) reference(context.Context) (string, error) { return "", nil }

type fleetRound struct {
	spec    fleet.Spec
	cache   *clocksched.SweepCache
	journal string
	tr      *tracer
	tel     *clocksched.Telemetry // nil untraced

	plan *fleet.Plan // the round's compiled plan, for attribute
}

// run makes the calls fleet.RunPlan makes for a local fleet — Sweep over
// the plan's cells, then Reduce — itself, so that a traced round can hand
// the sweep its timing filesystem and telemetry and time Reduce apart.
func (r *fleetRound) run(ctx context.Context) (roundResult, error) {
	_, end := r.tr.begin(ctx, "fleet.compile", "Spec.Compile")
	plan, err := r.spec.Compile()
	end()
	if err != nil {
		return roundResult{}, err
	}
	r.plan = plan
	sctx, end := r.tr.begin(ctx, "sweep", "clocksched.Sweep")
	res, err := clocksched.Sweep(sctx, clocksched.SweepConfig{
		Cells: plan.Cells, Workers: nproc(), Cache: r.cache, Journal: r.journal,
		FS: r.tr.fs(), Telemetry: r.tel,
	})
	end()
	if err != nil {
		return roundResult{}, err
	}
	_, end = r.tr.begin(ctx, "fleet.reduce", "fleet.Reduce")
	pop, err := fleet.Reduce(plan, res)
	end()
	if err != nil {
		return roundResult{}, err
	}
	_, end = r.tr.begin(ctx, "gate", "Population.Render+sha256")
	sum := sha256.Sum256([]byte(pop.Render()))
	end()
	return roundResult{
		digest:  hex.EncodeToString(sum[:]),
		cells:   len(plan.Cells),
		units:   len(plan.Cells),
		results: []*clocksched.SweepResult{res},
	}, nil
}

// attribute reads the cells' time from the sweep telemetry, which times
// every cell and, within it, every cache get and put. The journal's writes
// and fsyncs inside the cells are spans of the timing filesystem. Worker
// time is divided by the worker count; the sweep's time outside its timed
// cells, spent dispatching or with a worker idle, is left to the residual.
func (r *fleetRound) attribute(_ context.Context, ob *observation) error {
	reg := r.tel.Registry()
	hist := func(name string) (ms float64, n uint64) {
		h := reg.Histogram(name, telemetry.SecondsBuckets)
		return h.Sum() * 1e3, h.Count()
	}
	cellMS, _ := hist(telemetry.MSweepCellSeconds)
	putMS, puts := hist(telemetry.MCachePutSecs)
	var getMS float64
	var gets uint64
	for _, name := range []string{telemetry.MCacheGetHitSecs, telemetry.MCacheGetMissSecs, telemetry.MCacheGetDiskSecs} {
		ms, n := hist(name)
		getMS, gets = getMS+ms, gets+n
	}
	journalMS := layerSum(ob.spans, "journal")
	w := float64(nproc())
	ob.rows["fleet.compile"] = layerSum(ob.spans, "fleet.compile")
	ob.rows["fleet.reduce"] = layerSum(ob.spans, "fleet.reduce")
	ob.rows["gate"] = layerSum(ob.spans, "gate")
	ob.rows["cache"] = (putMS + getMS) / w
	ob.rows["journal"] = journalMS / w
	// The cells' self time: each timed cell less the cache and journal
	// calls timed within it.
	ob.rows["cell"] = (cellMS - putMS - getMS - journalMS) / w

	st := r.cache.Stats()
	if st.Hits+st.Misses > 0 {
		ob.layers["cache.hit_ratio"] = float64(st.Hits) / float64(st.Hits+st.Misses)
	}
	ob.layers["fleet.skip_rate"] = float64(len(r.plan.Skips)) / float64(len(r.plan.Devices)*len(r.spec.Policies))
	ob.details["fleet.compile_ms"] = ob.rows["fleet.compile"]
	ob.details["fleet.reduce_ms"] = ob.rows["fleet.reduce"]
	if puts > 0 {
		ob.details["cache.put_us_mean"] = putMS * 1e3 / float64(puts)
	}
	if gets > 0 {
		ob.details["cache.get_us_mean"] = getMS * 1e3 / float64(gets)
	}
	return nil
}

func (r *fleetRound) close() {}

// --- sweepd-jobs -----------------------------------------------------------

type jobsBench struct {
	// jobs alternate: each odd job repeats the job before it.
	jobs []clocksched.SweepSpec
}

// splitmix is the job generator's PRNG, owned here so the inputs do not
// depend on any library's stream.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func prepareJobs(seed uint64, small bool) (instance, error) {
	n := jobCount
	if small {
		n = jobCountSmall
	}
	rng := splitmix(seed)
	b := &jobsBench{}
	for len(b.jobs) < n {
		w := benchWorkloads[rng.next()%uint64(len(benchWorkloads))]
		p, err := clocksched.NewPolicy(benchPolicies[rng.next()%uint64(len(benchPolicies))], nil)
		if err != nil {
			return nil, err
		}
		s := 1 + rng.next()%1_000_000
		spec := clocksched.NewSweepSpec(clocksched.SweepConfig{
			Workloads: []clocksched.Workload{w},
			Policies:  []clocksched.Policy{p},
			Seeds:     []uint64{s, s + 1},
			Duration:  2 * time.Second,
		})
		b.jobs = append(b.jobs, spec, spec)
	}
	return b, nil
}

func (b *jobsBench) setup(dir string, tr *tracer) (round, error) {
	srv, err := service.New(service.Config{DataDir: dir, Workers: nproc(), FS: tr.fs()})
	if err != nil {
		return nil, err
	}
	transport, closeIdle := newTransport(tr)
	return &jobsRound{jobs: b.jobs, srv: srv, hs: httptest.NewServer(srv), transport: transport, closeIdle: closeIdle, tr: tr}, nil
}

func (b *jobsBench) reference(ctx context.Context) (string, error) {
	h := sha256.New()
	for i := 0; i < len(b.jobs); i += 2 {
		sum, err := localDigest(ctx, b.jobs[i])
		if err != nil {
			return "", fmt.Errorf("job %d: %w", i, err)
		}
		h.Write(sum[:])
		h.Write(sum[:])
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

type jobsRound struct {
	jobs      []clocksched.SweepSpec
	srv       *service.Server
	hs        *httptest.Server
	transport http.RoundTripper
	closeIdle func()
	tr        *tracer
}

// run drives a closed loop of nproc clients. Each takes the next pair of
// jobs, submits the first, waits for and fetches its result, then does the
// same with the repeat, so every job's result comes from one client.
func (r *jobsRound) run(ctx context.Context) (roundResult, error) {
	n := len(r.jobs)
	blobs := make([][]byte, n)
	sums := make([][32]byte, n)
	lat := make([]float64, n)
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for range nproc() {
		cl := &service.Client{Base: r.hs.URL, Transport: r.transport}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := int(next.Add(1)) - 1; 2*p < n && ctx.Err() == nil; p = int(next.Add(1)) - 1 {
				for _, j := range []int{2 * p, 2*p + 1} {
					blobs[j], sums[j], lat[j], errs[j] = r.job(ctx, cl, j)
				}
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return roundResult{}, err
	}
	out := roundResult{units: n, latName: "job_ms", encoded: blobs}
	h := sha256.New()
	for j := range r.jobs {
		h.Write(sums[j][:])
		if errs[j] != nil {
			if out.failed == 0 {
				fmt.Fprintf(os.Stderr, "perfbench: job %d: %v\n", j, errs[j])
			}
			out.failed++
			continue
		}
		out.cells += r.jobs[j].NumCells()
		out.latencies = append(out.latencies, lat[j])
	}
	out.digest = hex.EncodeToString(h.Sum(nil))
	return out, nil
}

// job submits job j, waits for it and fetches its result; its latency runs
// from the submit call to the fetched bytes.
func (r *jobsRound) job(ctx context.Context, cl *service.Client, j int) ([]byte, [32]byte, float64, error) {
	ctx, end := r.tr.begin(ctx, "client", "job")
	defer end()
	start := time.Now()
	st, err := cl.Submit(ctx, r.jobs[j])
	if err != nil {
		return nil, [32]byte{}, 0, err
	}
	if st, err = cl.Wait(ctx, st.ID, nil); err != nil {
		return nil, [32]byte{}, 0, err
	}
	if st.State != service.StateDone {
		return nil, [32]byte{}, 0, fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	b, err := cl.ResultBytes(ctx, st.ID)
	if err != nil {
		return nil, [32]byte{}, 0, err
	}
	ms := float64(time.Since(start).Nanoseconds()) / 1e6
	_, endGate := r.tr.begin(ctx, "gate", "sha256")
	sum := sha256.Sum256(b)
	endGate()
	return b, sum, ms, nil
}

// attribute follows each client's jobs: the requests a job made, and the
// daemon's file writes nested inside them. A write is placed in the
// request of its job (or, for the shared manifest and cache, of any job)
// that encloses it and ends soonest after it. Client time is divided by
// the number of clients, which all run at once.
func (r *jobsRound) attribute(ctx context.Context, ob *observation) error {
	var jobs, reqs, files []span
	children := map[int][]ival{}
	for _, s := range ob.spans {
		switch s.Layer {
		case "client":
			jobs = append(jobs, s)
		case "service":
			reqs = append(reqs, s)
			children[s.Parent] = append(children[s.Parent], s.ival())
		case "gate":
			ob.rows["gate"] += s.ms()
			children[s.Parent] = append(children[s.Parent], s.ival())
		case "journal", "store", "cache", "fs":
			files = append(files, s)
		}
	}
	for _, f := range files {
		var host *span
		for i := range reqs {
			q := &reqs[i]
			if (f.Job == "" || q.Job == f.Job) && q.Start <= f.Start && f.End <= q.End && (host == nil || q.End < host.End) {
				host = q
			}
		}
		if host == nil {
			continue // background work no client waited on
		}
		children[host.ID] = append(children[host.ID], f.ival())
		ob.rows[f.Layer] += f.ms()
	}
	for _, q := range reqs {
		ob.rows["service."+q.Name] += q.ms() - covered(children[q.ID], q.Start, q.End)
	}
	for _, j := range jobs {
		ob.rows["client"] += j.ms() - covered(children[j.ID], j.Start, j.End)
	}
	c := float64(nproc())
	for l := range ob.rows {
		ob.rows[l] /= c
	}
	ob.layers["service.requests_per_job"] = float64(len(reqs)) / float64(len(jobs))
	byOp := map[string][]float64{}
	for _, q := range reqs {
		byOp[q.Name] = append(byOp[q.Name], q.ms())
	}
	for _, op := range sortedKeys(byOp) {
		ob.quote("service."+op+"_ms", byOp[op])
	}
	ratio, err := cacheHitRatio(ctx, r.transport, r.hs.URL)
	ob.layers["cache.hit_ratio"] = ratio
	return err
}

func (r *jobsRound) close() {
	r.srv.Close()
	r.hs.Close()
	r.closeIdle()
}

// cacheHitRatio reads a daemon's sweep cache counters, summed over its
// jobs, from its /metrics page.
func cacheHitRatio(ctx context.Context, transport http.RoundTripper, base string) (float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return 0, err
	}
	resp, err := (&http.Client{Transport: transport}).Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var hits, misses float64
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		fields := strings.Fields(line)
		if len(fields) < 2 {
			continue
		}
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		switch {
		case err != nil:
		case strings.HasPrefix(line, telemetry.MCacheHits):
			hits += v
		case strings.HasPrefix(line, telemetry.MCacheMisses):
			misses += v
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	if hits+misses == 0 {
		return 0, nil
	}
	return hits / (hits + misses), nil
}

// --- fabric-1peer ----------------------------------------------------------

type fabricBench struct{ spec clocksched.SweepSpec }

func prepareFabric(seed uint64, small bool) (instance, error) {
	n := fabricSeeds
	if small {
		n = fabricSeedsSmall
	}
	cfg, err := table2Config(seed, n)
	if err != nil {
		return nil, err
	}
	return &fabricBench{spec: clocksched.NewSweepSpec(cfg)}, nil
}

func (b *fabricBench) setup(dir string, tr *tracer) (round, error) {
	peer, err := service.New(service.Config{DataDir: filepath.Join(dir, "peer"), Workers: nproc(), FS: tr.fs()})
	if err != nil {
		return nil, err
	}
	r := &fabricRound{spec: b.spec, peer: peer, hs: httptest.NewServer(peer), tr: tr}
	r.transport, r.closeIdle = newTransport(tr)
	r.co, err = fabric.New(fabric.Config{
		Peers:     []string{r.hs.URL},
		Dir:       filepath.Join(dir, "coord"),
		Transport: r.transport,
		FS:        tr.fs(),
	})
	if err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

func (b *fabricBench) reference(ctx context.Context) (string, error) {
	sum, err := localDigest(ctx, b.spec)
	return hex.EncodeToString(sum[:]), err
}

type fabricRound struct {
	spec      clocksched.SweepSpec
	peer      *service.Server
	hs        *httptest.Server
	co        *fabric.Coordinator
	transport http.RoundTripper
	closeIdle func()
	tr        *tracer
}

func (r *fabricRound) run(ctx context.Context) (roundResult, error) {
	fctx, end := r.tr.begin(ctx, "fabric", "Coordinator.Run")
	res, err := r.co.Run(fctx, r.spec)
	end()
	if err != nil {
		return roundResult{}, err
	}
	return canonical(ctx, r.tr, res)
}

// attribute follows the coordinator, which leases one shard at a time to
// its one peer. Its requests and its own ledger and shard writes are
// timed. Each lease's time outside them is split at the moment the peer
// stored the shard's result: before it the coordinator waited on the
// peer's work, after it on its own poll interval. The coordinator's own
// work between leases (planning, verifying, merging) is left to the
// residual.
func (r *fabricRound) attribute(ctx context.Context, ob *observation) error {
	var reqs, submits, results []span
	var path []ival
	done := map[string]float64{}
	for _, s := range ob.spans {
		switch {
		case s.Layer == "service":
			reqs = append(reqs, s)
			path = append(path, s.ival())
			ob.rows["service."+s.Name] += s.ms()
			switch s.Name {
			case "submit":
				submits = append(submits, s)
			case "result":
				results = append(results, s)
			}
		case strings.HasPrefix(s.Path, "coord/"):
			path = append(path, s.ival())
			ob.rows[s.Layer] += s.ms()
		case strings.HasPrefix(s.Path, "peer/") && s.Name == "rename" && filepath.Base(s.Path) == "result.bin":
			done[s.Job] = s.End
		case s.Layer == "codec", s.Layer == "gate":
			ob.rows[s.Layer] += s.ms()
		}
	}
	byStart := func(ss []span) {
		sort.Slice(ss, func(i, j int) bool { return ss[i].Start < ss[j].Start })
	}
	byStart(submits)
	byStart(results)
	var peerWait, pollLag, lease []float64
	for k := 0; k < len(submits) && k < len(results); k++ {
		sub, res := submits[k], results[k]
		fin, ok := done[res.Job]
		if !ok {
			continue
		}
		fin = min(max(fin, sub.End), res.Start)
		peerWait = append(peerWait, uncovered(path, sub.End, fin))
		pollLag = append(pollLag, uncovered(path, fin, res.Start))
		lease = append(lease, (res.End-sub.Start)/1e3)
	}
	ob.rows["fabric.peer_wait"] = sumOf(peerWait)
	ob.rows["fabric.poll_lag"] = sumOf(pollLag)

	shards := float64(len(submits))
	polls := 0
	for _, q := range reqs {
		if q.Name == "status" {
			polls++
		}
	}
	if shards > 0 {
		ob.layers["fabric.shards"] = shards
		ob.layers["fabric.status_polls_per_shard"] = float64(polls) / shards
		ob.layers["service.requests_per_job"] = float64(len(reqs)) / shards
		ob.details["fabric.http_ms_per_shard"] = layerSum(reqs, "service") / shards
		ob.details["fabric.poll_lag_ms_per_shard"] = ob.rows["fabric.poll_lag"] / shards
		ob.details["fabric.peer_wait_ms_per_shard"] = ob.rows["fabric.peer_wait"] / shards
	}
	if len(lease) > 0 {
		ob.details["fabric.lease_ms_p50"] = summarize(lease).Median
	}
	var ledger float64
	for _, s := range ob.spans {
		if s.Layer == "journal" && s.Name == "fsync" && strings.HasPrefix(s.Path, "coord/") {
			ledger += s.ms()
		}
	}
	ob.details["fabric.ledger_fsync_ms"] = ledger
	ratio, err := cacheHitRatio(ctx, r.transport, r.hs.URL)
	ob.layers["cache.hit_ratio"] = ratio
	return err
}

func (r *fabricRound) close() {
	r.peer.Close()
	r.hs.Close()
	r.closeIdle()
}

func sumOf(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
