package fabric

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"clocksched"
	"clocksched/internal/journal"
	"clocksched/internal/service"
	"clocksched/internal/sim"
	"clocksched/internal/telemetry"
)

// fabricStream is the coordinator's RNG stream id for backoff jitter,
// distinct from every simulation, disk, network, and client-retry stream.
const fabricStream = 0xFAB21C

// Error codes the fabric adds to the service's structured set.
const (
	// CodeShardFailed marks a shard that failed to execute everywhere it
	// was tried, including the local fallback — the sweep cannot
	// complete.
	CodeShardFailed = "shard_failed"
	// CodeDeterminismViolation marks two verified results for the same
	// shard with different bytes: version skew or corruption somewhere in
	// the fleet. The sweep fails rather than pick a winner.
	CodeDeterminismViolation = "determinism_violation"
)

// Config tunes one Coordinator. Dir is required; every other zero value
// is usable.
type Config struct {
	// Peers is the static peer list: base URLs of sweepd daemons to
	// dispatch shards to. Empty runs every shard locally — a one-node
	// fabric is exactly a local sweep.
	Peers []string
	// Token is the bearer token sent to every peer.
	Token string
	// Transport, when non-nil, is threaded under every peer client — the
	// chaos suite's fault.NetInjector seam.
	Transport http.RoundTripper

	// Dir roots the coordinator's durable state: the lease ledger
	// (fabric.wal), committed shard results (shard-<i>.bin), and local
	// fallback journals (shard-<i>.wal). Required. A ledger already
	// present is resumed: committed shards verify against their bytes
	// instead of recomputing, and leased peer jobs are adopted.
	Dir string
	// Cache, when non-nil, backs local shard execution with the
	// content-addressed cell cache (and enables local crash-safe shard
	// journals). The sweep daemon passes its shared cache here.
	Cache *clocksched.SweepCache
	// LocalWorkers bounds local shard execution's concurrency;
	// non-positive selects GOMAXPROCS (via SweepConfig).
	LocalWorkers int
	// FS, when non-nil, routes the coordinator's durable writes (ledger,
	// shard files, local journals) through the injectable surface.
	FS journal.FS

	// ShardCells is the cells-per-shard stride. Non-positive selects
	// ceil(total / (4 × max(1, len(Peers)))) — about four waves per peer,
	// small enough to steal, large enough to amortize dispatch.
	ShardCells int
	// HeartbeatTimeout is the lease progress deadline: a shard whose
	// peer reports no new completed cells for this long is cancelled and
	// re-dispatched. Non-positive selects 10s.
	HeartbeatTimeout time.Duration
	// StealAfter is the tail work-stealing threshold: an idle runner
	// duplicates an in-flight shard that has made no progress for this
	// long. Zero selects HeartbeatTimeout/2; negative disables stealing.
	StealAfter time.Duration
	// PeerBackoff is the base backoff after a peer failure, doubling per
	// consecutive failure (capped at 32×) with seeded jitter.
	// Non-positive selects 500ms.
	PeerBackoff time.Duration
	// MaxRemoteAttempts is the per-shard dispatch budget before the
	// shard is handed to the local fallback for good. Non-positive
	// selects 3.
	MaxRemoteAttempts int
	// RequestTimeout is the per-request deadline on peer calls.
	// Non-positive selects 10s.
	RequestTimeout time.Duration
	// Seed seeds the backoff jitter, so a chaos run's redispatch
	// schedule is repeatable.
	Seed uint64

	// Progress, when non-nil, observes committed cells against the grid
	// total — same contract as SweepConfig.Progress, including the
	// resume convention: a resumed coordinator's first call carries the
	// ledger-recovered count.
	Progress func(done, total int)
	// Telemetry, when non-nil, receives the per-peer dispatch /
	// redispatch / steal counters; nil uses a private registry.
	Telemetry *telemetry.Registry
}

func (c Config) withDefaults() Config {
	if c.ShardCells < 0 {
		c.ShardCells = 0
	}
	if c.HeartbeatTimeout <= 0 {
		c.HeartbeatTimeout = 10 * time.Second
	}
	if c.StealAfter == 0 {
		c.StealAfter = c.HeartbeatTimeout / 2
	}
	if c.PeerBackoff <= 0 {
		c.PeerBackoff = 500 * time.Millisecond
	}
	if c.MaxRemoteAttempts <= 0 {
		c.MaxRemoteAttempts = 3
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 10 * time.Second
	}
	return c
}

// maxShardHolders bounds concurrent attempts on one shard: the original
// lease plus at most two thieves.
const maxShardHolders = 3

// takeRetry is the idle runner's re-scan cadence while nothing is
// eligible for it.
const takeRetry = 10 * time.Millisecond

// shardState is the in-memory state of one shard.
type shardState struct {
	index  int
	lo, hi int
	spec   clocksched.SweepSpec
	want   []clocksched.CellSpec // the grid's cells [lo, hi), which a result must match

	done         bool
	sha          [sha256.Size]byte
	res          *clocksched.SweepResult
	attempts     int             // remote dispatch attempts
	localOnly    bool            // remote budget exhausted: local fallback only
	holders      map[string]bool // runner names with a live attempt
	lastActivity time.Time       // dispatch or last observed progress
	adoptPeer    string          // journaled lease to adopt on resume
	adoptJob     string
	lastErr      string        // most recent remote failure text, for diagnostics
	committed    chan struct{} // closed by commit; ends the shard's open leases
}

func (s *shardState) cells() int { return s.hi - s.lo }

// peerState is one peer's health record.
type peerState struct {
	base         string
	client       *service.Client
	failures     int
	backoffUntil time.Time
}

// Coordinator runs SweepSpecs across the peer fleet. One Coordinator runs
// one spec at a time (Run is not reentrant); build one per job.
type Coordinator struct {
	cfg Config

	mu        sync.Mutex
	rng       *sim.RNG
	shards    []*shardState
	peers     []*peerState
	remaining int // shards not yet done
	doneCells int
	replayed  int // cells recovered from the ledger at startup
	fatal     error
	cancelRun context.CancelFunc // ends the run's context; see fail
	ledger    *journal.Writer
	reg       *telemetry.Registry
}

// New builds a coordinator. Dir is required and is created if absent.
func New(cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		return nil, fmt.Errorf("fabric: Config.Dir is required")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("fabric: %w", err)
	}
	reg := cfg.Telemetry
	if reg == nil {
		reg = telemetry.New()
	}
	co := &Coordinator{
		cfg: cfg,
		rng: sim.NewRNGStream(cfg.Seed, fabricStream),
		reg: reg,
	}
	for _, base := range cfg.Peers {
		co.peers = append(co.peers, &peerState{base: base, client: &service.Client{
			Base:           base,
			Token:          cfg.Token,
			Transport:      cfg.Transport,
			RequestTimeout: cfg.RequestTimeout,
		}})
	}
	return co, nil
}

// Per-peer metric names. The peer label is the peer's base URL; the local
// fallback runner counts under peer="local".
func mDispatch(peer string) string   { return fmt.Sprintf(`fabric_dispatch_total{peer=%q}`, peer) }
func mRedispatch(peer string) string { return fmt.Sprintf(`fabric_redispatch_total{peer=%q}`, peer) }
func mSteal(peer string) string      { return fmt.Sprintf(`fabric_steals_total{peer=%q}`, peer) }
func mExpired(peer string) string    { return fmt.Sprintf(`fabric_lease_expired_total{peer=%q}`, peer) }

const (
	mAdoptions  = "fabric_adoptions_total"
	mLocalRuns  = "fabric_local_shards_total"
	mDuplicates = "fabric_duplicate_results_total"
	mShardsDone = "fabric_shards_done_total"
	mPending    = "fabric_shards_pending"
)

func (c *Coordinator) ledgerPath() string { return filepath.Join(c.cfg.Dir, "fabric.wal") }
func (c *Coordinator) shardBinPath(i int) string {
	return filepath.Join(c.cfg.Dir, fmt.Sprintf("shard-%d.bin", i))
}
func (c *Coordinator) shardWalPath(i int) string {
	return filepath.Join(c.cfg.Dir, fmt.Sprintf("shard-%d.wal", i))
}

// specSHA is the canonical hash binding a ledger to its spec.
func specSHA(spec clocksched.SweepSpec) (string, error) {
	b, err := json.Marshal(spec)
	if err != nil {
		return "", fmt.Errorf("fabric: hashing spec: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// Run executes the spec across the fleet and returns the merged result.
// The error contract mirrors clocksched.Sweep: a non-FailFast sweep with
// failing cells returns the partial result alongside their joined error;
// unrecoverable coordination failures return a *service.APIError.
func (c *Coordinator) Run(ctx context.Context, spec clocksched.SweepSpec) (*clocksched.SweepResult, error) {
	if _, err := spec.Config(); err != nil {
		if errors.Is(err, clocksched.ErrVersionMismatch) {
			return nil, &service.APIError{Status: 409, Code: service.CodeVersionMismatch, Message: err.Error()}
		}
		return nil, &service.APIError{Status: 400, Code: service.CodeInvalidSpec, Message: err.Error()}
	}
	total := spec.NumCells()
	if total == 0 {
		return nil, &service.APIError{Status: 400, Code: service.CodeInvalidSpec, Message: "empty sweep grid"}
	}
	if err := c.plan(spec, total); err != nil {
		return nil, err
	}
	// Set before any runner starts, so fail reads it without the lock.
	ctx, c.cancelRun = context.WithCancel(ctx)
	defer c.cancelRun()
	defer func() {
		c.mu.Lock()
		led := c.ledger
		c.ledger = nil
		c.mu.Unlock()
		if led != nil {
			led.Close()
		}
	}()

	// No runner has started yet, so plan's counts are read unlocked.
	if c.replayed > 0 {
		c.report(c.doneCells, total)
	}

	if c.remaining > 0 {
		var wg sync.WaitGroup
		for _, p := range c.peers {
			wg.Add(1)
			go func(p *peerState) {
				defer wg.Done()
				c.runPeer(ctx, p)
			}(p)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.runLocal(ctx)
		}()
		wg.Wait()
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.fatal != nil {
		return nil, c.fatal
	}
	if c.remaining > 0 {
		// Runners only give up with shards outstanding when the context
		// died.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return nil, &service.APIError{Status: 500, Code: service.CodeInternal,
			Message: fmt.Sprintf("fabric: %d shards unfinished", c.remaining)}
	}
	results := make([]*clocksched.SweepResult, len(c.shards))
	for i, s := range c.shards {
		results[i] = s.res
	}
	merged, err := clocksched.MergeShardResults(spec, results)
	if err != nil {
		return nil, &service.APIError{Status: 500, Code: service.CodeInternal, Message: err.Error()}
	}
	merged.Telemetry.Replayed += c.replayed
	var cellErrs []error
	for _, ce := range merged.Errors() {
		cellErrs = append(cellErrs, fmt.Errorf("cell %d (%s, %s, seed %d): %w",
			ce.Index, ce.Workload, ce.Policy, ce.Seed, ce.Err))
	}
	return merged, errors.Join(cellErrs...)
}

// plan opens (or resumes) the ledger, builds the shard table, and
// verifies previously committed shards against their on-disk bytes.
func (c *Coordinator) plan(spec clocksched.SweepSpec, total int) error {
	sha, err := specSHA(spec)
	if err != nil {
		return &service.APIError{Status: 400, Code: service.CodeInvalidSpec, Message: err.Error()}
	}
	stride := c.cfg.ShardCells
	if stride <= 0 {
		waves := 4 * max(1, len(c.cfg.Peers))
		stride = max(1, (total+waves-1)/waves)
	}

	var recs []Record
	w, _, err := journal.OpenFS(c.ledgerPath(), true, func(p []byte) error {
		rec, derr := DecodeShardPlan(p)
		if derr != nil {
			// A CRC-valid but semantically bad record means a ledger from
			// a different revision; ignoring it degrades to recomputing,
			// which is always safe.
			return nil
		}
		recs = append(recs, rec)
		return nil
	}, c.cfg.FS)
	if err != nil {
		return &service.APIError{Status: 500, Code: service.CodeInternal,
			Message: fmt.Sprintf("fabric ledger: %v", err)}
	}

	adopt := len(recs) > 0 && recs[0].Op == opPlan &&
		recs[0].Plan.SpecSHA == sha && recs[0].Plan.Total == total
	if adopt {
		stride = recs[0].Plan.ShardCells
	} else {
		// No usable ledger (fresh run, or a dir reused for a different
		// spec): start a clean one. Stale shard files are never trusted —
		// only a done record makes one load-bearing.
		w.Close()
		recs = nil
		w, _, err = journal.OpenFS(c.ledgerPath(), false, nil, c.cfg.FS)
		if err == nil {
			err = c.appendRecord(w, Record{Op: opPlan, Plan: &ShardPlan{
				SpecSHA: sha, Total: total, ShardCells: stride,
				Count: (total + stride - 1) / stride,
			}})
		}
		if err != nil {
			return &service.APIError{Status: 500, Code: service.CodeInternal,
				Message: fmt.Sprintf("fabric ledger: %v", err)}
		}
	}

	// The grid is expanded once; each shard keeps its slice of it to verify
	// results against, and ships only its own (ranged) sub-spec.
	cells, err := gridCells(spec, total)
	if err != nil {
		w.Close()
		return &service.APIError{Status: 500, Code: service.CodeInternal, Message: err.Error()}
	}
	count := (total + stride - 1) / stride
	shards := make([]*shardState, count)
	for i := range shards {
		lo, hi := i*stride, min((i+1)*stride, total)
		sub, err := spec.Shard(lo, hi)
		if err != nil {
			w.Close()
			return &service.APIError{Status: 500, Code: service.CodeInternal, Message: err.Error()}
		}
		shards[i] = &shardState{index: i, lo: lo, hi: hi, spec: sub, want: cells[lo:hi],
			holders: map[string]bool{}, committed: make(chan struct{})}
	}

	doneCells := 0
	for _, rec := range recs {
		if rec.Shard < 0 || rec.Shard >= count {
			continue
		}
		s := shards[rec.Shard]
		switch rec.Op {
		case opLease:
			if !s.done {
				s.adoptPeer, s.adoptJob = rec.Peer, rec.Job
			}
		case opDone:
			if s.done {
				continue
			}
			res, sum, ok := c.loadShard(s, rec.SHA)
			if ok {
				s.done, s.res, s.sha = true, res, sum
				doneCells += s.cells()
			}
		}
	}

	remaining := 0
	for _, s := range shards {
		if !s.done {
			remaining++
		}
	}
	c.mu.Lock()
	c.ledger = w
	c.shards = shards
	c.remaining = remaining
	c.doneCells = doneCells
	c.replayed = doneCells
	c.reg.Gauge(mPending).Set(float64(remaining))
	c.mu.Unlock()
	return nil
}

// gridCells expands the spec's whole grid of total cells, in grid order,
// into the cell specs shard results are verified against.
func gridCells(spec clocksched.SweepSpec, total int) ([]clocksched.CellSpec, error) {
	whole, err := spec.Shard(0, total)
	if err != nil {
		return nil, err
	}
	cfg, err := whole.Config()
	if err != nil {
		return nil, err
	}
	return clocksched.NewSweepSpec(cfg).Cells, nil
}

// loadShard re-verifies one journaled shard commit: the on-disk bytes
// must hash to the recorded digest and decode to the shard's cell range.
// Anything less and the shard simply recomputes.
func (c *Coordinator) loadShard(s *shardState, wantSHA string) (*clocksched.SweepResult, [sha256.Size]byte, bool) {
	var sum [sha256.Size]byte
	b, err := os.ReadFile(c.shardBinPath(s.index))
	if err != nil {
		return nil, sum, false
	}
	sum = sha256.Sum256(b)
	if hex.EncodeToString(sum[:]) != wantSHA {
		return nil, sum, false
	}
	res, err := c.verifyShard(s, b)
	if err != nil {
		return nil, sum, false
	}
	return res, sum, true
}

// verifyShard decodes candidate result bytes for the shard and checks
// they are really this shard's cells: right count, and each cell's whole
// configuration, policy included, matching the shard's grid cell — the
// guard against adopting a recycled job id on a peer whose data dir was
// reset.
func (c *Coordinator) verifyShard(s *shardState, b []byte) (*clocksched.SweepResult, error) {
	res, err := clocksched.DecodeSweepResult(b)
	if err != nil {
		return nil, fmt.Errorf("fabric: shard %d result: %w", s.index, err)
	}
	if len(res.Cells) != s.cells() {
		return nil, fmt.Errorf("fabric: shard %d result has %d cells, want %d", s.index, len(res.Cells), s.cells())
	}
	for k, cell := range res.Cells {
		if !s.want[k].Matches(cell.Config) {
			return nil, fmt.Errorf("fabric: shard %d cell %d is not the leased cell (got %s/%s seed %d)",
				s.index, k, cell.Config.Workload, cell.Config.Policy.Name(), cell.Config.Seed)
		}
	}
	return res, nil
}

func (c *Coordinator) appendRecord(w *journal.Writer, rec Record) error {
	b, err := encodeRecord(rec)
	if err != nil {
		return err
	}
	if err := w.Append(b); err != nil {
		return err
	}
	return w.Sync()
}

// logLease journals a lease best-effort: losing a lease record costs only
// the adoption optimization on the next resume, never correctness.
func (c *Coordinator) logLease(rec Record) {
	c.mu.Lock()
	w := c.ledger
	c.mu.Unlock()
	if w != nil {
		_ = c.appendRecord(w, rec)
	}
}

// report forwards committed-cell progress.
func (c *Coordinator) report(done, total int) {
	if c.cfg.Progress != nil {
		c.cfg.Progress(done, total)
	}
}

// fail records the first fatal error and wakes every runner by cancelling
// the run's context.
func (c *Coordinator) fail(err error) {
	c.mu.Lock()
	if c.fatal == nil {
		c.fatal = err
	}
	c.mu.Unlock()
	c.cancelRun()
}

// errAlreadyDone marks a commit that lost the first-result-wins race.
var errAlreadyDone = errors.New("fabric: shard already committed")

// commit verifies and durably records one shard result. The first valid
// result wins; a later duplicate with identical bytes is discarded without
// being decoded, and a duplicate with different bytes is verified first —
// bad bytes are the peer's failure — then fails the whole sweep as a
// determinism violation.
func (c *Coordinator) commit(s *shardState, b []byte) error {
	sum := sha256.Sum256(b)
	c.mu.Lock()
	dup := s.done && s.sha == sum
	c.mu.Unlock()
	if dup {
		c.reg.Counter(mDuplicates).Inc()
		return errAlreadyDone
	}
	res, err := c.verifyShard(s, b)
	if err != nil {
		return err
	}

	c.mu.Lock()
	if s.done {
		prev := s.sha
		c.mu.Unlock()
		if prev != sum {
			err := &service.APIError{Status: 500, Code: CodeDeterminismViolation,
				Message: fmt.Sprintf("shard %d: two verified results with different bytes (%x vs %x) — version skew or corruption in the fleet",
					s.index, prev[:6], sum[:6])}
			c.fail(err)
			return err
		}
		c.reg.Counter(mDuplicates).Inc()
		return errAlreadyDone
	}
	if err := journal.WriteFileAtomic(c.shardBinPath(s.index), b, c.cfg.FS); err != nil {
		c.mu.Unlock()
		return fmt.Errorf("fabric: storing shard %d: %w", s.index, err)
	}
	if w := c.ledger; w != nil {
		if err := c.appendRecord(w, Record{Op: opDone, Shard: s.index, SHA: hex.EncodeToString(sum[:])}); err != nil {
			// The in-memory commit still stands for this run; only resume
			// cheapness is lost.
			c.reg.Counter("fabric_ledger_errors_total").Inc()
		}
	}
	s.done, s.res, s.sha = true, res, sum
	close(s.committed)
	c.remaining--
	c.doneCells += s.cells()
	done := c.doneCells
	c.reg.Counter(mShardsDone).Inc()
	c.reg.Gauge(mPending).Set(float64(c.remaining))
	total := c.shards[len(c.shards)-1].hi
	c.mu.Unlock()
	c.report(done, total)
	return nil
}

// stop reports whether the runners should exit, under c.mu.
func (c *Coordinator) stopLocked(ctx context.Context) bool {
	return c.fatal != nil || c.remaining == 0 || ctx.Err() != nil
}

// peerFailure backs the peer off (exponential, seeded jitter) and charges
// the shard one attempt; at the remote budget the shard becomes
// local-only. Removing the holder (the caller's defer) re-pends the
// shard.
func (c *Coordinator) peerFailure(p *peerState, s *shardState, hint time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p.failures++
	base := c.cfg.PeerBackoff * time.Duration(1<<min(p.failures-1, 5))
	if hint > base {
		base = hint
	}
	backoff := base + time.Duration(c.rng.Int63n(int64(base)/2+1))
	p.backoffUntil = time.Now().Add(backoff)
	if s != nil && s.attempts >= c.cfg.MaxRemoteAttempts {
		s.localOnly = true
	}
}

// takeMode distinguishes why a runner picked a shard.
type takeMode int

const (
	takeDispatch takeMode = iota
	takeAdopt
	takeSteal
)

// takeForPeer blocks until the peer has an eligible shard (returned with
// its holder slot claimed) or the run is over (nil).
func (c *Coordinator) takeForPeer(ctx context.Context, p *peerState) (*shardState, takeMode) {
	for {
		c.mu.Lock()
		if c.stopLocked(ctx) {
			c.mu.Unlock()
			return nil, 0
		}
		now := time.Now()
		if pick, mode := c.pickForPeerLocked(p, now); pick != nil {
			pick.holders[p.base] = true
			pick.lastActivity = now
			if mode != takeAdopt {
				pick.attempts++
			}
			c.mu.Unlock()
			return pick, mode
		}
		c.mu.Unlock()
		if !sleepCtx(ctx, takeRetry) {
			return nil, 0
		}
	}
}

// pickForPeerLocked chooses the peer's next shard, under c.mu: none while
// the peer backs off; else an adoptable shard (a lease journaled against
// this peer may still be running there), then the first pending shard,
// then in the tail the stalest in-flight shard to duplicate.
func (c *Coordinator) pickForPeerLocked(p *peerState, now time.Time) (*shardState, takeMode) {
	if now.Before(p.backoffUntil) {
		return nil, 0
	}
	for _, s := range c.shards {
		if !s.done && len(s.holders) == 0 && !s.localOnly && s.adoptPeer == p.base && s.adoptJob != "" {
			return s, takeAdopt
		}
	}
	for _, s := range c.shards {
		if !s.done && len(s.holders) == 0 && !s.localOnly {
			return s, takeDispatch
		}
	}
	if c.cfg.StealAfter <= 0 {
		return nil, 0
	}
	var stalest *shardState
	for _, s := range c.shards {
		if s.done || s.localOnly || len(s.holders) == 0 || s.holders[p.base] || len(s.holders) >= maxShardHolders {
			continue
		}
		if now.Sub(s.lastActivity) < c.cfg.StealAfter {
			continue
		}
		if stalest == nil || s.lastActivity.Before(stalest.lastActivity) {
			stalest = s
		}
	}
	return stalest, takeSteal
}

// sleepCtx sleeps d unless ctx dies first; false means it did.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	select {
	case <-time.After(d):
		return true
	case <-ctx.Done():
		return false
	}
}

// runPeer is one peer's dispatch loop.
func (c *Coordinator) runPeer(ctx context.Context, p *peerState) {
	for {
		s, mode := c.takeForPeer(ctx, p)
		if s == nil {
			return
		}
		c.attemptPeer(ctx, p, s, mode)
		c.mu.Lock()
		delete(s.holders, p.base)
		c.mu.Unlock()
	}
}

// cancelJob best-effort cancels a peer job on a fresh short-lived context
// (the run context may already be dead).
func cancelJob(cl *service.Client, id string) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_, _ = cl.Cancel(ctx, id)
}

// retryAfter extracts a server backoff hint from a structured rejection.
func retryAfter(err error) time.Duration {
	var apiErr *service.APIError
	if errors.As(err, &apiErr) {
		return apiErr.RetryAfter
	}
	return 0
}

// terminalRejection classifies peer errors that retrying cannot fix: the
// spec is invalid or version-skewed, or our token is bad. Everything else
// — transport faults, queue-full 429s, draining 503s, 5xxs — is the
// peer's problem, not the spec's, and earns a redispatch.
func terminalRejection(err error) bool {
	var apiErr *service.APIError
	if !errors.As(err, &apiErr) {
		return false
	}
	switch apiErr.Code {
	case service.CodeVersionMismatch, service.CodeInvalidSpec, service.CodeUnauthorized, service.CodeBadRequest:
		return true
	}
	return false
}

// attemptPeer runs one lease attempt: submit (or adopt) a job on the
// peer, watch its progress against the heartbeat deadline, and commit the
// verified result. Any exit path other than commit leaves the shard
// pending for redispatch.
func (c *Coordinator) attemptPeer(ctx context.Context, p *peerState, s *shardState, mode takeMode) {
	cl := p.client
	if mode == takeSteal {
		c.reg.Counter(mSteal(p.base)).Inc()
	}
	var jobID string

	if mode == takeAdopt {
		c.mu.Lock()
		jobID = s.adoptJob
		s.adoptPeer, s.adoptJob = "", ""
		c.mu.Unlock()
		st, err := cl.Status(ctx, jobID)
		switch {
		case err == nil && st.State == service.StateDone:
			c.reg.Counter(mAdoptions).Inc()
			c.finishLease(ctx, p, s, jobID)
			return
		case err == nil && (st.State == service.StateFailed || st.State == service.StateCancelled):
			jobID = "" // the old lease died; dispatch fresh below
		case err == nil:
			// Still queued or running on the peer: adopt the wait.
			c.reg.Counter(mAdoptions).Inc()
		default:
			var apiErr *service.APIError
			if errors.As(err, &apiErr) && apiErr.Status == 404 {
				jobID = "" // peer lost it (data reset); dispatch fresh
			} else {
				c.peerFailure(p, s, retryAfter(err))
				return
			}
		}
	}

	if jobID == "" {
		st, err := cl.Submit(ctx, s.spec)
		if err != nil {
			if terminalRejection(err) {
				c.fail(&service.APIError{Status: 500, Code: CodeShardFailed,
					Message: fmt.Sprintf("shard %d rejected by %s: %v", s.index, p.base, err)})
				return
			}
			c.peerFailure(p, s, retryAfter(err))
			return
		}
		jobID = st.ID
		c.mu.Lock()
		attempt := s.attempts
		c.mu.Unlock()
		if attempt > 1 {
			c.reg.Counter(mRedispatch(p.base)).Inc()
		} else {
			c.reg.Counter(mDispatch(p.base)).Inc()
		}
		c.logLease(Record{Op: opLease, Shard: s.index, Peer: p.base, Job: jobID, Attempt: attempt})
	}

	c.watchLease(ctx, p, s, jobID)
}

// errLeaseExpired is the cause a lapsed heartbeat cancels its lease with.
var errLeaseExpired = errors.New("fabric: lease heartbeat expired")

// watchLease follows the job through Client.Wait until the job is
// terminal, the heartbeat deadline lapses without progress, the shard is
// committed elsewhere, or the run ends; each of the last three cancels the
// lease's context. Only a rise in the done count is progress: the snapshot
// a reconnect re-sends repeats the count and resets nothing. Any other
// error Wait returns — a 404 after the peer restarted with a fresh data
// dir, another 4xx, a malformed stream — fails the peer at once. The
// stream is closed before a done job's result is fetched.
func (c *Coordinator) watchLease(ctx context.Context, p *peerState, s *shardState, jobID string) {
	lctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	heartbeat := time.AfterFunc(c.cfg.HeartbeatTimeout, func() { cancel(errLeaseExpired) })
	defer heartbeat.Stop()
	go func() {
		select {
		case <-s.committed:
			cancel(errAlreadyDone)
		case <-lctx.Done():
		}
	}()

	lastDone := -1
	st, err := p.client.Wait(lctx, jobID, func(done, _ int) {
		if done > lastDone {
			lastDone = done
			heartbeat.Reset(c.cfg.HeartbeatTimeout)
			c.mu.Lock()
			s.lastActivity = time.Now() // read under the lock: never moves back
			c.mu.Unlock()
		}
	})
	if err != nil {
		if lctx.Err() != nil {
			cancelJob(p.client, jobID)
			if errors.Is(context.Cause(lctx), errLeaseExpired) {
				c.reg.Counter(mExpired(p.base)).Inc()
				c.peerFailure(p, s, 0)
			}
			return
		}
		c.peerFailure(p, s, 0) // refused, or a malformed stream
		return
	}

	switch st.State {
	case service.StateDone:
		c.finishLease(ctx, p, s, jobID)
	case service.StateFailed:
		// The peer ran the sweep and the sweep itself failed. That is
		// usually deterministic (the spec's own cells fail), so retries burn
		// toward the local fallback, where the local engine is the arbiter
		// of whether the spec truly fails.
		c.mu.Lock()
		s.lastErr = st.Error
		if s.attempts >= c.cfg.MaxRemoteAttempts {
			s.localOnly = true
		}
		c.mu.Unlock()
	}
	// StateCancelled: someone cancelled our lease out from under us;
	// removing the holder re-pends the shard.
}

// finishLease fetches, verifies, and commits a done job's result bytes.
// Fetches retry a few times against cut bodies before the lease is given
// up for redispatch.
func (c *Coordinator) finishLease(ctx context.Context, p *peerState, s *shardState, jobID string) {
	var b []byte
	var err error
	for try := 0; try < 3; try++ {
		b, err = p.client.ResultBytes(ctx, jobID)
		if err == nil {
			break
		}
		if ctx.Err() != nil || terminalRejection(err) {
			break
		}
	}
	if err != nil {
		c.peerFailure(p, s, retryAfter(err))
		return
	}
	if err := c.commit(s, b); err != nil && !errors.Is(err, errAlreadyDone) {
		// Bad bytes (failed verification) count as a peer failure; a
		// determinism violation has already failed the run inside commit.
		var apiErr *service.APIError
		if !errors.As(err, &apiErr) {
			c.peerFailure(p, s, 0)
		}
		return
	}
	c.mu.Lock()
	p.failures = 0
	c.mu.Unlock()
}

// localName is the local runner's holder/metric label.
const localName = "local"

// allPeersDownLocked reports whether every configured peer is cooling
// off; with no peers at all the fleet is trivially down and local runs
// everything.
func (c *Coordinator) allPeersDownLocked(now time.Time) bool {
	for _, p := range c.peers {
		if !now.Before(p.backoffUntil) {
			return false
		}
	}
	return true
}

// takeForLocal picks work for the local fallback runner: shards past
// their remote budget always; any pending shard when the whole fleet is
// down; the stalest in-flight shard (steal) when the fleet is down and
// nothing is pending.
func (c *Coordinator) takeForLocal(ctx context.Context) *shardState {
	for {
		c.mu.Lock()
		if c.stopLocked(ctx) {
			c.mu.Unlock()
			return nil
		}
		now := time.Now()
		fleetDown := c.allPeersDownLocked(now)
		var pick *shardState
		for _, s := range c.shards {
			if s.done || len(s.holders) > 0 {
				continue
			}
			if s.localOnly || fleetDown {
				pick = s
				break
			}
		}
		if pick == nil && fleetDown && c.cfg.StealAfter > 0 {
			for _, s := range c.shards {
				if s.done || len(s.holders) == 0 || s.holders[localName] || len(s.holders) >= maxShardHolders {
					continue
				}
				if now.Sub(s.lastActivity) < c.cfg.StealAfter {
					continue
				}
				if pick == nil || s.lastActivity.Before(pick.lastActivity) {
					pick = s
				}
			}
		}
		if pick == nil {
			c.mu.Unlock()
			if !sleepCtx(ctx, takeRetry) {
				return nil
			}
			continue
		}
		stolen := len(pick.holders) > 0
		pick.holders[localName] = true
		pick.lastActivity = now
		c.mu.Unlock()
		if stolen {
			c.reg.Counter(mSteal(localName)).Inc()
		}
		return pick
	}
}

// runLocal is the degraded-mode runner: it executes shards with the local
// sweep engine, journaled per shard so even local work is crash-safe.
func (c *Coordinator) runLocal(ctx context.Context) {
	for {
		s := c.takeForLocal(ctx)
		if s == nil {
			return
		}
		c.attemptLocal(ctx, s)
		c.mu.Lock()
		delete(s.holders, localName)
		c.mu.Unlock()
	}
}

// attemptLocal runs one shard in-process. A partial result (cell errors
// under a non-fail-fast spec) is a legitimate, deterministic result and
// commits; only a nil result is a true execution failure, and since local
// execution is the fallback of last resort, that failure is fatal and
// structured.
func (c *Coordinator) attemptLocal(ctx context.Context, s *shardState) {
	cfg, err := s.spec.Config()
	if err != nil {
		c.fail(&service.APIError{Status: 409, Code: service.CodeVersionMismatch, Message: err.Error()})
		return
	}
	cfg.Workers = c.cfg.LocalWorkers
	cfg.Cache = c.cfg.Cache
	cfg.FS = c.cfg.FS
	if c.cfg.Cache != nil {
		cfg.Journal = c.shardWalPath(s.index)
		cfg.Resume = true
	}
	res, runErr := clocksched.Sweep(ctx, cfg)
	if ctx.Err() != nil {
		return
	}
	if res == nil {
		c.fail(&service.APIError{Status: 500, Code: CodeShardFailed,
			Message: fmt.Sprintf("shard %d failed locally: %v", s.index, runErr)})
		return
	}
	b, err := clocksched.EncodeSweepResult(res)
	if err != nil {
		c.fail(&service.APIError{Status: 500, Code: service.CodeInternal,
			Message: fmt.Sprintf("encoding shard %d: %v", s.index, err)})
		return
	}
	c.reg.Counter(mLocalRuns).Inc()
	if err := c.commit(s, b); err != nil && !errors.Is(err, errAlreadyDone) {
		var apiErr *service.APIError
		if !errors.As(err, &apiErr) {
			c.fail(&service.APIError{Status: 500, Code: service.CodeInternal,
				Message: fmt.Sprintf("committing shard %d: %v", s.index, err)})
		}
	}
}
