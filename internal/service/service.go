// Package service is the networked sweep daemon's engine: an HTTP+JSON job
// API over the existing sweep machinery. Clients POST a declarative
// SweepSpec, the server queues it through a bounded admission queue, runs
// it across a shared worker budget, checkpoints every completed cell to a
// per-job write-ahead journal, and retains the canonical result bytes on
// disk — so a SIGKILL'd daemon restarts with every queued and running job
// intact and resumes them to byte-identical results.
//
// Layering: the service sits strictly above the public clocksched API (it
// imports the root package, never the reverse). Determinism is inherited,
// not re-implemented — a job's result bytes are EncodeSweepResult of a
// Sweep, which is canonical whatever mix of fresh runs, cache hits, and
// journal replays produced it.
//
// Durability model, in order of trust:
//
//   - The job manifest (dataDir/manifest.wal) is the job table's source of
//     truth: a submit record at admission, a state record only when a job
//     reaches a terminal state. A job's terminal record is appended only
//     after its result bytes are atomically on disk, so a crash between
//     the two leaves a non-terminal job that simply re-runs (resuming its
//     cell journal) on the next boot.
//   - Each job's cell journal (dataDir/jobs/<id>/sweep.wal) plus the
//     shared content-addressed cell cache (dataDir/cache) make the re-run
//     cheap: completed cells replay instead of re-simulating.
//   - Manifest compaction (the retention reaper dropping deleted jobs'
//     records) is guarded by a backup copy: manifest.bak is written before
//     the rewrite and merged back in on the next boot if the rewrite was
//     torn, so an accepted job's submit record can never be lost to a
//     crash mid-compaction.
//   - Everything else — queue order, progress counts, subscriber state —
//     is in-memory and rebuilt or recomputed on boot.
//
// Scheduling: jobs carry a Priority class (batch < normal < interactive).
// The queue pops the highest class first (FIFO within a class), and an
// interactive submission arriving while every runner is busy preempts the
// lowest-class running job at its next quantum boundary. Preemption is
// cheap by construction: the victim's completed cells are already in its
// cell journal, so when it re-runs they replay instead of re-simulating,
// and its final result bytes are identical to a never-preempted run.
package service

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"clocksched"
	"clocksched/internal/journal"
	"clocksched/internal/telemetry"
)

// newEpoch draws the per-boot token that qualifies SSE event ids. Event
// sequence numbers restart from zero on every boot (and a data-dir reset
// even reuses job ids), so a bare sequence from a previous daemon life can
// collide with a current one; the epoch makes such an id visibly foreign.
// Random rather than persisted: two boots must never share a token, even
// after the data dir is wiped.
func newEpoch() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on the supported platforms; a broken
		// entropy source degrades to snapshot-on-every-reconnect, which is
		// safe (just wasteful), so don't take the daemon down over it.
		return fmt.Sprintf("t%x", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}

// Service-level metric names, exported on /metrics alongside each job's
// scoped registry.
const (
	mJobsQueued     = "service_jobs_queued"
	mJobsActive     = "service_jobs_active"
	mJobsDone       = `service_jobs_total{state="done"}`
	mJobsFailed     = `service_jobs_total{state="failed"}`
	mJobsCanceled   = `service_jobs_total{state="cancelled"}`
	mRejectedFull   = `service_rejects_total{reason="queue_full"}`
	mRejectedVer    = `service_rejects_total{reason="version_mismatch"}`
	mRejectedSpec   = `service_rejects_total{reason="invalid_spec"}`
	mRejectedDrn    = `service_rejects_total{reason="draining"}`
	mRejectedQuota  = `service_rejects_total{reason="quota_exceeded"}`
	mRejectedAuth   = `service_rejects_total{reason="unauthorized"}`
	mPreemptions    = "service_preemptions_total"
	mManifestErrs   = "service_manifest_errors_total"
	mCompactions    = "service_manifest_compactions_total"
	mGCRuns         = "service_gc_runs_total"
	mGCJobsDeleted  = "service_gc_jobs_deleted_total"
	mGCBytesDeleted = "service_gc_bytes_freed_total"
	mDataBytes      = "service_data_bytes"
)

// Config tunes one Server. The zero value of every field but DataDir is
// usable; see the field defaults.
type Config struct {
	// DataDir roots the server's durable state: manifest.wal, cache/, and
	// jobs/<id>/ directories. Required.
	DataDir string
	// MaxQueue bounds the admission queue: at most this many jobs may be
	// waiting (not yet running) before submissions are rejected with 429.
	// Non-positive selects 16. Jobs recovered from the manifest on boot
	// and jobs re-queued by preemption are admitted above the bound —
	// they were accepted before.
	MaxQueue int
	// MaxActiveJobs bounds how many jobs run concurrently; the worker
	// budget is split evenly between them. Non-positive selects 2.
	MaxActiveJobs int
	// Workers is the total simulation worker budget shared fairly across
	// active jobs (each job gets max(1, Workers/MaxActiveJobs)).
	// Non-positive selects GOMAXPROCS.
	Workers int
	// RetryAfter is the backoff hint attached to 429 responses.
	// Non-positive selects 2s.
	RetryAfter time.Duration
	// CellDelay, when positive, sleeps this long in each job's progress
	// callback after every completed cell. Simulated cells finish in
	// milliseconds, far too fast to kill a daemon mid-job on purpose; the
	// crash tests widen the window with this. Zero for production.
	CellDelay time.Duration
	// Auth, when non-nil, requires a bearer token from the table on every
	// endpoint but /healthz, and enforces each client's quota at
	// admission. Nil disables authentication entirely.
	Auth *AuthTable
	// RetainResults, when positive, bounds how many terminal jobs the
	// retention reaper keeps; the oldest beyond the bound are deleted
	// (result bytes, cell journal, manifest records). Zero keeps
	// everything.
	RetainResults int
	// MaxDataBytes, when positive, bounds the on-disk footprint of
	// dataDir/jobs; when exceeded, the reaper deletes terminal jobs
	// oldest-first until back under. Queued, running, and preempted jobs
	// are never touched. Zero is unlimited.
	MaxDataBytes int64
	// GCInterval is the reaper's cadence when retention is armed.
	// Non-positive selects 1 minute.
	GCInterval time.Duration
	// FS, when non-nil, routes every durable write the daemon performs —
	// manifest appends and fsyncs, manifest compaction, result-file
	// writes, cell-journal appends, cache entry files — through an
	// injectable filesystem surface. The chaos harness arms it with a
	// fault.DiskInjector; production leaves it nil (the real filesystem).
	FS journal.FS
	// Executor, when non-nil, replaces the in-process clocksched.Sweep
	// call for every job: it receives the job's identity, durable
	// directory, spec, and the fully-resolved local SweepConfig (workers,
	// cache, journal, progress, FS), and returns the job's result. The
	// sweep daemon wires the distributed fabric coordinator here when a
	// peer list is configured; nil runs every job locally, exactly as
	// before.
	Executor func(ctx context.Context, job ExecJob) (*clocksched.SweepResult, error)
	// Metrics adds extra scoped registries to the /metrics export — the
	// daemon exports the fabric coordinator's per-peer counters here.
	Metrics []telemetry.Scoped
}

// ExecJob is the execution request handed to Config.Executor: everything
// the server resolved about one job's run.
type ExecJob struct {
	// ID is the job id ("j17").
	ID string
	// Dir is the job's durable directory (dataDir/jobs/<id>), already
	// created; an executor may keep its own state there.
	Dir string
	// Spec is the job's submitted spec, version-checked at admission.
	Spec clocksched.SweepSpec
	// Config is the fully-resolved configuration a local run would use:
	// worker share, shared cache, per-job cell journal (Resume set),
	// progress callback, telemetry, and the injectable FS. An executor
	// that delegates elsewhere should still honour Progress and reuse
	// Cache/FS for any local work.
	Config clocksched.SweepConfig
}

// withDefaults resolves the zero fields.
func (c Config) withDefaults() Config {
	if c.MaxQueue <= 0 {
		c.MaxQueue = 16
	}
	if c.MaxActiveJobs <= 0 {
		c.MaxActiveJobs = 2
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = 2 * time.Second
	}
	if c.GCInterval <= 0 {
		c.GCInterval = time.Minute
	}
	return c
}

// JobState is a job's lifecycle position. Terminal states are StateDone,
// StateFailed, and StateCancelled. StatePreempted is a waiting state: the
// job was pushed off its runner by a higher-priority submission and sits
// in the queue with its completed cells journaled.
type JobState string

const (
	StateQueued    JobState = "queued"
	StateRunning   JobState = "running"
	StatePreempted JobState = "preempted"
	StateDone      JobState = "done"
	StateFailed    JobState = "failed"
	StateCancelled JobState = "cancelled"
)

// terminal reports whether the state is final.
func (s JobState) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// manifestRecord is one entry of the job manifest WAL.
type manifestRecord struct {
	Op       string                `json:"op"` // "submit" | "state" | "meta"
	ID       string                `json:"id,omitempty"`
	Spec     *clocksched.SweepSpec `json:"spec,omitempty"`
	State    JobState              `json:"state,omitempty"`
	Error    string                `json:"error,omitempty"`
	Priority Priority              `json:"priority,omitempty"`
	Client   string                `json:"client,omitempty"`
	// NextID rides on "meta" records, written at compaction: once the
	// reaper drops a deleted job's submit record, the id counter can no
	// longer be recomputed from the surviving ids, and without this a
	// reboot could hand a deleted job's id to a new job.
	NextID int `json:"next_id,omitempty"`
}

// job is the server-side record of one submitted sweep.
type job struct {
	id       string
	spec     clocksched.SweepSpec
	dir      string // dataDir/jobs/<id>
	total    int    // grid size
	priority Priority
	client   string // authenticated submitter, "" if anonymous
	seq      int    // admission order, for FIFO within a priority class

	mu          sync.Mutex
	state       JobState
	errText     string // terminal failure text
	done        int    // completed cells
	replayed    int    // cells recovered via journal replay on the last run
	cancelled   bool   // user asked for cancellation
	preempt     bool   // a higher-priority job asked for this one's runner
	preemptions int    // times this job has been preempted
	exempt      bool   // queued above the admission bound (recovery, preemption)
	cancel      context.CancelFunc
	tel         *clocksched.Telemetry
	subs        map[chan Event]struct{}
	evSeq       int64 // monotonically increasing event id (per process)
	submitted   time.Time
	// cfg is the spec's Config as admission built it. The job's first run
	// takes it and drops it, as does finishing the job; a job recovered
	// from the manifest has none, and its run builds its own.
	cfg *clocksched.SweepConfig
}

// rank is the job's scheduling rank; larger runs first.
func (j *job) rank() int { return j.priority.rank() }

// Event is one job lifecycle or progress notification, streamed to
// /v1/jobs/{id}/events subscribers. A "state" event of a terminal state
// carries the job's final status in Final, so a client that follows the
// stream to its end needs no status request.
type Event struct {
	// Type is "state" (job changed lifecycle state) or "progress" (cells
	// completed).
	Type  string   `json:"type"`
	State JobState `json:"state"`
	Done  int      `json:"done"`
	Total int      `json:"total"`
	// Error carries the terminal failure text with a "state" event of
	// StateFailed.
	Error string `json:"error,omitempty"`
	// Seq is the event's per-job sequence number. On the wire it is
	// carried inside the SSE id qualified by the server's boot epoch
	// ("<epoch>.<seq>"), so a reconnecting client's Last-Event-ID from a
	// previous daemon life — whose sequence numbering restarted and may
	// coincide numerically — can never be mistaken for being caught up;
	// the server answers any foreign-epoch or legacy id with a full
	// snapshot, which is exactly what a client that slept through a
	// reboot (or a data-dir reset that reused job ids) needs.
	Seq int64 `json:"seq,omitempty"`
	// Final is the job's status, as Status would report it, on the
	// terminal "state" event and on a terminal snapshot; nil on every
	// other event.
	Final *JobStatus `json:"final,omitempty"`
}

// Server owns the job table, the admission queue, and the runner pool. It
// is an http.Handler (see http.go) and is safe for concurrent use.
type Server struct {
	cfg   Config
	cache *clocksched.SweepCache
	reg   *telemetry.Registry // service-level metrics
	epoch string              // per-boot token qualifying SSE event ids

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string // submission order, for listing
	queue    []*job   // admission queue (popLocked picks by priority)
	queued   int      // queue entries not yet popped (gauge)
	admitted int      // non-exempt queue entries, counted against MaxQueue
	draining bool
	closed   bool
	nextID   int
	nextSeq  int

	cond *sync.Cond // signals runners: queue non-empty or shutdown

	// manifestMu guards the manifest writer — appends, syncs, the
	// close/rewrite/reopen of compaction. Lock order: s.mu may be held
	// when taking manifestMu (Submit, GC); never the reverse.
	manifestMu sync.Mutex
	manifest   *journal.Writer

	muxOnce sync.Once
	muxVal  *http.ServeMux

	runCtx    context.Context // cancelled on Close (hard stop)
	cancelRun context.CancelFunc
	wg        sync.WaitGroup // runner goroutines

	gcStop chan struct{}
	gcOnce sync.Once
	gcWg   sync.WaitGroup
}

// New builds the server, replaying the job manifest under cfg.DataDir:
// jobs that reached a terminal state before the last shutdown stay
// terminal (their results remain fetchable), and every queued or running
// job is re-queued — with its cell journal, so completed cells replay
// rather than re-simulate. Runner goroutines (and the retention reaper,
// when configured) start immediately.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.DataDir == "" {
		return nil, fmt.Errorf("service: Config.DataDir is required")
	}
	for _, d := range []string{cfg.DataDir, filepath.Join(cfg.DataDir, "jobs")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("service: %w", err)
		}
	}
	cache, err := clocksched.NewSweepCache(0, filepath.Join(cfg.DataDir, "cache"))
	if err != nil {
		return nil, fmt.Errorf("service: cache: %w", err)
	}
	if cfg.FS != nil {
		cache.SetFS(cfg.FS)
	}

	s := &Server{
		cfg:    cfg,
		cache:  cache,
		reg:    telemetry.New(),
		epoch:  newEpoch(),
		jobs:   map[string]*job{},
		gcStop: make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	s.runCtx, s.cancelRun = context.WithCancel(context.Background())

	if err := s.recover(); err != nil {
		return nil, err
	}

	for i := 0; i < cfg.MaxActiveJobs; i++ {
		s.wg.Add(1)
		go s.runner()
	}
	if cfg.RetainResults > 0 || cfg.MaxDataBytes > 0 {
		s.gcWg.Add(1)
		go s.gcLoop()
	}
	return s, nil
}

// replayManifest accumulates one manifest file's records into the maps.
// Missing files replay zero records; a torn tail is dropped by the
// journal's CRC framing.
func replayManifest(path string, specs map[string]*manifestRecord,
	states map[string]JobState, errs map[string]string, order *[]string, nextID *int) error {
	_, err := journal.ReplayFile(path, func(p []byte) error {
		var rec manifestRecord
		if err := json.Unmarshal(p, &rec); err != nil {
			return fmt.Errorf("service: manifest %s: bad record: %w", path, err)
		}
		switch rec.Op {
		case "meta":
			if rec.NextID > *nextID {
				*nextID = rec.NextID
			}
		case "submit":
			if rec.ID == "" || rec.Spec == nil {
				return fmt.Errorf("service: manifest %s: submit record missing id or spec", path)
			}
			if _, dup := specs[rec.ID]; !dup {
				*order = append(*order, rec.ID)
				r := rec
				specs[rec.ID] = &r
			}
		case "state":
			// Terminal wins: once any record says the job finished, a
			// stale non-terminal record (from a merged backup) must not
			// resurrect it into the queue.
			if cur, ok := states[rec.ID]; !ok || !cur.terminal() {
				states[rec.ID] = rec.State
				errs[rec.ID] = rec.Error
			}
		default:
			return fmt.Errorf("service: manifest %s: unknown op %q", path, rec.Op)
		}
		return nil
	})
	return err
}

// recover replays the manifest into the job table and reopens it for
// appending. If a compaction backup (manifest.bak) survived the last
// shutdown, the compaction was interrupted: the backup is merged in —
// union of submits, terminal-wins on states — and a fresh compaction
// converges the pair back to one file.
func (s *Server) recover() error {
	path := s.manifestPath()
	specs := map[string]*manifestRecord{}
	states := map[string]JobState{}
	errs := map[string]string{}
	var order []string
	if err := replayManifest(path, specs, states, errs, &order, &s.nextID); err != nil {
		return err
	}
	bak := s.manifestBakPath()
	_, bakErr := os.Stat(bak)
	hadBak := bakErr == nil
	if hadBak {
		// The interrupted rewrite may have left manifest.wal holding any
		// prefix of the compacted records; the backup holds everything
		// that existed before the compaction began. The union can only
		// add back jobs the reaper meant to delete — wasteful, never
		// wrong — and the reaper deletes them again on its next pass.
		if err := replayManifest(bak, specs, states, errs, &order, &s.nextID); err != nil {
			return err
		}
	}

	// Reopen for appending; the replay above already parsed the records,
	// so the second scan only finds the append offset and drops any torn
	// tail. The torn records (if any) were never acknowledged to a client
	// — an fsync'd append is the admission commit point.
	w, _, err := journal.OpenFS(path, true, nil, s.cfg.FS)
	if err != nil {
		return err
	}
	s.manifest = w

	for _, id := range order {
		rec := specs[id]
		j := &job{
			id:       id,
			spec:     *rec.Spec,
			dir:      s.jobDir(id),
			state:    StateQueued,
			priority: rec.Priority,
			client:   rec.Client,
			seq:      s.nextSeq,
			subs:     map[chan Event]struct{}{},
		}
		s.nextSeq++
		if !j.priority.valid() || j.priority == "" {
			j.priority = PriorityNormal
		}
		if cfg, err := rec.Spec.Config(); err == nil {
			j.total = cfg.GridSize()
		}
		if st, ok := states[id]; ok && st.terminal() {
			j.state = st
			j.errText = errs[id]
			if st == StateDone {
				if _, err := os.Stat(s.resultPath(id)); err != nil {
					// The terminal record exists but the bytes do not
					// (deleted out of band): fall back to re-running.
					j.state = StateQueued
					j.errText = ""
				} else {
					j.done = j.total
				}
			}
		}
		s.jobs[id] = j
		s.order = append(s.order, id)
		if n := idNum(id); n >= s.nextID {
			s.nextID = n + 1
		}
		if !j.state.terminal() {
			// Recovered jobs re-enter the queue above the admission bound:
			// they were admitted (and fsynced) before the crash, and
			// rejecting them now would drop accepted work.
			j.exempt = true
			s.queue = append(s.queue, j)
			s.queued++
		}
	}

	if hadBak {
		// Converge: rewrite one clean manifest from the merged table, then
		// drop the backup. New() is single-threaded, so no locks yet. If
		// the rewrite fails (disk still faulty) the backup stays and the
		// next boot merges again — idempotent.
		if err := s.compactManifestLocked(); err == nil {
			os.Remove(bak)
		}
	}
	s.updateGauges()
	return nil
}

func (s *Server) manifestPath() string    { return filepath.Join(s.cfg.DataDir, "manifest.wal") }
func (s *Server) manifestBakPath() string { return filepath.Join(s.cfg.DataDir, "manifest.bak") }
func (s *Server) jobDir(id string) string {
	return filepath.Join(s.cfg.DataDir, "jobs", id)
}
func (s *Server) resultPath(id string) string { return filepath.Join(s.jobDir(id), "result.bin") }
func (s *Server) walPath(id string) string    { return filepath.Join(s.jobDir(id), "sweep.wal") }

// idNum parses the numeric suffix of a job id ("j17" → 17), -1 otherwise.
func idNum(id string) int {
	if !strings.HasPrefix(id, "j") {
		return -1
	}
	n, err := strconv.Atoi(id[1:])
	if err != nil || n < 0 {
		return -1
	}
	return n
}

// updateGauges refreshes the queue-occupancy gauges; callers hold s.mu.
func (s *Server) updateGauges() {
	s.reg.Gauge(mJobsQueued).Set(float64(s.queued))
	active := 0
	for _, j := range s.jobs {
		j.mu.Lock()
		if j.state == StateRunning {
			active++
		}
		j.mu.Unlock()
	}
	s.reg.Gauge(mJobsActive).Set(float64(active))
}

// appendManifest durably appends one record. Callers may hold s.mu (the
// lock order is s.mu → manifestMu); they must not hold any j.mu.
func (s *Server) appendManifest(rec manifestRecord) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	s.manifestMu.Lock()
	defer s.manifestMu.Unlock()
	if err := s.manifest.Append(b); err != nil {
		return err
	}
	return s.manifest.Sync()
}

// SubmitOptions carries a submission's scheduling class and identity.
type SubmitOptions struct {
	// Priority is the job's scheduling class; empty selects
	// PriorityNormal.
	Priority Priority
	// Client is the authenticated submitter, used for quota accounting
	// and carried on the job's records and metric labels. Empty is
	// anonymous (never quota-limited).
	Client string
}

// Submit admits a job at normal priority with no client identity. See
// SubmitWith.
func (s *Server) Submit(spec clocksched.SweepSpec) (JobStatus, error) {
	return s.SubmitWith(spec, SubmitOptions{})
}

// SubmitWith admits a job: version-checks and validates the spec, enforces
// the submitter's quota, reserves a queue slot, durably appends the submit
// record, and returns the new job's status. If the submission outranks the
// lowest-priority running job while every runner is busy, that job is
// preempted at its next quantum boundary. The error is an *APIError
// describing the structured rejection (version mismatch, invalid spec,
// queue full, quota exceeded, draining) so both the HTTP layer and
// in-process callers get the same classification.
func (s *Server) SubmitWith(spec clocksched.SweepSpec, opts SubmitOptions) (JobStatus, error) {
	if opts.Priority == "" {
		opts.Priority = PriorityNormal
	}
	if !opts.Priority.valid() {
		return JobStatus{}, &APIError{Status: 400, Code: CodeBadRequest,
			Message: fmt.Sprintf("unknown priority %q", opts.Priority)}
	}
	cfg, err := spec.Config()
	if errors.Is(err, clocksched.ErrVersionMismatch) {
		s.reg.Counter(mRejectedVer).Inc()
		return JobStatus{}, &APIError{
			Status:  409,
			Code:    CodeVersionMismatch,
			Message: err.Error(),
		}
	}
	if err == nil {
		err = cfg.Validate()
	}
	if err != nil {
		s.reg.Counter(mRejectedSpec).Inc()
		return JobStatus{}, &APIError{Status: 400, Code: CodeInvalidSpec, Message: err.Error()}
	}
	total := cfg.GridSize()

	s.mu.Lock()
	if s.draining || s.closed {
		s.mu.Unlock()
		s.reg.Counter(mRejectedDrn).Inc()
		return JobStatus{}, &APIError{Status: 503, Code: CodeDraining, Message: "server is draining"}
	}
	if s.admitted >= s.cfg.MaxQueue {
		retry := s.cfg.RetryAfter
		s.mu.Unlock()
		s.reg.Counter(mRejectedFull).Inc()
		return JobStatus{}, &APIError{
			Status:     429,
			Code:       CodeQueueFull,
			Message:    fmt.Sprintf("admission queue full (%d waiting)", s.cfg.MaxQueue),
			RetryAfter: retry,
		}
	}
	if apiErr := s.checkQuotaLocked(opts.Client, total); apiErr != nil {
		retry := s.cfg.RetryAfter
		s.mu.Unlock()
		s.reg.Counter(mRejectedQuota).Inc()
		apiErr.RetryAfter = retry
		return JobStatus{}, apiErr
	}
	id := fmt.Sprintf("j%d", s.nextID)
	s.nextID++
	j := &job{
		id:        id,
		spec:      spec,
		dir:       s.jobDir(id),
		total:     total,
		state:     StateQueued,
		priority:  opts.Priority,
		client:    opts.Client,
		seq:       s.nextSeq,
		cfg:       &cfg,
		subs:      map[chan Event]struct{}{},
		submitted: time.Now(),
	}
	s.nextSeq++

	// Durable admission: the submit record is fsynced before the job is
	// acknowledged, so an accepted job survives any crash after this call
	// returns. A failed append rejects the submission — accepting work we
	// could lose would be worse than refusing it.
	err = s.appendManifest(manifestRecord{
		Op: "submit", ID: id, Spec: &spec,
		Priority: opts.Priority, Client: opts.Client,
	})
	if err != nil {
		// The id is burned, not reused: the append may have landed before
		// the fsync failed, and handing the same id to a different spec
		// would make the boot-time replay resurrect the wrong job.
		s.mu.Unlock()
		return JobStatus{}, &APIError{Status: 500, Code: CodeInternal,
			Message: fmt.Sprintf("recording submission: %v", err)}
	}

	s.jobs[id] = j
	s.order = append(s.order, id)
	s.queue = append(s.queue, j)
	s.queued++
	s.admitted++
	s.updateGauges()
	s.cond.Signal()
	victim := s.preemptVictimLocked(j)
	var preemptCancel context.CancelFunc
	if victim != nil {
		victim.mu.Lock()
		victim.preempt = true
		preemptCancel = victim.cancel
		victim.mu.Unlock()
	}
	st := s.statusLocked(j)
	s.mu.Unlock()

	if preemptCancel != nil {
		s.reg.Counter(mPreemptions).Inc()
		preemptCancel()
	}
	return st, nil
}

// checkQuotaLocked enforces the client's admission quota; the caller holds
// s.mu. Anonymous clients and clients without a configured limit are
// unlimited. The returned error (nil when within quota) carries the
// client's current usage so the rejection is actionable.
func (s *Server) checkQuotaLocked(client string, cells int) *APIError {
	if client == "" || s.cfg.Auth == nil {
		return nil
	}
	lim, ok := s.cfg.Auth.Limit(client)
	if !ok || (lim.MaxQueued == 0 && lim.MaxCells == 0) {
		return nil
	}
	usage := QuotaUsage{Client: client, MaxJobs: lim.MaxQueued, MaxCells: lim.MaxCells}
	for _, j := range s.jobs {
		if j.client != client {
			continue
		}
		j.mu.Lock()
		live := !j.state.terminal()
		j.mu.Unlock()
		if live {
			usage.Jobs++
			usage.Cells += j.total
		}
	}
	overJobs := lim.MaxQueued > 0 && usage.Jobs+1 > lim.MaxQueued
	overCells := lim.MaxCells > 0 && usage.Cells+cells > lim.MaxCells
	if !overJobs && !overCells {
		return nil
	}
	what := "jobs"
	if overCells {
		what = "cells"
	}
	return &APIError{
		Status:  429,
		Code:    CodeQuotaExceeded,
		Message: fmt.Sprintf("client %q over %s quota", client, what),
		Usage:   &usage,
	}
}

// preemptVictimLocked decides whether admitting j warrants a preemption:
// only when every runner is busy and the lowest-ranked running job ranks
// strictly below j. Ties never preempt — churning equal-priority work
// would waste quanta for no latency win. The caller holds s.mu.
func (s *Server) preemptVictimLocked(j *job) *job {
	running := 0
	var victim *job
	victimRank := 0
	for _, cand := range s.jobs {
		cand.mu.Lock()
		isRunning := cand.state == StateRunning && !cand.preempt
		cand.mu.Unlock()
		if !isRunning {
			continue
		}
		running++
		r := cand.rank()
		// Among equal-rank candidates prefer the youngest: it has had the
		// least runtime, so the quantum thrown away is smallest.
		if victim == nil || r < victimRank || (r == victimRank && cand.seq > victim.seq) {
			victim, victimRank = cand, r
		}
	}
	if running < s.cfg.MaxActiveJobs || victim == nil || victimRank >= j.rank() {
		return nil
	}
	return victim
}

// popLocked removes and returns the best queue entry: highest priority
// rank first, FIFO (lowest seq) within a rank. The caller holds s.mu and
// has checked the queue is non-empty.
func (s *Server) popLocked() *job {
	best := 0
	for i := 1; i < len(s.queue); i++ {
		a, b := s.queue[i], s.queue[best]
		if a.rank() > b.rank() || (a.rank() == b.rank() && a.seq < b.seq) {
			best = i
		}
	}
	j := s.queue[best]
	s.queue = append(s.queue[:best], s.queue[best+1:]...)
	s.queued--
	j.mu.Lock()
	if j.exempt {
		j.exempt = false
	} else {
		s.admitted--
	}
	j.mu.Unlock()
	return j
}

// Cancel requests cancellation: a queued or preempted job turns terminal
// immediately; a running one is cancelled at the next quantum boundary
// through the sweep context. Cancelling a terminal job is a no-op
// reporting its final state.
func (s *Server) Cancel(id string) (JobStatus, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return JobStatus{}, &APIError{Status: 404, Code: CodeNotFound, Message: "no such job"}
	}
	j.mu.Lock()
	j.cancelled = true
	cancel := j.cancel
	state := j.state
	j.mu.Unlock()
	s.mu.Unlock()

	switch state {
	case StateQueued, StatePreempted:
		// The runner discards cancelled queue entries, but turning the job
		// terminal here makes cancellation immediate and synchronous.
		s.finishJob(j, StateCancelled, "")
	case StateRunning:
		if cancel != nil {
			cancel()
		}
	}
	return s.Status(id)
}

// Status reports one job.
func (s *Server) Status(id string) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, &APIError{Status: 404, Code: CodeNotFound, Message: "no such job"}
	}
	return s.statusLocked(j), nil
}

// Readiness is the /readyz payload: whether the daemon is accepting work,
// and the admission/runner occupancy a coordinator or load balancer needs
// to route around a busy or draining peer.
type Readiness struct {
	// Ready reports the daemon accepts submissions right now: not
	// draining, not closed, admission queue below its bound.
	Ready bool `json:"ready"`
	// Draining reports a graceful shutdown is underway (every submission
	// answers 503).
	Draining bool `json:"draining"`
	// Queued is the admission-queue depth; MaxQueue its bound.
	Queued   int `json:"queued"`
	MaxQueue int `json:"max_queue"`
	// ActiveJobs is how many jobs are running; MaxActiveJobs the runner
	// count.
	ActiveJobs    int `json:"active_jobs"`
	MaxActiveJobs int `json:"max_active_jobs"`
	// SimVersion is the daemon's simulation revision — a coordinator
	// probing readiness learns version compatibility in the same call.
	SimVersion string `json:"sim_version"`
}

// Readiness snapshots the daemon's admission state; see /readyz.
func (s *Server) Readiness() Readiness {
	s.mu.Lock()
	defer s.mu.Unlock()
	active := 0
	for _, j := range s.jobs {
		j.mu.Lock()
		if j.state == StateRunning {
			active++
		}
		j.mu.Unlock()
	}
	return Readiness{
		Ready:         !s.draining && !s.closed && s.admitted < s.cfg.MaxQueue,
		Draining:      s.draining,
		Queued:        s.queued,
		MaxQueue:      s.cfg.MaxQueue,
		ActiveJobs:    active,
		MaxActiveJobs: s.cfg.MaxActiveJobs,
		SimVersion:    clocksched.SimVersion(),
	}
}

// Jobs lists every job in submission order.
func (s *Server) Jobs() []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobStatus, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.statusLocked(s.jobs[id]))
	}
	return out
}

// statusLocked snapshots one job; the caller holds s.mu.
func (s *Server) statusLocked(j *job) JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.statusLocked()
}

// statusLocked snapshots the job; the caller holds j.mu.
func (j *job) statusLocked() JobStatus {
	return JobStatus{
		ID:          j.id,
		State:       j.state,
		Done:        j.done,
		Total:       j.total,
		Replayed:    j.replayed,
		Error:       j.errText,
		Priority:    j.priority,
		Client:      j.client,
		Preemptions: j.preemptions,
	}
}

// ResultBytes returns a finished job's canonical result envelope.
func (s *Server) ResultBytes(id string) ([]byte, error) {
	f, size, err := s.openResult(id)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	b := make([]byte, size)
	if _, err := io.ReadFull(f, b); err != nil {
		return nil, &APIError{Status: 500, Code: CodeInternal, Message: err.Error()}
	}
	return b, nil
}

// openResult opens a finished job's result file and returns its size; the
// caller closes it. Any job that is not done is refused, as is a result
// file that cannot be opened.
func (s *Server) openResult(id string) (*os.File, int64, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return nil, 0, &APIError{Status: 404, Code: CodeNotFound, Message: "no such job"}
	}
	j.mu.Lock()
	state := j.state
	j.mu.Unlock()
	if state != StateDone {
		return nil, 0, &APIError{Status: 409, Code: CodeNotFinished,
			Message: fmt.Sprintf("job is %s, result available once done", state)}
	}
	f, err := os.Open(s.resultPath(id))
	if err != nil {
		return nil, 0, &APIError{Status: 500, Code: CodeInternal, Message: err.Error()}
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, &APIError{Status: 500, Code: CodeInternal, Message: err.Error()}
	}
	return f, fi.Size(), nil
}

// maxSubBuffer bounds a subscriber's event buffer. A job with more cells
// than that sheds progress events to a subscriber that falls behind.
const maxSubBuffer = 64

// subscribe attaches an event channel to the job and returns the current
// snapshot event, which carries Final if the job is terminal; the caller
// must call unsubscribe. The buffer holds every event one uninterrupted
// run can publish — Running, the resumed run's first progress call, one
// progress event per cell and the terminal state — up to maxSubBuffer; if
// a subscriber falls further behind, intermediate progress events are
// dropped, and state transitions shed its oldest buffered event (see
// publish).
func (s *Server) subscribe(id string) (*job, chan Event, Event, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return nil, nil, Event{}, &APIError{Status: 404, Code: CodeNotFound, Message: "no such job"}
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	ch := make(chan Event, min(j.total+3, maxSubBuffer))
	j.subs[ch] = struct{}{}
	snap := Event{Type: "state", State: j.state, Done: j.done, Total: j.total,
		Error: j.errText, Seq: j.evSeq}
	if j.state.terminal() {
		st := j.statusLocked()
		snap.Final = &st
	}
	return j, ch, snap, nil
}

func (j *job) unsubscribe(ch chan Event) {
	j.mu.Lock()
	delete(j.subs, ch)
	j.mu.Unlock()
}

// publish stamps the event with the job's next sequence number and fans it
// to the subscribers without ever blocking: a subscriber whose buffer is
// full loses its oldest buffered event to make room for a state
// transition, and merely misses intermediate progress events — the next
// one it reads carries the current done-count anyway. Every send is a
// select with a default, so the fan-out runs under j.mu.
func (j *job) publish(ev Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.evSeq++
	ev.Seq = j.evSeq
	for ch := range j.subs {
		select {
		case ch <- ev:
			continue
		default:
		}
		if ev.Type != "state" {
			continue
		}
		select {
		case <-ch: // shed the oldest buffered event
		default:
		}
		select {
		case ch <- ev:
		default:
		}
	}
}

// runner is one of MaxActiveJobs job-execution loops.
func (s *Server) runner() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.draining && !s.closed {
			s.cond.Wait()
		}
		if s.draining || s.closed {
			s.mu.Unlock()
			return
		}
		j := s.popLocked()

		j.mu.Lock()
		if j.cancelled || j.state.terminal() {
			// Cancelled while queued (Cancel already finished it) or a
			// stale entry; skip.
			j.mu.Unlock()
			s.updateGauges()
			s.mu.Unlock()
			continue
		}
		ctx, cancel := context.WithCancel(s.runCtx)
		j.state = StateRunning
		j.preempt = false
		j.cancel = cancel
		j.tel = clocksched.NewTelemetry()
		cfg := j.cfg
		j.cfg = nil
		j.mu.Unlock()
		s.updateGauges()
		s.mu.Unlock()

		j.publish(Event{Type: "state", State: StateRunning, Total: j.total})
		s.execute(ctx, j, cfg)
		cancel()
	}
}

// execute runs one job to a terminal state (or back to a waiting state on
// a drain or preemption). admitted is the spec's Config as admission built
// it; nil, and the spec is turned into one here.
func (s *Server) execute(ctx context.Context, j *job, admitted *clocksched.SweepConfig) {
	if admitted == nil {
		built, err := j.spec.Config()
		if err != nil {
			// Can only happen if the daemon restarted under a different
			// sim.Version than the one that admitted the job.
			s.finishJob(j, StateFailed, err.Error())
			return
		}
		admitted = &built
	}
	cfg := *admitted
	if err := os.MkdirAll(j.dir, 0o755); err != nil {
		s.finishJob(j, StateFailed, fmt.Sprintf("job dir: %v", err))
		return
	}

	cfg.Workers = s.cfg.Workers / s.cfg.MaxActiveJobs
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	cfg.Cache = s.cache
	cfg.Journal = s.walPath(j.id)
	// Resume unconditionally: a fresh journal replays nothing, a journal
	// left by a killed daemon (or a preemption) replays every committed
	// cell.
	cfg.Resume = true
	cfg.Telemetry = j.tel
	cfg.FS = s.cfg.FS
	// The first progress call of a resumed sweep carries the replayed
	// count (see SweepConfig.Progress), so a restarted job's done-count
	// starts where the killed daemon left off.
	cfg.Progress = func(done, total int) {
		j.mu.Lock()
		j.done = done
		j.mu.Unlock()
		j.publish(Event{Type: "progress", State: StateRunning, Done: done, Total: total})
		if s.cfg.CellDelay > 0 {
			select {
			case <-time.After(s.cfg.CellDelay):
			case <-ctx.Done():
			}
		}
	}

	var res *clocksched.SweepResult
	var sweepErr error
	if s.cfg.Executor != nil {
		res, sweepErr = s.cfg.Executor(ctx, ExecJob{ID: j.id, Dir: j.dir, Spec: j.spec, Config: cfg})
	} else {
		res, sweepErr = clocksched.Sweep(ctx, cfg)
	}
	if res != nil {
		j.mu.Lock()
		j.replayed = res.Telemetry.Replayed
		j.mu.Unlock()
	}

	j.mu.Lock()
	userCancel := j.cancelled
	preempted := j.preempt
	j.mu.Unlock()

	switch {
	case sweepErr == nil:
		enc, err := clocksched.EncodeSweepResult(res)
		if err == nil {
			err = journal.WriteFileAtomic(s.resultPath(j.id), enc, s.cfg.FS)
		}
		if err != nil {
			s.finishJob(j, StateFailed, fmt.Sprintf("storing result: %v", err))
			return
		}
		s.finishJob(j, StateDone, "")
	case userCancel:
		s.finishJob(j, StateCancelled, "")
	case preempted && s.runCtx.Err() == nil:
		// Preempted by a higher-priority submission (not a shutdown): back
		// into the queue above the admission bound, completed cells safely
		// journaled. The runner this frees picks the preemptor next.
		j.mu.Lock()
		j.state = StatePreempted
		j.preempt = false
		j.preemptions++
		j.cancel = nil
		j.exempt = true
		done := j.done
		j.mu.Unlock()
		s.mu.Lock()
		s.queue = append(s.queue, j)
		s.queued++
		s.updateGauges()
		s.cond.Signal()
		s.mu.Unlock()
		j.publish(Event{Type: "state", State: StatePreempted, Done: done, Total: j.total})
	case ctx.Err() != nil:
		// Shutdown or drain, not the user: the job goes back to queued —
		// in memory for this process's lifetime, and on the next boot via
		// its still-non-terminal manifest state. Completed cells are in
		// the journal; nothing is lost.
		j.mu.Lock()
		j.state = StateQueued
		j.cancel = nil
		done := j.done
		j.mu.Unlock()
		j.publish(Event{Type: "state", State: StateQueued, Done: done, Total: j.total})
	default:
		s.finishJob(j, StateFailed, sweepErr.Error())
	}
}

// finishJob moves the job to a terminal state, durably records it, and
// notifies subscribers. The terminal manifest record is appended after the
// result bytes (if any) are on disk — see the package durability model.
func (s *Server) finishJob(j *job, state JobState, errText string) {
	j.mu.Lock()
	if j.state.terminal() {
		j.mu.Unlock()
		return
	}
	j.state = state
	j.errText = errText
	j.cancel = nil
	j.cfg = nil // a job cancelled while queued never ran to take it
	if state == StateDone {
		j.done = j.total
	}
	final := j.statusLocked()
	j.mu.Unlock()

	err := s.appendManifest(manifestRecord{Op: "state", ID: j.id, State: state, Error: errText})
	if err != nil {
		// The job re-runs on the next boot; for this process's lifetime
		// the in-memory state stands.
		s.reg.Counter(mManifestErrs).Inc()
	}

	switch state {
	case StateDone:
		s.reg.Counter(mJobsDone).Inc()
	case StateFailed:
		s.reg.Counter(mJobsFailed).Inc()
	case StateCancelled:
		s.reg.Counter(mJobsCanceled).Inc()
	}
	s.mu.Lock()
	s.updateGauges()
	s.mu.Unlock()
	j.publish(Event{Type: "state", State: state, Done: final.Done, Total: final.Total, Error: errText, Final: &final})
}

// Drain gracefully winds the server down: admission stops (503), runners
// finish their current jobs, and still-queued jobs are left durably queued
// for the next boot. If ctx expires first, running jobs are cancelled —
// their completed cells are journaled, so the next boot resumes them.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.cond.Broadcast()
	s.mu.Unlock()

	finished := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
	case <-ctx.Done():
		s.cancelRun()
		<-finished
	}
	s.stopGC()
	return s.closeManifest()
}

// Close hard-stops the server: running jobs are cancelled at the next
// quantum boundary and re-queued durably, then the manifest is closed.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.cancelRun()
	s.wg.Wait()
	s.stopGC()
	return s.closeManifest()
}

// stopGC stops the retention reaper (idempotent) and waits for an
// in-flight pass: the reaper touches the manifest, so it must be quiescent
// before closeManifest.
func (s *Server) stopGC() {
	s.gcOnce.Do(func() { close(s.gcStop) })
	s.gcWg.Wait()
}

func (s *Server) closeManifest() error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.manifestMu.Lock()
	defer s.manifestMu.Unlock()
	return s.manifest.Close()
}

// scopes snapshots the metric export set: the service registry, any extra
// registries from Config.Metrics (the fabric coordinator's), plus every
// job's registry labelled job="<id>" (and client="…" when the job was
// submitted with an identity), in stable id order.
func (s *Server) scopes() []telemetry.Scoped {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := []telemetry.Scoped{{Reg: s.reg}}
	out = append(out, s.cfg.Metrics...)
	ids := append([]string(nil), s.order...)
	sort.Strings(ids)
	for _, id := range ids {
		j := s.jobs[id]
		j.mu.Lock()
		tel := j.tel
		j.mu.Unlock()
		if tel != nil {
			labels := `job="` + id + `"`
			if j.client != "" {
				labels += `,client="` + j.client + `"`
			}
			out = append(out, telemetry.Scoped{
				Labels: labels,
				Reg:    tel.Registry(),
			})
		}
	}
	return out
}
