package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"loopapalooza/internal/bench"
	"loopapalooza/internal/core"
	"loopapalooza/internal/metrics"
	"loopapalooza/internal/wal"
)

// Coordinator defaults.
const (
	// DefaultLease is the claim lease duration.
	DefaultLease = 10 * time.Second
	// DefaultMaxAttempts is the per-cell retry budget (executions, not
	// retries: 3 = one run plus two retries).
	DefaultMaxAttempts = 3
	// DefaultRetryBackoff is the base of the exponential retry backoff.
	DefaultRetryBackoff = 100 * time.Millisecond
	// DefaultMaxBackoff caps the exponential backoff.
	DefaultMaxBackoff = 5 * time.Second
	// DefaultBatchSize bounds cells per task; it exceeds the fourteen
	// paper configurations so a full paper-grid row is one execution.
	DefaultBatchSize = 16
	// DefaultBreakerThreshold trips a worker's breaker after this many
	// consecutive failures.
	DefaultBreakerThreshold = 3
	// DefaultBreakerCooldown is the OPEN dwell before a probe.
	DefaultBreakerCooldown = 5 * time.Second
	// DefaultMaxQueuedJobs is the per-tenant admission-control cap on
	// non-terminal jobs.
	DefaultMaxQueuedJobs = 32
	// DefaultRatePerSec and DefaultRateBurst shape the per-tenant
	// token-bucket submission limit.
	DefaultRatePerSec = 10
	DefaultRateBurst  = 20
)

// CoordinatorOptions configures a Coordinator. Zero fields take the
// defaults above.
type CoordinatorOptions struct {
	// Lease is the claim lease duration; a task not heartbeaten within
	// it is reclaimed and its cells retried.
	Lease time.Duration
	// MaxAttempts is the per-cell retry budget.
	MaxAttempts int
	// RetryBackoff and MaxBackoff shape the exponential backoff (with
	// jitter) between attempts of one cell.
	RetryBackoff time.Duration
	MaxBackoff   time.Duration
	// BatchSize bounds cells per task.
	BatchSize int
	// BreakerThreshold and BreakerCooldown shape the per-worker circuit
	// breaker.
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// MaxQueuedJobs is the per-tenant cap on non-terminal jobs.
	MaxQueuedJobs int
	// RatePerSec and RateBurst shape the per-tenant submission rate
	// limit (RatePerSec < 0 disables it).
	RatePerSec float64
	RateBurst  float64
	// Seed seeds the backoff jitter (0 = time-seeded). Fixed seeds make
	// retry schedules reproducible in tests and chaos runs.
	Seed int64
	// Now overrides the clock (tests).
	Now func() time.Time
	// DataDir, when set, makes the coordinator durable: state transitions
	// are journaled to a write-ahead log under it and OpenCoordinator
	// replays them on startup. NewCoordinator ignores it.
	DataDir string
	// CompactEvery is the journal-records-since-snapshot threshold that
	// triggers log compaction.
	CompactEvery int
}

func (o *CoordinatorOptions) withDefaults() {
	if o.Lease <= 0 {
		o.Lease = DefaultLease
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = DefaultMaxAttempts
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = DefaultRetryBackoff
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = DefaultMaxBackoff
	}
	if o.BatchSize <= 0 {
		o.BatchSize = DefaultBatchSize
	}
	if o.BreakerThreshold <= 0 {
		o.BreakerThreshold = DefaultBreakerThreshold
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = DefaultBreakerCooldown
	}
	if o.MaxQueuedJobs <= 0 {
		o.MaxQueuedJobs = DefaultMaxQueuedJobs
	}
	if o.RatePerSec == 0 {
		o.RatePerSec = DefaultRatePerSec
	}
	if o.RateBurst <= 0 {
		o.RateBurst = DefaultRateBurst
	}
	if o.Seed == 0 {
		o.Seed = time.Now().UnixNano()
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	if o.CompactEvery <= 0 {
		o.CompactEvery = DefaultCompactEvery
	}
}

// cellRec is the coordinator's record of one cell.
type cellRec struct {
	job       *job
	bench     string
	cfg       core.Config
	state     CellState
	attempts  int // executions started (lease grants)
	notBefore time.Time
	owner     string // worker holding the lease (CellLeased)

	// Terminal fields.
	outcome core.Outcome
	errMsg  string
	report  *core.Report
	commits int // accepted commits; the no-double-commit invariant is commits <= 1
}

// job is one submitted sweep.
type job struct {
	id             string
	tenant         string
	includeReports bool
	created        time.Time
	cells          []*cellRec
	remaining      int           // non-terminal cells
	started        bool          // any cell ever leased
	done           chan struct{} // closed when remaining hits 0
}

// task is one live lease.
type task struct {
	id       string
	worker   string
	tenant   string
	bench    string
	cells    []*cellRec
	deadline time.Time
}

// tenantState is one tenant's queue, admission state, and rate limit.
type tenantState struct {
	queue      []*cellRec // CellQueued cells, FIFO (retries append)
	activeJobs int
	bucket     tokenBucket
}

// workerState is the coordinator's view of one worker.
type workerState struct {
	id       string
	br       breaker
	lastSeen time.Time
	inflight int // live tasks
}

// Stats is a snapshot of coordinator traffic and state.
type Stats struct {
	// QueueDepth counts queued cells across all tenants.
	QueueDepth int
	// Leased counts cells under a live lease.
	Leased int
	// ActiveJobs and DoneJobs count non-terminal and terminal jobs.
	ActiveJobs, DoneJobs int
	// Workers counts registered workers; OpenBreakers those currently
	// quarantined.
	Workers, OpenBreakers int
	// LeaseExpiries counts reclaimed leases.
	LeaseExpiries uint64
	// Retries counts cell attempts requeued with backoff.
	Retries uint64
	// ParkedCells counts cells terminally failed.
	ParkedCells uint64
	// CommittedCells counts cells committed with a verified report.
	CommittedCells uint64
	// StaleCommits counts whole-task commits rejected because the lease
	// was gone — the double-commit defense firing.
	StaleCommits uint64
	// DoubleCommitRejected counts per-cell commits rejected because the
	// cell was already terminal (must stay 0; StaleCommits is the outer
	// guard).
	DoubleCommitRejected uint64
	// CorruptCommits counts committed reports that failed verification.
	CorruptCommits uint64
	// RefundedCells counts canceled/released attempts requeued without
	// charging the retry budget.
	RefundedCells uint64
	// RejectedJobs counts submissions refused by admission control or
	// rate limiting.
	RejectedJobs uint64
	// WALErrors counts journal appends, syncs, or compactions that
	// failed (the coordinator keeps serving; durability degrades).
	WALErrors uint64
}

// coordMetrics are the push-updated cluster series (see RegisterMetrics).
type coordMetrics struct {
	breakerState *metrics.Gauge
	committed    *metrics.Counter // by outcome
	parked       *metrics.Counter // by outcome
}

// Coordinator owns the job store, the per-tenant queues, the leases, and
// the per-worker breakers. All methods are safe for concurrent use.
type Coordinator struct {
	opts CoordinatorOptions

	mu          sync.Mutex
	rng         *rand.Rand
	jobs        map[string]*job
	jobSeq      int
	tenants     map[string]*tenantState
	tenantOrder []string
	rrIdx       int
	tasks       map[string]*task
	taskSeq     int
	workers     map[string]*workerState
	draining    bool
	stats       Stats
	m           *coordMetrics

	// Durability (nil/false without a DataDir; see journal.go).
	wal          *wal.Log
	replaying    bool
	walDirty     bool
	walErr       error // first failed append since the last sync
	recSinceSnap int

	janitorStop chan struct{}
	janitorDone chan struct{}
}

// NewCoordinator returns a running in-memory coordinator; call Close to
// stop its lease janitor. For a durable coordinator use OpenCoordinator.
func NewCoordinator(opts CoordinatorOptions) *Coordinator {
	opts.withDefaults()
	c := newCoordinator(opts)
	go c.janitor()
	return c
}

func newCoordinator(opts CoordinatorOptions) *Coordinator {
	return &Coordinator{
		opts:        opts,
		rng:         rand.New(rand.NewSource(opts.Seed)),
		jobs:        map[string]*job{},
		tenants:     map[string]*tenantState{},
		tasks:       map[string]*task{},
		workers:     map[string]*workerState{},
		janitorStop: make(chan struct{}),
		janitorDone: make(chan struct{}),
	}
}

// janitor reclaims expired leases even when no worker is calling in (the
// hung-fleet case).
func (c *Coordinator) janitor() {
	defer close(c.janitorDone)
	interval := c.opts.Lease / 4
	if interval < 5*time.Millisecond {
		interval = 5 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-c.janitorStop:
			return
		case <-t.C:
			c.mu.Lock()
			c.reclaimExpiredLocked(c.opts.Now())
			c.flushBestEffortLocked()
			c.mu.Unlock()
		}
	}
}

// Close stops the janitor and cleanly closes the journal (a final sync,
// so the next OpenCoordinator recovers everything). Jobs and queues
// stay readable.
func (c *Coordinator) Close() {
	c.mu.Lock()
	select {
	case <-c.janitorStop:
	default:
		close(c.janitorStop)
	}
	c.mu.Unlock()
	<-c.janitorDone
	c.mu.Lock()
	if c.wal != nil {
		c.wal.Close()
	}
	c.mu.Unlock()
}

// Drain refuses new submissions and claims; in-flight tasks may still
// heartbeat, commit, and release.
func (c *Coordinator) Drain() {
	c.mu.Lock()
	c.draining = true
	c.mu.Unlock()
}

// RegisterMetrics exports the cluster series on reg. Gauges sample the
// coordinator at scrape time; the breaker gauge and per-outcome counters
// are pushed on transitions.
func (c *Coordinator) RegisterMetrics(reg *metrics.Registry) {
	reg.NewGaugeFunc("lpd_cluster_queue_depth",
		"Sweep cells queued across all tenants.",
		func() float64 { return float64(c.Stats().QueueDepth) })
	reg.NewGaugeFunc("lpd_cluster_leased_cells",
		"Sweep cells under a live lease.",
		func() float64 { return float64(c.Stats().Leased) })
	reg.NewGaugeFunc("lpd_cluster_jobs_active",
		"Jobs not yet terminal.",
		func() float64 { return float64(c.Stats().ActiveJobs) })
	reg.NewCounterFunc("lpd_cluster_jobs_done_total",
		"Jobs that reached a terminal state.",
		func() float64 { return float64(c.Stats().DoneJobs) })
	reg.NewGaugeFunc("lpd_cluster_workers",
		"Workers ever registered with the coordinator.",
		func() float64 { return float64(c.Stats().Workers) })
	reg.NewCounterFunc("lpd_cluster_lease_expiries_total",
		"Leases reclaimed after missing their deadline.",
		func() float64 { return float64(c.Stats().LeaseExpiries) })
	reg.NewCounterFunc("lpd_cluster_retries_total",
		"Cell attempts requeued with backoff.",
		func() float64 { return float64(c.Stats().Retries) })
	reg.NewCounterFunc("lpd_cluster_stale_commits_total",
		"Task commits rejected because the lease was already reclaimed.",
		func() float64 { return float64(c.Stats().StaleCommits) })
	reg.NewCounterFunc("lpd_cluster_corrupt_commits_total",
		"Committed reports that failed invariant verification.",
		func() float64 { return float64(c.Stats().CorruptCommits) })
	reg.NewCounterFunc("lpd_cluster_refunded_cells_total",
		"Canceled or released attempts requeued without charge.",
		func() float64 { return float64(c.Stats().RefundedCells) })
	reg.NewCounterFunc("lpd_cluster_rejected_jobs_total",
		"Submissions refused by admission control or rate limiting.",
		func() float64 { return float64(c.Stats().RejectedJobs) })
	c.mu.Lock()
	durable := c.wal != nil
	c.mu.Unlock()
	if durable {
		reg.NewCounterFunc("lpd_wal_records_total",
			"Journal records appended.",
			func() float64 { return float64(c.WALStats().Appended) })
		reg.NewCounterFunc("lpd_wal_syncs_total",
			"Explicit journal fsync points.",
			func() float64 { return float64(c.WALStats().Syncs) })
		reg.NewCounterFunc("lpd_wal_bytes_written_total",
			"Framed journal bytes written.",
			func() float64 { return float64(c.WALStats().BytesWritten) })
		reg.NewCounterFunc("lpd_wal_compactions_total",
			"Snapshot + log compaction cycles.",
			func() float64 { return float64(c.WALStats().Compactions) })
		reg.NewCounterFunc("lpd_wal_replayed_records_total",
			"Journal records replayed at startup recovery.",
			func() float64 { return float64(c.WALStats().RecoveredRecords) })
		reg.NewCounterFunc("lpd_wal_torn_bytes_total",
			"Torn journal tail bytes truncated at recovery.",
			func() float64 { return float64(c.WALStats().TornBytes) })
		reg.NewGaugeFunc("lpd_wal_size_bytes",
			"Current journal file size.",
			func() float64 { return float64(c.WALStats().SizeBytes) })
		reg.NewCounterFunc("lpd_wal_errors_total",
			"Failed journal appends, syncs, or compactions.",
			func() float64 { return float64(c.Stats().WALErrors) })
	}
	m := &coordMetrics{
		breakerState: reg.NewGauge("lpd_cluster_breaker_state",
			"Per-worker breaker state (0 closed, 1 open, 2 half-open).", "worker"),
		committed: reg.NewCounter("lpd_cluster_committed_cells_total",
			"Cells committed, by outcome.", "outcome"),
		parked: reg.NewCounter("lpd_cluster_parked_cells_total",
			"Cells terminally failed, by outcome.", "outcome"),
	}
	c.mu.Lock()
	c.m = m
	c.mu.Unlock()
}

// Stats snapshots the coordinator.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	for _, ts := range c.tenants {
		st.QueueDepth += len(ts.queue)
		st.ActiveJobs += ts.activeJobs
	}
	for _, t := range c.tasks {
		st.Leased += len(t.cells)
	}
	st.Workers = len(c.workers)
	for _, ws := range c.workers {
		if ws.br.state == BreakerOpen {
			st.OpenBreakers++
		}
	}
	return st
}

// WorkerInfo is one worker's coordinator-side state.
type WorkerInfo struct {
	ID       string       `json:"id"`
	Breaker  BreakerState `json:"-"`
	State    string       `json:"breaker"`
	Failures int          `json:"failures"`
	Inflight int          `json:"inflight"`
}

// Workers lists registered workers, sorted by id.
func (c *Coordinator) Workers() []WorkerInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]WorkerInfo, 0, len(c.workers))
	for _, ws := range c.workers {
		out = append(out, WorkerInfo{
			ID: ws.id, Breaker: ws.br.state, State: ws.br.state.String(),
			Failures: ws.br.fails, Inflight: ws.inflight,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Submit enqueues one job of benches × cfgs cells for tenant, applying
// admission control and the tenant rate limit. It returns the job id.
func (c *Coordinator) Submit(tenant string, benches []*bench.Benchmark, cfgs []core.Config, includeReports bool) (string, error) {
	if tenant == "" {
		tenant = "default"
	}
	if len(benches) == 0 || len(cfgs) == 0 {
		return "", fmt.Errorf("cluster: empty job (%d benchmarks × %d configs)", len(benches), len(cfgs))
	}
	now := c.opts.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.draining {
		return "", ErrDraining
	}
	ts := c.tenantLocked(tenant)
	if ts.activeJobs >= c.opts.MaxQueuedJobs {
		c.stats.RejectedJobs++
		return "", fmt.Errorf("%w: %d active jobs (cap %d)", ErrQueueFull, ts.activeJobs, c.opts.MaxQueuedJobs)
	}
	if !ts.bucket.allow(now) {
		c.stats.RejectedJobs++
		return "", ErrRateLimited
	}
	c.jobSeq++
	j := &job{
		id:             fmt.Sprintf("job-%06d", c.jobSeq),
		tenant:         tenant,
		includeReports: includeReports,
		created:        now,
		remaining:      len(benches) * len(cfgs),
		done:           make(chan struct{}),
	}
	// Journal-first: the admission is durable before any state mutates,
	// so an acked job id survives a crash and a refused one leaves no
	// trace to replay. Compaction waits until the job is in c.jobs: a
	// snapshot taken before would omit the job while discarding its admit
	// record.
	if c.wal != nil {
		names := make([]string, len(benches))
		for i, b := range benches {
			names[i] = b.Name
		}
		c.journalLocked(walRec{K: "admit", Job: j.id, Tenant: tenant,
			Include: includeReports, Created: now.UnixNano(),
			Benches: names, Cfgs: cfgs})
		if err := c.syncLocked(); err != nil {
			c.jobSeq--
			return "", fmt.Errorf("cluster: journaling admission: %w", err)
		}
	}
	for _, b := range benches {
		for _, cfg := range cfgs {
			rec := &cellRec{job: j, bench: b.Name, cfg: cfg, state: CellQueued}
			j.cells = append(j.cells, rec)
			ts.queue = append(ts.queue, rec)
		}
	}
	c.jobs[j.id] = j
	ts.activeJobs++
	c.compactDueLocked()
	return j.id, nil
}

func (c *Coordinator) tenantLocked(name string) *tenantState {
	ts := c.tenants[name]
	if ts == nil {
		ts = &tenantState{bucket: tokenBucket{rate: c.opts.RatePerSec, burst: c.opts.RateBurst}}
		c.tenants[name] = ts
		c.tenantOrder = append(c.tenantOrder, name)
	}
	return ts
}

func (c *Coordinator) workerLocked(id string) *workerState {
	ws := c.workers[id]
	if ws == nil {
		ws = &workerState{id: id, br: breaker{
			threshold: c.opts.BreakerThreshold,
			cooldown:  c.opts.BreakerCooldown,
		}}
		c.workers[id] = ws
		c.publishBreakerLocked(ws)
	}
	return ws
}

func (c *Coordinator) publishBreakerLocked(ws *workerState) {
	if c.m != nil {
		c.m.breakerState.Set(float64(ws.br.state), ws.id)
	}
}

// Claim implements Coordination.
func (c *Coordinator) Claim(_ context.Context, req ClaimRequest) (*Task, error) {
	if req.Worker == "" {
		return nil, fmt.Errorf("cluster: claim without worker id")
	}
	now := c.opts.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reclaimExpiredLocked(now)
	if c.draining {
		return nil, ErrDraining
	}
	ws := c.workerLocked(req.Worker)
	ws.lastSeen = now
	if wait, ok := ws.br.allow(now); !ok {
		c.publishBreakerLocked(ws)
		return nil, &BreakerOpenError{RetryAfter: wait}
	}
	c.publishBreakerLocked(ws) // OPEN may have advanced to HALF-OPEN

	for i := range c.tenantOrder {
		name := c.tenantOrder[(c.rrIdx+i)%len(c.tenantOrder)]
		ts := c.tenants[name]
		cells := c.takeBatchLocked(ts, now)
		if len(cells) == 0 {
			continue
		}
		c.rrIdx = (c.rrIdx + i + 1) % len(c.tenantOrder)
		c.taskSeq++
		t := &task{
			id:       fmt.Sprintf("task-%08d", c.taskSeq),
			worker:   ws.id,
			tenant:   name,
			bench:    cells[0].bench,
			cells:    cells,
			deadline: now.Add(c.opts.Lease),
		}
		c.tasks[t.id] = t
		ws.inflight++
		ws.br.granted()
		wire := &Task{
			ID: t.id, Job: cells[0].job.id, Bench: t.bench,
			LeaseMs: c.opts.Lease.Milliseconds(),
		}
		leased := make([]core.Config, 0, len(cells))
		for _, rec := range cells {
			rec.state = CellLeased
			rec.owner = ws.id
			rec.attempts++
			rec.job.started = true
			wire.Cells = append(wire.Cells, TaskCell{Config: rec.cfg, Attempt: rec.attempts})
			leased = append(leased, rec.cfg)
		}
		c.journalLocked(walRec{K: "lease", Task: t.id, Worker: ws.id,
			Job: cells[0].job.id, Tenant: name, Bench: t.bench, Cfgs: leased})
		if err := c.flushLocked(); err != nil {
			// The grant is not durable: refuse it. The leased cells are
			// reclaimed when the never-delivered lease expires.
			return nil, fmt.Errorf("cluster: journaling lease: %w", err)
		}
		return wire, nil
	}
	c.flushBestEffortLocked() // reclaim records from the top of the call
	return nil, ErrNoWork
}

// takeBatchLocked pops the next batch: the first eligible cell of the
// tenant queue plus every other eligible cell of the same job and
// benchmark, up to BatchSize. Cells of one benchmark batch together so
// the worker shares a single execution across their configurations.
func (c *Coordinator) takeBatchLocked(ts *tenantState, now time.Time) []*cellRec {
	var head *cellRec
	for _, rec := range ts.queue {
		if rec.state == CellQueued && !now.Before(rec.notBefore) {
			head = rec
			break
		}
	}
	if head == nil {
		return nil
	}
	var batch []*cellRec
	kept := ts.queue[:0]
	for _, rec := range ts.queue {
		if len(batch) < c.opts.BatchSize &&
			rec.state == CellQueued && !now.Before(rec.notBefore) &&
			rec.job == head.job && rec.bench == head.bench {
			batch = append(batch, rec)
			continue
		}
		kept = append(kept, rec)
	}
	// Zero the freed tail so dropped cells don't leak through the
	// backing array.
	for i := len(kept); i < len(ts.queue); i++ {
		ts.queue[i] = nil
	}
	ts.queue = kept
	return batch
}

// Heartbeat implements Coordination.
func (c *Coordinator) Heartbeat(_ context.Context, req HeartbeatRequest) error {
	now := c.opts.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reclaimExpiredLocked(now)
	c.flushBestEffortLocked()
	t := c.tasks[req.Task]
	if t == nil || t.worker != req.Worker {
		return ErrLeaseExpired
	}
	t.deadline = now.Add(c.opts.Lease)
	if ws := c.workers[req.Worker]; ws != nil {
		ws.lastSeen = now
	}
	return nil
}

// Commit implements Coordination. A commit for a reclaimed lease is
// rejected wholesale: its cells were already requeued, so accepting any
// of it could commit a cell twice.
func (c *Coordinator) Commit(_ context.Context, req CommitRequest) error {
	now := c.opts.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reclaimExpiredLocked(now)
	t := c.tasks[req.Task]
	if t == nil || t.worker != req.Worker {
		c.stats.StaleCommits++
		return ErrLeaseExpired
	}
	c.finishTaskLocked(t)

	byCfg := make(map[string]*CellResult, len(req.Results))
	for i := range req.Results {
		byCfg[req.Results[i].Config.String()] = &req.Results[i]
	}
	ws := c.workerLocked(t.worker)
	workerFailed := false
	for _, rec := range t.cells {
		res := byCfg[rec.cfg.String()]
		switch {
		case res == nil:
			// The worker dropped the cell: charge the attempt and retry.
			workerFailed = true
			c.retryLocked(rec, core.OutcomeError, "cluster: worker returned no result for cell", now)
		case res.Outcome == core.OutcomeOK:
			if err := c.verifyResult(t, rec, res); err != nil {
				workerFailed = true
				c.stats.CorruptCommits++
				c.retryLocked(rec, core.OutcomeError, err.Error(), now)
				continue
			}
			c.commitCellLocked(rec, res.Report)
		case res.Outcome == core.OutcomeCanceled:
			// Not the cell's fault (worker drain, sweep cancel): requeue
			// without charging the retry budget.
			c.refundLocked(rec, now)
		case res.Outcome == core.OutcomePanic:
			workerFailed = true
			c.retryLocked(rec, res.Outcome, res.Error, now)
		case res.Outcome == core.OutcomeTimeout:
			// Possibly a slow node rather than a long program: retryable.
			c.retryLocked(rec, res.Outcome, res.Error, now)
		default:
			// Deterministic failures (step/mem budget, guest fault,
			// compile error) park immediately: a retry would fail the
			// same way and burn fleet time.
			c.parkLocked(rec, res.Outcome, res.Error)
		}
	}
	if workerFailed {
		ws.br.failure(now)
	} else {
		ws.br.success()
	}
	c.publishBreakerLocked(ws)
	// The commit is acked only once durable: a crash after a returned nil
	// replays every committed report; a crash before loses the unsynced
	// records and the cells simply re-execute (deterministic cells make
	// the recomputed reports bit-identical).
	if err := c.flushLocked(); err != nil {
		return fmt.Errorf("cluster: journaling commit: %w", err)
	}
	return nil
}

// verifyResult is the commit integrity gate: the report must exist,
// belong to this cell, and satisfy the engine invariants.
func (c *Coordinator) verifyResult(t *task, rec *cellRec, res *CellResult) error {
	r := res.Report
	if r == nil {
		return fmt.Errorf("cluster: ok result without report for %s under %s", rec.bench, rec.cfg)
	}
	if r.Benchmark != rec.bench || r.Config != rec.cfg {
		return fmt.Errorf("cluster: report identity mismatch: got (%s, %s), want (%s, %s)",
			r.Benchmark, r.Config, rec.bench, rec.cfg)
	}
	if err := core.VerifyReport(r); err != nil {
		return fmt.Errorf("cluster: corrupt report for %s under %s: %v", rec.bench, rec.cfg, err)
	}
	return nil
}

// Release implements Coordination.
func (c *Coordinator) Release(_ context.Context, req ReleaseRequest) error {
	now := c.opts.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.tasks[req.Task]
	if t == nil || t.worker != req.Worker {
		return ErrLeaseExpired
	}
	c.finishTaskLocked(t)
	for _, rec := range t.cells {
		c.refundLocked(rec, now)
	}
	if err := c.flushLocked(); err != nil {
		return fmt.Errorf("cluster: journaling release: %w", err)
	}
	return nil
}

// finishTaskLocked removes a live task from the lease table.
func (c *Coordinator) finishTaskLocked(t *task) {
	delete(c.tasks, t.id)
	if ws := c.workers[t.worker]; ws != nil && ws.inflight > 0 {
		ws.inflight--
	}
	c.journalLocked(walRec{K: "taskdone", Task: t.id})
}

// reclaimExpiredLocked requeues the cells of every expired lease and
// charges the owning worker's breaker (crash, hang, or heartbeat loss
// all land here).
func (c *Coordinator) reclaimExpiredLocked(now time.Time) {
	for _, t := range c.tasks {
		if now.Before(t.deadline) {
			continue
		}
		c.finishTaskLocked(t)
		c.stats.LeaseExpiries++
		for _, rec := range t.cells {
			c.retryLocked(rec, core.OutcomeTimeout,
				fmt.Sprintf("cluster: lease %s on worker %s expired", t.id, t.worker), now)
		}
		if ws := c.workers[t.worker]; ws != nil {
			ws.br.failure(now)
			c.publishBreakerLocked(ws)
		}
	}
}

// retryLocked requeues one failed attempt with exponential backoff and
// jitter, or parks the cell when its retry budget is exhausted.
func (c *Coordinator) retryLocked(rec *cellRec, outcome core.Outcome, msg string, now time.Time) {
	if rec.attempts >= c.opts.MaxAttempts {
		c.parkLocked(rec, outcome,
			fmt.Sprintf("%s (retry budget exhausted after %d attempts)", msg, rec.attempts))
		return
	}
	c.stats.Retries++
	rec.state = CellQueued
	rec.owner = ""
	rec.notBefore = now.Add(c.backoffLocked(rec.attempts))
	c.tenantLocked(rec.job.tenant).queue = append(c.tenantLocked(rec.job.tenant).queue, rec)
	c.journalCellLocked("retry", rec, outcome, msg, nil, rec.notBefore)
}

// refundLocked requeues a canceled or released attempt without charging
// the retry budget.
func (c *Coordinator) refundLocked(rec *cellRec, now time.Time) {
	c.stats.RefundedCells++
	if rec.attempts > 0 {
		rec.attempts--
	}
	rec.state = CellQueued
	rec.owner = ""
	rec.notBefore = now
	c.tenantLocked(rec.job.tenant).queue = append(c.tenantLocked(rec.job.tenant).queue, rec)
	c.journalCellLocked("refund", rec, core.OutcomeCanceled, "", nil, time.Time{})
}

// backoffLocked computes the delay before attempt n+1: exponential in the
// attempts already burned, capped, with half jitter.
func (c *Coordinator) backoffLocked(attempts int) time.Duration {
	d := c.opts.RetryBackoff << (attempts - 1)
	if d > c.opts.MaxBackoff || d <= 0 {
		d = c.opts.MaxBackoff
	}
	half := d / 2
	return half + time.Duration(c.rng.Int63n(int64(half)+1))
}

// commitCellLocked records one verified report. The commits counter is
// the no-double-commit invariant: it can never pass 1 because a cell is
// only ever leased by one live task and stale tasks are rejected
// wholesale.
func (c *Coordinator) commitCellLocked(rec *cellRec, r *core.Report) {
	if rec.commits > 0 || rec.state == CellDone || rec.state == CellParked {
		// During journal replay a re-presented commit is idempotent, not
		// an invariant breach — the live guard below stays strict.
		if !c.replaying {
			c.stats.DoubleCommitRejected++
		}
		return
	}
	rec.commits++
	rec.state = CellDone
	rec.owner = ""
	rec.outcome = core.OutcomeOK
	rec.report = r
	rec.errMsg = ""
	c.stats.CommittedCells++
	if c.m != nil {
		c.m.committed.Inc(core.OutcomeOK.String())
	}
	c.journalCellLocked("commit", rec, core.OutcomeOK, "", r, time.Time{})
	c.cellTerminalLocked(rec)
}

// parkLocked records one terminal failure.
func (c *Coordinator) parkLocked(rec *cellRec, outcome core.Outcome, msg string) {
	if rec.state == CellDone || rec.state == CellParked {
		if !c.replaying {
			c.stats.DoubleCommitRejected++
		}
		return
	}
	rec.state = CellParked
	rec.owner = ""
	rec.outcome = outcome
	rec.errMsg = msg
	c.stats.ParkedCells++
	if c.m != nil {
		c.m.parked.Inc(outcome.String())
	}
	c.journalCellLocked("park", rec, outcome, msg, nil, time.Time{})
	c.cellTerminalLocked(rec)
}

// cellTerminalLocked advances the owning job's completion state.
func (c *Coordinator) cellTerminalLocked(rec *cellRec) {
	j := rec.job
	j.remaining--
	if j.remaining == 0 {
		close(j.done)
		c.stats.DoneJobs++
		if ts := c.tenants[j.tenant]; ts != nil && ts.activeJobs > 0 {
			ts.activeJobs--
		}
	}
}

// Status reports one job.
func (c *Coordinator) Status(id string) (*JobStatus, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j := c.jobs[id]
	if j == nil {
		return nil, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	st := &JobStatus{
		ID: j.id, Tenant: j.tenant,
		Total:  len(j.cells),
		Counts: map[core.Outcome]int{},
	}
	for _, rec := range j.cells {
		cs := CellStatus{
			Bench: rec.bench, Config: rec.cfg, State: rec.state,
			Outcome: rec.outcome, Attempts: rec.attempts, Error: rec.errMsg,
		}
		switch {
		case rec.state == CellDone || rec.state == CellParked:
			st.Done++
			st.Counts[rec.outcome]++
		case rec.state == CellQueued && rec.attempts > 0,
			rec.state == CellLeased && rec.attempts > 1:
			// A burned attempt on a non-terminal cell: the retry machinery
			// is working on it, as opposed to a parked cell it gave up on.
			st.Retrying++
		}
		if rec.report != nil {
			cs.Speedup = rec.report.Speedup()
			cs.Coverage = rec.report.Coverage()
			if j.includeReports {
				cs.Report = rec.report
			}
		}
		if rec.state == CellParked {
			st.Parked = append(st.Parked, cs)
		}
		st.Cells = append(st.Cells, cs)
	}
	switch {
	case j.remaining == 0:
		st.State = JobDone
	case j.started:
		st.State = JobRunning
	default:
		st.State = JobQueued
	}
	st.Summary = summarize(st)
	return st, nil
}

// summarize renders the job's aggregate line in the sweep style, e.g.
// "796/798 cells ok (2 timeout)" plus the in-flight tail while running.
func summarize(st *JobStatus) string {
	var parts []string
	for o := core.OutcomeStepLimit; o <= core.OutcomeError; o++ {
		if n := st.Counts[o]; n > 0 {
			parts = append(parts, fmt.Sprintf("%d %s", n, o))
		}
	}
	s := fmt.Sprintf("%d/%d cells ok", st.Counts[core.OutcomeOK], st.Total)
	if len(parts) > 0 {
		s += " (" + strings.Join(parts, ", ") + ")"
	}
	if pending := st.Total - st.Done; pending > 0 {
		s += fmt.Sprintf("; %d in flight or queued", pending)
		if st.Retrying > 0 {
			s += fmt.Sprintf(" (%d retrying)", st.Retrying)
		}
	}
	return s
}

// Report returns the committed report of one cell (nil when the cell is
// not done). It is the differential-oracle hook of the chaos suite.
func (c *Coordinator) Report(jobID, benchName string, cfg core.Config) *core.Report {
	c.mu.Lock()
	defer c.mu.Unlock()
	j := c.jobs[jobID]
	if j == nil {
		return nil
	}
	for _, rec := range j.cells {
		if rec.bench == benchName && rec.cfg == cfg {
			return rec.report
		}
	}
	return nil
}

// Wait blocks until the job is terminal or ctx is done.
func (c *Coordinator) Wait(ctx context.Context, id string) error {
	c.mu.Lock()
	j := c.jobs[id]
	c.mu.Unlock()
	if j == nil {
		return fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	select {
	case <-j.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// CheckInvariants verifies the coordinator's structural invariants:
// every cell committed at most once, terminal bookkeeping consistent,
// and no cell lost (every cell is queued, leased by a live task, or
// terminal). The chaos suite calls it after every run.
func (c *Coordinator) CheckInvariants() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	leased := map[*cellRec]bool{}
	for _, t := range c.tasks {
		for _, rec := range t.cells {
			leased[rec] = true
		}
	}
	queued := map[*cellRec]bool{}
	for name, ts := range c.tenants {
		for _, rec := range ts.queue {
			if rec == nil {
				return fmt.Errorf("cluster invariant: nil cell in tenant %s queue", name)
			}
			if queued[rec] {
				return fmt.Errorf("cluster invariant: cell %s/%s queued twice", rec.bench, rec.cfg)
			}
			queued[rec] = true
		}
	}
	if c.stats.DoubleCommitRejected != 0 {
		return fmt.Errorf("cluster invariant: %d double commits reached a terminal cell", c.stats.DoubleCommitRejected)
	}
	for id, j := range c.jobs {
		remaining := 0
		for _, rec := range j.cells {
			if rec.commits > 1 {
				return fmt.Errorf("cluster invariant: cell %s/%s committed %d times", rec.bench, rec.cfg, rec.commits)
			}
			switch rec.state {
			case CellDone:
				if rec.commits != 1 || rec.report == nil {
					return fmt.Errorf("cluster invariant: done cell %s/%s has commits=%d report=%v",
						rec.bench, rec.cfg, rec.commits, rec.report != nil)
				}
			case CellParked:
				if rec.outcome == core.OutcomeOK {
					return fmt.Errorf("cluster invariant: parked cell %s/%s with ok outcome", rec.bench, rec.cfg)
				}
			case CellQueued:
				if !queued[rec] {
					return fmt.Errorf("cluster invariant: queued cell %s/%s missing from its tenant queue", rec.bench, rec.cfg)
				}
				remaining++
			case CellLeased:
				if !leased[rec] {
					return fmt.Errorf("cluster invariant: leased cell %s/%s has no live task (lost)", rec.bench, rec.cfg)
				}
				remaining++
			default:
				return fmt.Errorf("cluster invariant: cell %s/%s in unknown state %q", rec.bench, rec.cfg, rec.state)
			}
		}
		if remaining != j.remaining {
			return fmt.Errorf("cluster invariant: job %s remaining=%d but %d non-terminal cells", id, j.remaining, remaining)
		}
	}
	return nil
}
