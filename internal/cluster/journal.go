package cluster

// Durability layer: every coordinator state transition becomes a record
// in a write-ahead log (internal/wal), and OpenCoordinator rebuilds the
// full job store — queues, leases, terminal cells, committed reports —
// by replaying snapshot + journal. Recovery re-arms lease deadlines at
// now+Lease so workers holding live tasks simply reconnect: their
// heartbeats and commits land on the replayed task table. At-most-once
// commit holds across a crash: an acked commit was fsynced first, the
// generation scheme never replays a record twice, and the replay
// helpers are idempotent anyway.
//
// Deliberately not persisted (documented volatile state): worker
// breakers and health, tenant token buckets, and the backoff RNG — a
// restart gives every worker a closed breaker and every tenant a full
// bucket, which is the conservative choice after losing the evidence
// that opened them.

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"loopapalooza/internal/core"
	"loopapalooza/internal/wal"
)

// DefaultCompactEvery is the journal-records-since-snapshot threshold
// that triggers compaction.
const DefaultCompactEvery = 4096

// walRec is one journal record: a state transition keyed by K. Unused
// fields stay empty; the record kinds are:
//
//	admit    job admitted (benches × cfgs cells enqueued)
//	lease    task granted (cells leased, attempts charged)
//	taskdone task left the lease table (commit, release, or expiry)
//	commit   cell committed with its verified report
//	park     cell terminally failed
//	retry    cell requeued with backoff (attempt already charged)
//	refund   cell requeued uncharged (cancel/release)
type walRec struct {
	K string `json:"k"`

	Job    string `json:"job,omitempty"`
	Tenant string `json:"tenant,omitempty"`

	// admit
	Include bool          `json:"include,omitempty"`
	Created int64         `json:"created,omitempty"` // UnixNano
	Benches []string      `json:"benches,omitempty"`
	Cfgs    []core.Config `json:"cfgs,omitempty"`

	// lease
	Task   string `json:"task,omitempty"`
	Worker string `json:"worker,omitempty"`

	// cell transitions
	Bench     string       `json:"bench,omitempty"`
	Cfg       *core.Config `json:"cfg,omitempty"`
	Outcome   core.Outcome `json:"outcome,omitempty"`
	Err       string       `json:"err,omitempty"`
	Report    *core.Report `json:"report,omitempty"`
	NotBefore int64        `json:"notBefore,omitempty"` // UnixNano
}

// Snapshot schema: the full coordinator state at compaction time.
type snapState struct {
	JobSeq      int       `json:"jobSeq"`
	TaskSeq     int       `json:"taskSeq"`
	RRIdx       int       `json:"rrIdx"`
	TenantOrder []string  `json:"tenantOrder"`
	Stats       Stats     `json:"stats"`
	Jobs        []snapJob `json:"jobs"`
	// Queues preserves each tenant's FIFO order as (job, cell index)
	// references.
	Queues map[string][]snapRef `json:"queues"`
	Tasks  []snapTask           `json:"tasks"`
}

type snapJob struct {
	ID      string     `json:"id"`
	Tenant  string     `json:"tenant"`
	Include bool       `json:"include,omitempty"`
	Created int64      `json:"created"`
	Started bool       `json:"started,omitempty"`
	Cells   []snapCell `json:"cells"`
}

type snapCell struct {
	Bench     string       `json:"bench"`
	Cfg       core.Config  `json:"cfg"`
	State     CellState    `json:"state"`
	Attempts  int          `json:"attempts,omitempty"`
	NotBefore int64        `json:"notBefore,omitempty"`
	Outcome   core.Outcome `json:"outcome,omitempty"`
	Err       string       `json:"err,omitempty"`
	Report    *core.Report `json:"report,omitempty"`
	Commits   int          `json:"commits,omitempty"`
}

type snapRef struct {
	Job string `json:"job"`
	Idx int    `json:"idx"`
}

type snapTask struct {
	ID     string    `json:"id"`
	Worker string    `json:"worker"`
	Tenant string    `json:"tenant"`
	Bench  string    `json:"bench"`
	Refs   []snapRef `json:"refs"`
}

// OpenCoordinator opens (or creates) a durable coordinator backed by a
// write-ahead log in opts.DataDir, replaying any recovered state before
// the janitor starts. With an empty DataDir it degrades to the
// in-memory NewCoordinator.
func OpenCoordinator(opts CoordinatorOptions) (*Coordinator, error) {
	opts.withDefaults()
	if opts.DataDir == "" {
		return NewCoordinator(opts), nil
	}
	log, err := wal.Open(opts.DataDir)
	if err != nil {
		return nil, err
	}
	c := newCoordinator(opts)
	c.wal = log
	if err := c.recover(log); err != nil {
		log.Close()
		return nil, err
	}
	go c.janitor()
	return c, nil
}

// Crash abandons the coordinator the way SIGKILL would: the janitor
// stops, unsynced journal records are dropped, and no final flush runs.
// Recovery and chaos tests use it; production shutdown is Close.
func (c *Coordinator) Crash() {
	c.mu.Lock()
	select {
	case <-c.janitorStop:
	default:
		close(c.janitorStop)
	}
	if c.wal != nil {
		c.wal.Crash()
	}
	c.mu.Unlock()
	<-c.janitorDone
}

// WALStats snapshots the underlying log counters (zero when the
// coordinator is not durable).
func (c *Coordinator) WALStats() wal.Stats {
	c.mu.Lock()
	log := c.wal
	c.mu.Unlock()
	if log == nil {
		return wal.Stats{}
	}
	return log.Stats()
}

// journalLocked appends one record to the log. It is a no-op without a
// log or during replay; durability waits for the caller's flush. A record
// that cannot be appended fails that flush.
func (c *Coordinator) journalLocked(rec walRec) {
	if c.wal == nil || c.replaying {
		return
	}
	payload, err := json.Marshal(rec)
	if err == nil {
		err = c.wal.Append(payload)
	}
	if err != nil {
		c.stats.WALErrors++
		if c.walErr == nil {
			c.walErr = err
		}
		return
	}
	c.walDirty = true
	c.recSinceSnap++
}

// journalCellLocked appends one cell-transition record.
func (c *Coordinator) journalCellLocked(kind string, rec *cellRec, outcome core.Outcome, errMsg string, report *core.Report, notBefore time.Time) {
	if c.wal == nil || c.replaying {
		return
	}
	cfg := rec.cfg
	wr := walRec{K: kind, Job: rec.job.id, Bench: rec.bench, Cfg: &cfg,
		Outcome: outcome, Err: errMsg, Report: report}
	if !notBefore.IsZero() {
		wr.NotBefore = notBefore.UnixNano()
	}
	c.journalLocked(wr)
}

// flushLocked makes every journaled record durable, compacting when the
// journal has outgrown the snapshot threshold. The sync error (if any)
// propagates so the caller can refuse to ack an unpersisted transition.
// A caller that applies its transition only after the journal is durable
// calls syncLocked, applies it, then compactDueLocked, so a compaction
// never snapshots the state without it.
func (c *Coordinator) flushLocked() error {
	if err := c.syncLocked(); err != nil {
		return err
	}
	c.compactDueLocked()
	return nil
}

// syncLocked makes every journaled record durable, or fails when a record
// since the last sync never reached the journal. After one failure it
// fails every later call with the same error: the coordinator fails
// closed.
func (c *Coordinator) syncLocked() error {
	if c.walFailed != nil {
		return c.walFailed
	}
	if c.wal == nil || (!c.walDirty && c.walErr == nil) {
		return nil
	}
	err := c.walErr
	c.walDirty, c.walErr = false, nil
	if err == nil {
		if err = c.wal.Sync(); err != nil {
			c.stats.WALErrors++
		}
	}
	if err != nil {
		// After a failed append or fsync the journal's durable prefix is
		// unknowable (a missing record, partial writes, dropped pages), and
		// retrying the buffer could persist records for transitions the
		// caller is about to refuse. Abandon the log rather than risk a
		// half-true replay, and fail closed: serving on without a journal
		// would acknowledge transitions a crash then loses.
		c.wal.Crash()
		c.wal = nil
		c.walFailed = err
		return err
	}
	return nil
}

// JournalErr returns the journal failure the coordinator refuses every
// acknowledgement with, or nil while its journal works (always nil for an
// in-memory coordinator). A server mounting the coordinator reports it as
// a readiness check; a restart recovers from the journal and clears it.
func (c *Coordinator) JournalErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.walFailed == nil {
		return nil
	}
	return fmt.Errorf("cluster: journal failed, acknowledgements refused until restart: %w", c.walFailed)
}

// compactDueLocked compacts once the journal has outgrown the snapshot
// threshold.
func (c *Coordinator) compactDueLocked() {
	if c.wal != nil && c.recSinceSnap >= c.opts.CompactEvery {
		c.compactLocked()
	}
}

// flushBestEffortLocked flushes where an error must not fail the caller
// (janitor ticks, heartbeats, no-work claims).
func (c *Coordinator) flushBestEffortLocked() {
	c.flushLocked()
}

// compactLocked folds the live state into a new snapshot generation.
// Failure is not fatal — the journal keeps growing and the next flush
// tries again.
func (c *Coordinator) compactLocked() {
	snap, err := json.Marshal(c.snapshotLocked())
	if err != nil {
		c.stats.WALErrors++
		return
	}
	if err := c.wal.Compact(snap); err != nil {
		c.stats.WALErrors++
		return
	}
	c.recSinceSnap = 0
}

// snapshotLocked serializes the coordinator state.
func (c *Coordinator) snapshotLocked() *snapState {
	st := &snapState{
		JobSeq:      c.jobSeq,
		TaskSeq:     c.taskSeq,
		RRIdx:       c.rrIdx,
		TenantOrder: append([]string(nil), c.tenantOrder...),
		Stats:       c.stats,
		Queues:      map[string][]snapRef{},
	}
	cellIdx := map[*cellRec]snapRef{}
	jobIDs := make([]string, 0, len(c.jobs))
	for id := range c.jobs {
		jobIDs = append(jobIDs, id)
	}
	sort.Strings(jobIDs)
	for _, id := range jobIDs {
		j := c.jobs[id]
		sj := snapJob{ID: j.id, Tenant: j.tenant, Include: j.includeReports,
			Created: j.created.UnixNano(), Started: j.started}
		for i, rec := range j.cells {
			cellIdx[rec] = snapRef{Job: j.id, Idx: i}
			sc := snapCell{
				Bench: rec.bench, Cfg: rec.cfg, State: rec.state,
				Attempts: rec.attempts, Outcome: rec.outcome,
				Err: rec.errMsg, Report: rec.report, Commits: rec.commits,
			}
			if !rec.notBefore.IsZero() {
				sc.NotBefore = rec.notBefore.UnixNano()
			}
			sj.Cells = append(sj.Cells, sc)
		}
		st.Jobs = append(st.Jobs, sj)
	}
	for name, ts := range c.tenants {
		for _, rec := range ts.queue {
			st.Queues[name] = append(st.Queues[name], cellIdx[rec])
		}
	}
	taskIDs := make([]string, 0, len(c.tasks))
	for id := range c.tasks {
		taskIDs = append(taskIDs, id)
	}
	sort.Strings(taskIDs)
	for _, id := range taskIDs {
		t := c.tasks[id]
		snt := snapTask{ID: t.id, Worker: t.worker, Tenant: t.tenant, Bench: t.bench}
		for _, rec := range t.cells {
			snt.Refs = append(snt.Refs, cellIdx[rec])
		}
		st.Tasks = append(st.Tasks, snt)
	}
	return st
}

// recover rebuilds the coordinator from a freshly opened log: restore
// the snapshot, replay the journal, then re-arm every recovered lease
// at now+Lease and recompute derived state.
func (c *Coordinator) recover(log *wal.Log) error {
	now := c.opts.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.replaying = true
	defer func() { c.replaying = false }()

	if snap := log.Snapshot(); len(snap) > 0 {
		var st snapState
		if err := json.Unmarshal(snap, &st); err != nil {
			return fmt.Errorf("cluster: corrupt snapshot: %w", err)
		}
		if err := c.restoreSnapshotLocked(&st, now); err != nil {
			return err
		}
	}
	// The recovered journal's records count against the compaction
	// threshold, so a journal that outgrew it while down compacts at the
	// first post-recovery flush instead of growing without bound across
	// restarts.
	c.recSinceSnap = len(log.Records())
	for _, raw := range log.Records() {
		var rec walRec
		if err := json.Unmarshal(raw, &rec); err != nil {
			// The framing CRC passed, so this is a version skew or writer
			// bug, not bit-rot; dropping the record (and everything it
			// implies) is worse than failing loudly.
			return fmt.Errorf("cluster: undecodable journal record: %w", err)
		}
		c.applyLocked(&rec, now)
	}

	// Derived state: lease deadlines, job completion, per-tenant active
	// job counts, and worker inflight all recompute from the replayed
	// truth rather than trusting persisted copies.
	for _, t := range c.tasks {
		t.deadline = now.Add(c.opts.Lease)
		ws := c.workerLocked(t.worker)
		ws.inflight++
		ws.lastSeen = now
	}
	for _, ts := range c.tenants {
		ts.activeJobs = 0
	}
	for _, j := range c.jobs {
		remaining := 0
		for _, rec := range j.cells {
			if rec.state == CellQueued || rec.state == CellLeased {
				remaining++
			}
		}
		j.remaining = remaining
		if remaining == 0 {
			select {
			case <-j.done:
			default:
				close(j.done)
			}
		} else {
			c.tenantLocked(j.tenant).activeJobs++
		}
	}
	return nil
}

func (c *Coordinator) restoreSnapshotLocked(st *snapState, now time.Time) error {
	c.jobSeq, c.taskSeq = st.JobSeq, st.TaskSeq
	c.stats = st.Stats
	for _, name := range st.TenantOrder {
		c.tenantLocked(name)
	}
	if len(c.tenantOrder) > 0 {
		c.rrIdx = st.RRIdx % len(c.tenantOrder)
	}
	for i := range st.Jobs {
		sj := &st.Jobs[i]
		j := &job{
			id: sj.ID, tenant: sj.Tenant, includeReports: sj.Include,
			created: time.Unix(0, sj.Created), started: sj.Started,
			done: make(chan struct{}),
		}
		for _, sc := range sj.Cells {
			rec := &cellRec{
				job: j, bench: sc.Bench, cfg: sc.Cfg, state: sc.State,
				attempts: sc.Attempts, outcome: sc.Outcome,
				errMsg: sc.Err, report: sc.Report, commits: sc.Commits,
			}
			if sc.NotBefore != 0 {
				rec.notBefore = time.Unix(0, sc.NotBefore)
				if max := now.Add(c.opts.MaxBackoff); rec.notBefore.After(max) {
					rec.notBefore = max
				}
			}
			if sc.State == CellQueued || sc.State == CellLeased {
				j.remaining++
			}
			j.cells = append(j.cells, rec)
		}
		c.jobs[j.id] = j
	}
	resolve := func(ref snapRef) (*cellRec, error) {
		j := c.jobs[ref.Job]
		if j == nil || ref.Idx < 0 || ref.Idx >= len(j.cells) {
			return nil, fmt.Errorf("cluster: snapshot references unknown cell %s[%d]", ref.Job, ref.Idx)
		}
		return j.cells[ref.Idx], nil
	}
	for name, refs := range st.Queues {
		ts := c.tenantLocked(name)
		for _, ref := range refs {
			rec, err := resolve(ref)
			if err != nil {
				return err
			}
			ts.queue = append(ts.queue, rec)
		}
	}
	for i := range st.Tasks {
		snt := &st.Tasks[i]
		t := &task{id: snt.ID, worker: snt.Worker, tenant: snt.Tenant, bench: snt.Bench}
		for _, ref := range snt.Refs {
			rec, err := resolve(ref)
			if err != nil {
				return err
			}
			t.cells = append(t.cells, rec)
		}
		c.tasks[t.id] = t
	}
	return nil
}

// applyLocked replays one journal record. Replay is defensive: a record
// that no longer matches the state (terminal cell, vanished task) is
// skipped rather than double-applied, so replay is idempotent even
// though the generation scheme never presents a record twice.
func (c *Coordinator) applyLocked(rec *walRec, now time.Time) {
	switch rec.K {
	case "admit":
		if c.jobs[rec.Job] != nil {
			return
		}
		j := &job{
			id: rec.Job, tenant: rec.Tenant, includeReports: rec.Include,
			created: time.Unix(0, rec.Created), done: make(chan struct{}),
			remaining: len(rec.Benches) * len(rec.Cfgs),
		}
		ts := c.tenantLocked(j.tenant)
		for _, b := range rec.Benches {
			for _, cfg := range rec.Cfgs {
				cr := &cellRec{job: j, bench: b, cfg: cfg, state: CellQueued}
				j.cells = append(j.cells, cr)
				ts.queue = append(ts.queue, cr)
			}
		}
		c.jobs[j.id] = j
		bumpSeq(&c.jobSeq, rec.Job, "job-")

	case "lease":
		if c.tasks[rec.Task] != nil {
			return
		}
		j := c.jobs[rec.Job]
		if j == nil {
			return
		}
		t := &task{id: rec.Task, worker: rec.Worker, tenant: rec.Tenant, bench: rec.Bench}
		taken := map[*cellRec]bool{}
		for _, cfg := range rec.Cfgs {
			cr := findCell(j, rec.Bench, cfg)
			if cr == nil || cr.state != CellQueued {
				continue
			}
			cr.state = CellLeased
			cr.owner = rec.Worker
			cr.attempts++
			j.started = true
			t.cells = append(t.cells, cr)
			taken[cr] = true
		}
		if len(t.cells) == 0 {
			return
		}
		ts := c.tenantLocked(rec.Tenant)
		kept := ts.queue[:0]
		for _, cr := range ts.queue {
			if !taken[cr] {
				kept = append(kept, cr)
			}
		}
		for i := len(kept); i < len(ts.queue); i++ {
			ts.queue[i] = nil
		}
		ts.queue = kept
		c.tasks[t.id] = t
		bumpSeq(&c.taskSeq, rec.Task, "task-")

	case "taskdone":
		if t := c.tasks[rec.Task]; t != nil {
			delete(c.tasks, rec.Task)
		}

	case "commit":
		if cr := c.findCellRec(rec); cr != nil {
			c.commitCellLocked(cr, rec.Report)
		}

	case "park":
		if cr := c.findCellRec(rec); cr != nil {
			c.parkLocked(cr, rec.Outcome, rec.Err)
		}

	case "retry":
		cr := c.findCellRec(rec)
		if cr == nil || cr.state != CellLeased {
			return
		}
		c.stats.Retries++
		cr.state = CellQueued
		cr.owner = ""
		cr.notBefore = time.Unix(0, rec.NotBefore)
		if max := now.Add(c.opts.MaxBackoff); cr.notBefore.After(max) {
			cr.notBefore = max
		}
		c.tenantLocked(cr.job.tenant).queue = append(c.tenantLocked(cr.job.tenant).queue, cr)

	case "refund":
		cr := c.findCellRec(rec)
		if cr == nil || cr.state != CellLeased {
			return
		}
		c.stats.RefundedCells++
		if cr.attempts > 0 {
			cr.attempts--
		}
		cr.state = CellQueued
		cr.owner = ""
		cr.notBefore = now
		c.tenantLocked(cr.job.tenant).queue = append(c.tenantLocked(cr.job.tenant).queue, cr)
	}
}

// findCellRec resolves a cell-transition record to its live cell.
func (c *Coordinator) findCellRec(rec *walRec) *cellRec {
	j := c.jobs[rec.Job]
	if j == nil || rec.Cfg == nil {
		return nil
	}
	return findCell(j, rec.Bench, *rec.Cfg)
}

func findCell(j *job, bench string, cfg core.Config) *cellRec {
	for _, cr := range j.cells {
		if cr.bench == bench && cr.cfg == cfg {
			return cr
		}
	}
	return nil
}

// bumpSeq keeps a sequence counter ahead of every replayed id so new
// ids never collide with recovered ones.
func bumpSeq(seq *int, id, prefix string) {
	n, err := strconv.Atoi(strings.TrimPrefix(id, prefix))
	if err == nil && n > *seq {
		*seq = n
	}
}
