package cluster

import (
	"context"
	"errors"
	"testing"
	"time"

	"loopapalooza/internal/bench"
	"loopapalooza/internal/core"
)

// openTestCoordinator opens a durable coordinator over dir with the
// shared fake clock, so a crash + reopen pair sees one timeline.
func openTestCoordinator(t *testing.T, dir string, clk *fakeClock, opts CoordinatorOptions) *Coordinator {
	t.Helper()
	opts.DataDir = dir
	opts.Now = clk.Now
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.Lease == 0 {
		opts.Lease = time.Minute
	}
	c, err := OpenCoordinator(opts)
	if err != nil {
		t.Fatalf("OpenCoordinator: %v", err)
	}
	return c
}

func TestRecoverJobsAndQueueOrder(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	c := openTestCoordinator(t, dir, clk, CoordinatorOptions{})
	b, cfgs := testBench(t)
	ctx := context.Background()

	// Job A committed before the crash; jobs B and C still queued.
	idA, err := c.Submit("acme", []*bench.Benchmark{b}, cfgs, true)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	task, err := c.Claim(ctx, ClaimRequest{Worker: "w1"})
	if err != nil {
		t.Fatalf("claim: %v", err)
	}
	results := okResults(t, task)
	if err := c.Commit(ctx, CommitRequest{Worker: "w1", Task: task.ID, Results: results}); err != nil {
		t.Fatalf("commit: %v", err)
	}
	idB, _ := c.Submit("acme", []*bench.Benchmark{b}, cfgs, false)
	idC, _ := c.Submit("acme", []*bench.Benchmark{b}, cfgs, false)
	preStats := c.Stats()
	c.Crash()

	c2 := openTestCoordinator(t, dir, clk, CoordinatorOptions{})
	defer c2.Close()
	if err := c2.CheckInvariants(); err != nil {
		t.Fatalf("invariants after recovery: %v", err)
	}

	// Job A recovered terminal, with its committed reports intact.
	st, err := c2.Status(idA)
	if err != nil || st.State != JobDone || st.Counts[core.OutcomeOK] != 2 {
		t.Fatalf("job A after recovery: %+v, %v", st, err)
	}
	waitCtx, cancel := context.WithTimeout(ctx, time.Second)
	defer cancel()
	if err := c2.Wait(waitCtx, idA); err != nil {
		t.Fatalf("wait on recovered done job: %v", err)
	}
	for _, res := range results {
		got := c2.Report(idA, b.Name, res.Config)
		if got == nil {
			t.Fatalf("recovered job lost report for %s", res.Config)
		}
		if err := core.CompareReports(res.Report, got); err != nil {
			t.Fatalf("recovered report differs: %v", err)
		}
	}

	// Jobs B and C recovered queued, FIFO order preserved: the next
	// claim must lease job B's cells, not job C's.
	for _, id := range []string{idB, idC} {
		if st, err := c2.Status(id); err != nil || st.State != JobQueued {
			t.Fatalf("job %s after recovery: %+v, %v", id, st, err)
		}
	}
	task2, err := c2.Claim(ctx, ClaimRequest{Worker: "w1"})
	if err != nil {
		t.Fatalf("claim after recovery: %v", err)
	}
	if task2.Job != idB {
		t.Fatalf("recovered queue leased %s first, want FIFO head %s", task2.Job, idB)
	}

	// Stats counters survive (modulo volatile worker state).
	if got := c2.Stats(); got.CommittedCells != preStats.CommittedCells {
		t.Fatalf("CommittedCells %d after recovery, want %d", got.CommittedCells, preStats.CommittedCells)
	}

	// New submissions never collide with recovered ids.
	idD, err := c2.Submit("acme", []*bench.Benchmark{b}, cfgs, false)
	if err != nil {
		t.Fatalf("submit after recovery: %v", err)
	}
	if idD == idA || idD == idB || idD == idC {
		t.Fatalf("recovered coordinator reused job id %s", idD)
	}
}

func TestRecoverReArmsLiveLease(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	c := openTestCoordinator(t, dir, clk, CoordinatorOptions{Lease: 10 * time.Second})
	b, cfgs := testBench(t)
	ctx := context.Background()

	id, _ := c.Submit("", []*bench.Benchmark{b}, cfgs, false)
	task, err := c.Claim(ctx, ClaimRequest{Worker: "w1"})
	if err != nil {
		t.Fatalf("claim: %v", err)
	}
	results := okResults(t, task)

	// Coordinator dies 9s into the 10s lease; recovery re-arms the
	// deadline at now+Lease, so the worker's heartbeat and commit —
	// issued well past the original deadline — still land.
	clk.Advance(9 * time.Second)
	c.Crash()
	c2 := openTestCoordinator(t, dir, clk, CoordinatorOptions{Lease: 10 * time.Second})
	defer c2.Close()
	clk.Advance(8 * time.Second)

	if err := c2.Heartbeat(ctx, HeartbeatRequest{Worker: "w1", Task: task.ID}); err != nil {
		t.Fatalf("heartbeat on recovered lease: %v", err)
	}
	if err := c2.Commit(ctx, CommitRequest{Worker: "w1", Task: task.ID, Results: results}); err != nil {
		t.Fatalf("commit on recovered lease: %v", err)
	}
	st, _ := c2.Status(id)
	if st.State != JobDone || st.Counts[core.OutcomeOK] != 2 {
		t.Fatalf("after recovered commit: %+v", st)
	}
	// The same commit again is stale, not a double commit.
	err = c2.Commit(ctx, CommitRequest{Worker: "w1", Task: task.ID, Results: results})
	if !errors.Is(err, ErrLeaseExpired) {
		t.Fatalf("re-commit after commit: %v, want ErrLeaseExpired", err)
	}
	if err := c2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRecoverStaleCommitStillRejected(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	opts := CoordinatorOptions{Lease: 10 * time.Second, RetryBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond}
	c := openTestCoordinator(t, dir, clk, opts)
	b, cfgs := testBench(t)
	ctx := context.Background()

	id, _ := c.Submit("", []*bench.Benchmark{b}, cfgs, false)
	task, err := c.Claim(ctx, ClaimRequest{Worker: "w1"})
	if err != nil {
		t.Fatalf("claim: %v", err)
	}
	results := okResults(t, task)

	// The lease expires and is reclaimed (journaled) before the crash.
	clk.Advance(11 * time.Second)
	if _, err := c.Claim(ctx, ClaimRequest{Worker: "w2"}); err != nil && !errors.Is(err, ErrNoWork) {
		t.Fatalf("reclaim-triggering claim: %v", err)
	}
	c.Crash()

	c2 := openTestCoordinator(t, dir, clk, opts)
	defer c2.Close()
	// The zombie worker's commit of the reclaimed task must still be
	// rejected wholesale after recovery.
	err = c2.Commit(ctx, CommitRequest{Worker: "w1", Task: task.ID, Results: results})
	if !errors.Is(err, ErrLeaseExpired) {
		t.Fatalf("stale commit after recovery: %v, want ErrLeaseExpired", err)
	}
	if got := c2.Stats().StaleCommits; got != 1 {
		t.Fatalf("StaleCommits %d, want 1", got)
	}
	// The reclaimed cells are requeued with their attempt charged.
	clk.Advance(time.Second)
	task2, err := c2.Claim(ctx, ClaimRequest{Worker: "w2"})
	if err != nil {
		t.Fatalf("claim of reclaimed cells: %v", err)
	}
	for _, tc := range task2.Cells {
		if tc.Attempt != 2 {
			t.Fatalf("reclaimed cell on attempt %d after recovery, want 2", tc.Attempt)
		}
	}
	if err := c2.Commit(ctx, CommitRequest{Worker: "w2", Task: task2.ID, Results: okResults(t, task2)}); err != nil {
		t.Fatalf("commit: %v", err)
	}
	st, _ := c2.Status(id)
	if st.State != JobDone || st.Counts[core.OutcomeOK] != 2 {
		t.Fatalf("after requeue lifecycle: %+v", st)
	}
	if err := c2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRecoverFromSnapshotAfterCompaction(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	// CompactEvery=1 forces a snapshot on virtually every flush, so
	// recovery exercises the snapshot restore path, not just replay.
	opts := CoordinatorOptions{CompactEvery: 1}
	c := openTestCoordinator(t, dir, clk, opts)
	b, cfgs := testBench(t)
	ctx := context.Background()

	id, _ := c.Submit("acme", []*bench.Benchmark{b}, cfgs, false)
	task, err := c.Claim(ctx, ClaimRequest{Worker: "w1"})
	if err != nil {
		t.Fatalf("claim: %v", err)
	}
	if err := c.Commit(ctx, CommitRequest{Worker: "w1", Task: task.ID, Results: okResults(t, task)}); err != nil {
		t.Fatalf("commit: %v", err)
	}
	if c.WALStats().Compactions == 0 {
		t.Fatal("no compaction happened despite CompactEvery=1")
	}
	c.Crash()

	c2 := openTestCoordinator(t, dir, clk, opts)
	defer c2.Close()
	st, err := c2.Status(id)
	if err != nil || st.State != JobDone || st.Counts[core.OutcomeOK] != 2 {
		t.Fatalf("snapshot-recovered job: %+v, %v", st, err)
	}
	if err := c2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverAdmissionCompactedOnSubmit: with CompactEvery 1, the flush
// that makes an admission durable is also due to compact. The snapshot it
// writes must hold the admitted job, since compaction discards the admit
// record: an acknowledged job must survive a crash right after Submit.
func TestRecoverAdmissionCompactedOnSubmit(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	opts := CoordinatorOptions{CompactEvery: 1}
	c := openTestCoordinator(t, dir, clk, opts)
	b, cfgs := testBench(t)
	id, err := c.Submit("acme", []*bench.Benchmark{b}, cfgs, false)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if c.WALStats().Compactions == 0 {
		t.Fatal("the admission did not compact despite CompactEvery=1")
	}
	c.Crash()

	c2 := openTestCoordinator(t, dir, clk, opts)
	defer c2.Close()
	st, err := c2.Status(id)
	if err != nil || st.State != JobQueued || st.Total != len(cfgs) {
		t.Fatalf("recovered job: %+v, %v; want %d queued cells", st, err, len(cfgs))
	}
	if err := c2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverRefusesUnjournaledAdmission: when a record never reaches the
// journal (its append fails), the ack that depends on it must fail like a
// failed fsync does: Submit refuses the job instead of acknowledging an id
// a crash would lose, and Claim refuses a lease it could not journal.
func TestRecoverRefusesUnjournaledAdmission(t *testing.T) {
	b, cfgs := testBench(t)
	breakJournal := func(c *Coordinator) {
		c.mu.Lock()
		c.wal.Crash() // every later append fails
		c.mu.Unlock()
	}

	c := openTestCoordinator(t, t.TempDir(), newFakeClock(), CoordinatorOptions{})
	defer c.Close()
	breakJournal(c)
	if id, err := c.Submit("acme", []*bench.Benchmark{b}, cfgs, false); err == nil {
		t.Fatalf("Submit acknowledged %s although its admission was never journaled", id)
	}
	if _, err := c.Status("job-000001"); err == nil {
		t.Error("the refused job is visible")
	}
	if st := c.Stats(); st.WALErrors == 0 {
		t.Error("the failed append was not counted")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	c2 := openTestCoordinator(t, t.TempDir(), newFakeClock(), CoordinatorOptions{})
	defer c2.Close()
	if _, err := c2.Submit("acme", []*bench.Benchmark{b}, cfgs, false); err != nil {
		t.Fatalf("submit: %v", err)
	}
	breakJournal(c2)
	if task, err := c2.Claim(context.Background(), ClaimRequest{Worker: "w1"}); err == nil {
		t.Fatalf("Claim granted %s although its lease was never journaled", task.ID)
	}
}

// TestRecoverFailsClosedAfterJournalError: after one failed append the
// coordinator refuses every later acknowledgement (admission, lease and
// commit) with the journal error until restart, instead of serving on
// with no journal and acknowledging what a crash then loses. A restart
// recovers what was acknowledged before the failure and journals again.
func TestRecoverFailsClosedAfterJournalError(t *testing.T) {
	b, cfgs := testBench(t)
	dir := t.TempDir()
	clk := newFakeClock()
	ctx := context.Background()
	c := openTestCoordinator(t, dir, clk, CoordinatorOptions{})
	defer c.Close()
	for k := 0; k < 2; k++ {
		if _, err := c.Submit("acme", []*bench.Benchmark{b}, cfgs, false); err != nil {
			t.Fatalf("submit %d: %v", k, err)
		}
	}
	task, err := c.Claim(ctx, ClaimRequest{Worker: "w1"})
	if err != nil {
		t.Fatalf("claim: %v", err)
	}
	if err := c.JournalErr(); err != nil {
		t.Fatalf("JournalErr with a working journal: %v", err)
	}

	c.mu.Lock()
	c.wal.Crash() // every later append fails
	c.mu.Unlock()
	for k := 0; k < 2; k++ {
		if id, err := c.Submit("acme", []*bench.Benchmark{b}, cfgs, false); err == nil {
			t.Fatalf("submit %d after the journal failed acknowledged %s", k, id)
		}
	}
	if task2, err := c.Claim(ctx, ClaimRequest{Worker: "w2"}); err == nil {
		t.Fatalf("Claim after the journal failed granted %s", task2.ID)
	}
	results := make([]CellResult, len(task.Cells))
	for i, tc := range task.Cells {
		results[i] = CellResult{Config: tc.Config, Outcome: core.OutcomeCanceled}
	}
	if err := c.Commit(ctx, CommitRequest{Task: task.ID, Worker: "w1", Results: results}); err == nil {
		t.Fatal("Commit after the journal failed was acknowledged")
	}
	if err := c.JournalErr(); err == nil {
		t.Fatal("JournalErr is nil after the journal failed")
	}
	c.Crash()

	c2 := openTestCoordinator(t, dir, clk, CoordinatorOptions{})
	defer c2.Close()
	if err := c2.JournalErr(); err != nil {
		t.Fatalf("JournalErr after restart: %v", err)
	}
	for _, id := range []string{"job-000001", "job-000002"} {
		if _, err := c2.Status(id); err != nil {
			t.Errorf("%s was acknowledged before the failure and is lost: %v", id, err)
		}
	}
	if _, err := c2.Status("job-000003"); err == nil {
		t.Error("a refused admission survived the restart")
	}
	if _, err := c2.Submit("acme", []*bench.Benchmark{b}, cfgs, false); err != nil {
		t.Fatalf("submit after restart: %v", err)
	}
	if err := c2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRecoverRetryingExposedInStatus(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	opts := CoordinatorOptions{MaxAttempts: 3, RetryBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond}
	c := openTestCoordinator(t, dir, clk, opts)
	defer c.Close()
	b, cfgs := testBench(t)
	ctx := context.Background()

	id, _ := c.Submit("", []*bench.Benchmark{b}, cfgs, false)
	task, _ := c.Claim(ctx, ClaimRequest{Worker: "w1"})
	// One cell panics (retryable), one exceeds a deterministic budget
	// (parks immediately).
	res := []CellResult{
		{Config: task.Cells[0].Config, Outcome: core.OutcomePanic, Error: "injected panic"},
		{Config: task.Cells[1].Config, Outcome: core.OutcomeStepLimit, Error: "step budget"},
	}
	if err := c.Commit(ctx, CommitRequest{Worker: "w1", Task: task.ID, Results: res}); err != nil {
		t.Fatalf("commit: %v", err)
	}
	st, _ := c.Status(id)
	if st.Retrying != 1 {
		t.Fatalf("Retrying = %d, want 1: %+v", st.Retrying, st)
	}
	if len(st.Parked) != 1 || st.Parked[0].Outcome != core.OutcomeStepLimit || st.Parked[0].Error == "" {
		t.Fatalf("Parked = %+v, want the step-limit cell with its error", st.Parked)
	}
}
