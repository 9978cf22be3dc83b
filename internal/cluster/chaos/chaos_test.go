package chaos_test

// The chaos suite: seeded fault schedules driven through the real worker
// loop against a real coordinator, checked with Verify's three-part
// contract (liveness, safety, differential oracle). The acceptance test
// runs the full 57-benchmark paper grid through a 3-worker fleet with
// one permanently hung node and requires zero lost cells plus the sick
// worker's breaker OPEN on /metrics.

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"loopapalooza/internal/bench"
	"loopapalooza/internal/cluster"
	"loopapalooza/internal/cluster/chaos"
	"loopapalooza/internal/core"
	"loopapalooza/internal/serve"
)

// fleet starts n workers with injector-supplied hooks and returns a stop
// function that cancels and joins them.
func fleet(t *testing.T, surface cluster.Coordination, inj *chaos.Injector, ids []string) func() {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for _, id := range ids {
		w, err := cluster.NewWorker(cluster.WorkerOptions{
			ID:          id,
			Coordinator: surface,
			Poll:        5 * time.Millisecond,
			Hooks:       inj.Hooks(id),
		})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() { defer wg.Done(); w.Run(ctx) }()
	}
	return func() { cancel(); wg.Wait() }
}

func waitJobs(t *testing.T, c *cluster.Coordinator, timeout time.Duration, jobs ...string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	for _, id := range jobs {
		if err := c.Wait(ctx, id); err != nil {
			st, _ := c.Status(id)
			if st != nil {
				t.Fatalf("job %s did not finish in %v: %s (%d/%d cells)", id, timeout, st.State, st.Done, st.Total)
			}
			t.Fatalf("job %s did not finish in %v: %v", id, timeout, err)
		}
	}
}

// TestChaosMixedFaults drives every fault kind at once through a
// four-worker fleet and checks the full Verify contract. The retry
// budget is sized so transient faults cannot park a cell outright, hence
// every cell must come back OK and bit-identical to the oracle.
func TestChaosMixedFaults(t *testing.T) {
	// The lease is sized, as in TestChaosCrashedWorker, for a saturated
	// -race run: there a healthy worker's heartbeats (every lease/3) can
	// be starved for over 100 ms, and a 150 ms lease expired on steady
	// and flaky as often as on the faulty workers, burning attempts
	// until a cell ran out of them. sleepy's hang stays twice the lease,
	// so lease expiry is still exercised; with fewer retries sleepy
	// claims fewer tasks, so it hangs on half of them to hang in most
	// runs.
	const lease = time.Second
	coord := cluster.NewCoordinator(cluster.CoordinatorOptions{
		Lease:        lease,
		MaxAttempts:  8,
		RetryBackoff: 5 * time.Millisecond,
		MaxBackoff:   40 * time.Millisecond,
		// Small batches make many tasks, so the per-task fault schedule
		// gets plenty of draws.
		BatchSize:        4,
		BreakerThreshold: 3,
		BreakerCooldown:  50 * time.Millisecond,
		Seed:             1,
	})
	defer coord.Close()

	inj := chaos.NewInjector(42)
	inj.SetProfile("flaky", chaos.Profile{Panic: 0.5, Slow: 0.5, SlowDelay: 5 * time.Millisecond})
	inj.SetProfile("liar", chaos.Profile{Corrupt: 0.5, DropHeartbeat: 0.5})
	inj.SetProfile("sleepy", chaos.Profile{Hang: 0.5, HangDelay: 2 * lease})
	// "steady" keeps the zero profile: the healthy worker that guarantees
	// forward progress while the others misbehave.
	stop := fleet(t, coord, inj, []string{"steady", "flaky", "liar", "sleepy"})
	defer stop()

	bs := bench.BySuite(bench.SuiteEEMBC)[:3]
	var jobs []string
	for i, tenant := range []string{"alice", "bob"} {
		id, err := coord.Submit(tenant, bs[i:i+2], core.PaperConfigs(), false)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, id)
	}
	waitJobs(t, coord, 2*time.Minute, jobs...)
	stop()

	if err := chaos.Verify(coord, jobs, bench.NewHarness()); err != nil {
		t.Fatal(err)
	}
	for _, id := range jobs {
		st, err := coord.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.Counts[core.OutcomeOK] != st.Total {
			var parked []string
			for _, c := range st.Parked {
				parked = append(parked, fmt.Sprintf("%s/%s: %s after %d attempts", c.Bench, c.Config, c.Outcome, c.Attempts))
			}
			t.Fatalf("job %s: %s — transient faults must not park cells with attempts to spare; parked: %s",
				id, st.Summary, strings.Join(parked, "; "))
		}
	}
	counts := inj.Counts()
	total := 0
	for _, n := range counts {
		total += n
	}
	if total == 0 {
		t.Fatalf("no faults fired: the schedule %v exercised nothing", counts)
	}
	t.Logf("faults fired: %v; coordinator stats: %+v", counts, coord.Stats())
}

// TestChaosCrashedWorker kills one worker on its first task and checks
// the fleet absorbs the orphaned lease: the cells come back after expiry
// and the job still completes fully OK.
func TestChaosCrashedWorker(t *testing.T) {
	// Lease is generous and the retry budget deep: under a saturated
	// -race run the survivor's heartbeat goroutine can be starved past a
	// tight deadline, and a false expiry must never park cells. The
	// doomed worker's orphaned lease still expires well inside waitJobs.
	coord := cluster.NewCoordinator(cluster.CoordinatorOptions{
		Lease:        time.Second,
		MaxAttempts:  8,
		RetryBackoff: 5 * time.Millisecond,
		Seed:         1,
	})
	defer coord.Close()

	inj := chaos.NewInjector(7)
	inj.SetProfile("doomed", chaos.Profile{Crash: 1})
	stop := fleet(t, coord, inj, []string{"doomed", "survivor"})
	defer stop()

	bs := bench.BySuite(bench.SuiteEEMBC)[:2]
	id, err := coord.Submit("crash", bs, core.PaperConfigs(), false)
	if err != nil {
		t.Fatal(err)
	}
	waitJobs(t, coord, time.Minute, id)
	stop()

	if err := chaos.Verify(coord, []string{id}, bench.NewHarness()); err != nil {
		t.Fatal(err)
	}
	st, err := coord.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.Counts[core.OutcomeOK] != st.Total {
		t.Fatalf("job after crash: %s, want all %d cells ok", st.Summary, st.Total)
	}
	if got := inj.Counts()[chaos.FaultCrash]; got != 1 {
		t.Fatalf("crash fault fired %d times, want exactly 1 (the loop must die)", got)
	}
	if s := coord.Stats(); s.LeaseExpiries == 0 {
		t.Fatalf("stats %+v: the crashed worker's lease never expired", s)
	}
}

// TestAcceptanceHungWorkerPaperGrid is the acceptance run from the
// issue: a 3-worker cluster in which one node permanently hangs past its
// lease deadline must complete the full 57-benchmark × 14-configuration
// paper-grid sweep with zero lost cells, and the sick worker's breaker
// must be OPEN in /metrics when the sweep lands.
func TestAcceptanceHungWorkerPaperGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("full paper-grid sweep; skipped with -short")
	}
	coord := cluster.NewCoordinator(cluster.CoordinatorOptions{
		Lease:        400 * time.Millisecond,
		RetryBackoff: 10 * time.Millisecond,
		// Quarantine after two hang cycles (~1s) — well inside the
		// multi-second sweep even on a heavily loaded machine — and one
		// cooldown longer than the test, so once OPEN the breaker stays
		// OPEN for the /metrics assertion.
		BreakerThreshold: 2,
		BreakerCooldown:  time.Hour,
		Seed:             1,
	})
	defer coord.Close()

	s, err := serve.New(serve.Options{Cluster: coord})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	inj := chaos.NewInjector(1)
	inj.SetProfile("sick", chaos.Profile{Hang: 1, HangDelay: 500 * time.Millisecond})
	stop := fleet(t, coord, inj, []string{"healthy-0", "healthy-1", "sick"})
	defer stop()

	grid := bench.All()
	if len(grid) != 57 {
		t.Fatalf("registered %d benchmarks, the paper grid has 57", len(grid))
	}
	id, err := coord.Submit("paper", grid, core.PaperConfigs(), false)
	if err != nil {
		t.Fatal(err)
	}
	waitJobs(t, coord, 5*time.Minute, id)

	st, err := coord.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	wantCells := len(grid) * len(core.PaperConfigs())
	if st.Done != wantCells || st.Counts[core.OutcomeOK] != wantCells {
		t.Fatalf("paper grid: %s, want all %d cells ok (zero lost)", st.Summary, wantCells)
	}
	if err := chaos.Verify(coord, []string{id}, bench.NewHarness()); err != nil {
		t.Fatal(err)
	}

	// The sick node must be quarantined, and visibly so on /metrics.
	for _, wi := range coord.Workers() {
		if wi.ID == "sick" && wi.Breaker != cluster.BreakerOpen {
			t.Fatalf("sick worker breaker %s, want open", wi.State)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	metricsText := string(raw)
	if !strings.Contains(metricsText, `lpd_cluster_breaker_state{worker="sick"} 1`) {
		t.Fatalf("/metrics missing OPEN breaker gauge for the sick worker:\n%s",
			grepLines(metricsText, "lpd_cluster_breaker_state"))
	}
	t.Logf("hangs fired: %d; stats: %+v", inj.Counts()[chaos.FaultHang], coord.Stats())
}

// waitCommitted polls until the coordinator has committed at least n
// cells (progress gate for mid-run coordinator kills).
func waitCommitted(t *testing.T, c *cluster.Coordinator, n uint64, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if c.Stats().CommittedCells >= n {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("coordinator committed %d cells in %v, want >= %d", c.Stats().CommittedCells, timeout, n)
}

// TestAcceptanceCoordinatorRestartPaperGrid is the durability acceptance
// run: a 3-worker fleet sweeps the full 57×14 paper grid while the
// coordinator is SIGKILLed and restarted twice mid-run, with a torn
// write injected into the journal tail before each recovery. The fleet
// is never restarted — workers ride out the outages through a Proxy —
// and the finished grid must be bit-identical to the single-process
// oracle with zero lost and zero double-committed cells.
func TestAcceptanceCoordinatorRestartPaperGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("full paper-grid sweep; skipped with -short")
	}
	dir := t.TempDir()
	opts := cluster.CoordinatorOptions{
		Lease:        500 * time.Millisecond,
		MaxAttempts:  8,
		RetryBackoff: 10 * time.Millisecond,
		RatePerSec:   -1,
		Seed:         1,
		DataDir:      dir,
	}
	coord, err := cluster.OpenCoordinator(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })

	proxy := chaos.NewProxy(coord)
	// All-zero fault profiles: this run's fault is the coordinator itself.
	inj := chaos.NewInjector(9)
	stop := fleet(t, proxy, inj, []string{"w0", "w1", "w2"})
	defer stop()

	grid := bench.All()
	id, err := coord.Submit("paper", grid, core.PaperConfigs(), false)
	if err != nil {
		t.Fatal(err)
	}
	wantCells := uint64(len(grid) * len(core.PaperConfigs()))

	// Kill the coordinator at ~20% and ~60% of the grid.
	for round, threshold := range []uint64{wantCells / 5, wantCells * 3 / 5} {
		waitCommitted(t, coord, threshold, 2*time.Minute)
		proxy.Swap(nil) // the fleet sees ErrCoordinatorDown and backs off
		coord.Crash()
		if err := chaos.TearWAL(dir); err != nil {
			t.Fatalf("restart %d: tearing WAL: %v", round, err)
		}
		coord, err = cluster.OpenCoordinator(opts)
		if err != nil {
			t.Fatalf("restart %d: recovery: %v", round, err)
		}
		if err := coord.CheckInvariants(); err != nil {
			t.Fatalf("restart %d: invariants after recovery: %v", round, err)
		}
		proxy.Swap(coord)
	}

	waitJobs(t, coord, 5*time.Minute, id)
	stop()

	if err := chaos.Verify(coord, []string{id}, bench.NewHarness()); err != nil {
		t.Fatal(err)
	}
	st, err := coord.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(st.Counts[core.OutcomeOK]) != wantCells {
		t.Fatalf("paper grid across restarts: %s, want all %d cells ok (zero lost)", st.Summary, wantCells)
	}
	ws := coord.WALStats()
	if ws.RecoveredRecords == 0 {
		t.Fatal("final coordinator replayed no journal records")
	}
	if ws.TornBytes == 0 {
		t.Fatal("recovery saw no torn tail despite the injected tear")
	}
	t.Logf("replayed %d records (%d torn bytes truncated); stats: %+v",
		ws.RecoveredRecords, ws.TornBytes, coord.Stats())
}

// TestChaosSmokeRestart is the coordinator-restart wave of
// `make chaos-smoke`: mixed worker faults AND a coordinator kill +
// torn-tail recovery every wave. Gated like TestChaosSmoke.
func TestChaosSmokeRestart(t *testing.T) {
	if os.Getenv("LPD_CHAOS_SMOKE") == "" {
		t.Skip("set LPD_CHAOS_SMOKE=1 (or run `make chaos-smoke`)")
	}
	dir := t.TempDir()
	opts := cluster.CoordinatorOptions{
		Lease:        300 * time.Millisecond,
		MaxAttempts:  8,
		RetryBackoff: 5 * time.Millisecond,
		MaxBackoff:   50 * time.Millisecond,
		RatePerSec:   -1,
		Seed:         1,
		DataDir:      dir,
		// Small threshold so the waves exercise compaction too.
		CompactEvery: 256,
	}
	coord, err := cluster.OpenCoordinator(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	proxy := chaos.NewProxy(coord)

	inj := chaos.NewInjector(2027)
	inj.SetProfile("flaky", chaos.Profile{Panic: 0.2, Slow: 0.3, SlowDelay: 10 * time.Millisecond})
	inj.SetProfile("liar", chaos.Profile{Corrupt: 0.25})
	stop := fleet(t, proxy, inj, []string{"steady", "flaky", "liar"})
	defer stop()

	oracle := bench.NewHarness()
	all := bench.All()
	deadline := time.Now().Add(15 * time.Second)
	wave := 0
	for time.Now().Before(deadline) {
		bs := make([]*bench.Benchmark, 0, 3)
		for i := 0; i < 3; i++ {
			bs = append(bs, all[(wave*3+i)%len(all)])
		}
		before := coord.Stats().CommittedCells
		id, err := coord.Submit(fmt.Sprintf("restart-%d", wave%4), bs, core.PaperConfigs(), false)
		if err != nil {
			t.Fatal(err)
		}
		// Kill mid-wave, tear the tail, recover.
		waitCommitted(t, coord, before+5, time.Minute)
		proxy.Swap(nil)
		coord.Crash()
		if err := chaos.TearWAL(dir); err != nil {
			t.Fatalf("wave %d: %v", wave, err)
		}
		coord, err = cluster.OpenCoordinator(opts)
		if err != nil {
			t.Fatalf("wave %d: recovery: %v", wave, err)
		}
		proxy.Swap(coord)
		waitJobs(t, coord, 2*time.Minute, id)
		if err := chaos.Verify(coord, []string{id}, oracle); err != nil {
			t.Fatalf("wave %d: %v", wave, err)
		}
		wave++
	}
	stop()
	if err := coord.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d kill/recover waves survived; faults fired: %v; stats: %+v; wal: %+v",
		wave, inj.Counts(), coord.Stats(), coord.WALStats())
}

func grepLines(s, needle string) string {
	var out []string
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, needle) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

// TestChaosSmoke is the `make chaos-smoke` entry point: ~30 seconds of
// seeded mixed-fault waves, each wave verified against the full
// contract. Gated behind LPD_CHAOS_SMOKE=1 so plain `go test ./...`
// stays fast.
func TestChaosSmoke(t *testing.T) {
	if os.Getenv("LPD_CHAOS_SMOKE") == "" {
		t.Skip("set LPD_CHAOS_SMOKE=1 (or run `make chaos-smoke`)")
	}
	coord := cluster.NewCoordinator(cluster.CoordinatorOptions{
		Lease:            200 * time.Millisecond,
		MaxAttempts:      8,
		RetryBackoff:     5 * time.Millisecond,
		MaxBackoff:       50 * time.Millisecond,
		BreakerThreshold: 3,
		BreakerCooldown:  100 * time.Millisecond,
		// Once the worker harnesses warm up, waves land faster than the
		// production admission rate: the smoke is about fault tolerance,
		// not rate limiting.
		RatePerSec: -1,
		Seed:       1,
	})
	defer coord.Close()

	inj := chaos.NewInjector(2026)
	inj.SetProfile("flaky", chaos.Profile{Panic: 0.2, Slow: 0.3, SlowDelay: 10 * time.Millisecond})
	inj.SetProfile("liar", chaos.Profile{Corrupt: 0.25, DropHeartbeat: 0.4})
	inj.SetProfile("sleepy", chaos.Profile{Hang: 0.15, HangDelay: 400 * time.Millisecond})
	inj.SetProfile("steady", chaos.Profile{})
	stop := fleet(t, coord, inj, []string{"steady", "flaky", "liar", "sleepy"})
	defer stop()

	oracle := bench.NewHarness()
	all := bench.All()
	deadline := time.Now().Add(30 * time.Second)
	wave := 0
	for time.Now().Before(deadline) {
		// Rotate through the registry three benchmarks at a time so the
		// waves keep finding fresh interpretation work.
		bs := make([]*bench.Benchmark, 0, 3)
		for i := 0; i < 3; i++ {
			bs = append(bs, all[(wave*3+i)%len(all)])
		}
		id, err := coord.Submit(fmt.Sprintf("smoke-%d", wave%4), bs, core.PaperConfigs(), false)
		if err != nil {
			t.Fatal(err)
		}
		waitJobs(t, coord, 2*time.Minute, id)
		if err := chaos.Verify(coord, []string{id}, oracle); err != nil {
			t.Fatalf("wave %d: %v", wave, err)
		}
		wave++
	}
	stop()
	if err := coord.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d waves survived; faults fired: %v; stats: %+v", wave, inj.Counts(), coord.Stats())
}
