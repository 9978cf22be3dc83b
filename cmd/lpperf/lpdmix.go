package main

// The lpd-mix workload and the serve probe. Both drive an in-process lpd
// (serve.New with cmd/lpd's standalone budgets) over HTTP on a loopback
// listener.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"net"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"loopapalooza/internal/core"
	"loopapalooza/internal/serve"
)

// lpdBudgets are cmd/lpd's standalone defaults: -max-steps 500e6 and
// -timeout 30s, each both the default and the cap.
var lpdBudgets = serve.Budgets{MaxSteps: 500_000_000, TimeoutMs: 30_000}

// sloLatency is lpd-mix's latency limit: a request meets it when it
// returns 200 with a verified report within this time of its due time.
const sloLatency = 100 * time.Millisecond

// The lpd-mix windows. Both fit the service's caches: 256 keys inside the
// 1024-entry result cache, and 16 programs' traces inside the 64 MiB trace
// tier.
const (
	hitWindow  = 256 // a hit repeats one of the last this many keys sent
	coldWindow = 16  // a replay revisits one of the last this many cold programs
)

// lpdServer is a running in-process lpd and a client with workers()
// connections to it.
type lpdServer struct {
	srv  *serve.Server
	base string
	tr   *http.Transport
	hc   *http.Client
	done chan error
}

// startLPD starts a server and returns once it answers /healthz.
func startLPD() (*lpdServer, error) {
	srv, err := serve.New(serve.Options{DefaultBudgets: lpdBudgets, MaxBudgets: lpdBudgets})
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	tr := &http.Transport{MaxConnsPerHost: workers(), MaxIdleConnsPerHost: workers()}
	s := &lpdServer{
		srv:  srv,
		base: "http://" + l.Addr().String(),
		tr:   tr,
		hc:   &http.Client{Transport: tr},
		done: make(chan error, 1),
	}
	go func() { s.done <- srv.Serve(l) }()
	if _, err := s.get("/healthz"); err != nil {
		return nil, errors.Join(err, s.stop())
	}
	return s, nil
}

// stop drains the server and waits for it to return.
func (s *lpdServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	s.srv.Close()
	s.tr.CloseIdleConnections()
	return errors.Join(err, <-s.done)
}

func (s *lpdServer) get(path string) ([]byte, error) {
	resp, err := s.hc.Get(s.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return body, err
}

// analyze posts one /v1/analyze body and reads the whole response.
func (s *lpdServer) analyze(body []byte) (int, []byte, error) {
	resp, err := s.hc.Post(s.base+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// scrape reads the unlabeled series of /metrics.
func (s *lpdServer) scrape() (map[string]float64, error) {
	body, err := s.get("/metrics")
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		f := strings.Fields(line)
		if len(f) != 2 || strings.HasPrefix(f[0], "#") {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out, nil
}

// verifyResponse checks one /v1/analyze exchange: no transport error,
// status 200, and a report that passes check once its name is reset to
// name (the service names reports after the request).
func verifyResponse(status int, body []byte, err error, name string, check func(*core.Report) error) error {
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("%s: status %d: %.200s", name, status, body)
	}
	var resp serve.AnalyzeResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("%s: decoding response: %w", name, err)
	}
	if resp.Report == nil {
		return fmt.Errorf("%s: response carries no report", name)
	}
	resp.Report.Benchmark = name
	return check(resp.Report)
}

func analyzeBody(name, src string, cfg core.Config) []byte {
	b, _ := json.Marshal(serve.AnalyzeRequest{Name: name, Source: src, Config: cfg.String()})
	return b
}

// lpdReq is one scheduled request of lpd-mix.
type lpdReq struct {
	due    time.Duration // since the schedule starts
	class  string        // hit, replay or cold
	kernel int           // index of the suite kernel the source is
	name   string        // the request's program name
	cfg    core.Config
	body   []byte
}

// stratum numbers the requests that should take about as long as r: those
// of the same class about the same kernel.
func (r *lpdReq) stratum() int {
	return 3*r.kernel + slices.Index([]string{"hit", "replay", "cold"}, r.class)
}

// lpdSchedule draws n requests, one every period. Each block of ten holds,
// in a seeded order, four requests of class hit, three replay and three
// cold:
//
//   - hit: an exact repeat of one of the last hitWindow keys sent;
//   - replay: a configuration not yet requested for one of the last
//     coldWindow cold programs;
//   - cold: the next kernel of a seeded cycle over the suite, under a name
//     never sent before, with the next configuration of a seeded cycle
//     over the paper configurations.
//
// Exact shares and full cycles keep the mix, and with it the latency
// distribution, alike from seed to seed. A hit or replay with nothing to
// draw from yet is sent cold.
func lpdSchedule(seed int64, ks []input, n int, period time.Duration) []lpdReq {
	type prog struct {
		kernel int
		name   string
		used   map[core.Config]bool
	}
	rng := rand.New(rand.NewSource(seed))
	cfgs := core.PaperConfigs()
	block := []string{"hit", "hit", "hit", "hit", "replay", "replay", "replay", "cold", "cold", "cold"}
	var kernelCycle, cfgCycle []int
	cycle := func(c *[]int, n int) int {
		if len(*c) == 0 {
			*c = rng.Perm(n)
		}
		v := (*c)[0]
		*c = (*c)[1:]
		return v
	}
	var keys []lpdReq
	var colds []*prog
	out := make([]lpdReq, n)
	for k := range out {
		if k%len(block) == 0 {
			rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		}
		r := &out[k]
		r.due = time.Duration(k) * period
		var p *prog
		var unused []core.Config
		class := block[k%len(block)]
		if class == "replay" && len(colds) > 0 {
			p = colds[rng.Intn(len(colds))]
			for _, c := range cfgs {
				if !p.used[c] {
					unused = append(unused, c)
				}
			}
		}
		switch {
		case class == "hit" && len(keys) > 0:
			h := keys[rng.Intn(len(keys))]
			r.class, r.kernel, r.name, r.cfg, r.body = "hit", h.kernel, h.name, h.cfg, h.body
			continue
		case len(unused) > 0:
			r.class, r.kernel, r.name, r.cfg = "replay", p.kernel, p.name, unused[rng.Intn(len(unused))]
		default:
			i := cycle(&kernelCycle, len(ks))
			r.class, r.kernel, r.name, r.cfg = "cold", i, fmt.Sprintf("%s~%d", ks[i].name, k), cfgs[cycle(&cfgCycle, len(cfgs))]
			p = &prog{kernel: i, name: r.name, used: map[core.Config]bool{}}
			colds = append(colds, p)
			if len(colds) > coldWindow {
				colds = colds[1:]
			}
		}
		p.used[r.cfg] = true
		r.body = analyzeBody(r.name, ks[r.kernel].src, r.cfg)
		keys = append(keys, *r)
		if len(keys) > hitWindow {
			keys = keys[1:]
		}
	}
	return out
}

// lpdResult is the outcome of one lpd-mix request, kept until it is
// verified after the timed window.
type lpdResult struct {
	lat    time.Duration // from the due time to the last response byte
	status int
	body   []byte
	traced bool
	err    error
}

// openLoop sends every request at its due time, whatever the state of
// earlier ones, over workers() connections. Requests from index timed on
// make up the timed window, which it records in m; in a traced run
// e.tracedOp picks the ones traced. The generator's lateness against the
// schedule is returned as lag.
func (s *lpdServer) openLoop(e *env, m *measurement, reqs []lpdReq, timed int) (res []lpdResult, lag []time.Duration) {
	res = make([]lpdResult, len(reqs))
	lag = make([]time.Duration, len(reqs))
	queue := make(chan int, len(reqs)) // one slot per request: the generator never waits
	start := time.Now().Add(10 * time.Millisecond)
	var w *window
	var wg sync.WaitGroup
	for range workers() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range queue {
				res[k] = s.send(e, &reqs[k], start.Add(reqs[k].due), k >= timed && e.tracedOp(k-timed))
			}
		}()
	}
	for k := range reqs {
		due := start.Add(reqs[k].due)
		time.Sleep(time.Until(due))
		if k == timed {
			w = openWindow()
		}
		lag[k] = time.Since(due)
		queue <- k
	}
	close(queue)
	wg.Wait()
	w.close(m)
	return res, lag
}

// send performs one request. Its response is verified later, after the
// timed window.
func (s *lpdServer) send(e *env, r *lpdReq, due time.Time, traced bool) lpdResult {
	sent := time.Now()
	status, body, err := s.analyze(r.body)
	done := time.Now()
	if traced {
		t := e.spans.begin("request", due)
		t.add("queue", due, sent)
		t.add("serve", sent, done)
		t.end(done)
	}
	return lpdResult{lat: done.Sub(due), status: status, body: body, traced: traced, err: err}
}

// verifyKernel checks one /v1/analyze exchange about suite kernel name
// under cfg against the reference digests.
func (e *env) verifyKernel(status int, body []byte, err error, name string, cfg core.Config) error {
	return verifyResponse(status, body, err, name, func(r *core.Report) error {
		return e.digests.check(name, []core.Config{cfg}, []*core.Report{r})
	})
}

// warmup sends every suite kernel once, cold under BestHELIX and a name
// no other request uses, over workers() connections, and verifies each
// response.
func (s *lpdServer) warmup(e *env, m *measurement, ks []input) {
	errs := make([]error, len(ks))
	parallelFor(len(ks), func(i int) {
		status, body, err := s.analyze(analyzeBody(ks[i].name+"~warmup", ks[i].src, core.BestHELIX()))
		errs[i] = e.verifyKernel(status, body, err, ks[i].name, core.BestHELIX())
	})
	for _, err := range errs {
		if err != nil {
			m.fail(err)
		} else {
			m.attempted++
		}
	}
}

// runLPDMix: an open loop at scale.lpdRate requests per second, through
// workers() connections, for scale.lpdWarmup and then the timed window.
// Latency counts from each request's due time. Set-up draws the schedule,
// encodes every request body, starts the service and sends it one warm-up
// pass.
func runLPDMix(e *env, m *measurement) (err error) {
	ks := e.kernels()
	period := time.Duration(float64(time.Second) / e.scale.lpdRate)
	timed := int(e.scale.lpdWarmup / period)
	var reqs []lpdReq

	// Each set-up repetition starts a service, which the next one stops.
	var s *lpdServer
	defer func() {
		if s != nil {
			err = errors.Join(err, s.stop())
		}
	}()
	err = e.setup(m, func() (err error) {
		reqs = lpdSchedule(e.seed, ks, timed+max(int(e.dur/period), 1), period)
		if s, err = startLPD(); err != nil {
			return err
		}
		s.warmup(e, m, ks)
		return nil
	}, func() error {
		err := s.stop()
		s = nil
		return err
	})
	if err != nil {
		return err
	}

	before, err := s.scrape()
	if err != nil {
		return err
	}
	m.cellsPerOp = 1
	res, lag := s.openLoop(e, m, reqs, timed)
	after, err := s.scrape()
	if err != nil {
		return err
	}

	counts := map[string]int{}
	var samples []classSample
	for k, r := range res {
		counts[reqs[k].class]++
		if err := e.verifyKernel(r.status, r.body, r.err, ks[reqs[k].kernel].name, reqs[k].cfg); err != nil {
			m.fail(err)
			continue
		}
		m.attempted++
		if k < timed {
			continue
		}
		samples = append(samples, classSample{reqs[k].class, r.lat, len(r.body)})
		m.ops = append(m.ops, timedOp{input: reqs[k].stratum(), lat: r.lat, traced: r.traced})
	}
	sm := serveMetrics(samples, len(reqs)-timed, counts, before, after)
	m.note("open loop %.0f req/s over %d connections; generator lag p99 %.3f ms; %d timed requests, SLO (%v) met by %.4f",
		e.scale.lpdRate, workers(), percentile(millis(lag), 99), len(reqs)-timed, sloLatency, sm["serve.slo_met_frac"].Value)
	if !e.traced() {
		return nil
	}
	if err := e.probe(m, ks); err != nil {
		return err
	}
	maps.Copy(m.layer, sm)
	return nil
}

// classSample is one answered, verified request of a request class.
type classSample struct {
	class string
	lat   time.Duration
	size  int
}

// serveMetrics derives the serve layer's metrics from the verified
// requests of a window of sent requests, the number of requests of each
// class sent between two /metrics scrapes, and the scrapes.
func serveMetrics(samples []classSample, sent int, counts map[string]int, before, after map[string]float64) map[string]metric {
	lat := map[string][]float64{}
	var sizes []float64
	met := 0
	for _, s := range samples {
		lat[s.class] = append(lat[s.class], float64(s.lat)/1e6)
		sizes = append(sizes, float64(s.size)/1024)
		if s.lat <= sloLatency {
			met++
		}
	}
	perRequest := func(series, class string) float64 {
		return (after[series] - before[series]) / float64(max(counts[class], 1))
	}
	return map[string]metric{
		"serve.hit_ms_p50":      {percentile(lat["hit"], 50), "ms"},
		"serve.replay_ms_p50":   {percentile(lat["replay"], 50), "ms"},
		"serve.cold_ms_p50":     {percentile(lat["cold"], 50), "ms"},
		"serve.response_kb_p50": {percentile(sizes, 50), "KiB"},
		"serve.cache_hit_ratio": {perRequest("lpd_cache_hits_total", "hit"), "frac"},
		"serve.trace_hit_ratio": {perRequest("lpd_trace_cache_hits_total", "replay"), "frac"},
		"serve.coalesced":       {after["lpd_cache_coalesced_total"] - before["lpd_cache_coalesced_total"], "count"},
		"serve.slo_met_frac":    {float64(met) / float64(max(sent, 1)), "frac"},
	}
}

// serveProbe gives the batch workloads' traced runs the serve layer's
// metrics: it sends each suite kernel to a fresh service three times, one
// request at a time: cold under BestHELIX, a replay under BestPDOALL, then
// a hit repeating the first.
func serveProbe(e *env, m *measurement) (map[string]metric, error) {
	ks := e.kernels()
	s, err := startLPD()
	if err != nil {
		return nil, err
	}
	before, err := s.scrape()
	if err != nil {
		return nil, errors.Join(err, s.stop())
	}
	steps := []struct {
		class string
		cfg   core.Config
	}{{"cold", core.BestHELIX()}, {"replay", core.BestPDOALL()}, {"hit", core.BestHELIX()}}
	counts := map[string]int{}
	var samples []classSample
	for _, k := range ks {
		for _, st := range steps {
			t0 := time.Now()
			status, body, err := s.analyze(analyzeBody(k.name+"~probe", k.src, st.cfg))
			lat := time.Since(t0)
			err = e.verifyKernel(status, body, err, k.name, st.cfg)
			counts[st.class]++
			if err != nil {
				m.fail(err)
				continue
			}
			m.attempted++
			samples = append(samples, classSample{st.class, lat, len(body)})
		}
	}
	after, err := s.scrape()
	if err = errors.Join(err, s.stop()); err != nil {
		return nil, err
	}
	return serveMetrics(samples, len(ks)*len(steps), counts, before, after), nil
}
