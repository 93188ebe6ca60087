package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"pts"
)

// serveWorkload is the daemon in process: pts.ListenServer with its
// HTTP handler on loopback and fleetSize pts.Worker fleet workers (nil
// problem, so they resolve each job's workload themselves) joined over
// loopback TCP. clients closed-loop clients each submit a one-worker
// job, follow its event stream to the terminal event, then fetch the
// job.
//
// A durable daemon runs with a store, as `ptsd -state-dir` does: it
// journals every job and snapshots each run at every barrier, and its
// runs follow the durable reseed discipline. The store is an in-memory
// pts.Store rather than a FileStore, because the FileStore's fsync
// latency on a shared disk moves jobs/min by 15-20% between runs of one
// seed, more than any bound the benchmark could hold.
type serveWorkload struct {
	durable bool
}

const (
	fleetSize = 2
	clients   = 2
	// Each job's budget: global rounds x local iterations per round.
	jobGlobalIters = 3
	jobLocalIters  = 10
)

// Served jobs are drawn from these four workloads.
var jobKinds = []problemSpec{
	{Kind: "placement", Circuit: "highway"},
	{Kind: "qap", N: 16},
	{Kind: "flowshop", Instance: "ta001"},
	{Kind: "jobshop", Instance: "ft06"},
}

// jobSpec is the POST /v1/jobs body.
type jobSpec struct {
	Problem problemSpec `json:"problem"`
	Workers int         `json:"workers"`
	Config  jobConfig   `json:"config"`
}

type problemSpec struct {
	Kind     string `json:"kind"`
	Circuit  string `json:"circuit,omitempty"`
	N        int    `json:"n,omitempty"`
	Seed     uint64 `json:"seed,omitempty"`
	Instance string `json:"instance,omitempty"`
}

type jobConfig struct {
	GlobalIters int    `json:"global_iters"`
	LocalIters  int    `json:"local_iters"`
	Seed        uint64 `json:"seed"`
}

// jobView is the slice of the daemon's job view the benchmark reads.
type jobView struct {
	ID       string     `json:"id"`
	Status   string     `json:"status"`
	Error    string     `json:"error"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started"`
	Finished *time.Time `json:"finished"`
	Events   int        `json:"events"`
	Result   *struct {
		BestCost    float64
		BestPerm    []int32
		InitialCost float64
		Rounds      int
		Interrupted bool
		Stats       pts.WorkerStats
		Runtime     struct{ Spawns, Sends int64 }
	} `json:"result"`
}

// jobGen deals the job sequence from the workload seed: the four kinds
// in seeded shuffled blocks, so every run serves the same mix, each job
// with its own seeded run seed (and instance seed for QAP).
type jobGen struct {
	mu    sync.Mutex
	r     *rand.Rand
	block []problemSpec
}

func newJobGen(seed uint64) *jobGen {
	return &jobGen{r: rand.New(rand.NewPCG(seed, 0x70657266))}
}

func (g *jobGen) next() jobSpec {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.block) == 0 {
		g.block = append(g.block, jobKinds...)
		g.r.Shuffle(len(g.block), func(i, j int) { g.block[i], g.block[j] = g.block[j], g.block[i] })
	}
	p := g.block[0]
	g.block = g.block[1:]
	if p.Kind == "qap" {
		p.Seed = 1 + g.r.Uint64N(1<<31)
	}
	return jobSpec{
		Problem: p,
		Workers: 1,
		Config:  jobConfig{GlobalIters: jobGlobalIters, LocalIters: jobLocalIters, Seed: 1 + g.r.Uint64N(1<<31)},
	}
}

// jobRecord is one served job as the client saw it.
type jobRecord struct {
	spec     jobSpec
	err      error     // transport or protocol failure
	submit   float64   // seconds to the 201 response
	terminal time.Time // receipt of the terminal event
	fetch    float64   // seconds to fetch the finished job
	latency  float64   // submit to fetched result
	scale    float64   // reference seconds per second in the job's window
	events   int       // events received on the stream
	progress int       // progress events received
	elapsed  []float64 // each progress snapshot's run time, seconds
	view     jobView
	drift    float64 // relative rescoring gap of the best solution
}

// daemon is one in-process serving stack.
type daemon struct {
	srv   *pts.Server
	hs    *http.Server
	base  string
	drain chan struct{}
	wg    sync.WaitGroup
	store *tracedStore
}

// startDaemon stands the stack up and returns once the fleet joined.
// A durable daemon gets a fresh store; traced wraps it in the timing
// decorator.
func startDaemon(durable, traced bool) (d *daemon, err error) {
	d = &daemon{drain: make(chan struct{})}
	defer func() {
		if err != nil {
			d.stop()
		}
	}()
	var opts pts.ServerOptions
	if durable {
		opts.Store = pts.NewMemStore()
		if traced {
			d.store = &tracedStore{inner: opts.Store}
			opts.Store = d.store
		}
	}
	if d.srv, err = pts.ListenServer(opts); err != nil {
		return d, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return d, err
	}
	d.base = "http://" + ln.Addr().String()
	d.hs = &http.Server{Handler: d.srv.Handler()}
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		_ = d.hs.Serve(ln) // returns http.ErrServerClosed on stop
	}()
	for i := 0; i < fleetSize; i++ {
		d.wg.Add(1)
		go func(i int) {
			defer d.wg.Done()
			err := pts.Worker(context.Background(), nil, d.srv.FleetAddr(),
				pts.NodeOptions{Name: fmt.Sprintf("fleet%d", i), Drain: d.drain}, 0, nil)
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: fleet worker %d: %v\n", i, err)
			}
		}(i)
	}
	// Poll every 20 us while the fleet joins. Spinning on
	// runtime.Gosched instead keeps a P busy, and the joins then wait on
	// the scheduler's network poll: on a 2-vCPU machine one set-up in ten
	// took over 2.5 ms that way, against about 1 ms polling.
	deadline := time.Now().Add(10 * time.Second)
	for len(d.srv.Workers()) < fleetSize {
		if time.Now().After(deadline) {
			return d, fmt.Errorf("only %d of %d fleet workers joined", len(d.srv.Workers()), fleetSize)
		}
		time.Sleep(20 * time.Microsecond)
	}
	return d, nil
}

// stop drains the scheduler, closes the HTTP server, drains the fleet
// workers and waits for every goroutine the daemon started.
func (d *daemon) stop() {
	if d.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := d.srv.Drain(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: drain:", err)
		}
		cancel()
	}
	if d.hs != nil {
		d.hs.Close()
	}
	close(d.drain)
	d.wg.Wait()
	if d.srv != nil {
		d.srv.Close()
	}
}

// memJobs is the job count at which a serve run reads its memory.
// The daemon keeps every job's record, so its memory grows with the jobs
// served; stopping at a fixed number of jobs keeps a faster daemon from
// showing as a memory regression.
const memJobs = 1000

// serveWindow is how long the clients serve between two reference
// units of a scaled phase.
const serveWindow = 500 * time.Millisecond

// servePhase is one closed-loop measurement against one daemon.
type servePhase struct {
	jobs       []*jobRecord
	liveHeap   float64 // MiB once memJobs jobs finished
	rss        float64 // peak resident set size, MiB, then
	wall       float64 // start to the last job's fetch
	scaledWall float64 // wall in reference seconds
	refs       []float64
	alloc, gcs float64
	store      *storeStats
}

// runPhase drives the closed loop for dur against d. With a clock, it
// serves in windows of serveWindow: each window's clients finish their
// jobs, the daemon idles while a reference unit runs, and the window's
// times are scaled by the units on either side of it. Without one, it
// serves a single window and scales nothing.
func runPhase(d *daemon, gen *jobGen, dur time.Duration, clock *hostClock) (*servePhase, error) {
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * clients}}
	defer client.CloseIdleConnections()
	// Bound every request so a wedged daemon fails the run instead of
	// hanging it.
	ctx, cancel := context.WithTimeout(context.Background(), dur+60*time.Second)
	defer cancel()

	ph := &servePhase{}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	window := dur
	before := refNominal
	if clock != nil {
		window = serveWindow
		var err error
		if before, err = clock.unit(); err != nil {
			return nil, err
		}
	}
	var mu sync.Mutex
	deadline := time.Now().Add(dur)
	for t0 := time.Now(); t0.Before(deadline) && ctx.Err() == nil; t0 = time.Now() {
		end := t0.Add(window)
		if end.After(deadline) {
			end = deadline
		}
		first := len(ph.jobs)
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Now().Before(end) {
					rec := runJob(ctx, client, d.base, gen.next())
					mu.Lock()
					ph.jobs = append(ph.jobs, rec)
					if len(ph.jobs) == memJobs {
						ph.readMem()
					}
					mu.Unlock()
					if rec.err != nil && ctx.Err() != nil {
						return
					}
				}
			}()
		}
		wg.Wait()
		wall := since(t0)
		after := refNominal
		if clock != nil {
			var err error
			if after, err = clock.unit(); err != nil {
				return nil, err
			}
		}
		ref := (before + after) / 2
		before = after
		f := scale(ref)
		for _, r := range ph.jobs[first:] {
			r.scale = f
		}
		ph.wall += wall
		ph.scaledWall += wall * f
		ph.refs = append(ph.refs, ref)
	}
	if len(ph.jobs) < memJobs {
		ph.readMem()
	}
	runtime.ReadMemStats(&m1)
	ph.alloc = float64(m1.TotalAlloc - m0.TotalAlloc)
	ph.gcs = float64(m1.NumGC - m0.NumGC)
	if d.store != nil {
		st := d.store.stats()
		ph.store = &st
	}
	return ph, nil
}

// readMem reads the phase's memory. The daemon's heap grows with the
// jobs it keeps, so it peaks at the latest job; a collection first
// makes the live heap exact rather than as of the last cycle.
func (ph *servePhase) readMem() {
	runtime.GC()
	ph.liveHeap = liveHeapMB()
	ph.rss, _ = peakRSSMB()
}

// runJob submits one job, follows its event stream to the terminal
// event and fetches the finished job.
func runJob(ctx context.Context, client *http.Client, base string, spec jobSpec) *jobRecord {
	rec := &jobRecord{spec: spec}
	body, err := json.Marshal(spec)
	if err != nil {
		rec.err = err
		return rec
	}
	t0 := time.Now()
	var created jobView
	if rec.err = doJSON(ctx, client, http.MethodPost, base+"/v1/jobs", body, http.StatusCreated, &created); rec.err != nil {
		return rec
	}
	rec.submit = since(t0)
	if rec.err = follow(ctx, client, base+"/v1/jobs/"+created.ID+"/events", rec); rec.err != nil {
		return rec
	}
	if rec.err = doJSON(ctx, client, http.MethodGet, base+"/v1/jobs/"+created.ID, nil, http.StatusOK, &rec.view); rec.err != nil {
		return rec
	}
	rec.fetch = time.Since(rec.terminal).Seconds()
	rec.latency = since(t0)
	return rec
}

// doJSON makes one request and decodes its JSON response.
func doJSON(ctx context.Context, client *http.Client, method, url string, body []byte, want int, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, strings.TrimSpace(string(data)))
	}
	return json.Unmarshal(data, out)
}

// follow reads a job's server-sent event stream until the server closes
// it after the terminal event.
func follow(ctx context.Context, client *http.Client, url string, rec *jobRecord) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	br := bufio.NewReader(resp.Body)
	var kind, data string
	for {
		line, err := br.ReadString('\n')
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return err
		}
		line = strings.TrimRight(line, "\r\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			kind = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			data = line[len("data: "):]
		case line == "" && kind != "":
			rec.events++
			switch kind {
			case "progress":
				var ev struct {
					Snapshot struct{ Elapsed float64 } `json:"snapshot"`
				}
				if err := json.Unmarshal([]byte(data), &ev); err != nil {
					return fmt.Errorf("progress event: %w", err)
				}
				rec.progress++
				rec.elapsed = append(rec.elapsed, ev.Snapshot.Elapsed)
			case "done", "failed", "cancelled":
				rec.terminal = time.Now()
			}
			kind, data = "", ""
		}
	}
	if rec.terminal.IsZero() {
		return fmt.Errorf("event stream of %s closed before a terminal event", url)
	}
	return nil
}

// checker re-scores served results against locally built copies of
// the job problems.
type checker struct {
	highway  *pts.PlacementProblem
	flowshop *pts.FlowShopProblem
	jobshop  *pts.JobShopProblem
}

func newChecker() (*checker, error) {
	hw, err := pts.PlacementBenchmark("highway")
	if err != nil {
		return nil, err
	}
	fs, err := pts.FlowShopBenchmark("ta001")
	if err != nil {
		return nil, err
	}
	js, err := pts.JobShopBenchmark("ft06")
	if err != nil {
		return nil, err
	}
	return &checker{highway: hw, flowshop: fs, jobshop: js}, nil
}

// check verifies one served job and returns the relative rescoring gap
// of its best solution.
func (c *checker) check(rec *jobRecord) (float64, error) {
	if rec.err != nil {
		return 0, rec.err
	}
	v := rec.view
	if v.Status != "done" {
		return 0, fmt.Errorf("job %s ended %s: %s", v.ID, v.Status, v.Error)
	}
	if v.Result == nil || v.Started == nil || v.Finished == nil {
		return 0, fmt.Errorf("job %s is done without a result or timestamps", v.ID)
	}
	res := v.Result
	if res.Interrupted {
		return 0, fmt.Errorf("job %s was interrupted", v.ID)
	}
	if rec.progress != res.Rounds || rec.events != v.Events {
		return 0, fmt.Errorf("job %s streamed %d events (%d progress) for %d rounds; the job logged %d",
			v.ID, rec.events, rec.progress, res.Rounds, v.Events)
	}
	var p pts.Problem
	switch ps := rec.spec.Problem; ps.Kind {
	case "placement":
		// Placement goals are rebased on each run's initial solution.
		if _, err := c.highway.Initial(rec.spec.Config.Seed); err != nil {
			return 0, err
		}
		p = c.highway
	case "qap":
		p = pts.RandomQAP(ps.N, ps.Seed)
	case "flowshop":
		p = c.flowshop
	case "jobshop":
		p = c.jobshop
	}
	drift, err := checkSolution(p, res.BestPerm, res.BestCost)
	if err != nil {
		return drift, fmt.Errorf("job %s (%s): %w", v.ID, rec.spec.Problem.Kind, err)
	}
	return drift, nil
}

// serveMetricNames are the per-layer metrics measured only on served
// jobs; solve workloads report them as 0.
var serveMetricNames = []string{
	"serve.submit_s.p50", "serve.submit_s.p95", "serve.result_get_s.p50", "serve.event_lag_s.p50",
	"serve.queue_wait_s.p50", "serve.queue_wait_s.p95", "serve.run_s.p50", "serve.run_s.p95",
	"serve.events_per_job", "nettrans.messages_per_job", "nettrans.tasks_per_job",
	"store.put_s.p50", "store.put_s.p95", "store.puts_per_job", "store.put_bytes_per_job",
	"store.gets", "store.deletes",
}

func (w serveWorkload) run(cfg runConfig) (*report, error) {
	rep := newReport()
	chk, err := newChecker()
	if err != nil {
		return nil, err
	}
	if err := w.warmUp(cfg.seed); err != nil {
		return nil, err
	}
	gen := newJobGen(cfg.seed)
	if cfg.trace {
		return rep, w.traced(cfg, rep, chk, gen)
	}

	clock := newHostClock(runtime.GOMAXPROCS(0))
	d, err := startDaemon(w.durable, false)
	if err != nil {
		return nil, err
	}
	ph, err := runPhase(d, gen, cfg.seconds, clock)
	d.stop()
	if err != nil {
		return nil, err
	}
	done := w.account(rep, chk, ph)

	d = nil
	stop := func() {
		if d != nil {
			d.stop()
			d = nil
		}
	}
	defer stop()
	setup, err := timeSetups(clock, stop, func() (err error) {
		if d, err = startDaemon(w.durable, false); err != nil {
			d = nil // startDaemon stopped what it started
		}
		return err
	})
	if err != nil {
		return nil, err
	}

	var runS, rel, lat, rawLat []float64
	var trials float64
	for _, r := range done {
		res := r.view.Result
		runS = append(runS, r.view.Finished.Sub(*r.view.Started).Seconds()*r.scale)
		rel = append(rel, res.BestCost/res.InitialCost)
		trials += float64(res.Stats.TrialsCharged)
		lat = append(lat, r.latency*r.scale)
		rawLat = append(rawLat, r.latency)
	}
	rep.samples = fmt.Sprintf("%d jobs done in %.2f s, %d set-ups; raw latency p50 %.4g s, p95 %.4g s, %.0f jobs/min; reference unit p50 %.4g s; peak RSS %.4g MiB",
		len(done), ph.wall, len(setup), median(rawLat), quantile(rawLat, 0.95), 60*float64(len(done))/ph.wall, median(ph.refs), ph.rss)
	rep.set("wall_s", median(runS))
	rep.set("trials_per_s", trials/ph.scaledWall)
	rep.set("best_cost", mean(rel))
	rep.set("setup_s", median(setup))
	rep.set("peak_live_heap_mb", ph.liveHeap)
	rep.set("jobs_per_min", 60*float64(len(done))/ph.scaledWall)
	rep.set("job_latency_p50_s", median(lat))
	rep.set("job_latency_p95_s", quantile(lat, 0.95))
	return rep, nil
}

// warmUp serves untimed jobs for warmUpTime from a daemon of its own,
// drawn from a generator of their own so the measured job sequence does
// not depend on how many jobs the warm-up got through.
func (w serveWorkload) warmUp(seed uint64) error {
	d, err := startDaemon(w.durable, false)
	if err != nil {
		return err
	}
	_, err = runPhase(d, newJobGen(^seed), warmUpTime, nil)
	d.stop()
	return err
}

// account checks every job of a phase, counts failures into rep, and
// returns the jobs that passed.
func (w serveWorkload) account(rep *report, chk *checker, ph *servePhase) []*jobRecord {
	var done []*jobRecord
	for _, r := range ph.jobs {
		rep.attempted++
		drift, err := chk.check(r)
		if err != nil {
			rep.fail("%v", err)
			continue
		}
		r.drift = drift
		done = append(done, r)
	}
	return done
}

// traced runs the serve trace and reports the per-layer split of its
// traced phase. Only a durable daemon has a decorator to trace, the one
// around its store: it serves half the time untraced and half traced,
// each against its own daemon, and trace.overhead_ratio compares their
// median latencies. A daemon without a store runs the same code traced
// or not, so it serves a single phase and its overhead ratio is 1.
func (w serveWorkload) traced(cfg runConfig, rep *report, chk *checker, gen *jobGen) error {
	dur := cfg.seconds
	var untraced []*jobRecord
	if w.durable {
		dur /= 2
		d, err := startDaemon(w.durable, false)
		if err != nil {
			return err
		}
		ph, err := runPhase(d, gen, dur, nil)
		d.stop()
		if err != nil {
			return err
		}
		untraced = w.account(rep, chk, ph)
	}
	d, err := startDaemon(w.durable, true)
	if err != nil {
		return err
	}
	ph, err := runPhase(d, gen, dur, nil)
	d.stop()
	if err != nil {
		return err
	}
	done := w.account(rep, chk, ph)

	var submit, get, lag, queue, runS, events, msgs, tasks, rounds, drift, trials []float64
	search := make([]pts.WorkerStats, 0, len(done))
	for _, r := range done {
		v := r.view
		submit = append(submit, r.submit)
		get = append(get, r.fetch)
		lag = append(lag, r.terminal.Sub(*v.Finished).Seconds())
		queue = append(queue, v.Started.Sub(v.Created).Seconds())
		runS = append(runS, v.Finished.Sub(*v.Started).Seconds())
		events = append(events, float64(r.events))
		msgs = append(msgs, float64(v.Result.Runtime.Sends))
		tasks = append(tasks, float64(v.Result.Runtime.Spawns))
		trials = append(trials, float64(v.Result.Stats.TrialsCharged))
		for i := 1; i < len(r.elapsed); i++ {
			rounds = append(rounds, r.elapsed[i]-r.elapsed[i-1])
		}
		drift = append(drift, r.drift)
		search = append(search, v.Result.Stats)
	}
	rep.samples = fmt.Sprintf("%d untraced and %d traced jobs", len(untraced), len(done))

	for _, n := range serveMetricNames {
		rep.set(n, 0)
	}
	rep.set("serve.submit_s.p50", median(submit))
	rep.set("serve.submit_s.p95", quantile(submit, 0.95))
	rep.set("serve.result_get_s.p50", median(get))
	rep.set("serve.event_lag_s.p50", median(lag))
	rep.set("serve.queue_wait_s.p50", median(queue))
	rep.set("serve.queue_wait_s.p95", quantile(queue, 0.95))
	rep.set("serve.run_s.p50", median(runS))
	rep.set("serve.run_s.p95", quantile(runS, 0.95))
	rep.set("serve.events_per_job", mean(events))
	rep.set("nettrans.messages_per_job", mean(msgs))
	rep.set("nettrans.tasks_per_job", mean(tasks))
	if st := ph.store; st != nil {
		n := float64(len(ph.jobs))
		rep.set("store.put_s.p50", median(st.putS))
		rep.set("store.put_s.p95", quantile(st.putS, 0.95))
		rep.set("store.puts_per_job", ratio(float64(len(st.putS)), n))
		rep.set("store.put_bytes_per_job", ratio(float64(st.putBytes), n))
		rep.set("store.gets", float64(st.gets))
		rep.set("store.deletes", float64(st.deletes))
	}

	// The engine's layers run inside the daemon, out of the client's
	// reach: what the job results report is all a serve trace sees.
	for _, l := range callLayers {
		rep.set(l.name+".calls", 0)
		rep.set(l.name+".share", 0)
		if l.op == opBatch {
			rep.set(l.name+".cands_per_call", 0)
			rep.set(l.name+".ns_per_cand", 0)
		} else {
			rep.set(l.name+".us_per_call", 0)
		}
	}
	rep.set("timing.rescore_drift", maxOf(drift))
	rep.set("core.outside_problem.share", 0)
	rep.set("core.round_s.p50", median(rounds))
	rep.set("core.round_s.max", maxOf(rounds))
	searchStats(rep, search)
	rep.set("pvm.messages_per_round", 0)
	rep.set("pvm.tasks", 0)
	rep.set("runtime.alloc_bytes_per_trial", ratio(ph.alloc, sum(trials)))
	rep.set("runtime.gc_cycles", ph.gcs)
	overhead := 1.0
	if w.durable {
		overhead = ratio(median(latencies(done)), median(latencies(untraced)))
	}
	rep.set("trace.overhead_ratio", overhead)
	return nil
}

func latencies(jobs []*jobRecord) []float64 {
	out := make([]float64, len(jobs))
	for i, r := range jobs {
		out[i] = r.latency
	}
	return out
}
