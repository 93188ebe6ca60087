package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pts/internal/cluster"
	"pts/internal/core"
	"pts/internal/cost"
	"pts/internal/netlist"
	"pts/internal/pvm/nettrans"
	"pts/internal/serve"
)

// Serving-mode benchmark: the same stream of small solver jobs pushed
// through one ptsd-style scheduler over a loopback worker fleet, first
// one job at a time, then with the fleet's full concurrency. The
// measured quantities are service metrics — jobs per minute and the
// per-job submit-to-done latency distribution — rather than solver
// quality: every job is the identical fixed-seed run, so the comparison
// isolates what multiplexing concurrent runs over disjoint worker
// leases buys (and costs) on a shared fleet.

// ServeOpts configures the -serve scenario.
type ServeOpts struct {
	// Context bounds the runs (nil = background).
	Context context.Context
	// Circuit names the benchmark circuit every job solves (default
	// "highway").
	Circuit string
	// FleetWorkers is the loopback fleet size (default 4).
	FleetWorkers int
	// WorkersPerJob is each job's lease size (default 1, so the fleet
	// admits FleetWorkers jobs at once).
	WorkersPerJob int
	// Jobs is how many jobs each concurrency level pushes through
	// (default 12).
	Jobs int
	// Concurrency lists the in-flight job counts to measure (default
	// {1, FleetWorkers}).
	Concurrency []int
	// GlobalIters and LocalIters set each job's iteration budget
	// (defaults 3 and 10).
	GlobalIters, LocalIters int
	// WorkScale is the wall-seconds-per-modeled-second emulation factor
	// (default 25). Without it every job finishes in a few milliseconds
	// of pure protocol overhead and concurrency has nothing to overlap;
	// with it each job costs real wall time on its leased worker, so the
	// levels measure genuine fleet sharing.
	WorkScale float64
	// Scale multiplies the local iteration budget (ptsbench -scale);
	// <= 0 means 1.0.
	Scale float64
	// Seed fixes every job's run seed (default 7).
	Seed uint64
}

func (o ServeOpts) withDefaults() ServeOpts {
	if o.Context == nil {
		o.Context = context.Background()
	}
	if o.Circuit == "" {
		o.Circuit = "highway"
	}
	if o.FleetWorkers <= 0 {
		o.FleetWorkers = 4
	}
	if o.WorkersPerJob <= 0 {
		o.WorkersPerJob = 1
	}
	if o.Jobs <= 0 {
		o.Jobs = 12
	}
	if len(o.Concurrency) == 0 {
		o.Concurrency = []int{1, o.FleetWorkers}
	}
	if o.GlobalIters <= 0 {
		o.GlobalIters = 3
	}
	if o.LocalIters <= 0 {
		o.LocalIters = 10
	}
	if o.Scale > 0 && o.Scale != 1 {
		o.LocalIters = int(float64(o.LocalIters)*o.Scale + 0.5)
		if o.LocalIters < 1 {
			o.LocalIters = 1
		}
	}
	if o.WorkScale <= 0 {
		o.WorkScale = 25
	}
	if o.Seed == 0 {
		o.Seed = 7
	}
	return o
}

// ServeLevel is one concurrency level's service metrics.
type ServeLevel struct {
	Concurrency   int     `json:"concurrency"`
	Jobs          int     `json:"jobs"`
	WallSeconds   float64 `json:"wall_seconds"`
	JobsPerMinute float64 `json:"jobs_per_minute"`
	P50Seconds    float64 `json:"p50_latency_seconds"`
	P95Seconds    float64 `json:"p95_latency_seconds"`
	MaxSeconds    float64 `json:"max_latency_seconds"`
}

// ServeReport is the BENCH_serve.json schema.
type ServeReport struct {
	Note        string `json:"note"`
	GoVersion   string `json:"go_version"`
	GeneratedAt string `json:"generated_at"`

	Circuit       string  `json:"circuit"`
	FleetWorkers  int     `json:"fleet_workers"`
	WorkersPerJob int     `json:"workers_per_job"`
	GlobalIters   int     `json:"global_iters"`
	LocalIters    int     `json:"local_iters"`
	WorkScale     float64 `json:"work_scale"`
	Seed          uint64  `json:"seed"`

	Levels []ServeLevel `json:"levels"`
	// ThroughputGain is the last level's jobs/minute over the first's —
	// what sharing the fleet across concurrent jobs buys.
	ThroughputGain float64 `json:"throughput_gain"`
}

// serveResolve is the bench fleet's problem resolver (placement only;
// the service benchmark measures scheduling, not workload variety).
func serveResolve(spec core.ProblemSpec) (core.Problem, error) {
	if spec.Kind != "placement" {
		return nil, fmt.Errorf("bench: unsupported job kind %q", spec.Kind)
	}
	nl, err := netlist.Benchmark(spec.Circuit)
	if err != nil {
		return nil, err
	}
	def := core.DefaultConfig()
	return cost.NewPlacementProblem(nl, def.Utilization, def.Cost), nil
}

// Serve measures the multi-job scheduler over a loopback fleet.
func Serve(o ServeOpts) (*ServeReport, error) {
	o = o.withDefaults()

	// One fleet serves every level, as a long-lived daemon would.
	var sched atomic.Pointer[serve.Scheduler]
	m, err := nettrans.Listen(nettrans.MasterConfig{
		Addr: "127.0.0.1:0",
		OnRegistry: func() {
			if s := sched.Load(); s != nil {
				s.Notify()
			}
		},
	})
	if err != nil {
		return nil, err
	}
	defer m.Close()
	s, err := serve.New(serve.Config{
		Fleet:      serve.NettransFleet{M: m},
		Resolve:    serveResolve,
		Cluster:    cluster.Testbed12(12),
		QueueDepth: o.Jobs * len(o.Concurrency),
	})
	if err != nil {
		return nil, err
	}
	sched.Store(s)

	drain := make(chan struct{})
	var wg sync.WaitGroup
	workerErr := make([]error, o.FleetWorkers)
	for i := 0; i < o.FleetWorkers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			workerErr[i] = core.ServeWorker(o.Context, nil, core.WorkerOptions{
				WorkerConfig: nettrans.WorkerConfig{
					Addr:  m.Addr(),
					Name:  fmt.Sprintf("bench%d", i),
					Speed: 1,
					Drain: drain,
				},
				Resolve: serveResolve,
			}, nil)
		}(i)
	}
	defer func() {
		close(drain)
		wg.Wait()
	}()
	joinDeadline := time.Now().Add(10 * time.Second)
	for m.TotalWorkers() < o.FleetWorkers {
		if time.Now().After(joinDeadline) {
			return nil, fmt.Errorf("bench: only %d of %d fleet workers joined", m.TotalWorkers(), o.FleetWorkers)
		}
		time.Sleep(2 * time.Millisecond)
	}

	cfg := core.DefaultConfig()
	cfg.TSWs, cfg.CLWs = 1, 2
	cfg.GlobalIters, cfg.LocalIters = o.GlobalIters, o.LocalIters
	cfg.Seed = o.Seed
	cfg.WorkScale = o.WorkScale
	cfg.HalfSync = false
	cfg.RecordTrace = false
	req := serve.Request{
		Spec:    core.ProblemSpec{Kind: "placement", Circuit: o.Circuit},
		Workers: o.WorkersPerJob,
		Cfg:     cfg,
	}

	rep := &ServeReport{
		Note:          "serving mode: jobs/minute and submit-to-done latency through the multi-job scheduler on a shared loopback fleet; regenerate with: ptsbench -serve",
		GoVersion:     runtime.Version(),
		GeneratedAt:   time.Now().UTC().Format(time.RFC3339),
		Circuit:       o.Circuit,
		FleetWorkers:  o.FleetWorkers,
		WorkersPerJob: o.WorkersPerJob,
		GlobalIters:   o.GlobalIters,
		LocalIters:    o.LocalIters,
		WorkScale:     o.WorkScale,
		Seed:          o.Seed,
	}

	for _, conc := range o.Concurrency {
		level, err := serveLevel(o, s, req, conc)
		if err != nil {
			return nil, err
		}
		rep.Levels = append(rep.Levels, *level)
	}
	for i := range workerErr {
		if workerErr[i] != nil && o.Context.Err() == nil {
			return nil, fmt.Errorf("bench: fleet worker %d: %w", i, workerErr[i])
		}
	}
	first, last := rep.Levels[0], rep.Levels[len(rep.Levels)-1]
	if first.JobsPerMinute > 0 {
		rep.ThroughputGain = last.JobsPerMinute / first.JobsPerMinute
	}
	return rep, nil
}

// serveLevel pushes o.Jobs identical jobs through the scheduler with at
// most conc in flight and reports the level's service metrics.
func serveLevel(o ServeOpts, s *serve.Scheduler, req serve.Request, conc int) (*ServeLevel, error) {
	latencies := make([]float64, 0, o.Jobs)
	inflight := make(chan *jobTimer, conc)
	start := time.Now()
	done := 0
	submitted := 0
	for done < o.Jobs {
		for submitted < o.Jobs && len(inflight) < cap(inflight) {
			t0 := time.Now()
			j, err := s.Submit(req)
			if err != nil {
				return nil, fmt.Errorf("bench: submit job %d at concurrency %d: %w", submitted, conc, err)
			}
			inflight <- &jobTimer{j: j, t0: t0}
			submitted++
		}
		t := <-inflight
		select {
		case <-t.j.Done():
		case <-o.Context.Done():
			return nil, o.Context.Err()
		}
		if st := t.j.Status(); st != serve.Done {
			return nil, fmt.Errorf("bench: job %s ended %s (%s)", t.j.ID(), st, t.j.Err())
		}
		latencies = append(latencies, time.Since(t.t0).Seconds())
		done++
	}
	wall := time.Since(start).Seconds()

	sort.Float64s(latencies)
	level := &ServeLevel{
		Concurrency: conc,
		Jobs:        o.Jobs,
		WallSeconds: wall,
		P50Seconds:  percentile(latencies, 0.50),
		P95Seconds:  percentile(latencies, 0.95),
		MaxSeconds:  latencies[len(latencies)-1],
	}
	if wall > 0 {
		level.JobsPerMinute = float64(o.Jobs) / wall * 60
	}
	return level, nil
}

// jobTimer pairs a submitted job with its submission instant.
type jobTimer struct {
	j  *serve.Job
	t0 time.Time
}

// percentile reads the p-quantile from sorted samples (nearest-rank).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// RenderServe formats the report for the terminal.
func RenderServe(rep *ServeReport) string {
	out := fmt.Sprintf("serve scenario: %s jobs (%dx%d iterations, %d worker(s) each) on a %d-worker fleet\n",
		rep.Circuit, rep.GlobalIters, rep.LocalIters, rep.WorkersPerJob, rep.FleetWorkers)
	for _, l := range rep.Levels {
		out += fmt.Sprintf("  concurrency %d: %5.1f jobs/min   p50 %6.1fms  p95 %6.1fms  (%d jobs in %.2fs)\n",
			l.Concurrency, l.JobsPerMinute, l.P50Seconds*1e3, l.P95Seconds*1e3, l.Jobs, l.WallSeconds)
	}
	out += fmt.Sprintf("  throughput gain %.2fx from sharing the fleet\n", rep.ThroughputGain)
	return out
}

// WriteServe writes the report as <dir>/BENCH_serve.json plus the
// human-readable summary <dir>/bench_serve.md.
func WriteServe(rep *ServeReport, dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "BENCH_serve.json")
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return "", err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", err
	}

	md := fmt.Sprintf(`# Serving-mode throughput and latency

One ptsd-style scheduler over a shared loopback fleet of %d workers;
every job is the identical fixed-seed %s run (%dx%d iterations,
TSWs=1, CLWs=2, half-sync off) leasing %d worker(s). %d jobs per
level; latency is submit-to-done.

| concurrency | jobs/min | p50 | p95 | max | wall |
|---:|---:|---:|---:|---:|---:|
`, rep.FleetWorkers, rep.Circuit, rep.GlobalIters, rep.LocalIters,
		rep.WorkersPerJob, rep.Levels[0].Jobs)
	for _, l := range rep.Levels {
		md += fmt.Sprintf("| %d | %.1f | %.1f ms | %.1f ms | %.1f ms | %.2f s |\n",
			l.Concurrency, l.JobsPerMinute, l.P50Seconds*1e3, l.P95Seconds*1e3,
			l.MaxSeconds*1e3, l.WallSeconds)
	}
	md += fmt.Sprintf(`
Sharing the fleet across concurrent jobs yields a %.2fx throughput
gain; per-job p50 latency moves from %.1f ms at concurrency 1 to
%.1f ms at concurrency %d — concurrent runs pay a little master and
scheduler contention instead of waiting in line for the whole fleet.
Work emulation (work_scale %.0f) gives each job real wall-time cost
on its leased worker. Generated %s with %s; regenerate with
`+"`ptsbench -serve`"+`.
`, rep.ThroughputGain,
		rep.Levels[0].P50Seconds*1e3,
		rep.Levels[len(rep.Levels)-1].P50Seconds*1e3,
		rep.Levels[len(rep.Levels)-1].Concurrency,
		rep.WorkScale,
		rep.GeneratedAt, rep.GoVersion)
	mdPath := filepath.Join(dir, "bench_serve.md")
	if err := os.WriteFile(mdPath, []byte(md), 0o644); err != nil {
		return "", err
	}
	return path, nil
}
