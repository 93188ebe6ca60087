package main

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"slices"
	"time"

	"pts"
)

// solveWorkload is one fixed-budget pts.Solve run back to back by a
// single closed-loop caller for the run's duration. Solves run in
// virtual time, so each is deterministic in its seed: solves of one seed
// must agree bit for bit, with tracing on or off. Real-time solves were
// too unsteady on a shared 2-vCPU machine for any bound the benchmark
// could hold (see README.md); the serve workloads run the real-time
// runtime instead.
type solveWorkload struct {
	build func() (pts.Problem, error)
	opts  []pts.Option
	// pinned maps every solve seed in [0, seedPool) to the BestCost its
	// solve must reproduce.
	pinned map[uint64]float64
	// layers names the layer each traced State call belongs to for this
	// problem; calls of other kinds are counted only in the problem's
	// total.
	layers map[op]string
}

// solveBudget is every solve workload's iteration budget: global rounds
// x local iterations per round. It keeps one c1355 solve under a tenth
// of a second, so a run of the declared length times a few hundred
// solves and its 95th percentile rests on more than ten samples.
var solveBudget = pts.WithIterations(5, 100)

// c1355Virtual is placement of c1355 in virtual time at the library
// defaults (4 TSW x 1 CLW, Trials 12, Depth 4).
var c1355Virtual = solveWorkload{
	build:  func() (pts.Problem, error) { return pts.PlacementBenchmark("c1355") },
	opts:   []pts.Option{solveBudget},
	pinned: c1355Pinned,
	layers: map[op]string{
		opBatch:   "cost.delta_batch",
		opApply:   "placement.apply",
		opRefresh: "timing.refresh",
		opRestore: "placement.restore",
	},
}

// ta001Virtual is Taillard's ta001 flow shop with the same knobs and
// budget.
var ta001Virtual = solveWorkload{
	build:  func() (pts.Problem, error) { return pts.FlowShopBenchmark("ta001") },
	opts:   []pts.Option{solveBudget},
	pinned: ta001Pinned,
	layers: map[op]string{
		opBatch: "flowshop.delta_batch",
		opApply: "flowshop.apply",
	},
}

// callLayers lists the per-call layer metrics every workload reports,
// with the State call each one times.
var callLayers = []struct {
	name string
	op   op
}{
	{"cost.delta_batch", opBatch},
	{"flowshop.delta_batch", opBatch},
	{"placement.apply", opApply},
	{"flowshop.apply", opApply},
	{"timing.refresh", opRefresh},
	{"placement.restore", opRestore},
}

// solveRun is one measured solve.
type solveRun struct {
	res    *pts.Result
	wall   float64 // seconds
	ref    float64 // seconds of the reference unit around the solve
	live   float64 // MiB of live heap at the last collection in or before it
	alloc  uint64  // bytes allocated
	gcs    uint32
	drift  float64 // relative rescoring gap of the best solution
	seed   uint64
	traced bool
	calls  callStats // traced solves only
	rounds []float64 // traced solves only: wall seconds per global round
}

// seedPool is how many solve seeds each solve workload pins, and
// seedsPerRun how many of them one run solves.
const (
	seedPool    = 128
	seedsPerRun = 32
)

// memSolves is how many solves a run's peak_live_heap_mb covers. The
// run keeps every solve's result, so its heap grows with the solves
// made; stopping at a count every run reaches keeps a faster solver from
// showing as a memory regression.
const memSolves = minLatencySamples

// minLatencySamples is the fewest solves an untraced run makes, so that
// ten of them lie beyond the 95th percentile of job latency; a run on a
// slow machine goes on past its time until it has them.
const minLatencySamples = 200

// runSeeds deals a run's solve seeds from the pinned pool: the first
// seedsPerRun of a permutation of [0, seedPool) drawn from the workload
// seed. An untraced run solves them in turn, cycling until its time is
// up, so best_cost (their mean) repeats exactly for a workload seed
// while the timing figures average over trajectories. A traced run
// solves only the first, every time, so its counts repeat exactly and
// traced and untraced solves can be compared bit for bit.
func runSeeds(seed uint64) []uint64 {
	r := rand.New(rand.NewPCG(seed, 0x736f6c76))
	out := make([]uint64, seedsPerRun)
	for i, v := range r.Perm(seedPool)[:seedsPerRun] {
		out[i] = uint64(v)
	}
	return out
}

// oneP runs f with GOMAXPROCS at 1, as every solve runs. Virtual time
// runs one task at a time. On one P each hand-off between tasks is a
// goroutine switch on the same thread; with more, the runtime wakes an
// idle thread for it, and the host's wake-up latency, not the solver,
// spread one seed's c1355 solves from 0.07 to 0.17 s on a shared 2-vCPU
// machine.
func oneP(f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
}

func (w solveWorkload) run(cfg runConfig) (*report, error) {
	var err error
	if oneP(func() { err = w.warmUp(cfg.seed) }); err != nil {
		return nil, err
	}
	rep := newReport()
	clock := newHostClock(1) // solves run on one P
	p, err := w.build()
	if err != nil {
		return nil, fmt.Errorf("build problem: %w", err)
	}

	// An untraced run solves each of its seeds at least once, and makes
	// minLatencySamples solves; a traced run makes at least one
	// untraced-traced pair.
	seeds := runSeeds(cfg.seed)
	minSolves := max(len(seeds), minLatencySamples)
	if cfg.trace {
		seeds, minSolves = seeds[:1], 2
	}
	var runs []*solveRun
	oneP(func() {
		deadline := time.Now().Add(cfg.seconds)
		runs, err = w.solveLoop(rep, clock, p, seeds, minSolves, deadline, cfg.trace)
	})
	if err != nil {
		return nil, err
	}
	if len(runs) == 0 {
		return rep, nil
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	// Set-up is timed on one P too, the one the reference unit runs
	// on: timed on every P, the ta001 set-up medians of three runs
	// ranged over 30%; on one P, those of five runs over 11%.
	var setup []float64
	oneP(func() {
		setup, err = timeSetups(clock, nil, func() error {
			_, err := w.build()
			return err
		})
	})
	if err != nil {
		return nil, fmt.Errorf("build problem: %w", err)
	}
	if cfg.trace {
		w.checkRepeats(rep, runs)
	}

	var walls, rawWalls, refs, tps []float64
	var peakLive float64
	for _, r := range runs[:min(len(runs), memSolves)] {
		peakLive = max(peakLive, r.live)
	}
	for _, r := range runs {
		if !r.traced {
			wall := r.wall * scale(r.ref)
			walls = append(walls, wall)
			rawWalls = append(rawWalls, r.wall)
			refs = append(refs, r.ref)
			tps = append(tps, float64(r.res.Stats.TrialsCharged)/wall)
		}
	}
	// best_cost is the mean over the run's seeds, summed in their order.
	// Every seed's cost is pinned, so the mean is a constant of the
	// workload seed, whatever the run's timing.
	bySeed := map[uint64]float64{}
	for _, r := range runs {
		bySeed[r.seed] = r.res.BestCost
	}
	var costs []float64
	for _, s := range seeds {
		if c, ok := bySeed[s]; ok {
			costs = append(costs, c)
		}
	}
	rep.samples = fmt.Sprintf("%d untraced solves, %d set-ups; raw wall p50 %.4g s, p95 %.4g s; reference unit p50 %.4g s; peak RSS %.4g MiB",
		len(walls), len(setup), median(rawWalls), quantile(rawWalls, 0.95), median(refs), rss)
	rep.set("wall_s", median(walls))
	rep.set("trials_per_s", median(tps))
	rep.set("best_cost", mean(costs))
	rep.set("setup_s", median(setup))
	rep.set("peak_live_heap_mb", peakLive)
	rep.set("jobs_per_min", 60*float64(len(walls))/sum(walls))
	rep.set("job_latency_p50_s", median(walls))
	rep.set("job_latency_p95_s", quantile(walls, 0.95))
	w.layerMetrics(rep, runs)
	return rep, nil
}

// solveLoop solves p back to back, cycling through seeds, until the
// deadline has passed and it made minSolves solves. It counts each
// solve into rep and returns the ones that ran, checked or not.
func (w solveWorkload) solveLoop(rep *report, clock *hostClock, p pts.Problem, seeds []uint64, minSolves int, deadline time.Time, trace bool) ([]*solveRun, error) {
	var runs []*solveRun
	before, err := clock.unit()
	if err != nil {
		return nil, err
	}
	for i := 0; i < minSolves || time.Now().Before(deadline); i++ {
		// A traced run alternates untraced and traced solves so both
		// see the same machine conditions.
		traced := trace && i%2 == 1
		seed := seeds[i%len(seeds)]
		opts := append(slices.Clone(w.opts), pts.WithSeed(seed))
		r, err := w.solveOnce(p, opts, traced)
		after, refErr := clock.unit()
		if refErr != nil {
			return nil, refErr
		}
		ref := (before + after) / 2
		before = after
		rep.attempted++
		if err != nil {
			rep.fail("solve %d: %v", i, err)
			continue
		}
		r.seed, r.ref = seed, ref
		if err := w.check(p, r, seed); err != nil {
			rep.fail("solve %d: %v", i, err)
		}
		runs = append(runs, r)
	}
	return runs, nil
}

// warmUp solves untimed for warmUpTime.
func (w solveWorkload) warmUp(seed uint64) error {
	p, err := w.build()
	if err != nil {
		return fmt.Errorf("build problem: %w", err)
	}
	for t0 := time.Now(); since(t0) < warmUpTime.Seconds(); {
		opts := append(slices.Clone(w.opts), pts.WithSeed(seed))
		if _, err := pts.Solve(context.Background(), p, opts...); err != nil {
			return fmt.Errorf("warm-up solve: %w", err)
		}
	}
	return nil
}

// solveOnce runs one solve, traced or not, and measures it.
func (w solveWorkload) solveOnce(p pts.Problem, opts []pts.Option, traced bool) (*solveRun, error) {
	r := &solveRun{traced: traced}
	solveP := p
	var tp *tracedProblem
	if traced {
		solveP, tp = wrapProblem(p)
		var last time.Time
		opts = append(slices.Clone(opts), pts.WithProgress(func(pts.Snapshot) {
			now := time.Now()
			if !last.IsZero() {
				r.rounds = append(r.rounds, now.Sub(last).Seconds())
			}
			last = now
		}))
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	res, err := pts.Solve(context.Background(), solveP, opts...)
	r.wall = since(t0)
	r.live = liveHeapMB()
	runtime.ReadMemStats(&m1)
	if err != nil {
		return nil, err
	}
	r.res = res
	r.alloc = m1.TotalAlloc - m0.TotalAlloc
	r.gcs = m1.NumGC - m0.NumGC
	if tp != nil {
		r.calls = tp.merged()
	}
	return r, nil
}

// check verifies one solve's output.
func (w solveWorkload) check(p pts.Problem, r *solveRun, seed uint64) error {
	if r.res.Interrupted {
		return fmt.Errorf("run interrupted")
	}
	drift, err := checkSolution(p, r.res.Best, r.res.BestCost)
	r.drift = drift
	if err != nil {
		return err
	}
	want, ok := w.pinned[seed]
	if !ok {
		return fmt.Errorf("no best cost pinned for seed %d", seed)
	}
	if r.res.BestCost != want {
		return fmt.Errorf("BestCost %v, pinned %v for seed %d", r.res.BestCost, want, seed)
	}
	return nil
}

// checkRepeats holds a traced run to its contract: every traced solve
// went through the batch kernel (the scalar fallback is bit-identical,
// so a lost batch capability would otherwise pass unnoticed), and
// every solve, traced or not, reproduces the first one's counters, best
// cost and permutation bit for bit.
func (w solveWorkload) checkRepeats(rep *report, runs []*solveRun) {
	for _, r := range runs {
		if r.traced && r.calls[opBatch].calls == 0 {
			rep.flag("traced solve made no batch evaluation calls")
		}
	}
	ref := runs[0].res
	for i, r := range runs[1:] {
		if math.Float64bits(r.res.BestCost) != math.Float64bits(ref.BestCost) ||
			!slices.Equal(r.res.Best, ref.Best) ||
			r.res.Stats != ref.Stats {
			rep.flag("solve %d (traced %v) does not reproduce solve 0: best %v vs %v",
				i+1, r.traced, r.res.BestCost, ref.BestCost)
		}
	}
}

// layerMetrics fills the per-layer metrics of a solve workload: counts
// per solve, and shares of traced wall time.
func (w solveWorkload) layerMetrics(rep *report, runs []*solveRun) {
	var (
		calls            callStats
		traced, untraced float64
		tracedWalls      []float64
		untracedWalls    []float64
		rounds           []float64
		alloc, trials    float64
		gcs              float64
		drift            float64
	)
	for _, r := range runs {
		drift = math.Max(drift, r.drift)
		if !r.traced {
			untraced++
			untracedWalls = append(untracedWalls, r.wall)
			alloc += float64(r.alloc)
			trials += float64(r.res.Stats.TrialsCharged)
			gcs += float64(r.gcs)
			continue
		}
		traced++
		tracedWalls = append(tracedWalls, r.wall)
		rounds = append(rounds, r.rounds...)
		calls.add(&r.calls)
	}
	// One task runs at a time in virtual time, so traced wall time is
	// the denominator of every share.
	tracedNs := sum(tracedWalls) * 1e9
	for _, l := range callLayers {
		a := calls[l.op]
		if w.layers[l.op] != l.name {
			a = acc{}
		}
		rep.set(l.name+".calls", ratio(float64(a.calls), traced))
		if l.op == opBatch {
			rep.set(l.name+".cands_per_call", ratio(float64(a.items), float64(a.calls)))
			rep.set(l.name+".ns_per_cand", ratio(float64(a.ns), float64(a.items)))
		} else {
			rep.set(l.name+".us_per_call", ratio(float64(a.ns), float64(a.calls))/1e3)
		}
		rep.set(l.name+".share", ratio(float64(a.ns), tracedNs))
	}
	rep.set("timing.rescore_drift", drift)
	rep.set("core.outside_problem.share", ratio(tracedNs-float64(calls.totalNs()), tracedNs))
	rep.set("core.round_s.p50", median(rounds))
	rep.set("core.round_s.max", maxOf(rounds))
	// Ratios of sums, not means of ratios: a traced run repeats one seed,
	// and n identical counts must average to exactly that count.
	var stats []pts.WorkerStats
	var msgs, globals, tasks float64
	for _, r := range runs {
		stats = append(stats, r.res.Stats)
		msgs += float64(r.res.Messages)
		globals += float64(r.res.Rounds)
		tasks += float64(r.res.Tasks)
	}
	searchStats(rep, stats)
	rep.set("pvm.messages_per_round", ratio(msgs, globals))
	rep.set("pvm.tasks", ratio(tasks, float64(len(runs))))
	rep.set("runtime.alloc_bytes_per_trial", ratio(alloc, trials))
	rep.set("runtime.gc_cycles", ratio(gcs, untraced))
	rep.set("trace.overhead_ratio", ratio(median(tracedWalls), median(untracedWalls)))
	for _, n := range serveMetricNames {
		rep.set(n, 0)
	}
}
