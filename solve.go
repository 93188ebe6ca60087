package pts

import (
	"context"
	"fmt"

	"pts/internal/core"
)

// Result is the outcome of one Solve call.
type Result struct {
	// Problem is the solved problem's Name().
	Problem string
	// BestCost is the best cost found (lower is better).
	BestCost float64
	// Best is the best solution found, as an element permutation.
	Best []int32
	// InitialCost is the cost of the shared initial solution every
	// worker started from.
	InitialCost float64
	// Elapsed is the run's make-span in seconds: modeled cluster time
	// under WithVirtualTime, wall-clock under WithRealTime.
	Elapsed float64
	// Rounds is the number of completed global iterations.
	Rounds int
	// Interrupted reports that the context was cancelled and the result
	// is the best found up to that point, not the full budget's.
	Interrupted bool
	// Trace is the best-cost-versus-time curve: the initial point plus
	// every incumbent improvement, when tracing is on (the default).
	Trace []TracePoint
	// Stats aggregates every worker's search counters.
	Stats WorkerStats
	// Tasks and Messages report the run's process and communication
	// volume on the PVM-like substrate.
	Tasks    int64
	Messages int64
	// Details carries problem-specific exact scoring of Best when the
	// problem implements Detailer: PlacementDetails for placement,
	// QAPDetails for QAP, nil otherwise.
	Details any
}

// Improvement returns the relative cost improvement over the initial
// solution, in [0, 1].
func (r *Result) Improvement() float64 {
	if r.InitialCost == 0 {
		return 0
	}
	return (r.InitialCost - r.BestCost) / r.InitialCost
}

// TracePoint is one observation of the incumbent best cost.
type TracePoint struct {
	// Time is seconds since the run started (virtual or wall).
	Time float64
	// Cost is the best cost known at Time.
	Cost float64
}

// WorkerStats counts search events across all workers of a run.
type WorkerStats = core.WorkerStats

// Snapshot is one per-global-iteration progress observation streamed to
// a WithProgress callback.
type Snapshot = core.Snapshot

// Solver runs the parallel tabu search with a reusable base
// configuration. The zero value is ready to use and equals the paper's
// defaults; NewSolver captures base options applied before each call's
// own.
type Solver struct {
	base []Option
}

// NewSolver returns a Solver whose base options are applied to every
// Solve call, before the call's own options.
func NewSolver(opts ...Option) *Solver {
	return &Solver{base: opts}
}

// Solve executes the two-level parallel tabu search over p: a master
// coordinates TSW workers (multi-search threads) that each drive CLW
// candidate-list workers, with the paper's half-sync heterogeneity
// adaptation at both levels.
//
// ctx bounds the run: when it is cancelled or its deadline passes,
// workers abandon their loops at the next boundary and Solve returns
// promptly with the best solution found so far, Result.Interrupted set,
// and a nil error. A nil result is only ever paired with a non-nil
// error (invalid configuration or a problem that failed to initialize).
//
// Virtual-time runs (the default) are deterministic in WithSeed as long
// as ctx does not fire mid-run.
func (s *Solver) Solve(ctx context.Context, p Problem, opts ...Option) (*Result, error) {
	all := make([]Option, 0, len(s.base)+len(opts))
	all = append(all, s.base...)
	all = append(all, opts...)
	st := apply(all)

	// A store-backed run resumes from checkpoints; explicitly disabling
	// them is a contradiction better refused here than discovered after
	// a crash with nothing to resume from.
	if st.cfg.Store != nil && st.checkpointSet && st.cfg.CheckpointEvery == 0 {
		return nil, fmt.Errorf("pts: WithCheckpointEvery(0) disables the checkpoints a WithStore run resumes from; drop one of the two")
	}

	// Distributed execution: a joining call serves the master's run and
	// returns its outcome; a listening or transport-equipped call is the
	// master and must run in real time.
	if st.join != "" {
		if st.listen != nil || st.transport != nil {
			return nil, fmt.Errorf("pts: WithJoin cannot combine with WithListen or WithTransport")
		}
		if st.modeSet && st.mode == core.Virtual {
			return nil, fmt.Errorf("pts: a distributed transport requires real time; drop WithVirtualTime")
		}
		return joinSolve(ctx, p, st)
	}
	if st.listen != nil || st.transport != nil {
		if st.modeSet && st.mode == core.Virtual {
			return nil, fmt.Errorf("pts: a distributed transport requires real time; drop WithVirtualTime")
		}
		st.mode = core.Real
	}
	if st.listen != nil {
		if st.transport != nil {
			return nil, fmt.Errorf("pts: WithListen and WithTransport are mutually exclusive")
		}
		master, err := ListenMaster(st.listen.addr, st.listen.workers)
		if err != nil {
			return nil, err
		}
		// RunProblem's finisher delivers results and closes the master on
		// success; Close here covers every early-error path (idempotent).
		defer master.Close()
		st.transport = master.m
	}
	st.cfg.Transport = st.transport

	res, err := core.RunProblem(ctx, p, st.clus, st.cfg, st.mode)
	if err != nil {
		return nil, err
	}
	return resultFromCore(res), nil
}

// resultFromCore mirrors the engine's result into the public type.
func resultFromCore(res *core.Result) *Result {
	out := &Result{
		Problem:     res.Problem,
		BestCost:    res.BestCost,
		Best:        res.BestPerm,
		InitialCost: res.InitialCost,
		Elapsed:     res.Elapsed,
		Rounds:      res.Rounds,
		Interrupted: res.Interrupted,
		Stats:       res.Stats,
		Tasks:       res.Runtime.Spawns,
		Messages:    res.Runtime.Sends,
		Details:     res.Details,
	}
	if n := res.Trace.Len(); n > 0 {
		out.Trace = make([]TracePoint, n)
		for i, pt := range res.Trace.Points {
			out.Trace[i] = TracePoint{Time: pt.Time, Cost: pt.Cost}
		}
	}
	return out
}

// Solve executes the parallel tabu search over p with a one-off
// configuration — shorthand for NewSolver().Solve(ctx, p, opts...).
func Solve(ctx context.Context, p Problem, opts ...Option) (*Result, error) {
	return NewSolver().Solve(ctx, p, opts...)
}
