package core

import "pts/internal/tabu"

// State is the mutable per-worker search state the tabu engine drives.
// It is an alias of the engine's own Problem contract so that any state
// the engine can search, the parallel algorithm can distribute; the
// public package exports it as pts.State.
type State = tabu.Problem

// Problem is the problem-agnostic boundary of the parallel tabu
// search: anything that can mint independent search States over a
// shared permutation encoding can be solved by RunProblem. The
// built-in implementations are VLSI standard-cell placement, the
// quadratic assignment problem and the flow and job shop schedules;
// the engine itself never looks past this interface. The public
// package exports it as pts.Problem.
type Problem interface {
	// Name identifies the problem instance in results and progress
	// snapshots.
	Name() string
	// Size returns the number of swappable elements; snapshots are
	// permutations of [0, Size()).
	Size() int32
	// Initial derives the run's shared initial State deterministically
	// from seed. It is called exactly once per run, before any worker
	// starts; implementations may derive run-scoped shared context
	// (e.g. the placement fuzzy goals) here.
	Initial(seed uint64) (State, error)
	// NewState builds an independent worker State positioned at the
	// snapshot snap. After Initial has returned it may be called
	// concurrently from worker goroutines and must be safe for that.
	NewState(snap []int32) (State, error)
}

// Detailer is an optional Problem capability: exact, problem-specific
// scoring of the final best solution. When the solved Problem
// implements it, RunProblem stores the returned value in
// Result.Details (the public placement problem yields
// PlacementDetails, the QAP problem QAPDetails).
type Detailer interface {
	Details(best []int32) (any, error)
}

// Snapshot is one per-global-iteration progress observation, delivered
// to Config.Progress (the public WithProgress callback) from the master
// as soon as a round's reports are collected.
type Snapshot struct {
	// Round is the 1-based index of the just-completed global
	// iteration; Rounds is the total planned.
	Round  int
	Rounds int
	// BestCost is the global best cost after this round; InitialCost
	// the shared starting point.
	BestCost    float64
	InitialCost float64
	// Elapsed is seconds since the run started (virtual or wall).
	Elapsed float64
	// Improved reports whether this round improved the global best.
	Improved bool
	// Reports is the number of worker reports collected this round;
	// Forced is how many of them the half-sync adaptation forced early.
	Reports int
	Forced  int
	// Stats aggregates the TSW-side counters reported so far (CLW
	// counters fold in only at shutdown and appear in Result.Stats).
	Stats WorkerStats
	// Shares is the adaptive scheduler's current element-space share
	// per tabu search worker (summing to 1 over live workers); nil
	// unless adaptive scheduling is on.
	Shares []float64
}

// refresh resynchronizes a state's cached models (e.g. the placement
// evaluator's timing criticalities) when the state supports it.
func refresh(st State) {
	if rf, ok := st.(tabu.Refresher); ok {
		rf.Refresh()
	}
}

// snapshotterInto is an optional State capability: write the snapshot
// into a caller-owned buffer instead of allocating a fresh slice.
type snapshotterInto interface {
	SnapshotInto(dst []int32) []int32
}

// snapshotInto captures st's solution, reusing dst when the state
// supports it; the TSW's incumbent tracking calls this on every
// improvement, so the hot path stays allocation-free for such states.
func snapshotInto(st State, dst []int32) []int32 {
	if si, ok := st.(snapshotterInto); ok {
		return si.SnapshotInto(dst)
	}
	return st.Snapshot()
}
