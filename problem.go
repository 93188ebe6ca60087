package pts

import "pts/internal/core"

// State is the mutable search state one worker drives: a solution over
// elements 0..Size()-1 whose neighborhood is pairwise swaps, encoded
// compactly as a permutation. Implementations need not be safe for
// concurrent use — every worker owns its own State.
//
// A State may additionally implement `Refresh()` to resynchronize
// cached models (the placement evaluator re-runs timing analysis
// there); the engine calls it at synchronization points when present.
// The method set is documented on the engine's declaration.
type State = core.State

// Problem is the pluggable workload boundary of the solver: anything
// that can mint independent search States over a shared permutation
// encoding can be solved by Solve. The built-in implementations are
// VLSI standard-cell placement (PlacementProblem), the quadratic
// assignment problem (QAPProblem) and the flow and job shop schedules
// (FlowShopProblem, JobShopProblem); external problems implement
// exactly this interface: Name, Size, Initial(seed) and
// NewState(snap).
type Problem = core.Problem

// Detailer is an optional Problem capability: exact, problem-specific
// scoring of the final best solution. When the solved Problem
// implements it, Solve stores the returned value in Result.Details
// (PlacementProblem yields PlacementDetails, QAPProblem QAPDetails).
type Detailer = core.Detailer
