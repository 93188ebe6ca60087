package main

import (
	"fmt"
	"math"

	"pts"
)

// Relative gaps allowed between a run's BestCost and a fresh rescoring
// of its Best. Placement workers score moves against timing
// criticalities refreshed only every 64 moves, so the incumbent's cost
// lags a fresh analysis (gaps up to about 3e-3 on short highway jobs).
// QAP costs are real-valued sums updated by deltas, which agree with a
// fresh sum to floating-point noise (about 1e-16). Flow shop and job
// shop makespans are integers and must rescore exactly.
const (
	placementTol = 1e-2
	qapTol       = 1e-9
)

// checkPerm reports whether perm is a permutation of [0, n). A
// placement solution instead maps each of the n cells to a distinct
// slot of a grid with spare slots, so it is checked for distinct
// non-negative values; NewState rejects slots beyond the grid.
func checkPerm(perm []int32, n int32, placement bool) error {
	if int32(len(perm)) != n {
		return fmt.Errorf("solution has %d elements, want %d", len(perm), n)
	}
	seen := map[int32]bool{}
	for _, v := range perm {
		if v < 0 || (!placement && v >= n) || seen[v] {
			return fmt.Errorf("solution is not a permutation of [0, %d): element %d", n, v)
		}
		seen[v] = true
	}
	return nil
}

// checkSolution verifies one solution of p: a permutation, whose fresh
// rescoring through p.NewState matches bestCost (within the tolerances
// above), and whose makespan is not below the
// instance's published optimum for the scheduling problems. Placement
// problems must have been given the run's Initial seed before (their
// goals are rebased per run). It returns the relative rescoring gap.
func checkSolution(p pts.Problem, best []int32, bestCost float64) (float64, error) {
	_, placement := p.(*pts.PlacementProblem)
	if err := checkPerm(best, p.Size(), placement); err != nil {
		return 0, err
	}
	st, err := p.NewState(best)
	if err != nil {
		return 0, fmt.Errorf("rescore: %w", err)
	}
	fresh := st.Cost()
	drift := math.Abs(fresh-bestCost) / math.Max(math.Abs(fresh), math.SmallestNonzeroFloat64)
	switch q := p.(type) {
	case *pts.PlacementProblem:
		if drift > placementTol {
			return drift, fmt.Errorf("BestCost %v is %.3g away from its rescoring %v (tolerance %g)", bestCost, drift, fresh, placementTol)
		}
		return drift, nil
	case *pts.QAPProblem:
		if drift > qapTol {
			return drift, fmt.Errorf("BestCost %v is %.3g away from its rescoring %v (tolerance %g)", bestCost, drift, fresh, qapTol)
		}
		return drift, nil
	case *pts.FlowShopProblem:
		// Upper is the proven optimum of a solved Taillard instance, the
		// value FlowShopDetails reports as Optimum; Lower is only the
		// published lower bound, well below it.
		if opt := q.Instance().Upper; opt > 0 && bestCost < float64(opt) {
			return drift, fmt.Errorf("makespan %v below the published optimum %d", bestCost, opt)
		}
	case *pts.JobShopProblem:
		if opt := q.Instance().Optimum; opt > 0 && bestCost < float64(opt) {
			return drift, fmt.Errorf("makespan %v below the published optimum %d", bestCost, opt)
		}
	}
	if fresh != bestCost {
		return drift, fmt.Errorf("BestCost %v differs from its rescoring %v", bestCost, fresh)
	}
	return drift, nil
}
