package main

import (
	"context"
	"math"
	"slices"
	"strings"
	"testing"

	"pts"
	"pts/internal/tabu"
)

func builtinProblems(t *testing.T) []pts.Problem {
	t.Helper()
	hw, err := pts.PlacementBenchmark("highway")
	if err != nil {
		t.Fatal(err)
	}
	fs, err := pts.FlowShopBenchmark("ta001")
	if err != nil {
		t.Fatal(err)
	}
	js, err := pts.JobShopBenchmark("ft06")
	if err != nil {
		t.Fatal(err)
	}
	return []pts.Problem{hw, pts.RandomQAP(12, 3), fs, js}
}

// TestWrapStateKeepsCapabilities checks that a wrapped State offers
// exactly the optional capabilities of the State it wraps, so the
// engine takes the same path with tracing on.
func TestWrapStateKeepsCapabilities(t *testing.T) {
	for _, p := range builtinProblems(t) {
		st, err := p.Initial(1)
		if err != nil {
			t.Fatal(err)
		}
		w, _ := wrapState(st)
		has := func(v any) [3]bool {
			_, b := v.(tabu.BatchEvaluator)
			_, r := v.(tabu.Refresher)
			_, s := v.(snapshotterInto)
			return [3]bool{b, r, s}
		}
		if got, want := has(w), has(st); got != want {
			t.Errorf("%s: wrapped capabilities %v, want %v", p.Name(), got, want)
		}
		wp, _ := wrapProblem(p)
		_, want := p.(pts.Detailer)
		if _, got := wp.(pts.Detailer); got != want {
			t.Errorf("%s: wrapped problem Detailer %v, want %v", p.Name(), got, want)
		}
	}
}

// TestTracedSolveIsBitIdentical checks that tracing a virtual-time
// solve changes nothing in its outcome and records the batch calls.
func TestTracedSolveIsBitIdentical(t *testing.T) {
	p, err := pts.PlacementBenchmark("highway")
	if err != nil {
		t.Fatal(err)
	}
	opts := []pts.Option{pts.WithIterations(4, 20), pts.WithSeed(9)}
	plain, err := pts.Solve(context.Background(), p, opts...)
	if err != nil {
		t.Fatal(err)
	}
	wp, tp := wrapProblem(p)
	traced, err := pts.Solve(context.Background(), wp, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(plain.BestCost) != math.Float64bits(traced.BestCost) ||
		!slices.Equal(plain.Best, traced.Best) || plain.Stats != traced.Stats {
		t.Fatalf("traced solve best %v differs from untraced %v", traced.BestCost, plain.BestCost)
	}
	calls := tp.merged()
	if calls[opBatch].calls == 0 || calls[opApply].calls == 0 || calls[opRefresh].calls == 0 {
		t.Fatalf("traced solve recorded batch %d, apply %d, refresh %d calls",
			calls[opBatch].calls, calls[opApply].calls, calls[opRefresh].calls)
	}
	if calls[opDetails].calls != 1 {
		t.Fatalf("Details called %d times, want 1", calls[opDetails].calls)
	}
}

// TestTracedRealSolve runs the decorator under the goroutine runtime,
// where states are driven concurrently; run it with -race.
func TestTracedRealSolve(t *testing.T) {
	p, err := pts.FlowShopBenchmark("ta001")
	if err != nil {
		t.Fatal(err)
	}
	wp, tp := wrapProblem(p)
	res, err := pts.Solve(context.Background(), wp, pts.WithRealTime(), pts.WithIterations(3, 20), pts.WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := checkSolution(p, res.Best, res.BestCost); err != nil {
		t.Fatal(err)
	}
	if calls := tp.merged(); calls[opBatch].calls == 0 {
		t.Fatal("no batch calls recorded")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}, {0.25, 1.75}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of no samples is not 0")
	}
}

func TestCheckPerm(t *testing.T) {
	if err := checkPerm([]int32{2, 0, 1}, 3, false); err != nil {
		t.Error(err)
	}
	if checkPerm([]int32{0, 0, 1}, 3, false) == nil || checkPerm([]int32{0, 3, 1}, 3, false) == nil {
		t.Error("non-permutation accepted")
	}
	if err := checkPerm([]int32{7, 0, 4}, 3, true); err != nil {
		t.Error(err)
	}
}

// TestCheckSolutionNeverBelowOptimum checks that a makespan below the
// proven optimum fails even when it lies above the published lower
// bound (ta001: optimum 1278, lower bound 1232).
func TestCheckSolutionNeverBelowOptimum(t *testing.T) {
	fs, err := pts.FlowShopBenchmark("ta001")
	if err != nil {
		t.Fatal(err)
	}
	js, err := pts.JobShopBenchmark("ft06")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		p    pts.Problem
		cost float64
	}{{fs, 1277}, {fs, 1232}, {js, 54}} {
		st, err := c.p.Initial(1)
		if err != nil {
			t.Fatal(err)
		}
		// The rescoring check would reject these costs too; the error
		// must come from the optimum check, which runs first.
		if _, err := checkSolution(c.p, st.Snapshot(), c.cost); err == nil || !strings.Contains(err.Error(), "below the published optimum") {
			t.Errorf("%s: makespan %v: got %v, want a below-optimum error", c.p.Name(), c.cost, err)
		}
	}
	res, err := pts.Solve(context.Background(), fs, pts.WithIterations(2, 10), pts.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := checkSolution(fs, res.Best, res.BestCost); err != nil {
		t.Errorf("a solved ta001 sequence fails its check: %v", err)
	}
}

// TestPinnedTablesCoverPool checks that every seed a run can deal has a
// pinned best cost, and that runSeeds deals distinct seeds from the
// pool, the same for the same workload seed.
func TestPinnedTablesCoverPool(t *testing.T) {
	for name, w := range workloads {
		sw, ok := w.(solveWorkload)
		if !ok {
			continue
		}
		for s := uint64(0); s < seedPool; s++ {
			if _, ok := sw.pinned[s]; !ok {
				t.Errorf("%s: no best cost pinned for seed %d", name, s)
			}
		}
	}
	a, b := runSeeds(7), runSeeds(7)
	if !slices.Equal(a, b) {
		t.Fatal("runSeeds is not deterministic")
	}
	seen := map[uint64]bool{}
	for _, s := range a {
		if s >= seedPool || seen[s] {
			t.Fatalf("runSeeds(7) = %v: not distinct seeds of the pool", a)
		}
		seen[s] = true
	}
	if slices.Equal(a, runSeeds(8)) {
		t.Error("workload seeds 7 and 8 deal the same solve seeds")
	}
}
