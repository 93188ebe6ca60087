package main

import (
	"sync"
	"time"

	"pts"
	"pts/internal/tabu"
)

// The tracing decorator wraps a pts.Problem and every State it mints,
// timing each call the engine makes into the problem layer. It is
// transparent: a wrapped State exposes exactly the optional
// capabilities (batch evaluation, Refresh, SnapshotInto) of the State it
// wraps, and a wrapped Problem is a pts.Detailer only when the original
// is, so the engine takes the same code path with tracing on and off.
//
// The batch-mode capabilities (relaxed accumulation, evaluation pool,
// Close) are not forwarded: the workloads run the engine's defaults, in
// which they are never switched on.

// op indexes one traced call kind.
type op int

const (
	opBatch    op = iota // DeltaSwapBatch
	opDelta              // scalar DeltaSwap
	opApply              // ApplySwap (commit and undo)
	opRefresh            // Refresh (full timing analysis for placement)
	opRestore            // Restore (import + timing analysis for placement)
	opSnapshot           // Snapshot and SnapshotInto
	opNewState           // Problem.NewState
	opInitial            // Problem.Initial
	opDetails            // Detailer.Details
	numOps
)

// acc accumulates one call kind: how many calls, their total wall
// time, and the items they processed (candidates, for batches).
type acc struct {
	calls, ns, items int64
}

func (a *acc) add(t0 time.Time, items int64) {
	a.ns += int64(time.Since(t0))
	a.calls++
	a.items += items
}

// callStats is the merged accounting of one traced solve.
type callStats [numOps]acc

// add folds o into c.
func (c *callStats) add(o *callStats) {
	for i := range c {
		c[i].calls += o[i].calls
		c[i].ns += o[i].ns
		c[i].items += o[i].items
	}
}

// totalNs sums the wall time spent inside every traced call.
func (c *callStats) totalNs() int64 {
	var n int64
	for i := range c {
		n += c[i].ns
	}
	return n
}

// tracedState is the decorator's base: the methods every State has.
// Its accumulators are plain fields, not atomics: a State is driven by
// one worker at a time, and the counts are read only after Solve has
// returned.
type tracedState struct {
	inner     pts.State
	batch     tabu.BatchEvaluator
	refresher tabu.Refresher
	snapInto  snapshotterInto
	acc       callStats
}

// snapshotterInto is the engine's allocation-free snapshot capability.
type snapshotterInto interface {
	SnapshotInto(dst []int32) []int32
}

func (s *tracedState) Cost() float64 { return s.inner.Cost() }
func (s *tracedState) Size() int32   { return s.inner.Size() }

func (s *tracedState) DeltaSwap(a, b int32) float64 {
	t0 := time.Now()
	d := s.inner.DeltaSwap(a, b)
	s.acc[opDelta].add(t0, 1)
	return d
}

func (s *tracedState) ApplySwap(a, b int32) {
	t0 := time.Now()
	s.inner.ApplySwap(a, b)
	s.acc[opApply].add(t0, 1)
}

func (s *tracedState) Snapshot() []int32 {
	t0 := time.Now()
	snap := s.inner.Snapshot()
	s.acc[opSnapshot].add(t0, 1)
	return snap
}

func (s *tracedState) Restore(snap []int32) error {
	t0 := time.Now()
	err := s.inner.Restore(snap)
	s.acc[opRestore].add(t0, 1)
	return err
}

// The optional capabilities live on separate types so that wrapState
// can compose exactly the method set the wrapped State has.

type withBatch struct{ s *tracedState }

func (w withBatch) DeltaSwapBatch(cands []tabu.SwapCand, out []float64) {
	t0 := time.Now()
	w.s.batch.DeltaSwapBatch(cands, out)
	w.s.acc[opBatch].add(t0, int64(len(cands)))
}

type withRefresh struct{ s *tracedState }

func (w withRefresh) Refresh() {
	t0 := time.Now()
	w.s.refresher.Refresh()
	w.s.acc[opRefresh].add(t0, 1)
}

type withSnapInto struct{ s *tracedState }

func (w withSnapInto) SnapshotInto(dst []int32) []int32 {
	t0 := time.Now()
	out := w.s.snapInto.SnapshotInto(dst)
	w.s.acc[opSnapshot].add(t0, 1)
	return out
}

// wrapState decorates inner, returning the State to hand the engine and
// the accounting it fills.
func wrapState(inner pts.State) (pts.State, *tracedState) {
	s := &tracedState{inner: inner}
	var caps int
	if b, ok := inner.(tabu.BatchEvaluator); ok {
		s.batch, caps = b, caps|1
	}
	if r, ok := inner.(tabu.Refresher); ok {
		s.refresher, caps = r, caps|2
	}
	if si, ok := inner.(snapshotterInto); ok {
		s.snapInto, caps = si, caps|4
	}
	b, r, si := withBatch{s}, withRefresh{s}, withSnapInto{s}
	switch caps {
	case 1:
		return struct {
			*tracedState
			withBatch
		}{s, b}, s
	case 2:
		return struct {
			*tracedState
			withRefresh
		}{s, r}, s
	case 3:
		return struct {
			*tracedState
			withBatch
			withRefresh
		}{s, b, r}, s
	case 4:
		return struct {
			*tracedState
			withSnapInto
		}{s, si}, s
	case 5:
		return struct {
			*tracedState
			withBatch
			withSnapInto
		}{s, b, si}, s
	case 6:
		return struct {
			*tracedState
			withRefresh
			withSnapInto
		}{s, r, si}, s
	case 7:
		return struct {
			*tracedState
			withBatch
			withRefresh
			withSnapInto
		}{s, b, r, si}, s
	}
	return s, s
}

// tracedProblem decorates a Problem for one solve: every State it mints
// is wrapped and registered so its accounting can be merged afterwards.
type tracedProblem struct {
	inner pts.Problem

	mu      sync.Mutex // guards states and details; NewState runs concurrently
	states  []*tracedState
	details acc
}

func (p *tracedProblem) Name() string { return p.inner.Name() }
func (p *tracedProblem) Size() int32  { return p.inner.Size() }

func (p *tracedProblem) Initial(seed uint64) (pts.State, error) {
	return p.mint(opInitial, func() (pts.State, error) { return p.inner.Initial(seed) })
}

func (p *tracedProblem) NewState(snap []int32) (pts.State, error) {
	return p.mint(opNewState, func() (pts.State, error) { return p.inner.NewState(snap) })
}

// mint times one State construction, charging it to the new State's
// own accounting so concurrent constructions never share a counter.
func (p *tracedProblem) mint(kind op, build func() (pts.State, error)) (pts.State, error) {
	t0 := time.Now()
	st, err := build()
	if err != nil {
		return nil, err
	}
	w, s := wrapState(st)
	s.acc[kind].add(t0, 1)
	p.mu.Lock()
	p.states = append(p.states, s)
	p.mu.Unlock()
	return w, nil
}

// merged sums the accounting of every State minted so far. Call it only
// after the solve has returned.
func (p *tracedProblem) merged() callStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out callStats
	for _, s := range p.states {
		out.add(&s.acc)
	}
	out[opDetails] = p.details
	return out
}

type withDetails struct {
	p *tracedProblem
	d pts.Detailer
}

func (w withDetails) Details(best []int32) (any, error) {
	t0 := time.Now()
	v, err := w.d.Details(best)
	w.p.mu.Lock()
	w.p.details.add(t0, 1)
	w.p.mu.Unlock()
	return v, err
}

// wrapProblem decorates inner for one solve.
func wrapProblem(inner pts.Problem) (pts.Problem, *tracedProblem) {
	p := &tracedProblem{inner: inner}
	if d, ok := inner.(pts.Detailer); ok {
		return struct {
			*tracedProblem
			withDetails
		}{p, withDetails{p, d}}, p
	}
	return p, p
}
