package main

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"sync"
	"time"
)

// A shared virtual machine runs the same code at different speeds from
// one stretch of seconds to the next, as its neighbours load the host's
// caches and memory. On a 2-vCPU machine the same c1355 solve took
// 0.053 s in one five-second window and 0.083 s in another. Medians over
// a run cannot remove that: the share of a run spent in each state sets
// them.
//
// hostClock measures the host's speed next to every timed unit with a
// fixed reference kernel that belongs to the benchmark, not to the
// program, and scales the unit's time by refNominal / (the reference's
// measured time). Over the same windows the scaled solve time moved
// 1.08x where the raw time moved 1.55x. A change to the program moves
// the scaled figures; a change in the host's speed moves the reference
// too and largely cancels. The scaled figures are seconds on a host
// where the reference unit takes refNominal. Run reports print the raw
// wall-clock figures beside them.
type hostClock struct {
	gs    []*refGraph // one per copy of the unit run at once
	check float64     // the unit's checksum, the same on every call
}

// refNominal is the time of one reference unit the scaled figures are
// expressed against: about what the unit takes on a 2-vCPU Xeon
// virtual machine in its fast state.
const refNominal = 0.003

// newHostClock returns a clock whose unit runs copies copies of the
// reference kernel at once. A workload that keeps one CPU busy is timed
// against one copy. One that keeps every CPU busy is timed against a
// copy per CPU, since a single copy would time only the CPU it ran on.
func newHostClock(copies int) *hostClock {
	h := &hostClock{}
	for range copies {
		h.gs = append(h.gs, newRefGraph())
	}
	return h
}

// unit runs the reference kernel once on each copy, all at once, and
// returns the copies' mean seconds.
func (h *hostClock) unit() (float64, error) {
	secs := make([]float64, len(h.gs))
	sums := make([]float64, len(h.gs))
	var wg sync.WaitGroup
	for i, g := range h.gs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			for k := range refPasses {
				sums[i] += g.pass(k)
			}
			secs[i] = since(t0)
		}()
	}
	wg.Wait()
	for _, c := range sums {
		if h.check == 0 {
			h.check = c
		} else if c != h.check {
			return 0, fmt.Errorf("reference kernel checksum %v, want %v", c, h.check)
		}
	}
	return mean(secs), nil
}

// scale returns the factor that turns a time measured while the
// reference unit took refS seconds into reference seconds.
func scale(refS float64) float64 { return refNominal / refS }

// refPasses is how many graph passes one reference unit makes.
const refPasses = 4

// refGraph is a fixed random DAG of 32768 nodes, each fed by three
// earlier ones, about 1 MiB in all: the same kind of work as a timing
// analysis or a placement move, irregular loads over arrays that fit in
// a core's cache, plus a sort and hashed swaps. A pass allocates
// nothing, so the garbage collector's state does not reach its time.
type refGraph struct {
	off   []int32
	adj   []int32
	delay []float64
	arr   []float64
	perm  []int32
	keys  []float64
	slots []int32 // open-addressing hash set of swapped positions
}

func newRefGraph() *refGraph {
	const n = 1 << 15
	r := rand.New(rand.NewPCG(1, 2))
	g := &refGraph{
		off:   make([]int32, n+1),
		delay: make([]float64, n),
		arr:   make([]float64, n),
		perm:  make([]int32, n),
		keys:  make([]float64, 4096),
		slots: make([]int32, 4096),
	}
	for i := range n {
		g.off[i] = int32(len(g.adj))
		if i > 0 {
			for range 3 {
				g.adj = append(g.adj, int32(r.IntN(i)))
			}
		}
		g.delay[i] = r.Float64()
		g.perm[i] = int32(i)
	}
	g.off[n] = int32(len(g.adj))
	return g
}

// pass makes one longest-path sweep over the graph, sorts a sample of
// its arrival times, swaps 2000 random pairs of a permutation while
// counting the distinct positions swapped from in a hash set, and
// returns a checksum that depends only on round.
func (g *refGraph) pass(round int) float64 {
	n := uint64(len(g.delay))
	for i := range g.delay {
		a := 0.0
		for _, j := range g.adj[g.off[i]:g.off[i+1]] {
			a = max(a, g.arr[j])
		}
		g.arr[i] = a + g.delay[i]
	}
	r := rand.PCG{}
	r.Seed(uint64(round), 3)
	for k := range g.keys {
		g.keys[k] = g.arr[r.Uint64()%n]
	}
	sort.Float64s(g.keys)
	clear(g.slots)
	mask := uint64(len(g.slots) - 1)
	distinct := 0
	for range 2000 {
		a, b := r.Uint64()%n, r.Uint64()%n
		g.perm[a], g.perm[b] = g.perm[b], g.perm[a]
		for h := (a * 0x9e3779b97f4a7c15) >> 52 & mask; ; h = (h + 1) & mask {
			if g.slots[h] == 0 {
				g.slots[h] = int32(a + 1)
				distinct++
				break
			}
			if g.slots[h] == int32(a+1) {
				break
			}
		}
	}
	return g.arr[n-1] + g.keys[100] + float64(distinct)
}

// setupSampleTime is the least set-up time one set-up sample sums: a
// sample repeats the set-up until its timed builds add up to this, so
// set-ups of tens of microseconds are not read off the clock one by one.
const setupSampleTime = 2 * time.Millisecond

// timeSetups takes setupReps samples of a workload's set-up time and
// returns each in reference seconds per set-up, scaled by the reference
// units run just before and just after the sample. reset, if not nil,
// runs untimed before each set-up to undo the one before.
//
// The garbage collector runs as it would in a program that sets up
// over and over; no sample starts with a forced collection. After one,
// the runtime may return the freed memory to the OS and the next
// set-ups fault it back in, work the reference unit does not do. With a
// forced collection before each sample, ta001 set-up (about 40 us, with
// a 64 KiB scanner buffer each) moved 7% in raw time between two sets of
// runs while the reference unit moved 1.28x, so its scaled median moved
// 27%.
func timeSetups(clock *hostClock, reset func(), build func() error) ([]float64, error) {
	setup := make([]float64, setupReps)
	before, err := clock.unit()
	if err != nil {
		return nil, err
	}
	for i := range setup {
		var s float64
		n := 0
		for ; s < setupSampleTime.Seconds(); n++ {
			if reset != nil {
				reset()
			}
			t0 := time.Now()
			if err := build(); err != nil {
				return nil, err
			}
			s += since(t0)
		}
		after, err := clock.unit()
		if err != nil {
			return nil, err
		}
		setup[i] = s / float64(n) * scale((before+after)/2)
		before = after
	}
	return setup, nil
}
