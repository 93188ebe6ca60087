package main

import (
	"context"
	"fmt"
	"slices"

	"pts"
)

// The best cost each solve workload reproduces for every solve seed in
// [0, seedPool). Virtual-time runs are deterministic, so any change to
// these values is a change of the search trajectory, not noise. After a
// deliberate trajectory change, regenerate the tables with
//
//	bash perfbench/run.sh -pin > pinned.tmp && mv pinned.tmp perfbench/pinned_tables.go
//
// and gofmt the file. (Redirecting straight into pinned_tables.go would
// empty it before the build that needs it.)

// printPins solves every solve workload once per seed in [0, seedPool)
// and prints the pinned-cost tables as Go source.
func printPins() error {
	fmt.Print("package main\n\n// Generated by perfbench -pin; see pinned.go.\n")
	for _, t := range []struct {
		name string
		w    solveWorkload
	}{{"c1355Pinned", c1355Virtual}, {"ta001Pinned", ta001Virtual}} {
		p, err := t.w.build()
		if err != nil {
			return err
		}
		fmt.Printf("\nvar %s = map[uint64]float64{\n", t.name)
		for seed := uint64(0); seed < seedPool; seed++ {
			opts := append(slices.Clone(t.w.opts), pts.WithSeed(seed))
			res, err := pts.Solve(context.Background(), p, opts...)
			if err != nil {
				return err
			}
			fmt.Printf("\t%d: %v,\n", seed, res.BestCost)
		}
		fmt.Println("}")
	}
	return nil
}
