package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"pts/internal/cluster"
	"pts/internal/core"
	"pts/internal/cost"
	"pts/internal/netlist"
	"pts/internal/pvm/nettrans"
)

// Recovery benchmark: fold-only degradation (PR-4 behavior,
// WithRespawn(false)) versus full recovery (the default) when a
// CLW-hosting worker process is killed mid-run. Both sides run the
// identical fixed-seed adaptive search over a real loopback-TCP
// cluster — one master process plus three single-slot worker daemons
// (emulated as goroutines with independent connections) — with
// WorkScale speed emulation so modeled work costs genuine wall time.
// The doomed worker's connection is severed once the configured round
// is reported, exactly like the CI e2e kill. Fold-only finishes the
// budget on two CLW hosts; recovery respawns a replacement onto
// surviving capacity and finishes on three.

// RecoveryOpts configures the -recovery scenario.
type RecoveryOpts struct {
	// Context bounds the runs (nil = background).
	Context context.Context
	// Circuit names the benchmark circuit (default "c532" — large
	// enough that the fuzzy cost does not bottom out at this budget,
	// so the final-cost comparison stays informative).
	Circuit string
	// WorkScale is the wall-seconds-per-modeled-second emulation factor
	// (default 30).
	WorkScale float64
	// GlobalIters and LocalIters set the iteration budget (defaults 6
	// and 20 — identical for both sides, by construction).
	GlobalIters, LocalIters int
	// KillRound is the progress round whose report triggers the kill
	// (default 2).
	KillRound int
	// Scale multiplies the local iteration budget (ptsbench -scale);
	// <= 0 means 1.0.
	Scale float64
	// Seed fixes the run seed (default 7).
	Seed uint64
}

func (o RecoveryOpts) withDefaults() RecoveryOpts {
	if o.Context == nil {
		o.Context = context.Background()
	}
	if o.Circuit == "" {
		o.Circuit = "c532"
	}
	if o.WorkScale <= 0 {
		o.WorkScale = 30
	}
	if o.GlobalIters <= 0 {
		o.GlobalIters = 6
	}
	if o.LocalIters <= 0 {
		o.LocalIters = 20
	}
	if o.KillRound <= 0 {
		o.KillRound = 2
	}
	if o.Scale > 0 && o.Scale != 1 {
		o.LocalIters = int(float64(o.LocalIters)*o.Scale + 0.5)
		if o.LocalIters < 1 {
			o.LocalIters = 1
		}
	}
	if o.Seed == 0 {
		o.Seed = 7
	}
	return o
}

// RecoverySide is one side (fold-only or respawn) of the comparison.
type RecoverySide struct {
	WallSeconds      float64 `json:"wall_seconds"`
	BestCost         float64 `json:"best_cost"`
	Rounds           int     `json:"rounds"`
	Interrupted      bool    `json:"interrupted"`
	WorkersLost      int64   `json:"workers_lost"`
	WorkersRespawned int64   `json:"workers_respawned"`
	Rebalances       int64   `json:"rebalances"`
}

// RecoveryReport is the BENCH_recovery.json schema.
type RecoveryReport struct {
	Note        string `json:"note"`
	GoVersion   string `json:"go_version"`
	GeneratedAt string `json:"generated_at"`

	Circuit     string  `json:"circuit"`
	WorkScale   float64 `json:"work_scale"`
	GlobalIters int     `json:"global_iters"`
	LocalIters  int     `json:"local_iters"`
	KillRound   int     `json:"kill_round"`
	Seed        uint64  `json:"seed"`

	FoldOnly RecoverySide `json:"fold_only"`
	Respawn  RecoverySide `json:"respawn"`
	// Speedup is fold-only wall time over respawn wall time at the
	// equal iteration budget: > 1 means restoring the lost parallelism
	// beat limping home on the survivors.
	Speedup float64 `json:"speedup"`
}

// Recovery runs the fold-only-vs-respawn comparison and returns the
// report.
func Recovery(o RecoveryOpts) (*RecoveryReport, error) {
	o = o.withDefaults()
	nl, err := netlist.Benchmark(o.Circuit)
	if err != nil {
		return nil, err
	}

	run := func(disableRespawn bool) (RecoverySide, error) {
		cfg := core.DefaultConfig()
		cfg.TSWs, cfg.CLWs = 1, 3
		cfg.GlobalIters, cfg.LocalIters = o.GlobalIters, o.LocalIters
		cfg.Seed = o.Seed
		// Full collection and one wide sampling step per candidate, like
		// the hetero scenario: each iteration's critical path is the
		// per-step trial budget the scheduler balances.
		cfg.HalfSync = false
		cfg.Trials, cfg.Depth = 64, 1
		cfg.Adaptive = true
		cfg.DisableRespawn = disableRespawn
		cfg.WorkScale = o.WorkScale

		master, err := nettrans.Listen(nettrans.MasterConfig{Addr: "127.0.0.1:0", Workers: 3})
		if err != nil {
			return RecoverySide{}, err
		}
		defer master.Close()
		cfg.Transport = master

		// Three single-slot workers joined in order (the ring: TSW on
		// w1, CLWs on w2, w3 and the master process); w3 — hosting one
		// CLW — is the doomed one.
		newProblem := func() core.Problem {
			return cost.NewPlacementProblem(nl, cfg.Utilization, cfg.Cost)
		}
		doomedCtx, kill := context.WithCancel(o.Context)
		defer kill()
		workerErrs := make(chan error, 3)
		for i := 1; i <= 3; i++ {
			wctx := o.Context
			if i == 3 {
				wctx = doomedCtx
			}
			name := fmt.Sprintf("r%d", i)
			go func(ctx context.Context, name string) {
				workerErrs <- core.ServeWorker(ctx, newProblem(), core.WorkerOptions{
					WorkerConfig: nettrans.WorkerConfig{Addr: master.Addr(), Name: name, Jobs: 1},
				}, nil)
			}(wctx, name)
			// Join order fixes slot assignment; wait for each registration.
			deadline := time.Now().Add(10 * time.Second)
			for len(master.Nodes()) < i {
				if time.Now().After(deadline) {
					return RecoverySide{}, fmt.Errorf("bench: only %d of %d workers joined", len(master.Nodes()), i)
				}
				time.Sleep(2 * time.Millisecond)
			}
		}

		killed := false
		cfg.Progress = func(s core.Snapshot) {
			if s.Round == o.KillRound && !killed {
				killed = true
				kill()
			}
		}

		res, err := core.RunProblem(o.Context, newProblem(), cluster.Homogeneous(4, 1), cfg, core.Real)
		if err != nil {
			return RecoverySide{}, err
		}
		for i := 0; i < 3; i++ {
			<-workerErrs // the doomed worker's error is expected; drain all
		}
		return RecoverySide{
			WallSeconds:      res.Elapsed,
			BestCost:         res.BestCost,
			Rounds:           res.Rounds,
			Interrupted:      res.Interrupted,
			WorkersLost:      res.Stats.WorkersLost,
			WorkersRespawned: res.Stats.WorkersRespawned,
			Rebalances:       res.Stats.Rebalances,
		}, nil
	}

	rep := &RecoveryReport{
		Note:        "worker-loss recovery: fold-only (PR 4) vs respawn at equal iteration budget, one CLW host killed mid-run; regenerate with: ptsbench -recovery",
		GoVersion:   runtime.Version(),
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Circuit:     o.Circuit,
		WorkScale:   o.WorkScale,
		GlobalIters: o.GlobalIters,
		LocalIters:  o.LocalIters,
		KillRound:   o.KillRound,
		Seed:        o.Seed,
	}
	if rep.FoldOnly, err = run(true); err != nil {
		return nil, err
	}
	if rep.Respawn, err = run(false); err != nil {
		return nil, err
	}
	if rep.Respawn.WallSeconds > 0 {
		rep.Speedup = rep.FoldOnly.WallSeconds / rep.Respawn.WallSeconds
	}
	return rep, nil
}

// RenderRecovery formats the report for the terminal.
func RenderRecovery(rep *RecoveryReport) string {
	out := fmt.Sprintf("recovery scenario: %s, 1 TSW x 3 CLW hosts, kill one CLW host at round %d/%d, workscale %.0f\n",
		rep.Circuit, rep.KillRound, rep.GlobalIters, rep.WorkScale)
	side := func(name string, s RecoverySide) string {
		return fmt.Sprintf("  %-9s %8.3fs wall   best %.4f   lost %d respawned %d (%d rebalances)\n",
			name, s.WallSeconds, s.BestCost, s.WorkersLost, s.WorkersRespawned, s.Rebalances)
	}
	out += side("fold-only", rep.FoldOnly)
	out += side("respawn", rep.Respawn)
	out += fmt.Sprintf("  speedup   %.2fx wall time from restoring parallelism at equal budget\n", rep.Speedup)
	return out
}

// WriteRecovery writes the report as <dir>/BENCH_recovery.json.
func WriteRecovery(rep *RecoveryReport, dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "BENCH_recovery.json")
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return "", err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", err
	}
	return path, nil
}
