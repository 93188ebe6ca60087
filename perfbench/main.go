// Command perfbench is the repository's end-to-end benchmark. It runs
// one named workload against the public entry points (pts.Solve, or
// pts.ListenServer with pts.Worker fleet workers behind its HTTP API)
// for a fixed number of seconds, checks every output, and prints the
// metrics BENCHMARK.json declares: the end-to-end metrics with
// -trace 0, the per-layer metrics of a separate traced run with
// -trace 1. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 12, "failed": 0, "metrics": {"wall_s": {"value": 1.52, "unit": "s"}, ...}}
//
// Run it from the repository root through perfbench/run.sh, which
// builds it:
//
//	bash perfbench/run.sh --workload c1355-virtual --seed 1 --seconds 25 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"pts"
)

// setupReps is how many times a run sets its workload up; setup_s is
// the median.
const setupReps = 51

// warmUpTime is how long a run exercises its workload untimed before
// measuring anything, so lazy initialisation and a CPU coming out of
// idle do not land in the first measurements.
const warmUpTime = time.Second

// runConfig is one invocation's parameters.
type runConfig struct {
	seed    uint64
	seconds time.Duration
	trace   bool
}

// workload runs one benchmark workload.
type workload interface {
	run(cfg runConfig) (*report, error)
}

var workloads = map[string]workload{
	"c1355-virtual": c1355Virtual,
	"ta001-virtual": ta001Virtual,
	"serve-small":   serveWorkload{durable: false},
	"serve-durable": serveWorkload{durable: true},
}

// report is what a workload measured: how many solves or jobs it
// attempted, how many failed (errored, were refused, ended other than
// done, or failed an output check), run-level check failures, and
// every metric it computed.
type report struct {
	attempted, failed int
	flags             []string // run-level check failures
	notes             []string // first few per-unit failures
	samples           string   // sample counts behind the metrics
	metrics           map[string]float64
}

func newReport() *report { return &report{metrics: map[string]float64{}} }

func (r *report) set(name string, v float64) { r.metrics[name] = v }

// fail counts one failed solve or job.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.notes) < 10 {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

// flag records a run-level check failure.
func (r *report) flag(format string, args ...any) {
	r.flags = append(r.flags, fmt.Sprintf(format, args...))
}

// searchStats sets the core and tabu counters, per solve or job.
func searchStats(rep *report, rs []pts.WorkerStats) {
	var iters, built, accepted, rejected, asp, forced float64
	for _, r := range rs {
		iters += float64(r.LocalIters)
		built += float64(r.CandidatesBuilt)
		accepted += float64(r.MovesAccepted)
		rejected += float64(r.TabuRejected)
		asp += float64(r.Aspirations)
		forced += float64(r.ForcedReports)
	}
	n := float64(len(rs))
	rep.set("core.forced_reports", ratio(forced, n))
	rep.set("core.local_iters", ratio(iters, n))
	rep.set("tabu.accept_ratio", ratio(accepted, built))
	rep.set("tabu.tabu_rejected", ratio(rejected, n))
	rep.set("tabu.aspirations", ratio(asp, n))
}

// declFile declares the benchmark's metrics; perfbench runs from the
// repository root, where it lives.
const declFile = "BENCHMARK.json"

// declaration is the part of BENCHMARK.json the output must match.
type declaration struct {
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

type metricDecl struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "workload to run: c1355-virtual, ta001-virtual, serve-small or serve-durable")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "how long to measure, in seconds")
	trace := flag.Int("trace", 0, "1 for the traced run that reports per-layer metrics")
	pin := flag.Bool("pin", false, "print the pinned best costs of the solve workloads as Go source and exit")
	flag.Parse()

	if *pin {
		return printPins()
	}
	w, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	data, err := os.ReadFile(declFile)
	if err != nil {
		return err
	}
	var decl declaration
	if err := json.Unmarshal(data, &decl); err != nil {
		return fmt.Errorf("%s: %w", declFile, err)
	}
	want := decl.EndToEnd
	if *trace == 1 {
		want = decl.PerLayer
	}
	rep, err := w.run(runConfig{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
	})
	if err != nil {
		return err
	}

	out := resultOut{
		Correct:   rep.failed == 0 && len(rep.flags) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metricOut{},
	}
	for _, m := range want {
		v, ok := rep.metrics[m.Name]
		if !ok {
			return fmt.Errorf("workload %s computed no %s", *name, m.Name)
		}
		out.Metrics[m.Name] = metricOut{Value: v, Unit: m.Unit}
	}
	if extra := undeclared(rep.metrics, decl); len(extra) > 0 {
		return fmt.Errorf("workload %s computed undeclared metrics %s", *name, strings.Join(extra, ", "))
	}
	if rep.attempted == 0 {
		return fmt.Errorf("workload %s attempted nothing", *name)
	}

	fmt.Printf("workload %s seed %d: %s\n", *name, *seed, rep.samples)
	for _, n := range rep.notes {
		fmt.Printf("FAILED: %s\n", n)
	}
	for _, f := range rep.flags {
		fmt.Printf("CHECK FAILED: %s\n", f)
	}
	fmt.Printf("%-36s %.6g\n", "failed_ratio", float64(rep.failed)/float64(rep.attempted))
	for _, m := range want {
		fmt.Printf("%-36s %.6g %s\n", m.Name, out.Metrics[m.Name].Value, m.Unit)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// undeclared lists the computed metrics BENCHMARK.json does not name.
func undeclared(got map[string]float64, decl declaration) []string {
	known := map[string]bool{}
	for _, m := range append(append([]metricDecl(nil), decl.EndToEnd...), decl.PerLayer...) {
		known[m.Name] = true
	}
	var out []string
	for n := range got {
		if !known[n] {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}
