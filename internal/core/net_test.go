package core

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"pts/internal/cluster"
	"pts/internal/cost"
	"pts/internal/netlist"
	"pts/internal/pvm"
	"pts/internal/store"
)

// testProblem builds a small placement problem for transport tests.
func testProblem(cfg Config) Problem {
	return cost.NewPlacementProblem(netlist.MustBenchmark("highway"), cfg.Utilization, cfg.Cost)
}

// abortingTransport simulates a distributed run whose worker died
// before anything happened: Run never executes root and reports an
// abort, the way nettrans does after a node loss.
type abortingTransport struct{ ran bool }

func (a *abortingTransport) Run(opts pvm.Options, root pvm.TaskFunc) (float64, error) {
	a.ran = true
	return 0.25, fmt.Errorf("worker \"w0\" lost: %w", pvm.ErrAborted)
}

func TestTransportAbortReportsInterrupted(t *testing.T) {
	cfg := DefaultConfig()
	prob := testProblem(cfg)
	cfg.GlobalIters, cfg.LocalIters = 2, 5
	tr := &abortingTransport{}
	cfg.Transport = tr
	res, err := RunProblem(context.Background(), prob, cluster.Homogeneous(4, 1), cfg, Real)
	if err != nil {
		t.Fatalf("an aborted run must still report best-so-far, got error %v", err)
	}
	if !tr.ran {
		t.Fatal("transport was not used")
	}
	if !res.Interrupted {
		t.Error("Interrupted not set after transport abort")
	}
	if res.BestCost != res.InitialCost || res.BestPerm == nil {
		t.Errorf("best-so-far should be the initial solution, got cost %v", res.BestCost)
	}
}

func TestVirtualModeIgnoresTransport(t *testing.T) {
	cfg := DefaultConfig()
	prob := testProblem(cfg)
	cfg.GlobalIters, cfg.LocalIters = 2, 5
	tr := &abortingTransport{}
	cfg.Transport = tr
	res, err := RunProblem(context.Background(), prob, cluster.Homogeneous(4, 1), cfg, Virtual)
	if err != nil {
		t.Fatal(err)
	}
	if tr.ran {
		t.Error("virtual mode must not touch the transport")
	}
	if res.Interrupted {
		t.Error("virtual run reported interrupted")
	}
}

func TestWireConfigRoundTrip(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TSWs, cfg.CLWs = 5, 3
	cfg.HalfSync = false
	cfg.Assignment = AssignBlocked
	cfg.PerTSW = []Tuning{{Trials: 9}, {Depth: 2, Tenure: 7}}
	cfg.Seed = 42
	cfg.ProblemSpec = &ProblemSpec{Kind: "flowshop", Instance: "ta001"}
	// Process-local fields must not survive the wire...
	cfg.Progress = func(Snapshot) {}
	cfg.Transport = &abortingTransport{}
	cfg.Store = store.NewMem()

	// ...gob-encoded exactly as nettrans ships a job payload.
	var sent any = jobPayload{Problem: "p", Size: 7, InitialCost: 1.5, Cfg: cfg.shipped()}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&sent); err != nil {
		t.Fatal(err)
	}
	var recv any
	if err := gob.NewDecoder(&buf).Decode(&recv); err != nil {
		t.Fatal(err)
	}
	jp, ok := recv.(jobPayload)
	if !ok {
		t.Fatalf("decoded %T, want jobPayload", recv)
	}
	got := jp.Cfg
	want := cfg
	want.Progress = nil
	want.Transport = nil
	want.Store = nil
	want.Durable = true // the store's discipline crosses without the store
	if !reflect.DeepEqual(got, want) {
		t.Errorf("wire round trip mangled the config:\ngot  %+v\nwant %+v", got, want)
	}
	if jp.Problem != "p" || jp.Size != 7 || jp.InitialCost != 1.5 {
		t.Errorf("wire round trip mangled the fingerprint: %+v", jp)
	}
}

func TestWorkerHandlerRefusesMismatchedProblem(t *testing.T) {
	cfg := DefaultConfig()
	h := &workerHandler{prob: testProblem(cfg)}
	st, err := h.prob.Initial(cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	good := jobPayload{
		Problem:     h.prob.Name(),
		Size:        h.prob.Size(),
		InitialCost: st.Cost(),
		Cfg:         cfg.shipped(),
	}
	if _, err := h.Start(good); err != nil {
		t.Fatalf("matching job refused: %v", err)
	}

	bad := good
	bad.Size = good.Size + 1
	_, err = h.Start(bad)
	if err == nil || !strings.Contains(err.Error(), "this worker built") {
		t.Errorf("mismatched size accepted (err = %v)", err)
	}

	// Same name and size but different instance content: the initial
	// cost is the discriminator (e.g. RandomQAP with another seed).
	impostor := good
	impostor.InitialCost = good.InitialCost * 1.5
	_, err = h.Start(impostor)
	if err == nil || !strings.Contains(err.Error(), "does not reproduce") {
		t.Errorf("mismatched instance data accepted (err = %v)", err)
	}

	if _, err := h.Start("nonsense"); err == nil {
		t.Error("garbage payload accepted")
	}
}
