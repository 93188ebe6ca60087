package pts

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// startServerFleet stands up a Server plus n resolver-equipped worker
// goroutines (the in-test stand-ins for `pts -worker -any` processes)
// and an httptest front door. The returned stop function drains the
// workers gracefully.
func startServerFleet(t *testing.T, n int) (*Server, *httptest.Server, func()) {
	t.Helper()
	srv, err := ListenServer(ServerOptions{Logf: t.Logf})
	if err != nil {
		t.Fatalf("ListenServer: %v", err)
	}
	drain := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			err := Worker(context.Background(), nil, srv.FleetAddr(),
				NodeOptions{Name: fmt.Sprintf("fleet%d", i), Drain: drain}, 0, nil)
			if err != nil {
				t.Errorf("worker %d: %v", i, err)
			}
		}(i)
	}
	deadline := time.Now().Add(10 * time.Second)
	for len(srv.Workers()) < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d workers joined", len(srv.Workers()), n)
		}
		time.Sleep(5 * time.Millisecond)
	}
	hts := httptest.NewServer(srv.Handler())
	stop := func() {
		hts.Close()
		close(drain)
		wg.Wait()
		srv.Close()
	}
	return srv, hts, stop
}

// submitJSON posts a job and decodes the created view.
func submitJSON(t *testing.T, hts *httptest.Server, body string) string {
	t.Helper()
	resp, err := http.Post(hts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	var v struct {
		ID     string `json:"id"`
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decode submit response: %v", err)
	}
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit status = %d (%+v)", resp.StatusCode, v)
	}
	return v.ID
}

// jobView is the slice of the daemon's job view these tests consume.
type jobView struct {
	ID     string `json:"id"`
	Status string `json:"status"`
	Error  string `json:"error"`
	Result *struct {
		Problem     string  `json:"Problem"`
		BestCost    float64 `json:"BestCost"`
		BestPerm    []int32 `json:"BestPerm"`
		InitialCost float64 `json:"InitialCost"`
		Rounds      int     `json:"Rounds"`
		Interrupted bool    `json:"Interrupted"`
	} `json:"result"`
}

// waitJob polls GET /v1/jobs/{id} until the job is terminal.
func waitJob(t *testing.T, hts *httptest.Server, id string, timeout time.Duration) jobView {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		resp, err := http.Get(hts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatalf("GET job %s: %v", id, err)
		}
		var v jobView
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatalf("decode job %s: %v", id, err)
		}
		resp.Body.Close()
		switch v.Status {
		case "done", "failed", "cancelled":
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q", id, v.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServerSingleJobMatchesSolve is the daemon's reproducibility
// acceptance gate: a static fixed-seed half-sync-off job submitted over
// HTTP to a 2-worker daemon fleet returns bit-identically the result of
// the plain pts.Solve real-mode run of the same configuration.
func TestServerSingleJobMatchesSolve(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed loopback run")
	}
	baseOpts := []Option{
		WithWorkers(2, 1),
		WithIterations(4, 10),
		WithTabu(10, 6, 3),
		WithSeed(7),
		WithHalfSync(false),
		WithRealTime(),
	}
	p, err := PlacementBenchmark("highway")
	if err != nil {
		t.Fatal(err)
	}
	want, err := Solve(context.Background(), p, baseOpts...)
	if err != nil {
		t.Fatal(err)
	}

	_, hts, stop := startServerFleet(t, 2)
	defer stop()
	id := submitJSON(t, hts, `{
	  "problem": {"kind": "placement", "circuit": "highway"},
	  "workers": 2,
	  "config": {"tsws": 2, "clws": 1, "global_iters": 4, "local_iters": 10,
	             "tenure": 10, "trials": 6, "depth": 3, "seed": 7, "half_sync": false}
	}`)
	got := waitJob(t, hts, id, time.Minute)
	if got.Status != "done" || got.Result == nil {
		t.Fatalf("daemon job = %+v, want done with result", got)
	}
	if got.Result.BestCost != want.BestCost {
		t.Errorf("best cost differs: daemon %.9f, Solve %.9f", got.Result.BestCost, want.BestCost)
	}
	if !reflect.DeepEqual(got.Result.BestPerm, want.Best) {
		t.Error("best permutation differs between daemon and Solve runs")
	}
	if got.Result.Rounds != want.Rounds || got.Result.Interrupted {
		t.Errorf("daemon rounds/interrupted = %d/%v, want %d/false",
			got.Result.Rounds, got.Result.Interrupted, want.Rounds)
	}
}

// TestServerConcurrentJobsShareFleet drives three jobs — two placement,
// one QAP — through a 3-worker fleet at once (one worker each) and
// checks they all complete, that at least two genuinely overlapped in
// time, and that the per-job SSE stream carries one progress event per
// global iteration.
func TestServerConcurrentJobsShareFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed loopback run")
	}
	_, hts, stop := startServerFleet(t, 3)
	defer stop()

	body := func(problem string) string {
		return fmt.Sprintf(`{
		  "problem": %s,
		  "workers": 1,
		  "config": {"tsws": 1, "clws": 2, "global_iters": 3, "local_iters": 8,
		             "seed": 5, "half_sync": false}
		}`, problem)
	}
	ids := []string{
		submitJSON(t, hts, body(`{"kind": "placement", "circuit": "highway"}`)),
		submitJSON(t, hts, body(`{"kind": "placement", "circuit": "c532"}`)),
		submitJSON(t, hts, body(`{"kind": "qap", "n": 20, "seed": 3}`)),
	}

	// With three 1-worker jobs on a 3-worker fleet, all three must be
	// admitted without queueing.
	var running int
	deadline := time.Now().Add(10 * time.Second)
	for running < 2 && time.Now().Before(deadline) {
		running = 0
		resp, err := http.Get(hts.URL + "/v1/jobs")
		if err != nil {
			t.Fatal(err)
		}
		var list struct {
			Jobs []jobView `json:"jobs"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		done := 0
		for _, j := range list.Jobs {
			switch j.Status {
			case "running":
				running++
			case "done":
				done++
			}
		}
		if done == len(ids) { // too fast to observe overlap; fine
			break
		}
		time.Sleep(2 * time.Millisecond)
	}

	for i, id := range ids {
		v := waitJob(t, hts, id, time.Minute)
		if v.Status != "done" || v.Result == nil || v.Result.Interrupted {
			t.Fatalf("job %d (%s) = %+v, want clean completion", i, id, v)
		}
		if v.Result.BestCost > v.Result.InitialCost {
			t.Errorf("job %d did not improve: %v -> %v", i, v.Result.InitialCost, v.Result.BestCost)
		}
	}

	// The event stream of a finished job replays queued..done with one
	// progress event per global iteration.
	resp, err := http.Get(hts.URL + "/v1/jobs/" + ids[0] + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var progress, terminal int
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		switch line := sc.Text(); line {
		case "event: progress":
			progress++
		case "event: done":
			terminal++
		}
	}
	if progress != 3 || terminal != 1 {
		t.Errorf("SSE replay: %d progress + %d done events, want 3 + 1", progress, terminal)
	}
}

// TestServerQAPJobMatchesSolve pins the QAP resolver path: the daemon's
// QAP job equals the plain Solve run of the identical instance.
func TestServerQAPJobMatchesSolve(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed loopback run")
	}
	want, err := Solve(context.Background(), RandomQAP(22, 9),
		WithWorkers(2, 1), WithIterations(3, 10), WithSeed(4),
		WithHalfSync(false), WithRealTime())
	if err != nil {
		t.Fatal(err)
	}
	_, hts, stop := startServerFleet(t, 2)
	defer stop()
	id := submitJSON(t, hts, `{
	  "problem": {"kind": "qap", "n": 22, "seed": 9},
	  "workers": 2,
	  "config": {"tsws": 2, "clws": 1, "global_iters": 3, "local_iters": 10,
	             "seed": 4, "half_sync": false}
	}`)
	got := waitJob(t, hts, id, time.Minute)
	if got.Status != "done" || got.Result == nil {
		t.Fatalf("daemon job = %+v, want done", got)
	}
	if got.Result.BestCost != want.BestCost || !reflect.DeepEqual(got.Result.BestPerm, want.Best) {
		t.Errorf("daemon QAP best %.9f differs from Solve %.9f (or permutation differs)",
			got.Result.BestCost, want.BestCost)
	}
}

// TestServerFlowShopJobMatchesSolve pins the scheduling resolver path:
// a flow shop job submitted over HTTP to a resolver-equipped fleet
// returns bit-identically the plain Solve run of the same embedded
// instance — the master and both workers each construct ta001 from its
// name alone, and the fingerprint handshake proves they built the same
// schedule matrix.
func TestServerFlowShopJobMatchesSolve(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed loopback run")
	}
	prob, err := FlowShopBenchmark("ta001")
	if err != nil {
		t.Fatal(err)
	}
	want, err := Solve(context.Background(), prob,
		WithWorkers(2, 1), WithIterations(3, 10), WithSeed(4),
		WithHalfSync(false), WithRealTime())
	if err != nil {
		t.Fatal(err)
	}
	_, hts, stop := startServerFleet(t, 2)
	defer stop()
	id := submitJSON(t, hts, `{
	  "problem": {"kind": "flowshop", "instance": "ta001"},
	  "workers": 2,
	  "config": {"tsws": 2, "clws": 1, "global_iters": 3, "local_iters": 10,
	             "seed": 4, "half_sync": false}
	}`)
	got := waitJob(t, hts, id, time.Minute)
	if got.Status != "done" || got.Result == nil {
		t.Fatalf("daemon job = %+v, want done", got)
	}
	if got.Result.BestCost != want.BestCost || !reflect.DeepEqual(got.Result.BestPerm, want.Best) {
		t.Errorf("daemon flow shop best %.0f differs from Solve %.0f (or permutation differs)",
			got.Result.BestCost, want.BestCost)
	}
}

// TestServerJobShopBadInstanceRefused covers the resolver's error path:
// a submission naming a nonexistent embedded instance is refused at the
// front door with the bad_spec envelope, before anything is queued.
func TestServerJobShopBadInstanceRefused(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed loopback run")
	}
	_, hts, stop := startServerFleet(t, 1)
	defer stop()
	resp, err := http.Post(hts.URL+"/v1/jobs", "application/json", strings.NewReader(`{
	  "problem": {"kind": "jobshop", "instance": "zz99"},
	  "workers": 0,
	  "config": {"tsws": 2, "clws": 1, "global_iters": 1, "local_iters": 5}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || v.Error.Code != "bad_spec" {
		t.Fatalf("unknown instance submission = %d %q, want 400 bad_spec", resp.StatusCode, v.Error.Code)
	}
	if !strings.Contains(v.Error.Message, "zz99") {
		t.Errorf("refusal %q does not name the unknown instance", v.Error.Message)
	}
}

// TestServerQAPSizeBounded: a QAP spec one past maxQAPSize is refused at
// submit with the bad_spec envelope, before its n×n matrices are built.
func TestServerQAPSizeBounded(t *testing.T) {
	_, hts, stop := startServerFleet(t, 0)
	defer stop()
	body := fmt.Sprintf(`{"problem": {"kind": "qap", "n": %d, "seed": 1}, "workers": 0}`, maxQAPSize+1)
	resp, err := http.Post(hts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || v.Error.Code != "bad_spec" {
		t.Fatalf("n=%d submission = %d %q, want 400 bad_spec", maxQAPSize+1, resp.StatusCode, v.Error.Code)
	}
}
