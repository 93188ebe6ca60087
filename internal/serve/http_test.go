package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// newTestServer stands up the HTTP front door over a fake fleet; the
// default (real, in-process) runner is kept unless runJob overrides it.
func newTestServer(t *testing.T, workers, queueDepth int) (*httptest.Server, *Scheduler, *fakeFleet) {
	t.Helper()
	fleet := newFakeFleet(workers)
	s := newTestScheduler(t, fleet, queueDepth, nil)
	srv := httptest.NewServer(NewAPI(s).Handler())
	t.Cleanup(srv.Close)
	return srv, s, fleet
}

func postJob(t *testing.T, srv *httptest.Server, body string) (*http.Response, View) {
	t.Helper()
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	var v View
	raw := new(bytes.Buffer)
	if _, err := raw.ReadFrom(resp.Body); err != nil {
		t.Fatalf("read response: %v", err)
	}
	if resp.StatusCode == http.StatusCreated {
		if err := json.Unmarshal(raw.Bytes(), &v); err != nil {
			t.Fatalf("decode job view: %v (%s)", err, raw)
		}
	}
	return resp, v
}

const tinyJobBody = `{
  "problem": {"kind": "placement", "circuit": "highway"},
  "workers": 1,
  "config": {"tsws": 1, "clws": 1, "global_iters": 3, "local_iters": 2, "half_sync": false}
}`

// decodeErr parses the uniform error envelope and returns its machine
// code, failing the test when the envelope shape is off.
func decodeErr(t *testing.T, raw []byte) string {
	t.Helper()
	var body struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.Unmarshal(raw, &body); err != nil {
		t.Fatalf("decode error envelope: %v (%s)", err, raw)
	}
	if body.Error.Code == "" || body.Error.Message == "" {
		t.Fatalf("error envelope incomplete: %s", raw)
	}
	return body.Error.Code
}

// doErr performs req and returns the status plus the envelope code.
func doErr(t *testing.T, req *http.Request) (int, string) {
	t.Helper()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", req.Method, req.URL, err)
	}
	defer resp.Body.Close()
	raw := new(bytes.Buffer)
	if _, err := raw.ReadFrom(resp.Body); err != nil {
		t.Fatalf("read response: %v", err)
	}
	return resp.StatusCode, decodeErr(t, raw.Bytes())
}

// postErr submits body and returns the status plus the envelope code.
func postErr(t *testing.T, srv *httptest.Server, body string) (int, string) {
	t.Helper()
	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/jobs", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	return doErr(t, req)
}

// getErr fetches path and returns the status plus the envelope code.
func getErr(t *testing.T, srv *httptest.Server, path string) (int, string) {
	t.Helper()
	req, _ := http.NewRequest(http.MethodGet, srv.URL+path, nil)
	return doErr(t, req)
}

func TestHTTPSubmitGetListLifecycle(t *testing.T) {
	srv, _, _ := newTestServer(t, 2, 4)

	resp, v := postJob(t, srv, tinyJobBody)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit status = %d, want 201", resp.StatusCode)
	}
	if v.ID == "" || v.Workers != 1 || v.Spec.Circuit != "highway" {
		t.Fatalf("job view = %+v", v)
	}

	// Poll GET /v1/jobs/{id} until done; the result must ride along.
	deadline := time.After(30 * time.Second)
	var got View
	for {
		r, err := http.Get(srv.URL + "/v1/jobs/" + v.ID)
		if err != nil {
			t.Fatalf("GET job: %v", err)
		}
		if err := json.NewDecoder(r.Body).Decode(&got); err != nil {
			t.Fatalf("decode job: %v", err)
		}
		r.Body.Close()
		if got.Status == "done" {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("job stuck in %q", got.Status)
		case <-time.After(5 * time.Millisecond):
		}
	}
	if got.Result == nil || got.Result.Rounds != 3 || got.Result.Problem != "highway" {
		t.Fatalf("terminal result = %+v, want 3 rounds on highway", got.Result)
	}

	// The list endpoint reports the job without the result payload.
	r, err := http.Get(srv.URL + "/v1/jobs")
	if err != nil {
		t.Fatalf("GET jobs: %v", err)
	}
	var list struct {
		Jobs []View `json:"jobs"`
	}
	if err := json.NewDecoder(r.Body).Decode(&list); err != nil {
		t.Fatalf("decode list: %v", err)
	}
	r.Body.Close()
	if len(list.Jobs) != 1 || list.Jobs[0].ID != v.ID || list.Jobs[0].Result != nil {
		t.Fatalf("list = %+v, want one result-free entry for %s", list.Jobs, v.ID)
	}

	// Unknown job: 404.
	r, err = http.Get(srv.URL + "/v1/jobs/nope")
	if err != nil {
		t.Fatalf("GET unknown: %v", err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job status = %d, want 404", r.StatusCode)
	}
}

func TestHTTPStatusCodes(t *testing.T) {
	srv, s, _ := newTestServer(t, 1, 1)

	// Workers beyond the fleet: 409 never_admissible.
	if st, code := postErr(t, srv, `{"problem": {"kind": "placement", "circuit": "highway"}, "workers": 5}`); st != http.StatusConflict || code != "never_admissible" {
		t.Fatalf("inadmissible = %d %q, want 409 never_admissible", st, code)
	}
	// Malformed JSON: 400 bad_spec.
	if st, code := postErr(t, srv, `{"problem": `); st != http.StatusBadRequest || code != "bad_spec" {
		t.Fatalf("malformed = %d %q, want 400 bad_spec", st, code)
	}
	// Unknown field: 400 bad_spec.
	if st, code := postErr(t, srv, `{"problem": {"kind": "placement", "circuit": "highway"}, "wrokers": 1}`); st != http.StatusBadRequest || code != "bad_spec" {
		t.Fatalf("unknown-field = %d %q, want 400 bad_spec", st, code)
	}
	// Search sizes over their bounds: 400 bad_spec.
	for _, c := range []struct {
		key string
		val int
	}{
		{"tsws", maxTSWs + 1},
		{"clws", maxCLWs + 1},
		{"global_iters", maxGlobalIters + 1},
		{"local_iters", maxLocalIters + 1},
		{"trials", maxTrials + 1},
		{"depth", maxDepth + 1},
	} {
		body := fmt.Sprintf(`{"problem": {"kind": "placement", "circuit": "highway"}, "config": {%q: %d}}`, c.key, c.val)
		if st, code := postErr(t, srv, body); st != http.StatusBadRequest || code != "bad_spec" {
			t.Fatalf("%s over its bound = %d %q, want 400 bad_spec", c.key, st, code)
		}
	}
	// Body over maxSubmitBytes: 413 too_large.
	huge := `{"problem": {"kind": "placement", "circuit": "` + strings.Repeat("a", maxSubmitBytes) + `"}}`
	if st, code := postErr(t, srv, huge); st != http.StatusRequestEntityTooLarge || code != "too_large" {
		t.Fatalf("oversized = %d %q, want 413 too_large", st, code)
	}
	// Unknown job: 404 not_found.
	if st, code := getErr(t, srv, "/v1/jobs/nope"); st != http.StatusNotFound || code != "not_found" {
		t.Fatalf("unknown job = %d %q, want 404 not_found", st, code)
	}
	// Fill the single-slot queue behind a held runner, then overflow: 429.
	started := make(chan string, 4)
	runner, step := blockingRunner(started)
	s.runJob = runner
	resp, v1 := postJob(t, srv, tinyJobBody)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("running job status = %d", resp.StatusCode)
	}
	<-started
	resp, _ = postJob(t, srv, tinyJobBody) // fills the depth-1 queue
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("queued job status = %d", resp.StatusCode)
	}
	if st, code := postErr(t, srv, tinyJobBody); st != http.StatusTooManyRequests || code != "queue_full" {
		t.Fatalf("overflow = %d %q, want 429 queue_full", st, code)
	}
	// DELETE the running job: 200, then a second DELETE conflicts: 409
	// terminal.
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+v1.ID, nil)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("cancel status = %d, want 200", resp2.StatusCode)
	}
	j, _ := s.Get(v1.ID)
	waitStatus(t, j, Cancelled)
	req2, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+v1.ID, nil)
	if st, code := doErr(t, req2); st != http.StatusConflict || code != "terminal" {
		t.Fatalf("re-cancel = %d %q, want 409 terminal", st, code)
	}
	<-started // the queued job takes the slot
	step()    // and is allowed to finish
}

// listPage fetches GET /v1/jobs with query and returns ids plus the
// next_after cursor ("" when the page is complete).
func listPage(t *testing.T, srv *httptest.Server, query string) ([]string, string) {
	t.Helper()
	r, err := http.Get(srv.URL + "/v1/jobs" + query)
	if err != nil {
		t.Fatalf("GET jobs%s: %v", query, err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("GET jobs%s status = %d", query, r.StatusCode)
	}
	var page struct {
		Jobs      []View `json:"jobs"`
		NextAfter string `json:"next_after"`
	}
	if err := json.NewDecoder(r.Body).Decode(&page); err != nil {
		t.Fatalf("decode list: %v", err)
	}
	ids := make([]string, len(page.Jobs))
	for i, v := range page.Jobs {
		ids[i] = v.ID
	}
	return ids, page.NextAfter
}

func TestHTTPListFilterAndPagination(t *testing.T) {
	srv, s, _ := newTestServer(t, 1, 8)
	started := make(chan string, 8)
	runner, step := blockingRunner(started)
	s.runJob = runner

	// One running job holds the single worker; two more queue behind it.
	var ids []string
	for i := 0; i < 3; i++ {
		resp, v := postJob(t, srv, tinyJobBody)
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("submit %d status = %d", i, resp.StatusCode)
		}
		ids = append(ids, v.ID)
	}
	<-started

	if got, next := listPage(t, srv, ""); len(got) != 3 || next != "" {
		t.Fatalf("unfiltered list = %v next %q", got, next)
	}
	if got, _ := listPage(t, srv, "?status=running"); len(got) != 1 || got[0] != ids[0] {
		t.Fatalf("running filter = %v, want [%s]", got, ids[0])
	}
	if got, _ := listPage(t, srv, "?status=queued"); len(got) != 2 || got[0] != ids[1] || got[1] != ids[2] {
		t.Fatalf("queued filter = %v, want %v", got, ids[1:])
	}
	if got, _ := listPage(t, srv, "?status=done"); len(got) != 0 {
		t.Fatalf("done filter = %v, want empty", got)
	}
	// Pagination walks the stable id order.
	got, next := listPage(t, srv, "?limit=2")
	if len(got) != 2 || got[0] != ids[0] || got[1] != ids[1] || next != ids[1] {
		t.Fatalf("page 1 = %v next %q", got, next)
	}
	got, next = listPage(t, srv, "?limit=2&after="+next)
	if len(got) != 1 || got[0] != ids[2] || next != "" {
		t.Fatalf("page 2 = %v next %q", got, next)
	}
	// Filters compose with the cursor.
	if got, _ := listPage(t, srv, "?status=queued&after="+ids[1]); len(got) != 1 || got[0] != ids[2] {
		t.Fatalf("filtered page = %v, want [%s]", got, ids[2])
	}
	// Malformed parameters: 400 bad_request.
	for _, q := range []string{"?status=bogus", "?limit=0", "?limit=x", "?after=nope"} {
		if st, code := getErr(t, srv, "/v1/jobs"+q); st != http.StatusBadRequest || code != "bad_request" {
			t.Fatalf("%s = %d %q, want 400 bad_request", q, st, code)
		}
	}

	for i := 0; i < 3; i++ {
		step()
		if i < 2 {
			<-started
		}
	}
	j, _ := s.Get(ids[2])
	waitStatus(t, j, Done)
	if got, _ := listPage(t, srv, "?status=done"); len(got) != 3 {
		t.Fatalf("done filter after completion = %v, want all three", got)
	}
}

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	id    string
	event string
	data  string
}

// readSSE parses an SSE stream until it closes.
func readSSE(t *testing.T, resp *http.Response) []sseEvent {
	t.Helper()
	var out []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if cur.event != "" || cur.data != "" {
				out = append(out, cur)
			}
			cur = sseEvent{}
		case strings.HasPrefix(line, "id: "):
			cur.id = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		}
	}
	return out
}

func TestHTTPEventsStreamOnePerGlobalIteration(t *testing.T) {
	srv, _, _ := newTestServer(t, 1, 4)
	resp, v := postJob(t, srv, tinyJobBody)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}

	// Attach immediately: the stream replays from the start and follows
	// the live run to its terminal event.
	er, err := http.Get(srv.URL + "/v1/jobs/" + v.ID + "/events")
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	defer er.Body.Close()
	if ct := er.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	evs := readSSE(t, er)
	if len(evs) == 0 {
		t.Fatal("no events streamed")
	}
	var kinds []string
	progress := 0
	for _, e := range evs {
		kinds = append(kinds, e.event)
		if e.event == "progress" {
			progress++
			var body struct {
				Snapshot struct {
					Round  int `json:"Round"`
					Rounds int `json:"Rounds"`
				} `json:"snapshot"`
			}
			if err := json.Unmarshal([]byte(e.data), &body); err != nil {
				t.Fatalf("progress payload: %v (%s)", err, e.data)
			}
			if body.Snapshot.Round != progress || body.Snapshot.Rounds != 3 {
				t.Fatalf("progress %d reports round %d/%d", progress, body.Snapshot.Round, body.Snapshot.Rounds)
			}
		}
	}
	if progress != 3 {
		t.Fatalf("progress events = %d (%v), want one per global iteration (3)", progress, kinds)
	}
	if kinds[0] != "queued" || kinds[len(kinds)-1] != "done" {
		t.Fatalf("stream = %v, want queued..done", kinds)
	}

	// Resuming mid-log with ?after= replays only the tail.
	er2, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/events?after=%d", srv.URL, v.ID, len(evs)-2))
	if err != nil {
		t.Fatalf("GET events tail: %v", err)
	}
	defer er2.Body.Close()
	tail := readSSE(t, er2)
	if len(tail) != 1 || tail[0].event != "done" {
		t.Fatalf("tail = %+v, want just the terminal event", tail)
	}
}

func TestHTTPFleetAndHealth(t *testing.T) {
	srv, _, fleet := newTestServer(t, 3, 4)
	r, err := http.Get(srv.URL + "/v1/fleet")
	if err != nil {
		t.Fatalf("GET fleet: %v", err)
	}
	var fs struct {
		Total   int        `json:"total"`
		Free    int        `json:"free"`
		Queued  int        `json:"queued"`
		Workers []NodeInfo `json:"workers"`
	}
	if err := json.NewDecoder(r.Body).Decode(&fs); err != nil {
		t.Fatalf("decode fleet: %v", err)
	}
	r.Body.Close()
	if fs.Total != 3 || fs.Free != fleet.FreeWorkers() || len(fs.Workers) != 3 {
		t.Fatalf("fleet = %+v", fs)
	}

	r, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET healthz: %v", err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d", r.StatusCode)
	}
	var h map[string]any
	if err := json.NewDecoder(r.Body).Decode(&h); err != nil {
		t.Fatalf("decode healthz: %v", err)
	}
	if h["status"] != "ok" {
		t.Fatalf("healthz = %v", h)
	}
}
