package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"
)

func postJob(t *testing.T, ts *httptest.Server, spec Spec) *http.Response {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decode[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decode %T: %v", v, err)
	}
	return v
}

// TestHTTPSubmitAndPoll drives the happy path end to end over HTTP:
// 202 + Location on submit, polled GET converging to state=done with a
// result, the jobs listing, the programs listing, /metrics exposing the
// serve.* series, and /healthz.
func TestHTTPSubmitAndPoll(t *testing.T) {
	s := mustNew(t, Config{Shards: 2})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp := postJob(t, ts, libsafeSpec("http"))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	loc := resp.Header.Get("Location")
	st := decode[JobStatus](t, resp)
	if loc != "/v1/jobs/"+st.ID {
		t.Errorf("Location = %q, want /v1/jobs/%s", loc, st.ID)
	}

	deadline := time.Now().Add(60 * time.Second)
	for st.State != StateDone {
		if st.State == StateFailed {
			t.Fatalf("job failed: %s", st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in state %q", st.State)
		}
		time.Sleep(2 * time.Millisecond)
		r, err := ts.Client().Get(ts.URL + loc)
		if err != nil {
			t.Fatal(err)
		}
		st = decode[JobStatus](t, r)
	}
	if st.Result == nil || st.Result.SummaryText == "" {
		t.Fatal("done job has no summary")
	}

	jobs := decode[[]JobStatus](t, mustGet(t, ts, "/v1/jobs"))
	if len(jobs) != 1 || jobs[0].ID != st.ID {
		t.Errorf("jobs listing = %+v, want the one submitted job", jobs)
	}
	progs := decode[[]ProgramInfo](t, mustGet(t, ts, "/v1/programs"))
	if len(progs) != 1 || progs[0].Submissions != 1 {
		t.Errorf("programs listing = %+v, want one program with one submission", progs)
	}

	var metricsDoc struct {
		Counters []struct {
			Name  string `json:"name"`
			Value int64  `json:"value"`
		} `json:"counters"`
		Gauges []struct {
			Name  string  `json:"name"`
			Value float64 `json:"value"`
		} `json:"gauges"`
	}
	r := mustGet(t, ts, "/metrics")
	if err := json.NewDecoder(r.Body).Decode(&metricsDoc); err != nil {
		t.Fatalf("metrics decode: %v", err)
	}
	r.Body.Close()
	found := map[string]int64{}
	for _, c := range metricsDoc.Counters {
		found[c.Name] = c.Value
	}
	if found["serve.jobs_submitted"] != 1 || found["serve.jobs_completed"] != 1 {
		t.Errorf("metrics counters = %v, want serve.jobs_submitted=1 serve.jobs_completed=1", found)
	}
	if found["owl.detect_runs"] == 0 {
		t.Error("merged pipeline counter owl.detect_runs missing from /metrics")
	}
	hasQueueGauge := false
	for _, g := range metricsDoc.Gauges {
		if g.Name == "serve.queue_depth" {
			hasQueueGauge = true
		}
	}
	if !hasQueueGauge {
		t.Error("serve.queue_depth gauge missing from /metrics")
	}

	if hr := mustGet(t, ts, "/healthz"); hr.StatusCode != http.StatusOK {
		t.Errorf("healthz = %d, want 200", hr.StatusCode)
	}
}

func mustGet(t *testing.T, ts *httptest.Server, path string) *http.Response {
	t.Helper()
	r, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestHTTPRejectsRemovedOptions pins the 400 a submission still
// carrying a removed execution-path option gets: the compiled engine
// and the per-stage snapshot cache are not selectable, and the strict
// decoder names the offending field instead of silently ignoring it.
func TestHTTPRejectsRemovedOptions(t *testing.T) {
	s := mustNew(t, Config{Shards: 1})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for field, body := range map[string]string{
		"engine":     `{"workload":"libsafe","options":{"engine":"tree"}}`,
		"snap_cache": `{"workload":"libsafe","options":{"snap_cache":64}}`,
	} {
		resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("options.%s: status = %d, want 400", field, resp.StatusCode)
		}
		apiErr := decode[apiError](t, resp)
		if !strings.Contains(apiErr.Error, `"`+field+`"`) {
			t.Errorf("options.%s: error %q does not name the field", field, apiErr.Error)
		}
	}
	if n := len(s.Jobs()); n != 0 {
		t.Errorf("%d jobs admitted, want 0", n)
	}
}

// TestHTTPRejectsInvalidOptions sends the shared table of invalid option
// values (testdata/invalid-options.json, also sent to cmd/owl and
// cmd/owl-tables) to POST /v1/jobs. A case applies here when it carries
// a spec; each such case must get a 400 and admit no job.
func TestHTTPRejectsInvalidOptions(t *testing.T) {
	buf, err := os.ReadFile("../../testdata/invalid-options.json")
	if err != nil {
		t.Fatal(err)
	}
	var cases []struct {
		Name string
		Spec json.RawMessage
	}
	if err := json.Unmarshal(buf, &cases); err != nil {
		t.Fatal(err)
	}
	s := mustNew(t, Config{Shards: 1})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	applied := 0
	for _, c := range cases {
		if c.Spec == nil {
			continue
		}
		applied++
		resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(c.Spec))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", c.Name, resp.StatusCode)
		}
	}
	if applied == 0 {
		t.Error("no case applies to owl-serve")
	}
	if n := len(s.Jobs()); n != 0 {
		t.Errorf("%d jobs admitted, want 0", n)
	}
}

// TestHTTPBackpressure pins the wire shape of rejection: 429 with a
// Retry-After header for queue/quota pressure, 404 for unknown jobs,
// 400 for malformed specs, and 503 once draining.
func TestHTTPBackpressure(t *testing.T) {
	s := mustNew(t, Config{Shards: 1, QueueDepth: 1, RetryAfter: 2 * time.Second})
	release := gateRunJob(s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	r1 := postJob(t, ts, libsafeSpec("a"))
	if r1.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit = %d, want 202", r1.StatusCode)
	}
	st := decode[JobStatus](t, r1)

	r2 := postJob(t, ts, libsafeSpec("a"))
	if r2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second submit = %d, want 429", r2.StatusCode)
	}
	if ra := r2.Header.Get("Retry-After"); ra != "2" {
		t.Errorf("Retry-After = %q, want %q", ra, "2")
	}
	r2.Body.Close()

	if r := mustGet(t, ts, "/v1/jobs/nope"); r.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job = %d, want 404", r.StatusCode)
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed spec = %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()

	release()
	j, _ := s.Job(st.ID)
	waitJob(t, j)
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	r3 := postJob(t, ts, libsafeSpec("a"))
	if r3.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit while drained = %d, want 503", r3.StatusCode)
	}
	r3.Body.Close()
	if hr := mustGet(t, ts, "/healthz"); hr.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz while drained = %d, want 503", hr.StatusCode)
	}
}

// TestHTTPStream pins the SSE contract: the stream yields status events
// and closes after a final `done` event carrying the result; a stream
// opened after completion yields `done` immediately.
func TestHTTPStream(t *testing.T) {
	s := mustNew(t, Config{Shards: 1})
	defer s.Shutdown(context.Background())
	release := gateRunJob(s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp := postJob(t, ts, libsafeSpec("a"))
	st := decode[JobStatus](t, resp)

	streamResp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + st.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer streamResp.Body.Close()
	if ct := streamResp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream Content-Type = %q", ct)
	}
	release()

	events := readSSE(t, streamResp)
	last := events[len(events)-1]
	if last.name != "done" {
		t.Fatalf("last event = %q, want done (events: %+v)", last.name, events)
	}
	var final JobStatus
	if err := json.Unmarshal([]byte(last.data), &final); err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone || final.Result == nil {
		t.Errorf("final stream event state = %q result=%v, want done with result", final.State, final.Result != nil)
	}

	// Streaming a finished job short-circuits to done.
	again, err := ts.Client().Get(ts.URL + "/v1/jobs/" + st.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer again.Body.Close()
	ev := readSSE(t, again)
	if len(ev) != 1 || ev[0].name != "done" {
		t.Errorf("post-completion stream = %+v, want single done event", ev)
	}
}

type sseEvent struct{ name, data string }

// readSSE parses a complete SSE response body into events.
func readSSE(t *testing.T, resp *http.Response) []sseEvent {
	t.Helper()
	var events []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case line == "":
			if cur.name != "" || cur.data != "" {
				events = append(events, cur)
				cur = sseEvent{}
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream read: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("no SSE events")
	}
	return events
}
