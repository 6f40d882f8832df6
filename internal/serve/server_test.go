package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// newTestServer wires a manager behind httptest. Callers must Close the
// returned server and Shutdown the manager.
func newTestServer(t *testing.T, cfg Config) (*httptest.Server, *Manager) {
	t.Helper()
	m := NewManager(cfg)
	ts := httptest.NewServer(NewServer(m).Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		m.Shutdown(ctx)
	})
	return ts, m
}

func postJob(t *testing.T, ts *httptest.Server, body string) (*http.Response, Status) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	var st Status
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decode submit response: %v", err)
		}
	}
	return resp, st
}

func getStatus(t *testing.T, ts *httptest.Server, id string) Status {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatalf("GET job: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET job %s: HTTP %d", id, resp.StatusCode)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode status: %v", err)
	}
	return st
}

func pollDone(t *testing.T, ts *httptest.Server, id string, timeout time.Duration) Status {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		st := getStatus(t, ts, id)
		if st.State.Terminal() {
			return st
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return Status{}
}

// TestHTTPEndToEnd submits two identical real jobs through the HTTP
// layer on a tiny circuit and checks both results are bit-identical —
// the determinism contract holds through the whole service stack.
func TestHTTPEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the real engine")
	}
	ts, _ := newTestServer(t, Config{Workers: 2})
	spec := `{"circuit":"ex5p","scale":0.05,"algo":"rt","max_iters":4}`

	var ids []string
	for i := 0; i < 2; i++ {
		resp, st := postJob(t, ts, spec)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: HTTP %d", i, resp.StatusCode)
		}
		if loc := resp.Header.Get("Location"); loc != "/v1/jobs/"+st.ID {
			t.Fatalf("Location = %q, want /v1/jobs/%s", loc, st.ID)
		}
		ids = append(ids, st.ID)
	}
	var fins []Status
	for _, id := range ids {
		st := pollDone(t, ts, id, 2*time.Minute)
		if st.State != StateDone {
			t.Fatalf("job %s: state %s, error %q", id, st.State, st.Error)
		}
		if st.Result == nil {
			t.Fatalf("job %s done with nil result", id)
		}
		fins = append(fins, st)
	}
	a, b := fins[0].Result, fins[1].Result
	// Bit-exact comparison: determinism means identical, not close.
	if math.Float64bits(a.OptimizedPeriod) != math.Float64bits(b.OptimizedPeriod) ||
		a.Iterations != b.Iterations || a.Replicated != b.Replicated {
		t.Fatalf("identical specs disagree: %+v vs %+v", a, b)
	}
	if a.OptimizedPeriod > a.PlacedPeriod {
		t.Errorf("optimization made the period worse: %.4f > %.4f",
			a.OptimizedPeriod, a.PlacedPeriod)
	}
	// The phase breakdown is populated and consistent with the coarse
	// engine timer.
	if a.Phases.Total() <= 0 {
		t.Errorf("phase timings empty: %+v", a.Phases)
	}
	if a.Phases.Total() > a.EngineSeconds*1.5+0.1 {
		t.Errorf("phase total %.3fs exceeds engine wall %.3fs", a.Phases.Total(), a.EngineSeconds)
	}
}

func TestHTTPBackpressure429(t *testing.T) {
	block := make(chan struct{})
	ts, _ := newTestServer(t, Config{
		Workers:    1,
		QueueDepth: 1,
		Runner: func(ctx context.Context, _ JobSpec) (*Result, error) {
			select {
			case <-block:
				return &Result{}, nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		},
	})
	defer close(block)

	// Occupy the worker, then the single queue slot, then overflow.
	resp, st := postJob(t, ts, `{"circuit":"ex5p"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit 1: HTTP %d", resp.StatusCode)
	}
	waitRunning := func(id string) {
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if getStatus(t, ts, id).State == StateRunning {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatalf("job %s never started", id)
	}
	waitRunning(st.ID)
	if resp, _ := postJob(t, ts, `{"circuit":"ex5p"}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit 2: HTTP %d", resp.StatusCode)
	}
	resp, _ = postJob(t, ts, `{"circuit":"ex5p"}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: HTTP %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 missing Retry-After header")
	}
}

func TestHTTPBadRequests(t *testing.T) {
	ts, _ := newTestServer(t, Config{Workers: 1, Runner: func(context.Context, JobSpec) (*Result, error) {
		return &Result{}, nil
	}})
	cases := []struct {
		name, body string
	}{
		{"empty", `{}`},
		{"unknown circuit", `{"circuit":"nonesuch"}`},
		{"unknown algo", `{"circuit":"ex5p","algo":"magic"}`},
		{"unknown field", `{"circuit":"ex5p","frobnicate":true}`},
		{"retired parallelism field", `{"circuit":"ex5p","parallelism":4}`},
		{"syntax", `{"circuit":`},
		{"bad netlist", `{"netlist":"widget frob\n"}`},
	}
	for _, tc := range cases {
		resp, _ := postJob(t, ts, tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400", tc.name, resp.StatusCode)
		}
	}
}

func TestHTTPNotFoundAndCancel(t *testing.T) {
	block := make(chan struct{})
	ts, _ := newTestServer(t, Config{
		Workers: 1,
		Runner: func(ctx context.Context, _ JobSpec) (*Result, error) {
			select {
			case <-block:
				return &Result{}, nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		},
	})
	defer close(block)

	resp, err := http.Get(ts.URL + "/v1/jobs/j999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing job: HTTP %d, want 404", resp.StatusCode)
	}

	_, st := postJob(t, ts, `{"circuit":"ex5p"}`)
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE: HTTP %d", resp.StatusCode)
	}
	fin := pollDone(t, ts, st.ID, 5*time.Second)
	if fin.State != StateCancelled {
		t.Fatalf("cancelled job state = %s", fin.State)
	}
}

func TestHTTPIntrospection(t *testing.T) {
	ts, _ := newTestServer(t, Config{Workers: 1, Runner: func(context.Context, JobSpec) (*Result, error) {
		return &Result{}, nil
	}})

	_, st := postJob(t, ts, `{"circuit":"ex5p"}`)
	pollDone(t, ts, st.ID, 5*time.Second)

	resp, err := http.Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var vars struct {
		CounterSnapshot
		UptimeSeconds float64 `json:"uptime_seconds"`
		Goroutines    int     `json:"goroutines"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatalf("decode /debug/vars: %v", err)
	}
	if vars.JobsAccepted != 1 || vars.JobsCompleted != 1 {
		t.Fatalf("vars = %+v, want 1 accepted / 1 completed", vars.CounterSnapshot)
	}
	if vars.Goroutines <= 0 || vars.UptimeSeconds < 0 {
		t.Fatalf("runtime stats missing: %+v", vars)
	}

	// pprof is mounted.
	resp2, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/: HTTP %d", resp2.StatusCode)
	}

	// The job listing shows the one job.
	resp3, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	var list []Status
	if err := json.NewDecoder(resp3.Body).Decode(&list); err != nil {
		t.Fatalf("decode list: %v", err)
	}
	if len(list) != 1 || list[0].ID != st.ID {
		t.Fatalf("list = %+v", list)
	}
}

func TestHTTPDraining503(t *testing.T) {
	m := NewManager(Config{Workers: 1, Runner: func(context.Context, JobSpec) (*Result, error) {
		return &Result{}, nil
	}})
	ts := httptest.NewServer(NewServer(m).Handler())
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	m.Shutdown(ctx)

	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		bytes.NewReader([]byte(`{"circuit":"ex5p"}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining submit: HTTP %d, want 503", resp.StatusCode)
	}

	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var h map[string]string
	if err := json.NewDecoder(hresp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h["status"] != "draining" {
		t.Fatalf("healthz = %q, want draining", h["status"])
	}
}

// TestInlineNetlistJob runs a real job on an inline netlist through the
// HTTP layer.
func TestInlineNetlistJob(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the real engine")
	}
	// A small fan-in tree with registered boundaries, service-sized.
	var sb strings.Builder
	sb.WriteString("circuit inline\n")
	for i := 0; i < 8; i++ {
		fmt.Fprintf(&sb, "input i%d\n", i)
	}
	for i := 0; i < 4; i++ {
		fmt.Fprintf(&sb, "lut a%d i%d i%d\n", i, 2*i, 2*i+1)
	}
	sb.WriteString("lut b0 a0 a1\nlut b1 a2 a3\nreg c b0 b1\noutput o c\n")
	spec, err := json.Marshal(JobSpec{Netlist: sb.String(), Algo: "rt", MaxIters: 2})
	if err != nil {
		t.Fatal(err)
	}

	ts, _ := newTestServer(t, Config{Workers: 1})
	resp, st := postJob(t, ts, string(spec))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit inline: HTTP %d", resp.StatusCode)
	}
	fin := pollDone(t, ts, st.ID, time.Minute)
	if fin.State != StateDone {
		t.Fatalf("inline job: state %s, error %q", fin.State, fin.Error)
	}
	if fin.Result.Circuit != "inline" || fin.Result.LUTs != 7 {
		t.Fatalf("result = %+v", fin.Result)
	}
}
