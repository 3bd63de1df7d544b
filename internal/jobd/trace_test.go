package jobd

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"samurai/internal/obs"
	"samurai/internal/obs/trace"
	"samurai/internal/sram"
)

// closeBody closes a response body, failing the test on error.
func closeBody(t *testing.T, resp *http.Response) {
	t.Helper()
	if err := resp.Body.Close(); err != nil {
		t.Fatalf("closing response body: %v", err)
	}
}

// submitAndFinish posts a small array job and waits for it to be done.
func submitAndFinish(t *testing.T, s *Scheduler, srvURL string) string {
	t.Helper()
	resp, body := postJSON(t, srvURL+"/jobs",
		`{"type":"array","seed":42,"cells":2,"with_rtn":false}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var v View
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "job to finish", func() bool {
		cur, ok := s.Get(v.ID)
		return ok && cur.State == StateDone
	})
	return v.ID
}

func TestServerTraceEndpoint(t *testing.T) {
	s, srv := newTestServer(t)
	id := submitAndFinish(t, s, srv.URL)

	// Default format: Chrome/Perfetto trace_event JSON.
	resp, err := http.Get(srv.URL + "/jobs/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("trace endpoint is not trace_event JSON: %v", err)
	}
	closeBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace: %d", resp.StatusCode)
	}
	if len(doc.TraceEvents) < 2 || doc.TraceEvents[0].Ph != "M" {
		t.Fatalf("trace events malformed: %+v", doc.TraceEvents)
	}
	var sawCell bool
	for _, ev := range doc.TraceEvents[1:] {
		if ev.Ph != "X" {
			t.Fatalf("non-complete event %+v", ev)
		}
		if strings.HasSuffix(ev.Name, "/cell") {
			sawCell = true
		}
	}
	if !sawCell {
		t.Fatalf("no per-cell span in %+v", doc.TraceEvents)
	}

	// JSONL format: header line carries the trace ID, spans follow.
	resp, err = http.Get(srv.URL + "/jobs/" + id + "/trace?format=jsonl")
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(resp.Body)
	lines := 0
	for sc.Scan() {
		var obj map[string]any
		if err := json.Unmarshal(sc.Bytes(), &obj); err != nil {
			t.Fatalf("jsonl line %d invalid: %v", lines, err)
		}
		if lines == 0 {
			if _, ok := obj["trace_id"]; !ok {
				t.Fatalf("jsonl header lacks trace_id: %v", obj)
			}
		}
		lines++
	}
	closeBody(t, resp)
	if lines < 3 {
		t.Fatalf("jsonl export has %d lines, want header + spans", lines)
	}

	// Unknown format is a client error; unknown job is a 404.
	if resp := getJSON(t, srv.URL+"/jobs/"+id+"/trace?format=pprof", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad format: %d, want 400", resp.StatusCode)
	}
	if resp := getJSON(t, srv.URL+"/jobs/job-999999/trace", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing job: %d, want 404", resp.StatusCode)
	}
}

func TestServerFlightRecorderEndpoint(t *testing.T) {
	s, srv := newTestServer(t)
	submitAndFinish(t, s, srv.URL)

	resp, err := http.Get(srv.URL + "/debug/flightrecorder")
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(resp.Body)
	var lines, headers int
	for sc.Scan() {
		var obj map[string]any
		if err := json.Unmarshal(sc.Bytes(), &obj); err != nil {
			t.Fatalf("flightrecorder line %d invalid: %v", lines, err)
		}
		if _, ok := obj["job"]; ok {
			headers++
		}
		lines++
	}
	closeBody(t, resp)
	if headers != 1 || lines < 2 {
		t.Fatalf("flightrecorder dump: %d header(s), %d line(s); want one job with notes", headers, lines)
	}
}

func TestServerResultCarriesProvenance(t *testing.T) {
	s, srv := newTestServer(t)
	id := submitAndFinish(t, s, srv.URL)

	var result struct {
		RunInfo obs.RunInfo `json:"run_info"`
	}
	if resp := getJSON(t, srv.URL+"/jobs/"+id+"/result", &result); resp.StatusCode != http.StatusOK {
		t.Fatalf("result: %d", resp.StatusCode)
	}
	ri := result.RunInfo
	if ri.GoVersion == "" || ri.OS == "" || ri.Arch == "" || ri.NumCPU < 1 {
		t.Fatalf("run_info missing build facts: %+v", ri)
	}
	if ri.Seed != 42 {
		t.Fatalf("run_info seed = %d, want 42", ri.Seed)
	}
	if len(ri.SpecHash) != 16 {
		t.Fatalf("run_info spec_hash %q, want 16 hex chars", ri.SpecHash)
	}
	if len(ri.LintWaivers) == 0 {
		t.Fatalf("run_info lacks the lint-waiver rule set: %+v", ri)
	}
}

func TestSpecTraceIDDeterministic(t *testing.T) {
	a, b := arraySpec(4), arraySpec(4)
	if a.TraceID() != b.TraceID() {
		t.Fatal("identical specs produced different trace IDs")
	}
	c := arraySpec(4)
	c.Seed = 99
	if a.TraceID() == c.TraceID() {
		t.Fatal("different seeds produced the same trace ID")
	}
	d := arraySpec(5)
	if a.TraceID() == d.TraceID() {
		t.Fatal("different cell counts produced the same trace ID")
	}
}

// TestJobMetricsCarryJobLabel pins the multi-tenant prerequisite: a
// job's throughput series is labelled with its job ID, so one /metrics
// exposition separates tenants.
func TestJobMetricsCarryJobLabel(t *testing.T) {
	s, srv := newTestServer(t)
	id := submitAndFinish(t, s, srv.URL)

	var b strings.Builder
	if err := obs.Default().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf(`samurai_jobd_job_cells_per_second{job=%q}`, id)
	if !strings.Contains(b.String(), want) {
		t.Fatalf("/metrics lacks the per-job series %s", want)
	}
}

// TestDumpFlightWritesJSONL covers the failure/retry/drain dump path
// directly: the recorder contents land next to the WAL as valid JSONL.
func TestDumpFlightWritesJSONL(t *testing.T) {
	dir := t.TempDir()
	st, jobs, seq := mustOpen(t, filepath.Join(dir, "store.jsonl"))
	s := New(st, jobs, seq, Options{})

	flight := trace.NewFlight(16)
	tr := trace.New(trace.ID(7, []byte("dump")), trace.Options{Flight: flight})
	tr.Event("jobd.retry", 3, 1, 0)
	tr.Event("jobd.cell", 4, 2, 8)
	s.dumpFlight("job-000042", tr, "failure")

	path := filepath.Join(dir, "job-000042-flight-failure.jsonl")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("dump file not written: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 2 {
		t.Fatalf("dump holds %d notes, want 2:\n%s", len(lines), data)
	}
	for i, ln := range lines {
		var obj map[string]any
		if err := json.Unmarshal([]byte(ln), &obj); err != nil {
			t.Fatalf("dump line %d invalid JSON: %v", i, err)
		}
	}

	// A tracer without a recorder dumps nothing and must not panic.
	bare := trace.New(1, trace.Options{})
	s.dumpFlight("job-000043", bare, "failure")
	if _, err := os.Stat(filepath.Join(dir, "job-000043-flight-failure.jsonl")); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("recorderless tracer still wrote a dump file")
	}
}

// TestSchedulerFlightDumpOnDrain drains a job mid-sweep and expects
// the drain dump beside the WAL (skipped when the sweep wins the race
// and finishes first, mirroring the resume tests).
func TestSchedulerFlightDumpOnDrain(t *testing.T) {
	dir := t.TempDir()
	st, jobs, seq := mustOpen(t, filepath.Join(dir, "store.jsonl"))
	s := New(st, jobs, seq, Options{MaxJobs: 1})
	s.Start()
	v, err := s.Submit(arraySpec(8))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "first checkpoints", func() bool {
		cur, _ := s.Get(v.ID)
		return cur.CellsDone >= 2
	})
	s.Drain()

	cur, _ := s.Get(v.ID)
	if cur.State == StateDone {
		t.Log("sweep finished before drain; dump path not hit this run")
		return
	}
	path := filepath.Join(dir, v.ID+"-flight-drain.jsonl")
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("no drain dump at %s: %v", path, err)
	}
}

// TestRetryRunnerNotifiesOnRetry pins the retry observability hook:
// every retried attempt is reported before the backoff sleep.
func TestRetryRunnerNotifiesOnRetry(t *testing.T) {
	fails := 2
	var calls []int
	run := func(ctx context.Context, cell sram.CellConfig, pattern sram.Pattern, scale float64, seed uint64) (int, int, int, error) {
		if fails > 0 {
			fails--
			return 0, 0, 0, errors.New("transient")
		}
		return 1, 2, 3, nil
	}
	wrapped, _ := retryRunners(run, nil, RetrySpec{Max: 3, BackoffMS: 1, MaxBackoffMS: 1},
		func(seed uint64, attempt int, err error) {
			if seed != 77 || err == nil {
				t.Errorf("onRetry(seed=%d, err=%v)", seed, err)
			}
			calls = append(calls, attempt)
		})
	nerr, slow, traps, err := wrapped(context.Background(), sram.CellConfig{}, sram.Pattern{}, 1, 77)
	if err != nil || nerr != 1 || slow != 2 || traps != 3 {
		t.Fatalf("wrapped runner = (%d,%d,%d,%v)", nerr, slow, traps, err)
	}
	if len(calls) != 2 {
		t.Fatalf("onRetry fired %d times, want 2 (attempts: %v)", len(calls), calls)
	}

	// Cancellation is never retried and never reported.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	reported := false
	wrapped, _ = retryRunners(
		func(ctx context.Context, cell sram.CellConfig, pattern sram.Pattern, scale float64, seed uint64) (int, int, int, error) {
			return 0, 0, 0, ctx.Err()
		}, nil,
		RetrySpec{Max: 3, BackoffMS: 1, MaxBackoffMS: 1},
		func(uint64, int, error) { reported = true })
	if _, _, _, err := wrapped(ctx, sram.CellConfig{}, sram.Pattern{}, 1, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled runner returned %v", err)
	}
	if reported {
		t.Fatal("cancellation was reported as a retry")
	}
}
