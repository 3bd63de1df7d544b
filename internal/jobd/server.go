package jobd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"samurai/internal/obs"
)

// MaxBodyBytes caps every request body the API decodes — a job spec, a
// lease exchange, a checkpoint batch (at most 256 cells, ~100 KiB).
// Beyond it the request is refused with 413 before it is buffered.
const MaxBodyBytes = 1 << 20

// NewHandler mounts the job API next to the observability surface
// (obs.NewMux: /metrics, /debug/pprof) and returns the mux, on which
// internal/fabric mounts the remote-worker routes.
//
//	POST /jobs                submit a Spec, 202 + View
//	GET  /jobs                list all jobs
//	GET  /jobs/{id}           one job's View
//	GET  /jobs/{id}/result    409 until done; provenance manifest,
//	                          summary + sorted cells
//	GET  /jobs/{id}/trace     causal trace of the job's last run:
//	                          Chrome/Perfetto trace_event JSON, or
//	                          one span per line with ?format=jsonl
//	GET  /jobs/{id}/events    progress stream: NDJSON, or SSE with
//	                          ?format=sse / Accept: text/event-stream
//	POST /jobs/{id}/cancel    cancel queued or running job
//	GET  /debug/flightrecorder  recent span/event notes of every job
//	GET  /healthz             liveness (503 while draining)
func NewHandler(s *Scheduler) *http.ServeMux {
	mux := obs.NewMux(nil)
	mux.HandleFunc("POST /jobs", JSONRoute(func(_ context.Context, spec Spec) (View, int, error) {
		v, err := s.Submit(spec)
		switch {
		case err == nil:
			return v, http.StatusAccepted, nil
		case errors.Is(err, ErrDraining):
			return v, http.StatusServiceUnavailable, err
		}
		return v, http.StatusBadRequest, err
	}))
	mux.HandleFunc("GET /jobs", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, s.List())
	})
	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		v, ok := s.Get(r.PathValue("id"))
		if !ok {
			httpError(w, http.StatusNotFound, fmt.Errorf("jobd: no job %q", r.PathValue("id")))
			return
		}
		WriteJSON(w, http.StatusOK, v)
	})
	mux.HandleFunc("GET /jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		v, ok := s.Get(id)
		if !ok {
			httpError(w, http.StatusNotFound, fmt.Errorf("jobd: no job %q", id))
			return
		}
		if v.State != StateDone {
			httpError(w, http.StatusConflict, fmt.Errorf("jobd: job %q is %s, not done", id, v.State))
			return
		}
		cells, _ := s.CellRecords(id)
		// The provenance manifest is attached at serve time only: it is
		// machine-dependent (CPU count, VCS revision) and must never
		// enter the WAL, where it would poison resumed runs' records.
		WriteJSON(w, http.StatusOK, struct {
			ID      string       `json:"id"`
			RunInfo obs.RunInfo  `json:"run_info"`
			Summary *Summary     `json:"summary"`
			Cells   []CellRecord `json:"cells,omitempty"`
		}{
			ID:      id,
			RunInfo: obs.Info(v.Spec.Seed, fmt.Sprintf("%016x", v.Spec.TraceID())),
			Summary: v.Result,
			Cells:   cells,
		})
	})
	mux.HandleFunc("GET /jobs/{id}/trace", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		tr, ok := s.Trace(id)
		if !ok {
			httpError(w, http.StatusNotFound,
				fmt.Errorf("jobd: no trace for job %q (never started?)", id))
			return
		}
		var err error
		switch format := r.URL.Query().Get("format"); format {
		case "", "chrome":
			w.Header().Set("Content-Type", "application/json")
			err = tr.WriteChrome(w)
		case "jsonl":
			w.Header().Set("Content-Type", "application/x-ndjson")
			err = tr.WriteJSONL(w)
		default:
			httpError(w, http.StatusBadRequest,
				fmt.Errorf("jobd: unknown trace format %q (want chrome or jsonl)", format))
			return
		}
		if err != nil {
			// Mid-stream write failure: the client hung up; there is no
			// channel left to report on.
			return
		}
	})
	mux.HandleFunc("GET /debug/flightrecorder", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		for _, v := range s.List() {
			tr, ok := s.Trace(v.ID)
			if !ok || tr.Flight() == nil {
				continue
			}
			header := struct {
				Job     string `json:"job"`
				TraceID string `json:"trace_id"`
			}{Job: v.ID, TraceID: fmt.Sprintf("%016x", tr.TraceID())}
			hb, err := json.Marshal(header)
			if err != nil {
				continue // unreachable: header is plain data
			}
			if _, err := w.Write(append(hb, '\n')); err != nil {
				return
			}
			if err := tr.Flight().WriteJSONL(w); err != nil {
				return
			}
		}
	})
	mux.HandleFunc("POST /jobs/{id}/cancel", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		if err := s.Cancel(id); err != nil {
			code := http.StatusConflict
			if errors.Is(err, ErrNoJob) {
				code = http.StatusNotFound
			}
			httpError(w, code, err)
			return
		}
		v, _ := s.Get(id)
		WriteJSON(w, http.StatusOK, v)
	})
	mux.HandleFunc("GET /jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		s.serveEvents(w, r)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		if s.Draining() {
			WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
			return
		}
		WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	return mux
}

// serveEvents streams a job's progress events until the job finishes,
// the scheduler drains, or the client hangs up. The stream rides the
// obs JSONL sink (one Write per event) wrapped for the chosen framing.
func (s *Scheduler) serveEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	ch, cancel, ok := s.Events(id)
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("jobd: no job %q", id))
		return
	}
	defer cancel()

	sse := r.URL.Query().Get("format") == "sse" ||
		strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	flusher, _ := w.(http.Flusher)
	var sink obs.Sink
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
		sink = obs.NewJSONLSink(sseWriter{w: w, f: flusher})
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
		sink = obs.NewJSONLSink(flushWriter{w: w, f: flusher})
	}
	w.WriteHeader(http.StatusOK)
	if flusher != nil {
		flusher.Flush()
	}

	// Open with a snapshot so late subscribers see current progress.
	if v, ok := s.Get(id); ok {
		sink.Emit(obs.Event{Name: "jobd.snapshot", Fields: []obs.Field{
			obs.F("job", v.ID),
			obs.F("state", string(v.State)),
			obs.F("done", v.CellsDone),
			obs.F("cells", v.CellsTotal),
		}})
	}
	for {
		select {
		case e, open := <-ch:
			if !open {
				return
			}
			sink.Emit(e)
		case <-r.Context().Done():
			return
		}
	}
}

// JSONRoute adapts a request → (response, HTTP status, error) call into
// a POST handler: the body is capped at MaxBodyBytes (413 beyond) and
// decoded strictly (unknown fields are a 400), the call gets the
// request's context, which ends when the client hangs up, and the
// response or the error is written as JSON with the status the call
// chose.
func JSONRoute[Req, Resp any](call func(context.Context, Req) (Resp, int, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req Req
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			code := http.StatusBadRequest
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				code = http.StatusRequestEntityTooLarge
			}
			httpError(w, code, fmt.Errorf("jobd: decoding %T: %w", req, err))
			return
		}
		resp, code, err := call(r.Context(), req)
		if err != nil {
			httpError(w, code, err)
			return
		}
		WriteJSON(w, code, resp)
	}
}

// WriteJSON encodes v as the response body, one JSON line. v is encoded
// before the status goes out, so a value JSON cannot carry (a
// non-finite float) is answered 500 with an error body, not 200 with an
// empty one.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		httpError(w, http.StatusInternalServerError, fmt.Errorf("jobd: encoding the response: %w", err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	//lint:ignore bareerr a failed response write means the client hung up; nothing to recover
	w.Write(append(body, '\n'))
}

// httpError writes a JSON error body.
func httpError(w http.ResponseWriter, code int, err error) {
	WriteJSON(w, code, map[string]string{"error": err.Error()})
}
