package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"samurai/internal/jobd"
	"samurai/internal/montecarlo"
	"samurai/internal/obs"
)

var mwRetries = obs.GetCounter("samurai_fabricw_post_retries_total",
	"coordinator requests retried after transport or 5xx failures")

// WorkerOptions configures a fabric worker. BaseURL is required; the
// zero value of everything else is usable.
type WorkerOptions struct {
	// BaseURL is the coordinator's root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// ID is the worker's identity; empty lets the coordinator assign
	// one on first contact.
	ID string
	// Threads overrides the per-lease cell parallelism (0 keeps the
	// job spec's Workers setting).
	Threads int
	// Client is the HTTP client for all coordinator calls. The default
	// sets a 30s Timeout — every client in this tree must bound its
	// requests (samurailint httptimeouts).
	Client *http.Client
	// Poll is the idle re-poll interval when no lease is available
	// (default 500ms).
	Poll time.Duration
	// Runner executes one cell of a run or array lease (default
	// samurai.ArrayRunnerCtx()).
	Runner montecarlo.CtxRunner
	// RareRunner executes one cell of a rare_array lease (default
	// samurai.RareArrayRunnerCtx()).
	RareRunner montecarlo.RareCtxRunner
	// ExitWhenDone makes Run return once the coordinator reports every
	// job terminal, instead of polling for more work forever.
	ExitWhenDone bool
	// MaxRetries bounds the capped-exponential-backoff retries of each
	// acquire and checkpoint request (default 8).
	MaxRetries int
	// Backoff is the initial retry backoff (default 100ms); MaxBackoff
	// caps the exponential growth (default 5s).
	Backoff    time.Duration
	MaxBackoff time.Duration
	// OnCheckpoint, when non-nil, observes every cell the coordinator
	// acknowledged as durably accepted (test and chaos hooks).
	OnCheckpoint func(job string, index int)
}

// NewWorker builds a remote executor: the jobd lease loop speaking the
// protocol to the coordinator at BaseURL over HTTP. Run does the work.
func NewWorker(opts WorkerOptions) *Worker {
	c := &client{base: opts.BaseURL, hc: opts.Client, maxRetries: opts.MaxRetries,
		backoff: opts.Backoff, maxBackoff: opts.MaxBackoff}
	if c.hc == nil {
		c.hc = &http.Client{Timeout: 30 * time.Second}
	}
	if c.maxRetries <= 0 {
		c.maxRetries = 8
	}
	if c.backoff <= 0 {
		c.backoff = 100 * time.Millisecond
	}
	if c.maxBackoff <= 0 {
		c.maxBackoff = 5 * time.Second
	}
	return jobd.NewExecutor(c, jobd.ExecutorOptions{
		ID:           opts.ID,
		Threads:      opts.Threads,
		Poll:         opts.Poll,
		Runner:       opts.Runner,
		RareRunner:   opts.RareRunner,
		ExitWhenDone: opts.ExitWhenDone,
		OnCheckpoint: opts.OnCheckpoint,
	})
}

// client is the HTTP jobd.LeaseClient.
type client struct {
	base                string
	hc                  *http.Client
	maxRetries          int
	backoff, maxBackoff time.Duration
}

// Lease posts one lease exchange. Acquires are retried; renewals and
// releases are single-shot — the next heartbeat tick renews again, and
// a lost release is recovered by lease expiry.
func (c *client) Lease(ctx context.Context, req jobd.LeaseRequest) (jobd.LeaseResponse, int, error) {
	var resp jobd.LeaseResponse
	post := func() (int, error) {
		resp = jobd.LeaseResponse{}
		return c.post(ctx, PathLease, req, &resp)
	}
	if req.Renew != 0 || req.Release != 0 {
		code, err := post()
		return resp, code, err
	}
	code, err := c.retry(ctx, post)
	return resp, code, err
}

// Checkpoint posts one checkpoint batch with retry.
func (c *client) Checkpoint(ctx context.Context, req jobd.CheckpointRequest) (jobd.CheckpointResponse, int, error) {
	var resp jobd.CheckpointResponse
	code, err := c.retry(ctx, func() (int, error) {
		resp = jobd.CheckpointResponse{}
		return c.post(ctx, PathCheckpoint, req, &resp)
	})
	return resp, code, err
}

// retry runs fn in the jobd.Backoff loop and returns its last status.
// Transport errors (code 0) and 5xx responses are retried; 4xx
// responses are protocol outcomes and returned immediately.
func (c *client) retry(ctx context.Context, fn func() (int, error)) (int, error) {
	var code int
	err := jobd.Backoff(ctx, c.maxRetries, c.backoff, c.maxBackoff, func(n int) (bool, error) {
		var err error
		code, err = fn()
		retry := (code == 0 || code >= http.StatusInternalServerError) && ctx.Err() == nil
		if err != nil && retry && n < c.maxRetries {
			mwRetries.Inc()
		}
		return retry, err
	})
	return code, err
}

// post sends one JSON request and decodes the JSON response. Error
// responses (>= 400) are folded into the returned error together with
// the coordinator's message; the status code is returned either way
// (0 for transport failures).
func (c *client) post(ctx context.Context, path string, req, out any) (int, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return 0, fmt.Errorf("fabric: encoding %T: %w", req, err)
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(hreq)
	if err != nil {
		return 0, err
	}
	//lint:ignore bareerr response body close is best-effort after a full read
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		var e struct {
			Error string `json:"error"`
		}
		//lint:ignore bareerr a malformed error body degrades to the bare status code
		json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&e)
		if e.Error == "" {
			e.Error = resp.Status
		}
		return resp.StatusCode, fmt.Errorf("fabric: %s: %s", path, e.Error)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return resp.StatusCode, fmt.Errorf("fabric: decoding %s response: %w", path, err)
	}
	return resp.StatusCode, nil
}
