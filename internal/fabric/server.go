package fabric

import (
	"context"
	"net/http"

	"samurai/internal/jobd"
)

// NewHandler serves the job API (jobd.NewHandler: /jobs with events,
// cancel, trace and results, /metrics, /healthz) plus the worker
// protocol on the same mux:
//
//	POST /fabric/lease        acquire / renew / release a cell lease
//	POST /fabric/checkpoint   append completed cell records
//	GET  /fabric/status       leases, steals, worker liveness
//
// Both POST bodies share the job API's size cap and strict decoding. A
// held acquire ends when its worker hangs up.
func NewHandler(c *Coordinator) http.Handler {
	mux := jobd.NewHandler(c)
	mux.HandleFunc("POST "+PathLease, jobd.JSONRoute(c.Lease))
	mux.HandleFunc("POST "+PathCheckpoint, jobd.JSONRoute(func(_ context.Context, req jobd.CheckpointRequest) (jobd.CheckpointResponse, int, error) {
		return c.Checkpoint(req)
	}))
	mux.HandleFunc("GET "+PathStatus, func(w http.ResponseWriter, r *http.Request) {
		jobd.WriteJSON(w, http.StatusOK, c.Status())
	})
	return mux
}
