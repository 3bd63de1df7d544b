// Package fabric is the HTTP transport of the jobd lease protocol: the
// /fabric/* routes a jobd.Scheduler serves to remote workers, and the
// worker-side client that runs the jobd.Executor lease loop against
// them. The job table, the lease pool and the summary all live in jobd;
// a fabric coordinator is simply a scheduler that starts no in-process
// executors (samuraid -coordinator), so every cell of every job — a
// run job is one cell — is leased to remote samuraiw workers.
//
// # Determinism under sharding
//
// Every cell's rng stream is a pure function of (job seed, cell index)
// — the invariant the single-node resume tests pin bit-exactly — so
// cells shard across workers with no coordination beyond index ranges:
// an N-worker sweep merges to results byte-identical to a single-node
// montecarlo.RunArrayCtx sweep of the same spec. Work stealing rides
// the same invariant: when a straggler's lease expires and its cells
// are reissued, a late checkpoint from the original worker is simply a
// duplicate of a bit-identical result, resolved by "first durable
// checkpoint wins". The scheduler asserts Float64bits equality on every
// duplicate — a free fleet-wide self-check: any mismatch means a
// worker's floating-point environment or build diverged, and the job
// fails loudly rather than merging poison.
//
// The protocol is three HTTP endpoints:
//
//	POST /fabric/lease       acquire a lease (or renew / release one)
//	POST /fabric/checkpoint  stream completed cell records back
//	GET  /fabric/status      leases, steals, worker liveness
//
// # Idle workers
//
// An acquire that finds nothing to lease is held by the coordinator (a
// long poll) for up to the worker's Poll, the request's wait_ms, and
// answered the moment a lease can be granted: a job is submitted, a
// lease is released or an expired one is stolen. An idle worker asks
// again as soon as it gets an idle answer, so a new job's first cells
// start within milliseconds of its submission, on remote workers as on
// samuraid's in-process executors, which take the same held acquire. A
// worker that hangs up, or drains, ends its held request at once.
package fabric

import "samurai/internal/jobd"

// Endpoint paths served by the coordinator and dialed by workers.
const (
	PathLease      = "/fabric/lease"
	PathCheckpoint = "/fabric/checkpoint"
	PathStatus     = "/fabric/status"
)

// The coordinator, its options and the remote worker are jobd's; these
// names keep the fabric vocabulary.
type (
	Coordinator = jobd.Scheduler
	Options     = jobd.Options
	Worker      = jobd.Executor
)

// New builds a coordinator over a freshly opened store: a scheduler
// with no in-process executors, so the cells of every job type are
// only leased to remote workers. replayed and maxSeq come from
// jobd.Open.
func New(store *jobd.Store, replayed []*jobd.Job, maxSeq uint64, opts Options) *Coordinator {
	opts.MaxJobs = -1
	c := jobd.New(store, replayed, maxSeq, opts)
	c.Start()
	return c
}
