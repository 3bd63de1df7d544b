#!/usr/bin/env bash
# Smoke-tests the samuraid daemon end to end, in two phases:
#
# service phase (single-node scheduler):
#   1. build samuraid with the race detector,
#   2. start it on an ephemeral port with a fresh job store,
#   3. POST a tiny array job and poll it to completion,
#   4. fetch the result and assert every cell is present,
#   5. scrape /metrics and assert the samurai_jobd_* queue/throughput
#      series are actually exported (not just that the port answers),
#   6. export the job's Perfetto trace to trace.json (uploaded as a CI
#      artifact; load it at ui.perfetto.dev for post-mortems),
#   7. SIGTERM the daemon and assert a clean (exit 0) drain,
#   8. assert the job store is non-empty (it is uploaded as a CI
#      artifact for post-mortems).
#
# fabric phase (remote workers over the lease protocol, internal/fabric):
#   1. build samuraid and samuraiw with the race detector,
#   2. start samuraid -coordinator (no in-process executors) with a
#      short (1s) lease TTL,
#   3. submit a 32-cell array job and subscribe to its event stream,
#   4. start two workers: one rigged to hard-exit (no drain, no
#      release) after 2 checkpoints, one healthy with -once,
#   5. assert the chaos worker dies with its rigged exit code, the
#      coordinator steals its abandoned lease, and the healthy worker
#      sweeps the job to done anyway,
#   6. assert the remote cells went through the single-node job
#      instrumentation: GET /jobs/{id}/events streamed jobd.cell events
#      and the done state, and samurai_jobd_cells_checkpointed_total > 0,
#   7. snapshot GET /fabric/status to fabric_status.json (a CI
#      artifact) and assert steals_total >= 1 and the job is done,
#   8. SIGTERM the coordinator and assert a clean drain.
#
# Run from the repository root:
#   ./scripts/smoke_samuraid.sh [service|fabric|all] [workdir]
set -euo pipefail

MODE="${1:-all}"
case "$MODE" in
    service|fabric|all) ;;
    *) echo "usage: $0 [service|fabric|all] [workdir]" >&2; exit 2 ;;
esac
WORKDIR="${2:-$(mktemp -d)}"
mkdir -p "$WORKDIR"

PIDS=()
cleanup() {
    for pid in "${PIDS[@]:-}"; do
        kill -9 "$pid" 2>/dev/null || true
    done
}
trap cleanup EXIT

# wait_ready ADDR_FILE PID LOG — waits for the daemon to write its
# bound address, then polls /healthz until the port actually serves
# (the address file appears before the listener necessarily accepts).
# Prints the address.
wait_ready() {
    local addr_file="$1" pid="$2" log="$3" addr
    for _ in $(seq 1 100); do
        [ -s "$addr_file" ] && break
        if ! kill -0 "$pid" 2>/dev/null; then
            echo "samuraid died during startup:" >&2
            cat "$log" >&2
            return 1
        fi
        sleep 0.1
    done
    [ -s "$addr_file" ] || { echo "samuraid never wrote its address" >&2; cat "$log" >&2; return 1; }
    addr="$(cat "$addr_file")"
    for _ in $(seq 1 50); do
        if curl -fsS --max-time 2 "http://$addr/healthz" >/dev/null 2>&1; then
            echo "$addr"
            return 0
        fi
        if ! kill -0 "$pid" 2>/dev/null; then
            echo "samuraid died before /healthz came up:" >&2
            cat "$log" >&2
            return 1
        fi
        sleep 0.1
    done
    echo "samuraid port $addr never answered /healthz after 5s:" >&2
    cat "$log" >&2
    return 1
}

# submit_job ADDR BODY — POSTs an array job and prints its id.
submit_job() {
    local addr="$1" body="$2" resp id
    resp="$(curl -sS --max-time 10 -X POST "http://$addr/jobs" \
        -H 'Content-Type: application/json' -d "$body")"
    echo "   $resp" >&2
    id="$(printf '%s' "$resp" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')"
    [ -n "$id" ] || { echo "no job id in submit response" >&2; return 1; }
    echo "$id"
}

# poll_done ADDR JOB_ID TRIES — polls the job until done (or fails).
poll_done() {
    local addr="$1" job_id="$2" tries="$3" view state=""
    for _ in $(seq 1 "$tries"); do
        view="$(curl -sS --max-time 10 "http://$addr/jobs/$job_id")"
        state="$(printf '%s' "$view" | sed -n 's/.*"state":"\([^"]*\)".*/\1/p')"
        case "$state" in
            done) return 0 ;;
            failed|canceled) echo "job ended $state: $view" >&2; return 1 ;;
        esac
        sleep 0.2
    done
    echo "job never finished (last state: $state)" >&2
    return 1
}

# drain_clean PID LOG — SIGTERMs the daemon and asserts a clean exit.
drain_clean() {
    local pid="$1" log="$2" rc=0
    kill -TERM "$pid"
    wait "$pid" || rc=$?
    if [ "$rc" -ne 0 ]; then
        echo "samuraid exited $rc on SIGTERM (want clean drain, exit 0):" >&2
        cat "$log" >&2
        return 1
    fi
    grep -q "drained cleanly" "$log" || { echo "log lacks drain confirmation" >&2; cat "$log" >&2; return 1; }
}

service_phase() {
    local bin="$WORKDIR/samuraid"
    local store="$WORKDIR/samuraid.jsonl"
    local addr_file="$WORKDIR/addr"
    local log="$WORKDIR/samuraid.log"

    echo "== [service] building samuraid (race detector on)"
    go build -race -o "$bin" ./cmd/samuraid

    echo "== [service] starting samuraid"
    "$bin" -addr 127.0.0.1:0 -store "$store" -addr-file "$addr_file" >"$log" 2>&1 &
    local pid=$!
    PIDS+=("$pid")

    local addr
    addr="$(wait_ready "$addr_file" "$pid" "$log")"
    echo "   listening on $addr (healthz OK)"

    echo "== [service] submitting a tiny array job"
    local job_id
    job_id="$(submit_job "$addr" '{"type":"array","seed":7,"cells":3,"with_rtn":false}')"

    echo "== [service] polling $job_id to completion"
    poll_done "$addr" "$job_id" 300

    echo "== [service] fetching the result"
    local result cells
    result="$(curl -sS --max-time 10 "http://$addr/jobs/$job_id/result")"
    echo "   $result"
    cells="$(printf '%s' "$result" | grep -o '"index":' | wc -l)"
    [ "$cells" -eq 3 ] || { echo "result holds $cells cells, want 3" >&2; exit 1; }

    echo "== [service] scraping /metrics for samurai_jobd_* series"
    local metrics series checkpointed
    metrics="$(curl -sS --max-time 10 "http://$addr/metrics")"
    for series in samurai_jobd_queue_depth samurai_jobd_jobs samurai_jobd_cells_checkpointed_total; do
        printf '%s' "$metrics" | grep -q "^$series" || {
            echo "/metrics lacks the $series series:" >&2
            printf '%s\n' "$metrics" | grep '^samurai_jobd' >&2 || echo "  (no samurai_jobd_* series at all)" >&2
            exit 1
        }
    done
    checkpointed="$(printf '%s' "$metrics" | awk '/^samurai_jobd_cells_checkpointed_total/ {print $2}')"
    case "$checkpointed" in
        ''|0) echo "samurai_jobd_cells_checkpointed_total is '$checkpointed' after a 3-cell job" >&2; exit 1 ;;
    esac
    echo "   jobd series present ($checkpointed cells checkpointed)"

    echo "== [service] exporting the job's Perfetto trace"
    local trace="$WORKDIR/trace.json"
    curl -sS --max-time 10 "http://$addr/jobs/$job_id/trace" -o "$trace"
    grep -q '"traceEvents"' "$trace" || { echo "trace export is not trace_event JSON:" >&2; head -c 400 "$trace" >&2; exit 1; }
    grep -q '"ph":"X"' "$trace" || { echo "trace export holds no complete spans" >&2; exit 1; }
    echo "   trace written to $trace"

    echo "== [service] draining with SIGTERM"
    drain_clean "$pid" "$log"

    [ -s "$store" ] || { echo "job store $store is empty" >&2; exit 1; }
    echo "== [service] store records:"
    cat "$store"
    echo "== [service] smoke OK (store: $store)"
}

fabric_phase() {
    local dbin="$WORKDIR/samuraid"
    local wbin="$WORKDIR/samuraiw"
    local store="$WORKDIR/fabric_store.jsonl"
    local addr_file="$WORKDIR/fabric_addr"
    local log="$WORKDIR/coordinator.log"
    local chaos_log="$WORKDIR/worker_chaos.log"
    local steady_log="$WORKDIR/worker_steady.log"
    local status_json="$WORKDIR/fabric_status.json"
    local events="$WORKDIR/fabric_events.ndjson"

    echo "== [fabric] building samuraid + samuraiw (race detector on)"
    go build -race -o "$dbin" ./cmd/samuraid
    go build -race -o "$wbin" ./cmd/samuraiw

    echo "== [fabric] starting the coordinator (lease TTL 1s)"
    "$dbin" -addr 127.0.0.1:0 -store "$store" -addr-file "$addr_file" \
        -coordinator -lease-cells 8 -lease-ttl 1s >"$log" 2>&1 &
    local pid=$!
    PIDS+=("$pid")

    local addr
    addr="$(wait_ready "$addr_file" "$pid" "$log")"
    echo "   coordinating on $addr (healthz OK)"

    echo "== [fabric] submitting a 32-cell array job"
    local job_id
    job_id="$(submit_job "$addr" '{"type":"array","seed":99,"cells":32,"workers":1,"with_rtn":false}')"

    # The stream ends by itself when the job reaches a terminal state.
    curl -sN --max-time 300 "http://$addr/jobs/$job_id/events" >"$events" &
    local events_pid=$!
    PIDS+=("$events_pid")

    # The chaos worker is rigged to hard-exit (no drain, no lease
    # release) after 2 acknowledged checkpoints — the fabric must
    # recover its abandoned lease by stealing after the TTL.
    echo "== [fabric] starting 2 workers (one rigged to crash after 2 cells)"
    "$wbin" -coordinator "http://$addr" -id w-chaos \
        -chaos-exit-after-cells 2 >"$chaos_log" 2>&1 &
    local chaos_pid=$!
    PIDS+=("$chaos_pid")
    "$wbin" -coordinator "http://$addr" -id w-steady -once >"$steady_log" 2>&1 &
    local steady_pid=$!
    PIDS+=("$steady_pid")

    local chaos_rc=0
    wait "$chaos_pid" || chaos_rc=$?
    [ "$chaos_rc" -eq 3 ] || {
        echo "chaos worker exited $chaos_rc, want the rigged exit code 3:" >&2
        cat "$chaos_log" >&2
        exit 1
    }
    echo "   chaos worker crashed as rigged (exit 3)"

    echo "== [fabric] polling $job_id to completion (steal + resweep)"
    poll_done "$addr" "$job_id" 600

    local steady_rc=0
    wait "$steady_pid" || steady_rc=$?
    [ "$steady_rc" -eq 0 ] || {
        echo "steady worker exited $steady_rc, want 0:" >&2
        cat "$steady_log" >&2
        exit 1
    }
    echo "   steady worker swept the remainder and exited cleanly"

    echo "== [fabric] checking the job's event stream and jobd metrics"
    wait "$events_pid" || { echo "event stream for $job_id failed:" >&2; cat "$events" >&2; exit 1; }
    grep -q '"event":"jobd.cell"' "$events" || { echo "event stream carried no jobd.cell events:" >&2; cat "$events" >&2; exit 1; }
    grep -q '"state":"done"' "$events" || { echo "event stream never reported the job done:" >&2; cat "$events" >&2; exit 1; }
    local checkpointed
    checkpointed="$(curl -sS --max-time 10 "http://$addr/metrics" | awk '/^samurai_jobd_cells_checkpointed_total/ {print $2}')"
    case "$checkpointed" in
        ''|0) echo "coordinator samurai_jobd_cells_checkpointed_total is '$checkpointed' after a 32-cell job" >&2; exit 1 ;;
    esac
    echo "   $(grep -c '"event":"jobd.cell"' "$events") jobd.cell events streamed, $checkpointed cells checkpointed"

    echo "== [fabric] snapshotting /fabric/status"
    curl -sS --max-time 10 "http://$addr/fabric/status" -o "$status_json"
    cat "$status_json"
    echo
    grep -q '"state":"done"' "$status_json" || { echo "/fabric/status does not report the job done" >&2; exit 1; }
    local steals
    steals="$(sed -n 's/.*"steals_total":\([0-9]*\).*/\1/p' "$status_json")"
    [ -n "$steals" ] && [ "$steals" -ge 1 ] || {
        echo "steals_total is '$steals' after a worker crash, want >= 1" >&2
        exit 1
    }
    echo "   job done with $steals lease steal(s) reported"

    echo "== [fabric] checking the final result is complete"
    local result cells
    result="$(curl -sS --max-time 10 "http://$addr/jobs/$job_id/result")"
    cells="$(printf '%s' "$result" | grep -o '"index":' | wc -l)"
    [ "$cells" -eq 32 ] || { echo "result holds $cells cells, want 32" >&2; exit 1; }
    echo "   all 32 cells durable"

    echo "== [fabric] draining the coordinator with SIGTERM"
    drain_clean "$pid" "$log"

    [ -s "$store" ] || { echo "fabric store $store is empty" >&2; exit 1; }
    echo "== [fabric] smoke OK (store: $store, status: $status_json)"
}

case "$MODE" in
    service) service_phase ;;
    fabric)  fabric_phase ;;
    all)     service_phase; fabric_phase ;;
esac
echo "== smoke OK ($MODE)"
