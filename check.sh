#!/bin/sh
# check.sh mirrors the CI gate for environments without make:
# build, tests, go vet, gofmt, race detector (short mode), samurailint, a
# one-iteration benchmark smoke run (output kept in bench.txt), the
# statistical conformance matrix (vv_report.json) and a coverage
# summary (coverage.out), plus the samuraibench tests and a short
# benchmark pass checked against its golden digests.
set -eu
cd "$(dirname "$0")"

go build ./...
go test ./...
go vet ./...
# gofmt prints the files it would reformat; any name fails the gate.
fmt_out=$(gofmt -l .)
if [ -n "$fmt_out" ]; then
	echo "gofmt would reformat:"
	echo "$fmt_out"
	exit 1
fi
go test -race -short ./...
go run ./cmd/samurailint ./...
# Suppression inventory review: every //lint:ignore / //lint:nondet-ok
# waiver must carry its own non-empty, non-copy-pasted justification.
go run ./cmd/samurailint -suppressions ./...
go test -bench=. -benchtime=1x -run='^$' . > bench.txt
# The end-to-end benchmark is a module of its own: its tests, then a
# short pass of every workload checked against the golden digests.
go -C cmd/samuraibench test -short ./...
bash cmd/samuraibench/run.sh -seed 1 -seconds 2 -trace 0

# Statistical V&V (DESIGN.md §10): distribution-level conformance of
# the sampled paths against the closed-form master equation. Exits
# non-zero if any gate fails; the per-gate α is budgeted so a false
# alarm on a correct simulator has probability < 1e-6 per run.
go run ./cmd/samuraivv -seed 1 -o vv_report.json

# Rare-event unbiasedness battery (DESIGN.md §15): importance-sampled
# occupancy means vs the closed-form master equation at several tilt
# strengths (tilt 0 bit-identical to naive), the exact incremental-vs-
# recomputed log-LR gate, and the paths-to-CI speedup table. Exits
# non-zero if the variance-reduction engine is biased.
go run ./cmd/samurairare -seed 1 -o rare_report.json

# Coverage summary. Advisory only — the number below is a tripwire for
# reviewers, NOT a hard gate: a drop well under ~70 % total on the
# tier-1 tree usually means a new subsystem landed without its tests,
# but mechanically failing the build on it would just incentivise
# assertion-free filler tests.
go test -coverprofile=coverage.out -covermode=atomic ./... > /dev/null
go tool cover -func=coverage.out | tail -n 1

echo "all checks passed (bench.txt, vv_report.json, rare_report.json, coverage.out)"
