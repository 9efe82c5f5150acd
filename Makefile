GO ?= go

RACE_PKGS = ./internal/replication ./internal/failover ./internal/faults ./internal/simnet ./internal/trace ./internal/wire ./internal/journal ./internal/orchestrator ./internal/controlplane ./internal/transport ./internal/placement ./internal/hypervisor ./internal/fleet ./internal/recovery ./cmd/hered

.PHONY: check vet fmt build test race fuzz-smoke bench-smoke bench-transport bench-transport-smoke bench-trace bench-trace-smoke bench-reprotect bench-reprotect-smoke bench-api bench-api-smoke bench-tick bench-tick-smoke bench-state bench-state-smoke bench bench-gate loc trace-demo serve-demo transport-demo placement-demo recovery-demo

check: vet fmt build test race fuzz-smoke bench-smoke bench-transport-smoke bench-trace-smoke bench-reprotect-smoke bench-api-smoke bench-tick-smoke bench-state-smoke bench-gate

vet:
	$(GO) vet ./...

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed:"; echo "$$out"; exit 1; \
	fi

build:
	$(GO) build ./...

# The experiments package alone runs 10+ minutes on a small machine —
# give it headroom beyond go test's default 10m per-package timeout.
test:
	$(GO) test -timeout 30m ./...

# Race-check the packages with the concurrency-sensitive state
# machines; the full suite under -race is slow (experiments alone runs
# for minutes).
race:
	$(GO) test -race -timeout 30m . $(RACE_PKGS)

# Replay the checked-in fuzz corpora (seed inputs only, no new input
# generation) — fast regression coverage for the stream parsers.
fuzz-smoke:
	$(GO) test -run=Fuzz ./internal/...

# bench/ is a module of its own (root go build/vet/test ./... skip it),
# so an internal API change can break it silently: vet and test it, then
# run every workload once at smoke scale with its replica == primary
# checks. Everything it writes stays under bench/out/.
bench-smoke:
	cd bench && $(GO) vet ./... && $(GO) test ./... && bash run.sh -smoke

# Per-layer benchmark of the TCP transport: one checkpoint stream of
# 64 KiB / 8 MiB / 64 MiB over loopback to a real Server, MB/s and B/op
# (both ends share the process). bench-transport-smoke runs each size
# once, in `make check` and CI, so the benchmark cannot rot.
bench-transport:
	$(GO) test -run '^$$' -bench SendCheckpoint -benchmem ./internal/transport

bench-transport-smoke:
	$(GO) test -run '^$$' -bench SendCheckpoint -benchmem -benchtime=1x ./internal/transport

# Per-layer benchmarks of what a protection costs off the tick path:
# the tracer (New, and Record cold / warm / fill / wrapping), a whole-fleet
# Scheduler.Recover() of 192 protections in 4 groups, and the restart of
# four 1 + 2 chains of 8 MiB guests through Recover() and the tick that
# tops them up, from the deposits their hosts still hold (warm) or from
# nothing (cold) — simnet, NoSync journal, ns/op and B/op.
# bench-trace-smoke runs each once, in `make check` and CI.
bench-trace:
	$(GO) test -run '^$$' -bench Tracer -benchmem ./internal/trace
	$(GO) test -run '^$$' -bench 'Recover|RestartTopUp' -benchmem ./internal/fleet

bench-trace-smoke:
	$(GO) test -run '^$$' -bench Tracer -benchmem -benchtime=1x ./internal/trace
	$(GO) test -run '^$$' -bench 'Recover|RestartTopUp' -benchmem -benchtime=1x ./internal/fleet

# Per-layer benchmark of the re-protect after a forced failover: one
# Manager.Failover per op on a fully populated guest (simnet, NoSync
# journal, stores to 64 pages since the last checkpoint whatever the
# guest's size), warm at 1 / 64 / 256 MiB (the fenced primary's copy is
# converged from the dirty logs: ns/op and B/op must read flat) against
# cold at 1 / 64 MiB (a full seed), ns/op, B/op and pages/op; plus
# warm/1MiB/fsync and warm/1MiB/group-commit on a journal on the real
# filesystem, without and with group commit. Every row reports
# fsyncs/op and fails unless a failover issues exactly 2 (0 under
# NoSync). bench-reprotect-smoke runs each once, in `make check` and CI.
bench-reprotect:
	$(GO) test -run '^$$' -bench Reprotect -benchmem ./internal/orchestrator

bench-reprotect-smoke:
	$(GO) test -run '^$$' -bench Reprotect -benchmem -benchtime=1x ./internal/orchestrator

# Per-layer benchmarks of the two fleet reads: GET /v1/vms and GET
# /v1/vms/{name} through Handler().ServeHTTP (routing, RED, encoding)
# on 192 and on 10 000 settled 1 MiB protections in 4 placement groups,
# simnet links, ns/op, B/op and allocs/op. bench-api-smoke runs each
# once, in `make check` and CI.
bench-api:
	$(GO) test -run '^$$' -bench 'ServeList|ServeStatus' -benchmem ./internal/controlplane

bench-api-smoke:
	$(GO) test -run '^$$' -bench 'ServeList|ServeStatus' -benchmem -benchtime=1x ./internal/controlplane

# Per-layer benchmark of the orchestration round: one Scheduler.Tick
# over 192 and over 10 000 settled idle protections in 4 placement
# groups, simnet links, no journal, ns/op, B/op and allocs/op.
# bench-tick-smoke runs each once, in `make check` and CI.
bench-tick:
	$(GO) test -run '^$$' -bench '^BenchmarkTick$$' -benchmem ./internal/fleet

bench-tick-smoke:
	$(GO) test -run '^$$' -bench '^BenchmarkTick$$' -benchmem -benchtime=1x ./internal/fleet

# Per-layer benchmark of the state record a checkpoint ships to a
# heterogeneous secondary: capture a paused Xen guest's machine state,
# translate it, and encode it in the kvmtool or cloud-hypervisor
# layout, ns/op, B/op and allocs/op. bench-state-smoke runs each once,
# in `make check` and CI.
bench-state:
	$(GO) test -run '^$$' -bench StateRecord -benchmem ./internal/translate

bench-state-smoke:
	$(GO) test -run '^$$' -bench StateRecord -benchmem -benchtime=1x ./internal/translate

# Rewrites the committed BENCH_wire.json, BENCH_trace.json and
# BENCH_recovery.json from a quick-scale run. Every row is virtual
# (bytes, frames, events, virtual-clock time), so the files reproduce
# byte for byte on any machine: a diff is a change in what the code
# does, never noise.
bench:
	$(GO) run ./cmd/here-bench -quick -only wire,trace,recovery

# Regression gate: reruns those benches at the quick scale and fails
# (non-zero exit) unless each file equals its fresh run byte for byte,
# naming the file and its first differing line. Never rewrites them.
bench-gate:
	$(GO) run ./cmd/here-bench -gate

# Non-test Go lines outside bench/ — the figure CHANGES.md entries
# quote, counted one way.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' -print0 | xargs -0 cat | wc -l

# Replay the chaos example with tracing and dump the JSONL trace.
trace-demo:
	$(GO) run ./examples/chaos -trace chaos_trace.jsonl
	@echo "wrote chaos_trace.jsonl"

# Boot an in-process control-plane daemon, drive the REST API through
# a scripted demo (protect → failover → retune → scrape), then keep
# serving on 127.0.0.1:7070 for curl/herectl until interrupted.
serve-demo:
	$(GO) run ./examples/controlplane

# Two in-process daemons replicating over loopback TCP through the
# fault-injection proxy: protect → cut → degraded → reconnect → delta
# resync, with the transport status printed at each step.
transport-demo:
	$(GO) run ./examples/twonode

# Security-aware placement walkthrough: print the fleet's pairwise
# CVE-overlap score matrix, plan a 1+2 chain, crash a secondary and
# show the re-plan — all on the simulated four-flavor fleet.
placement-demo:
	$(GO) run ./examples/placement

# In-place recovery walkthrough: the same transient hypervisor hang
# answered twice — microreboot ladder (guest survives in RAM, delta
# resync) versus the baseline fenced failover (full re-seed, rollback,
# generation bump) — with the event timeline printed for each.
recovery-demo:
	$(GO) run ./examples/recovery
