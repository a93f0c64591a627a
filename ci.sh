#!/bin/sh
# ci.sh — the repo's verification gate.
#
# Tier-1 (every PR must keep this green): formatting + module hygiene +
# vet + mcvet + build + full test suite. The full-suite step also fails when
# any test reports SKIP, and lists those tests: a test that skips on every
# run checks nothing while looking green. Skips outside that step (the
# race gate's, and -short runs) are not judged.
# mcvet gate: the repo-specific analyzers (cmd/mcvet) enforce McCuckoo's
# own invariants — zero-allocation hot paths, lock discipline around the
# shard tables, no mixed atomic/plain access, counter/flag writes only
# through sanctioned setters, and deterministic snapshot/repair paths. It
# runs before the test suite because its findings are cheaper to read than
# the test failures they predict.
# Unjudged-code gate: every program in the tree runs under a gate that
# checks its result. So the root module holds no Go benchmark (a testing.B
# function, whose numbers nothing compares) and no package main outside
# cmd/, whose five programs these gates run: mcvet, the paper gate
# (mcbench), the perf gate (mcperf), and the tests and smokes of mcserved
# and mctrace. A timing worth keeping becomes a perf-suite series with
# exact counts, and a demonstration an Example whose output go test
# checks. The nested benchmark/ module is outside the root module's ./...
# and keeps its own gate.
# Cross-build: the root module also builds for one non-Linux target
# (GOOS=darwin GOARCH=arm64), so the files built only off Linux — the
# no-op huge-page advice of internal/core — keep compiling.
# Paper gate: `mcbench -exp all` at the RESULTS.txt settings (capacity
# 147456, 5 runs, seed 1) must reproduce RESULTS.txt line for line once the
# wall-clock "[... completed in ...]" lines are dropped. Kicks, off-chip and
# on-chip accesses and stash counts are deterministic for a seed, so this is
# a noise-free gate over every row of the paper's tables and figures: an
# extra probe read or a moved kick fails it on any machine.
# 32-bit leg: the network-facing packages (internal/wire, internal/cluster
# and cmd/mcserved) are vetted and internal/wire and internal/cluster
# tested with GOARCH=386, where int is 32 bits, so a hostile count whose
# product wraps an int fails here rather than on a 32-bit node. The lock
# layer (internal/shard) and the keep rule (internal/keep) are tested there
# too: the batch grouping's int32 positions and the keep bound's byte
# arithmetic must hold under a 32-bit int. The rest of the tree has 64-bit
# constants (internal/workload, internal/bench) and does not build for 386.
# Race gate: the concurrency-bearing packages (the public package, whose
# tests drive Concurrent and Sharded from several goroutines;
# internal/core's pathwise inserts; internal/shard — the one lock layer,
# whose one-shard form is the public Concurrent and whose N-shard form is
# Sharded — and internal/core's fault matrix, which drives the tables alone
# and inside internal/shard (fault_test.go, package core_test, run by
# ./internal/core/...); internal/wire's
# pipelined server/client — TestServerUnderTrafficWithScrape is the
# server-under-traffic smoke, a client fleet hammering a telemetry-scraped
# sharded table; internal/netchaos's fault-injecting conn wrappers; and
# internal/cluster, whose TestClusterKillNodeConvergence runs a 3-node
# replicated cluster through mixed traffic, a mid-run node kill with zero
# failed reads, and a snapshot-restart catch-up, and whose
# TestChaosPartitionWritesSurviveAndSweepHeals is the chaos drill — a
# seeded partition with breaker-degraded writes, then anti-entropy
# convergence) run again under the race detector, which is what actually
# exercises the reader/writer interleavings their tests stage. Test gates
# run with -shuffle=on so inter-test ordering dependencies cannot hide.
# Benchmark module: benchmark/ is a nested Go module, so the root vet, mcvet
# and test gates skip it; this gate runs them there so a public-API change
# cannot break `bash benchmark/run.sh` unnoticed. Its tests run under the
# race detector: the served workloads drive real servers, clients and
# replicators end to end, buffer recycling included.
# Chaos smoke: the short-mode netchaos drill (seeded partition + heal +
# digest-equality) runs standalone so the fault-injection layer itself is
# exercised — and visibly named — on every run. Its TestChaos pattern also
# picks up TestChaosSilentPeerTripsBreaker: a peer that never answers, or
# whose dial hangs, trips its breaker and costs a cluster call at most one
# OpTimeout; and TestChaosSlowPeerDoesNotDelayCalls: a slow link to one
# replica delays no call's legs to the others.
# Replication smoke: the op-log catch-up tests (a subscription the ring
# overtakes is caught up in place), the bootstrap full-sync drills, the
# restart-from-drained-point test, the batch-form property test (one entry
# multiset applied as one batch, as single pushes and as stream chunks ends
# in one state, though only the batch reserves index room up front), a
# subscriber pulling while reserving batches apply, and the cluster client's
# batch write (its per-node routing at R < N and R = N, one sequence range
# per batch, and a full table named in its error), 20 times each under the
# race detector. Races in these paths have shown up only under repetition
# (a bootstrap flake once in 50 runs), so one pass proves little.
# Ring smoke: the flight-recorder ring (telemetry.Ring, which holds both the
# table events and the trace spans) under concurrent writers that lap it
# while a reader reads, 20 times under the race detector. A torn slot needs
# a writer to stall mid-record while the others lap the ring, so it shows
# up only under repetition: a writer protocol without the per-slot
# compare-and-swap failed it in 15 and 18 of 20 runs, in two trials on a
# 2-vCPU host.
# Trace smoke: a traced mctrace replay against a live two-node replicated
# pair, asserting the wire-propagated context yields a cross-node span
# tree — the distributed-tracing tentpole end to end.
# Fuzz smoke: short bounded runs of the snapshot-loader, sharded-container
# (FuzzLoadSharded), wire-frame and replica-checkpoint (FuzzLoadSidecar,
# named for the sidecar its record section grew from) fuzzers so format
# changes that break the rejection paths fail in CI, not in a long
# background fuzz. The sharded harness seeds genuine containers
# and requires every input to load a table whose every shard takes an
# insert and finds it again, or to be rejected as corrupt. The
# wire-frame corpus includes traced frames (flag bit 0x40 + 16-byte
# context prefix) and their rejection cases. The checkpoint harness feeds
# whole checkpoints and fixes up each input's file CRC, so it reaches the
# record checks (keys strictly ascending, sequence numbers nonzero and not
# past the applied point, live records exactly the store's keys); whatever
# loads must digest to the XOR of its terms and checkpoint back byte for
# byte. The replica key index fuzzer (FuzzSeqIndex)
# drives set, get and probe-then-update on an index small enough that
# random walks and segment rebuilds run, checking every result against a
# map: a cuckoo table loses keys in exactly those paths. Each smoke bounds
# the minimization of a newly found input to 100 runs
# (-fuzzminimizetime=100x); unbounded, one minimization could take the
# whole 5 seconds and more at 0 execs/s, so a smoke tested few new inputs.
# A crasher still fails the step, minimized within the same bound.
# Perf gate: cmd/mcperf reruns the seeded core and wire suites and compares
# every series' counts against the committed BENCH_core.json /
# BENCH_wire.json baselines (DESIGN.md §14): off-chip reads and writes per
# op on the metered table kinds, and whole allocations per op everywhere.
# The counts repeat exactly for a seed, so any difference fails the build
# on the first run, on any host; ns/op is printed and never judged.
# REFRESH_BASELINE=1 re-records the baselines instead of checking; each
# suite stamps its own note into the file it records.
# Line count: the last step prints the net non-test Go line count every
# change reports (ROADMAP.md): tracked *.go files minus _test.go files and
# testdata/, with benchmark/'s share beside it. It is a report, not a gate:
# no count fails the build, and outside a git checkout it is skipped.
set -eu

# say prints the gate banner and, for every gate after the first, the
# wall-clock seconds the previous gate took — so a slow gate is visible
# in the CI log without rerunning anything under time(1).
ci_start="$(date +%s)"
gate_start=""
say() {
	now="$(date +%s)"
	if [ -n "${gate_start}" ]; then
		printf '    (%ss)\n' "$((now - gate_start))"
	fi
	gate_start="${now}"
	printf '==> %s\n' "$*"
}

say "gofmt: checking formatting"
unformatted="$(gofmt -l .)"
if [ -n "${unformatted}" ]; then
	printf 'gofmt: the following files need formatting:\n%s\n' "${unformatted}" >&2
	exit 1
fi

say "go mod tidy: checking module hygiene"
go mod tidy -diff

say "go vet: stock static analysis"
go vet ./...

say "mcvet: repo-specific invariant analysis"
# -json emits one object per finding, suppressed ones included; the gate
# summarises counts and still fails on any unsuppressed finding (mcvet's
# own exit status is preserved by capturing before the pipeline).
mcvet_out="$(mktemp)"
mcvet_rc=0
go run ./cmd/mcvet -json ./... >"${mcvet_out}" || mcvet_rc=$?
mcvet_total="$(wc -l <"${mcvet_out}")"
mcvet_supp="$(grep -c '"suppressed":true' "${mcvet_out}" || true)"
printf 'mcvet: %s findings, %s suppressed, %s unsuppressed\n' \
	"${mcvet_total}" "${mcvet_supp}" "$((mcvet_total - mcvet_supp))"
if [ "${mcvet_rc}" -ne 0 ]; then
	grep -v '"suppressed":true' "${mcvet_out}" >&2 || true
	rm -f "${mcvet_out}"
	exit "${mcvet_rc}"
fi
rm -f "${mcvet_out}"

say "go build: compiling all packages"
go build ./...

say "cross-build: the root module for darwin/arm64"
GOOS=darwin GOARCH=arm64 go build ./...

say "unjudged code: no Go benchmark, no package main outside cmd/"
unjudged="$(
	go list -f '{{if eq .Name "main"}}{{.ImportPath}}: package main outside cmd/{{end}}' ./... | grep -Ev '^(mccuckoo/cmd/|$)' || true
	go list -f '{{range .TestGoFiles}}{{$.Dir}}/{{.}} {{end}}{{range .XTestGoFiles}}{{$.Dir}}/{{.}} {{end}}' ./... |
		xargs grep -Hn '^func Benchmark' || true
)"
if [ -n "${unjudged}" ]; then
	printf 'unjudged code: nothing runs these and checks what they show:\n%s\n' "${unjudged}" >&2
	exit 1
fi

say "go test: full suite (a skipped test fails it)"
# -v prints a "--- SKIP" line for every skipped test. A skip in this step is
# a test that checked nothing, so the gate lists the skipped tests and fails.
test_log="$(mktemp)"
test_rc=0
go test -shuffle=on -v ./... >"${test_log}" 2>&1 || test_rc=$?
if [ "${test_rc}" -ne 0 ]; then
	cat "${test_log}" >&2
	rm -f "${test_log}"
	exit "${test_rc}"
fi
grep -E '^(ok|\?) ' "${test_log}" || true
skipped="$(grep -E '^ *--- SKIP: ' "${test_log}" || true)"
rm -f "${test_log}"
if [ -n "${skipped}" ]; then
	printf 'go test: skipped tests fail this gate:\n%s\n' "${skipped}" >&2
	exit 1
fi

say "32-bit leg: GOARCH=386 vet + tests of the network-facing packages, the lock layer and the keep rule"
GOARCH=386 go vet ./internal/wire/ ./internal/cluster/ ./cmd/mcserved/
GOARCH=386 go test -shuffle=on ./internal/wire/ ./internal/cluster/ ./internal/shard/ ./internal/keep/

say "paper gate: mcbench -exp all vs RESULTS.txt"
paper_dir="$(mktemp -d)"
go run ./cmd/mcbench -exp all -capacity 147456 -runs 5 -seed 1 >"${paper_dir}/raw"
grep -v '^\[.* completed in .*\]$' "${paper_dir}/raw" >"${paper_dir}/got"
grep -v '^\[.* completed in .*\]$' RESULTS.txt >"${paper_dir}/want"
if ! diff -u "${paper_dir}/want" "${paper_dir}/got"; then
	printf 'paper gate: mcbench output drifted from RESULTS.txt (diff above)\n' >&2
	rm -rf "${paper_dir}"
	exit 1
fi
rm -rf "${paper_dir}"

say "go test -race: concurrency-bearing packages"
# The ./internal/telemetry/... wildcard covers the shared seqlock ring and
# the trace subpackage, whose span recorder and concurrent-scrape tests are
# race-gated here.
go test -race -shuffle=on . ./internal/core/... ./internal/shard/... ./internal/telemetry/... ./internal/wire/... ./internal/netchaos/... ./internal/cluster/...

say "benchmark module: gofmt + vet + mcvet + tests (-race)"
(cd benchmark && test -z "$(gofmt -l .)" && go vet ./... && go run ../cmd/mcvet ./... && go test -race -shuffle=on ./...)

say "chaos smoke: seeded partition + heal + digest equality"
go test -race -short -run 'TestChaos|TestNetchaos' ./internal/netchaos/... ./internal/cluster/...

say "replication smoke: catch-up, bootstrap, restart-resume, batch applies and batch writes, 20 runs each"
go test -race -count=20 -run 'CatchUp|TestClusterBootstrap|TestClusterRestartResumes|TestBatchFormsAgree|TestPullDuringReservingBatch|TestClusterPutBatch' ./internal/wire/ ./internal/cluster/

say "ring smoke: flight-recorder ring under lapping writers, 20 runs"
go test -race -count=20 -run 'TestRingConcurrentWritersWholeRecords' ./internal/telemetry/

say "trace smoke: traced replay over a two-node cluster"
go test -race -short -count=1 -run 'TestTracedClusterReplaySmoke' ./cmd/mctrace

say "fuzz smoke: snapshot loader"
go test -run='^$' -fuzz=FuzzLoad -fuzztime=5s -fuzzminimizetime=100x ./internal/core

say "fuzz smoke: sharded snapshot loader"
go test -run='^$' -fuzz=FuzzLoadSharded -fuzztime=5s -fuzzminimizetime=100x ./internal/shard

say "fuzz smoke: wire frame decoder"
go test -run='^$' -fuzz=FuzzWireFrame -fuzztime=5s -fuzzminimizetime=100x ./internal/wire

say "fuzz smoke: replica checkpoint loader"
go test -run='^$' -fuzz=FuzzLoadSidecar -fuzztime=5s -fuzzminimizetime=100x ./internal/wire

say "fuzz smoke: replica key index"
go test -run='^$' -fuzz=FuzzSeqIndex -fuzztime=5s -fuzzminimizetime=100x ./internal/wire

# Perf gate (DESIGN.md §14): one check per suite. Record and check run the
# same configuration, so a count that moves is a behaviour change: a change
# that moves one on purpose re-records the baseline in the same diff
# (REFRESH_BASELINE=1 ./ci.sh), where review sees it.
if [ "${REFRESH_BASELINE:-0}" = "1" ]; then
	say "perf gate: refreshing baselines (REFRESH_BASELINE=1)"
	go run ./cmd/mcperf record -suite core -out BENCH_core.json
	go run ./cmd/mcperf record -suite wire -out BENCH_wire.json
	printf 'perf gate: baselines refreshed; review and commit the BENCH diffs\n'
else
	say "perf gate: core suite vs BENCH_core.json"
	go run ./cmd/mcperf check -suite core -baseline BENCH_core.json
	say "perf gate: wire suite vs BENCH_wire.json"
	go run ./cmd/mcperf check -suite wire -baseline BENCH_wire.json
fi

say "line count: net non-test Go lines (a report, not a gate)"
go_lines() {
	git ls-files -- "$@" | grep -Ev '_test\.go$|(^|/)testdata/' | xargs cat | wc -l
}
if git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
	printf 'net non-test Go lines: %s (benchmark/: %s)\n' "$(go_lines '*.go')" "$(go_lines 'benchmark/*.go')"
else
	printf 'line count: not a git checkout, skipped\n'
fi

say "ci.sh: all gates green ($(($(date +%s) - ci_start))s total)"
