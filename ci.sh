#!/usr/bin/env bash
# Local CI gate — the same sequence .github/workflows/ci.yml runs.
# Everything is offline: dependencies are vendored under vendor/.
set -euo pipefail
cd "$(dirname "$0")"

echo "== fmt =="
cargo fmt --all --check

echo "== lint (eos-lint: panic-path ratchet, latch discipline, FORMAT.md drift, lock order, durability order) =="
cargo run -q --offline -p eos-lint -- .

echo "== wrapper census (one fault-injecting volume) =="
# Every `impl Volume for` outside the frozen benchmark: MemVolume,
# FileVolume, CachedVolume, FaultVolume and the test-only GateVolume
# (a condvar park in cache.rs, not a fault). A new failure or timing
# policy is a `Plan` rule on FaultVolume (crates/pager/src/fault.rs),
# not a new type; a volume that really is new moves this pin.
volume_impls=$(grep -rE --include='*.rs' \
    --exclude-dir=perf --exclude-dir=vendor --exclude-dir=target --exclude-dir=.bench_build \
    '^\s*impl(<[^>]*>)?\s+(\w+::)*Volume\s+for\s' . | wc -l)
test "$volume_impls" -eq 5 \
    || { echo "expected 5 Volume implementations outside perf/, found $volume_impls"; exit 1; }

echo "== lock-class census (declared latch classes) =="
# Every `// lock-class:` declaration eos-lint finds (DESIGN.md §13). A
# new latch class is a new rank in the lock order: a change that adds
# one moves this pin and says why.
lock_classes=$(cargo run -q --offline -p eos-lint -- . --json \
    | python3 -c 'import json, sys; print(len(json.load(sys.stdin)["lock_classes"]))')
test "$lock_classes" -eq 17 \
    || { echo "expected 17 lock classes, found $lock_classes"; exit 1; }

echo "== clippy (deny warnings) =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== build (release) =="
cargo build --release --offline

echo "== test (workspace) =="
cargo test --workspace --offline -q

echo "== perf smoke (the benchmark builds against this API surface; four workloads correct) =="
# perf/ is a frozen, separate workspace that compiles against the public
# surface of eos-core/-check/-buddy: build it offline and run its tiny
# populations, so a change that breaks that surface (or a workload's
# correctness) fails here and not in the benchmark run.
perf_ok=$(cargo run --release --offline --quiet --manifest-path perf/Cargo.toml -- run --smoke \
    | grep -c '^{"correct": true, .*"failed": 0,' || true)
test "$perf_ok" -eq 4 \
    || { echo "perf --smoke: $perf_ok of 4 workloads correct with 0 failed"; exit 1; }

echo "== perf checks (the benchmark workspace's own fmt, clippy and tests) =="
# perf/ is its own cargo workspace, so the workspace-wide steps above
# do not reach it. Its smoke test runs every section's set-up, so a
# change that breaks a set-up path fails here, not in the benchmark.
cargo fmt --manifest-path perf/Cargo.toml --check
cargo clippy --manifest-path perf/Cargo.toml --all-targets --offline -- -D warnings
cargo test --manifest-path perf/Cargo.toml --offline -q

echo "== bench smoke (compare --quick, BENCH_obs.json) =="
# One experiment binary end-to-end in quick mode: exercises the store
# comparison harness and proves the observability snapshot lands in
# BENCH_obs.json for CI diffing.
rm -f BENCH_obs.json
cargo run --release --offline -q -p eos-bench --bin compare -- --quick
test -s BENCH_obs.json || { echo "BENCH_obs.json missing or empty"; exit 1; }

echo "== bench smoke (concurrency --quick: group commit + MVCC readers/writers) =="
# The readers+writers table exercises the whole MVCC surface end to
# end (publication, pins, parked frees, reclaim) under real threads;
# --quick shrinks both tables to a CI-sized run.
cargo run --release --offline -q -p eos-bench --bin concurrency -- --quick
grep -q "bench.concurrency.rw" BENCH_obs.json \
    || { echo "rw bench gauges missing from BENCH_obs.json"; exit 1; }

echo "== striped scaling gate (16 writers: latch-shard advantage + buddy latch waits) =="
# The §17 sharding acceptance, enforced as a regression gate: at 16
# writers and equal syncs/commit, the 16-stripe solo pipeline must beat
# the single-stripe baseline by >= 1.6x, and the per-space buddy
# directory latches must stay uncontended (mean wait <= 50us). Both
# numbers come from the concurrency bench snapshot written above.
grep -q "bench.concurrency.striped.s16.t16.commits_per_sec" BENCH_obs.json \
    || { echo "striped bench gauges missing from BENCH_obs.json"; exit 1; }
python3 - <<'EOF'
import json

doc = json.load(open("BENCH_obs.json"))
metrics = doc["concurrency"]["metrics"]
gauges = metrics["gauges"]

adv = gauges["bench.concurrency.striped.advantage_t16_x100"]
assert adv >= 160, (
    f"striped 16-writer advantage regressed: {adv / 100:.2f}x < 1.60x"
)

hists = {h["name"]: h for h in metrics["histograms"]}
latch = hists["buddy.latch.wait_us"]
mean = latch["sum"] / max(latch["count"], 1)
assert mean <= 50, (
    f"buddy.latch.wait_us mean regressed: {mean:.1f}us > 50us "
    f"over {latch['count']} acquisitions"
)

print(
    f"striped advantage {adv / 100:.2f}x at 16 writers; "
    f"buddy latch mean wait {mean:.2f}us over {latch['count']} acquisitions"
)
EOF

echo "== trace (pipeline events: bench --trace, Chrome export, flight recorder) =="
# The eos-trace surface end to end: a traced 4-writer bench round must
# export a raw event dump, the CLI must reconstruct batches from it and
# convert it to Chrome trace_event JSON (validated by re-parsing with
# the in-tree parser), per-phase p50/p99 gauges must land in
# BENCH_obs.json, and a flight-recorder dump must round-trip.
rm -f TRACE_events.json TRACE_chrome.json FLIGHT.json
cargo run --release --offline -q -p eos-bench --bin concurrency -- --quick --trace
test -s TRACE_events.json || { echo "TRACE_events.json missing or empty"; exit 1; }
grep -q "bench.concurrency.trace.phase_a.p99_us" BENCH_obs.json \
    || { echo "trace p99 gauges missing from BENCH_obs.json"; exit 1; }
cargo run --release --offline -q -p eos-cli -- trace summary TRACE_events.json --top 3 \
    | grep -q "WALL-US" || { echo "trace summary reconstructed no batches"; exit 1; }
cargo run --release --offline -q -p eos-cli -- trace export TRACE_events.json --out TRACE_chrome.json
test -s TRACE_chrome.json || { echo "TRACE_chrome.json missing or empty"; exit 1; }
# Cross-thread causality (batch linkage, phase contiguity, histogram
# reconciliation) plus the flight-recorder round-trip through
# `eos trace dump`.
cargo test --release --offline --test trace_causality -- --nocapture
cargo test --release --offline -p eos-cli trace_subcommands -- --nocapture
rm -f TRACE_events.json TRACE_chrome.json FLIGHT.json

echo "== crash sweep (release, pinned seed) =="
# Exhaustive crash-point sweep: every write I/O point of the scripted
# workload, clean and torn, plus crashes during recovery itself. Release
# mode keeps the sweep fast; the pinned seed makes the differential
# companion reproducible. --nocapture surfaces the I/O-point count.
PROPTEST_SEED=3735928559 \
    cargo test --release --offline --test crash_sweep --test differential -- --nocapture

echo "== crashdep (L6 static + barrier-mutation smoke) =="
# The durability-ordering gate end to end: the static rule re-runs as
# part of the lint step above; here the runtime half elides the three
# pinned sync sites (undo force, data barrier, frame force) and the
# census test cross-checks the static seal-site list. The full
# every-sync sweep rides in the workspace test step.
cargo test --release --offline --test barrier_mutation quick_ -- --nocapture

echo "== concurrent stress (release, pinned seed) =="
# Multi-writer/multi-reader stress over the group-commit pipeline,
# checked against a single-threaded replay of the same seeded scripts.
# Release mode widens the real thread interleaving the test explores.
EOS_STRESS_SEED=3735928559 \
    cargo test --release --offline --test concurrent_store -- --nocapture

echo "== lockdep (runtime lock-order witness, pinned seed) =="
# The dynamic half of eos-lockdep: rebuild with the Tracked* wrappers
# armed and re-run the concurrency surface. The witness panics with
# both acquisition stacks on the first observed inversion or volume
# I/O under a forbids_io class — silence is the assertion. The
# lockdep_runtime test also proves the witness itself still fires.
# The mvcc battery rides along so the witness also watches the
# lock-free read path: pins, parked frees, and reclaim ordering.
# concurrent_store includes the 16-writer / 8-stripe / 4-space stress,
# so the sharded latches (buddy.space, wal.scopes, wal.stripe) run
# under the armed witness here.
EOS_STRESS_SEED=3735928559 \
    cargo test --release --offline --features lockdep \
    --test lockdep_runtime --test concurrent_store --test concurrent \
    --test mvcc -- --nocapture
cargo clippy --workspace --all-targets --offline --features lockdep -- -D warnings

echo "CI gate passed."
