#!/usr/bin/env bash
# Full verification gate for the split-mmwave workspace:
#   formatting, lints-as-errors, the tier-1 build-and-test sequence from
#   ROADMAP.md, then a smoke-profile fig3a run fed through the
#   slm-report regression gate. Run from anywhere inside the repo.
#
#   scripts/verify.sh            # everything
#   scripts/verify.sh --fast     # skip build + smoke/report runs (lints,
#                                # tests, the kernels bench and the
#                                # checkpoint resume gate still run)
set -uo pipefail

cd "$(dirname "$0")/.."

# What `git status` says now; the last stage fails if a run changed it.
tree_before="$(git status --porcelain 2>&1)"

fast=0
if [[ "${1:-}" == "--fast" ]]; then
    fast=1
fi

declare -a results=()
overall=0
# Set when a stage that later stages build on fails (fmt, clippy, lint,
# build); those later stages are then skipped. A failing `test` stage
# blocks nothing: every stage after it runs its own checks, and the
# script still exits non-zero.
blocked=0

# The trajectory files the benches and report gates append to live in a
# scratch directory under target/, so a verify run leaves the tree as
# it found it. It persists across runs (each gate still compares
# against the entries earlier runs appended) and is seeded once with
# the repo's trajectories.
bench_dir=target/verify-results
mkdir -p "$bench_dir"
for f in results/BENCH_*.json; do
    [[ -e "$f" && ! -e "$bench_dir/$(basename "$f")" ]] && cp "$f" "$bench_dir/"
done

stage() {
    local name="$1"
    shift
    echo "==> $name: $*"
    if "$@"; then
        echo "PASS  $name"
        results+=("PASS  $name")
    else
        echo "FAIL  $name"
        results+=("FAIL  $name")
        overall=1
        return 1
    fi
}

stage fmt cargo fmt --all -- --check || blocked=1
stage clippy cargo clippy --workspace --all-targets -- -D warnings || blocked=1

# Static analysis: the workspace token rules (unwrap/nondeterminism/
# print/float-eq/lossy-cast/deps policy, ratcheted by
# crates/lint/allowlist.txt), then the passes on the item-level index:
# telemetry key namespace (keys), SLM_* env-knob table (knobs), MsgType
# coverage + bounded protocol model check with its seeded-mutation
# self-test (protocol) and kernel accumulator-order heuristics
# (determinism).
if [[ "$blocked" -eq 0 ]]; then
    stage lint cargo run -q -p sl-lint --bin slm-lint || blocked=1
fi

# Layering: the socket runtime never depends on the experiment harness.
# sl-bench runs Fig. 3a over sl-net, so the edge goes the other way.
# Neither the scene generator nor the socket runtime persists anything,
# so neither depends on the chunked store directly.
layering() {
    local tree crate
    tree="$(cargo tree --offline -e normal -p sl-net)" || return 1
    ! grep -q "sl-bench" <<<"$tree" || return 1
    for crate in sl-scene sl-net; do
        tree="$(cargo tree --offline -e normal --depth 1 -p "$crate")" || return 1
        ! grep -q "sl-store" <<<"$tree" || return 1
    done
}
if [[ "$blocked" -eq 0 ]]; then
    stage layering layering
fi

# The API docs build warning-free: broken intra-doc links, links to
# private items and bare `[n]` citations that rustdoc reads as links all
# fail here. Later stages do not depend on it, so a failure blocks none.
if [[ "$blocked" -eq 0 ]]; then
    stage doc env RUSTDOCFLAGS="-D warnings" \
        cargo doc --workspace --no-deps --offline
fi

if [[ "$fast" -eq 0 && "$blocked" -eq 0 ]]; then
    stage build cargo build --release || blocked=1
fi

# Every crate's suite, not just the umbrella package's: the unit tests,
# the seeded property suites and the integration tests. --no-fail-fast
# so one failing test binary does not hide the results of the others.
if [[ "$blocked" -eq 0 ]]; then
    stage test cargo test -q --workspace --no-fail-fast
fi

# Compute-backend determinism: the simd backend must be bitwise
# identical to the portable scalar one at every thread count, so the
# equivalence suite runs once per SLM_BACKEND × SLM_THREADS pairing
# (2 × 2 stages) — the env pair selects what the process-wide pool and
# global backend resolve to, and global_backend_matches_scalar_reference
# closes the loop. The LSTM recurrence suite runs under the same
# pairings: its `ab` products on the process-wide pool and backend must
# give the bits of a per-step `a_bt` reference on the scalar one.
if [[ "$blocked" -eq 0 ]]; then
    for backend in scalar simd; do
        for threads in 1 4; do
            stage "kernels-eq-$backend-${threads}t" \
                env SLM_BACKEND="$backend" SLM_THREADS="$threads" \
                cargo test -q -p sl-tensor --test parallel_equivalence
            stage "recurrence-eq-$backend-${threads}t" \
                env SLM_BACKEND="$backend" SLM_THREADS="$threads" \
                cargo test -q -p sl-nn --test recurrence_equivalence
        done
    done
fi

# The benchmark workspace (splitbench/, a cargo workspace of its own):
# its unit tests, then one short run of every workload. `all` exits
# non-zero when any correctness check fails — per-run outputs, digests
# across repeats, train-1px == net-1px learning curves, the train-rf
# checkpoint resume — so this is the end-to-end bitwise gate.
# Building splitbench rewrites its lock file, which still lists the
# workspace's old `rand` dependency; the lock changes only with the
# benchmark, so the copy found here is put back afterwards.
cp splitbench/Cargo.lock "$bench_dir/splitbench.Cargo.lock"
if [[ "$blocked" -eq 0 ]]; then
    stage splitbench-test cargo test --offline --manifest-path splitbench/Cargo.toml
fi
if [[ "$fast" -eq 0 && "$blocked" -eq 0 ]]; then
    stage splitbench-check cargo run --release --offline --manifest-path splitbench/Cargo.toml \
        -- all --seed 7 --repeats 1 --seconds 2
fi
cp "$bench_dir/splitbench.Cargo.lock" splitbench/Cargo.lock

if [[ "$fast" -eq 0 && "$blocked" -eq 0 ]]; then
    # Seconds-scale profiled training runs, then the regression gate:
    # slm-report renders a copy of results/fig3a into a markdown report,
    # appends a trajectory entry to $bench_dir/BENCH_fig3a.json and
    # fails on metric or simulated-time regressions against the last
    # same-config entry.
    # The smoke run executes twice — single-threaded and on a 4-thread
    # pool — and the figure CSV must come out byte-identical: training
    # results never depend on SLM_THREADS. The 1t run records the span
    # timeline (SLM_TRACE=on) and the 4t run stays untraced, so the same
    # cmp also proves tracing never perturbs the numerics. The sampled
    # time-series rides the same gate: series.jsonl is keyed to step
    # counts and the simulated clock, so both runs must emit it
    # byte-for-byte identical too.
    stage smoke-1t env SLM_THREADS=1 SLM_PROFILE=smoke SLM_TELEMETRY=jsonl \
        SLM_TRACE=on \
        cargo run --release -q -p sl-bench --bin fig3a
    cp results/fig3a/fig3a.csv results/fig3a/fig3a_1t.csv 2>/dev/null || true
    cp results/fig3a/series.jsonl results/fig3a/series_1t.jsonl 2>/dev/null || true
    # Span well-formedness + the Perfetto export of the traced run.
    stage trace cargo run --release -q -p sl-bench --bin slm-trace -- \
        --out results/fig3a/trace.json results/fig3a/fig3a.jsonl
    stage smoke-4t env SLM_THREADS=4 SLM_PROFILE=smoke SLM_TELEMETRY=jsonl \
        cargo run --release -q -p sl-bench --bin fig3a
    stage smoke-bitwise cmp results/fig3a/fig3a_1t.csv results/fig3a/fig3a.csv
    stage series-bitwise cmp results/fig3a/series_1t.jsonl results/fig3a/series.jsonl
    # Backend independence end to end: the same smoke run forced onto
    # each of the two compute backends must emit the figure CSV
    # byte-for-byte — training numerics never depend on SLM_BACKEND
    # (DESIGN.md §13). The runs above used the auto-detected backend;
    # these pin it.
    for backend in scalar simd; do
        stage "smoke-$backend" env SLM_BACKEND="$backend" SLM_THREADS=4 \
            SLM_PROFILE=smoke SLM_TELEMETRY=jsonl \
            cargo run --release -q -p sl-bench --bin fig3a
        stage "smoke-$backend-bitwise" \
            cmp results/fig3a/fig3a_1t.csv results/fig3a/fig3a.csv
    done
    rm -f results/fig3a/fig3a_1t.csv results/fig3a/series_1t.jsonl
    rm -rf "$bench_dir/fig3a"
    cp -r results/fig3a "$bench_dir/fig3a"
    stage report cargo run --release -q -p sl-bench --bin slm-report -- \
        --check "$bench_dir/fig3a"

    # Networked runtime: the same five smoke configurations over a real
    # loopback socket (fig3a --addr-file as the UE, slm-bs serving one
    # session per configuration)
    # must reproduce the in-process figure CSV byte-for-byte — the
    # sl-net determinism contract (DESIGN.md §9). The port file doubles
    # as the server's readiness signal. Both sides run traced: slm-trace
    # merges the UE and BS journals into one Perfetto timeline, checking
    # that the server spans stitch under the client trace ids. The block
    # runs twice and the merged exports must be byte-identical — span
    # ids, timestamps and track numbering are all deterministic at
    # SLM_THREADS=1.
    net_traced_run() {
        local tag="$1"
        mkdir -p results/fig3a_net
        rm -f results/fig3a_net/bs.port \
            results/fig3a_net/slm_bs.jsonl results/fig3a_net/fig3a_net.jsonl \
            results/fig3a_net/series.jsonl
        env SLM_THREADS=1 SLM_TELEMETRY=jsonl SLM_TRACE=on \
            SLM_TELEMETRY_PATH=results/fig3a_net \
            cargo run --release -q -p sl-net --bin slm-bs -- \
            --addr 127.0.0.1:0 --sessions 5 --port-file results/fig3a_net/bs.port &
        bs_pid=$!
        for _ in $(seq 1 100); do
            [[ -s results/fig3a_net/bs.port ]] && break
            sleep 0.1
        done
        # A failed UE leaves the server waiting for its sessions.
        stage "net-smoke-$tag" env SLM_THREADS=1 SLM_PROFILE=smoke SLM_TELEMETRY=jsonl \
            SLM_TRACE=on cargo run --release -q -p sl-bench --bin fig3a -- \
            --addr-file results/fig3a_net/bs.port \
            || kill "$bs_pid" 2>/dev/null || true
        wait "$bs_pid" 2>/dev/null || true
        rm -f results/fig3a_net/bs.port
        stage "net-trace-$tag" cargo run --release -q -p sl-bench --bin slm-trace -- \
            --out "results/fig3a_net/trace_$tag.json" \
            results/fig3a_net/fig3a_net.jsonl results/fig3a_net/slm_bs.jsonl
    }
    net_traced_run run1
    stage net-bitwise cmp results/fig3a/fig3a.csv results/fig3a_net/fig3a.csv
    cp results/fig3a_net/series.jsonl results/fig3a_net/series_run1.jsonl 2>/dev/null || true
    net_traced_run run2
    stage net-trace-bitwise cmp results/fig3a_net/trace_run1.json \
        results/fig3a_net/trace_run2.json
    # Two traced runs of the same config must sample identical series —
    # wall clock and socket timing never leak into the store.
    stage net-series-bitwise cmp results/fig3a_net/series_run1.jsonl \
        results/fig3a_net/series.jsonl
    rm -f results/fig3a_net/series_run1.jsonl
fi

# Kernel micro-benchmarks: record the pre-backend reference loops, the
# scalar backend at 1 and SLM_THREADS threads (the serial/pooled tiers)
# and the simd backend into $bench_dir/BENCH_kernels.json on every verify
# run — --fast included — so
# the GFLOP/s trajectory accumulates; the report stage then gates the
# determinism contract (throughput itself is host-dependent and never
# gated).
if [[ "$blocked" -eq 0 ]]; then
    stage kernels-bench env SLM_THREADS=4 \
        cargo run --release -q -p sl-bench --bin kernels -- "$bench_dir"
    stage kernels-report cargo run --release -q -p sl-bench --bin slm-report -- \
        --kernels --check "$bench_dir"
fi

# Checkpoint resume gate: an interrupted + resumed smoke training must
# reproduce the uninterrupted learning curve bitwise.
if [[ "$blocked" -eq 0 ]]; then
    stage store-resume env SLM_THREADS=4 \
        cargo run --release -q -p sl-bench --bin store
fi

# A verify run leaves the tree as it found it: every artifact lands in
# an ignored directory, and the splitbench lock file is put back.
tree_unchanged() {
    [[ "$(git status --porcelain 2>&1)" == "$tree_before" ]] || {
        git status --porcelain
        return 1
    }
}
stage tree-unchanged tree_unchanged

echo
echo "verify summary:"
for r in "${results[@]}"; do
    echo "  $r"
done
if [[ "$overall" -eq 0 ]]; then
    echo "verify: all gates passed"
else
    echo "verify: FAILED"
fi
exit "$overall"
