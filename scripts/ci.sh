#!/usr/bin/env bash
# Tier-1 verification gate for the DTDBD workspace (see ROADMAP.md).
#
# Runs, in order:
#   1. release build of every crate, binary, bench and example target
#   2. the full test suite, which runs every battery exactly once
#      (dtdbd-integration is a workspace member, so the cross-crate
#      scenarios and the HTTP wire battery run here; the builder
#      misconfiguration battery, checkpoint corruption + side-state fuzz
#      battery (checkpoint_corruption.rs), the committed v1/v2 byte-fixture
#      compat pins (compat_fixtures.rs) and the zoo-wide
#      train->save->load->serve bit-parity test (zoo_roundtrip.rs) live in
#      crates/serve/tests). Four batteries get named in the stage label
#      because they gate whole layers:
#        - in-place GEMM parity (crates/tensor/tests/gemm_parity.rs): the
#          convolution whose windows the blocked GEMM reads straight from
#          the input, against im2row + the naive reference, and the blocked
#          Aᵀ·B reading A's columns in place, against an explicit transpose
#          + the reference, bit for bit at one thread, on every ISA tier;
#        - training-tape parity (crates/tensor/src/kernels.rs and graph.rs
#          unit tests): the branch-free max-over-time kernel and its ReLU
#          form, dispatched and baseline, against the plain branchy loop
#          (ties, signed zeros, all-negative rows, with and without an
#          arg-max), and the fused conv → ReLU → max-over-time branch op
#          against the unfused three-op chain (values, arg-max and the
#          dx/dw/db bits, on tape and tape-free graphs, at one thread)
#          and the pruned matmul backward against the full one, bit for bit;
#        - chaos (tests/integration/tests/chaos.rs): a fault plan
#          kills three prediction workers mid-storm; supervision must heal
#          the server with zero wrong predictions;
#        - hot-swap + zoo (tests/integration/tests/hotswap.rs): 20
#          mid-traffic reloads with bit-exact answers and reconciled
#          counters.
#      CI_QUICK (non-empty and not "0") shrinks the last two. The wire
#      batteries run the build's connection driver (epoll on Linux); the
#      blocking driver every other platform runs is covered in the same
#      stage by dtdbd-serve's unit tests (the `_under_pool` socket tests
#      and a multi-client bit-parity test), and clippy below lints it.
#   3. the GEMM parity battery again, in the release profile
#      (`cargo test --release -p dtdbd-tensor --test gemm_parity`): stage 2
#      runs it in the dev profile, and the kernels ship under release
#      codegen (thin LTO, one codegen unit), so the bits are held to the
#      naive reference under the optimiser that builds the deployed binary
#   4. bench regression gate (scripts/check_bench.sh): re-runs the quick
#      kernels/serving benches in a throwaway dir and FAILS if throughput
#      dropped more than BENCH_GATE_TOLERANCE percent (default 25) below the
#      committed BENCH_kernels.json / BENCH_serving.json baselines, or if the
#      serving p99 rose more than the tolerance above its baseline; also runs
#      the two-model zoo throughput gate (multi-tenant throughput >= 0.9x
#      single-tenant at equal total workers)
#   5. the benchmark's release build and unit tests (`cargo test --release
#      --offline --manifest-path perfbench/Cargo.toml`): perfbench has its
#      own [workspace], so stages 1-2 never compile it, and a dtdbd-serve
#      API change could otherwise pass CI and still break the benchmark run.
#      Then one short benchmark run (`--workload zipf --seed 1 --seconds 2
#      --trace 0`, about half a minute on 2 cores), which exits non-zero when
#      any output check fails: wire bit parity, the DTDBD students' macro-F1
#      floor of 0.7, or a failed operation. A broken distillation stage
#      therefore fails CI, not the next benchmark run
#   6. the paper-table bins `table8` and `table9` at `--quick --epochs 1`
#      (a few seconds): no other stage runs a table bin's `main`, and
#      between them they ask the experiment pipeline for every model role
#      (baseline, plain student, DAT and DAT-IE students, and each DTDBD
#      ablation distilled from the shared frozen teachers)
#   7. formatting check of the workspace and of perfbench (its own
#      workspace, so `cargo fmt --all` never reaches it)
#   8. rustdoc with warnings promoted to errors (`RUSTDOCFLAGS="-D warnings"
#      cargo doc --offline --no-deps --workspace`, about 7 s from a cold
#      target dir on 2 cores): a doc link to a deleted, private or
#      ambiguous name fails CI
#   9. clippy with warnings promoted to errors
#
# The http_roundtrip example (examples/http_roundtrip.rs) is built by stage 1
# but not run: stage 2's wire battery (tests/integration/tests/http.rs and
# dtdbd-serve's HTTP unit tests) and stage 5's wire-parity check cover what
# it asserts.
#
# Modes / knobs:
#   CI_QUICK               any value other than empty or "0" (the rule the
#                          chaos and hot-swap batteries use to shrink
#                          themselves) skips every release-profile stage
#                          (1, 3-6: the release build, release parity
#                          battery, bench gate, perfbench build and run,
#                          table bins)
#                          for a sub-minute inner-loop gate on a
#                          warm build cache — tests + fmt + rustdoc +
#                          clippy still run, and the dev-profile test suite includes the GEMM
#                          bit-parity battery (crates/tensor/tests) plus the
#                          checkpoint corruption/compat-fixture/zoo-parity
#                          batteries (crates/serve/tests)
#   BENCH_GATE_TOLERANCE   allowed bench throughput drop in percent
#                          (default 25; negative forces the gate to trip —
#                          the knob to demonstrate stage 4 failing)
#
# A per-stage wall-clock summary is printed at the end (also on failure).
# After the last stage, scripts/loc.sh prints the non-test Rust line count
# of crates/ for information; it gates nothing.
#
# Manual tools, not stages:
#   scripts/bench_pairs.sh <parent-ref> <workload> <pairs>
#                          paired runs of the BENCHMARK.json command, the
#                          parent ref (built from `git archive` in a temp
#                          dir) against the working tree, 20 s each, side
#                          order alternating; prints each end-to-end
#                          metric's medians, quartiles and pairs won, and
#                          flags seeds whose macro_f1 or bias_total differ
#
# Usage: scripts/ci.sh

set -euo pipefail
cd "$(dirname "$0")/.."

STAGE_NAMES=()
STAGE_SECS=()
stage() {
  local name="$1"
  shift
  echo "==> $name"
  local t0=$SECONDS
  "$@"
  STAGE_NAMES+=("$name")
  STAGE_SECS+=("$((SECONDS - t0))")
}
summary() {
  echo
  echo "==> stage timing (wall clock)"
  local i total=0
  for i in "${!STAGE_NAMES[@]}"; do
    printf '    %4ds  %s\n' "${STAGE_SECS[$i]}" "${STAGE_NAMES[$i]}"
    total=$((total + STAGE_SECS[i]))
  done
  printf '    %4ds  total\n' "$total"
}
trap summary EXIT

perfbench() {
  cargo test --release --offline --manifest-path perfbench/Cargo.toml
  cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
    --workload zipf --seed 1 --seconds 2 --trace 0
}

tables() {
  cargo run --release -q --offline -p dtdbd-bench --bin table8 -- --quick --epochs 1
  cargo run --release -q --offline -p dtdbd-bench --bin table9 -- --quick --epochs 1
}

quick=0
case "${CI_QUICK:-0}" in
  "" | 0) ;;
  *) quick=1 ;;
esac

if [ "$quick" = "1" ]; then
  echo "==> CI_QUICK=$CI_QUICK: skipping release build, release parity battery, bench gate, perfbench build + run and table bins"
else
  stage "cargo build --release" \
    cargo build --release --workspace --all-targets
fi

stage "cargo test (cross-crate scenarios, wire + checkpoint batteries, compat fixtures, zoo parity, chaos, hot-swap + zoo, max-over-time + fused conv-branch + pruned matmul backward parity, in-place conv-window + Aᵀ·B GEMM parity)" \
  cargo test -q --workspace

if [ "$quick" != "1" ]; then
  stage "GEMM parity battery in release (plain, A·Bᵀ, Aᵀ·B and in-place conv windows vs naive reference)" \
    cargo test --release -q -p dtdbd-tensor --test gemm_parity

  stage "bench regression gate (kernels/serving/http vs committed baselines)" \
    scripts/check_bench.sh

  stage "perfbench release build + unit tests + one 2 s zipf run (own workspace, not built by stage 1)" \
    perfbench

  stage "table8 + table9 --quick --epochs 1 (every role of the experiment pipeline)" \
    tables
fi

fmt_check() {
  cargo fmt --all --check
  cargo fmt --check --manifest-path perfbench/Cargo.toml
}

stage "cargo fmt --check (workspace + perfbench)" \
  fmt_check

doc_check() {
  RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace
}

stage "cargo doc -D warnings (doc links)" \
  doc_check

stage "cargo clippy -- -D warnings" \
  cargo clippy --workspace --all-targets -- -D warnings

echo "==> non-test Rust lines in crates/ (information only)"
scripts/loc.sh || true

echo "==> tier-1 gate passed"
