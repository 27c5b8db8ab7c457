#!/usr/bin/env bash
# Tier-1 gate, as one entry point: build, lint, test, traced smoke
# run. Everything runs offline — no dependency in the default build
# resolves from a registry (see docs/LINTS.md, "Hermetic build").
#
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release --workspace"
# --workspace: the root manifest is itself a package, so a bare
# `cargo build` would skip the other members' binaries (bench_*).
cargo build --release --workspace

echo "==> qcat-lint (L1-L10 + audit self-check)"
cargo run --release -p qcat-lint -- --workspace

echo "==> cargo doc (rustdoc warnings are errors: no dead intra-doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "==> cargo test -q (default members: every crate + root integration + lint gate)"
cargo test -q

echo "==> bench smoke (hermetic categorize benchmark)"
./target/release/bench_categorize --runs 2 --cases 4 \
    --out target/BENCH_smoke.json > /dev/null
test -s target/BENCH_smoke.json

echo "==> pipeline smoke (scan-vs-index differential + serve caches + chaos replay)"
# bench_pipeline exits non-zero on any scan/index row-set mismatch or
# any chaos-replay request that ends unaccounted; the greps
# double-check the committed evidence in the report.
./target/release/bench_pipeline --runs 2 --queries 100 \
    --out target/BENCH_pipeline_smoke.json > /dev/null
grep -q '"differential": .*"status": "ok"' target/BENCH_pipeline_smoke.json
grep -q '"chaos": .*"status": "ok"' target/BENCH_pipeline_smoke.json

echo "==> refinement smoke (containment differential + speculation contract)"
# The same code path as the committed BENCH_pr9.json: drill-down
# chains served off cached superset answers, every containment hit
# compared byte-for-byte against a cleared-cache cold serve, and a
# speculation pass whose fills must all be first-serve tree hits.
# bench_pipeline exits non-zero if either contract breaks.
./target/release/bench_pipeline --scale refinement --runs 2 \
    --out target/BENCH_refine_smoke.json > /dev/null
grep -q '"containment": .*"status": "ok"' target/BENCH_refine_smoke.json
grep -q '"speculation": .*"status": "ok"' target/BENCH_refine_smoke.json

echo "==> large-tier smoke (sharded data plane, env-capped to CI size)"
# The same code path as the committed paper-scale BENCH_pr8.json —
# sharded relation, morsel scans, per-shard index builds, pruning,
# differential vs the single-shard truth — shrunk via the QCAT_LARGE_*
# caps so it finishes in seconds. Exits non-zero on any row mismatch.
QCAT_LARGE_ROWS=20000 QCAT_LARGE_QUERIES=2000 QCAT_LARGE_SHARD_ROWS=2048 \
    ./target/release/bench_pipeline --scale large --runs 2 --queries 50 \
    --out target/BENCH_large_smoke.json > /dev/null
grep -q '"differential": .*"status": "ok"' target/BENCH_large_smoke.json
grep -q '"determinism": .*"status": "ok"' target/BENCH_large_smoke.json

echo "==> ingest smoke (append latency + selective invalidation retention + commit sweep)"
# The same code path as the committed BENCH_pr20.json: one warmed
# server takes append rounds; at least one warmed entry must still be
# an exact cache hit afterwards (the retention gate: a whole-table
# flush keeps none), and every answer the surviving caches serve must
# be byte-identical to a from-scratch recompute. bench_pipeline
# exits non-zero if either contract breaks. The run ends with the
# commit-latency sweep over 6k / 60k / 600k-row bases (5 commits
# each at --runs 2), whose three points must all be reported.
./target/release/bench_pipeline --scale ingest --runs 2 --queries 60 \
    --out target/BENCH_ingest_smoke.json > /dev/null
grep -q '"mismatches": 0, "status": "ok"' target/BENCH_ingest_smoke.json
grep -q '"retention": .*"status": "ok"' target/BENCH_ingest_smoke.json
for rows in 6000 60000 600000; do
    grep -q "\"base_rows\": $rows, " target/BENCH_ingest_smoke.json
done

echo "==> perf observatory (bench_report --check over committed BENCH_pr*.json)"
# Trajectory tables land in the artifacts dir (uploaded by CI);
# --check fails on cross-PR regressions beyond the default threshold.
artifacts=target/qcat-artifacts
mkdir -p "$artifacts"
./target/release/bench_report --check --out "$artifacts/bench-trajectory.txt" > /dev/null
# The large-tier smoke report rides along in the artifact bundle so a
# CI run's sharded-plane numbers are inspectable without re-running.
cp target/BENCH_large_smoke.json "$artifacts/"

echo "==> standard-scale paper diff (every deterministic repro artifact vs its golden)"
# The tier-1 suite pins the smoke-scale output
# (crates/qcat-study/tests/repro_golden.rs); this runs the same
# artifact list at standard scale (a few minutes) and diffs it against
# the committed standard golden. The diff is uploaded with the other
# artifacts; it must be empty. Run in a scratch directory because fig7
# writes fig7.svg into the working directory.
repro_bin=$(pwd)/target/release/repro
repro_dir=$(mktemp -d)
(cd "$repro_dir" && "$repro_bin" --scale standard \
    fig7 table1 fig8 table2 table3 fig9 fig10 fig11 fig12 table4 ablation \
    > repro_standard.txt 2> /dev/null)
diff -u crates/qcat-study/tests/golden/repro_standard.txt "$repro_dir/repro_standard.txt" \
    > "$artifacts/repro-standard.diff" || {
    echo "standard-scale repro output differs from the golden:" >&2
    head -40 "$artifacts/repro-standard.diff" >&2
    exit 1
}
rm -rf "$repro_dir"

echo "==> traced smoke repro (QCAT_TRACE=json) + trace audit (T1-T5)"
trace=$artifacts/qcat-trace.jsonl
QCAT_TRACE=json QCAT_TRACE_FILE="$trace" \
    ./target/release/repro --scale smoke fig13 > /dev/null
cargo run --release -p qcat-lint -- --audit-trace "$trace"

echo "==> chaos smoke (QCAT_FAULT drill on the serving path + trace audit)"
# A fixed-seed fault plan must leave the quickstart with structured
# or degraded outcomes only — and the trace it emits must still pass
# the auditor, including T4 (governance events inside serve.query;
# the quickstart's speculation pass runs under the same storm, so
# speculative fills are audited too). exec.residual faults hit the
# containment post-filter specifically.
chaos_trace=$artifacts/qcat-chaos-trace.jsonl
chaos_out=target/qcat-chaos-out.txt
cargo build --release --example serve_quickstart --quiet
QCAT_FAULT='pool.task:error:p=0.6:seed=3;serve.fill:error:p=0.3:seed=5;exec.residual:error:p=0.5:seed=7' \
    QCAT_TRACE=json QCAT_TRACE_FILE="$chaos_trace" \
    ./target/release/examples/serve_quickstart > "$chaos_out"
grep -Eq 'degraded|structured error' "$chaos_out"
cargo run --release -p qcat-lint -- --audit-trace "$chaos_trace"

echo "==> flight-recorder smoke (QCAT_SLOW_MS=0 forces a dump per serve) + audit"
# Every serve trips the zero slow threshold, so the quickstart must
# leave a non-empty concatenated dump file — and both the full trace
# and the dumps themselves must pass the T1-T5 auditor (a dump is a
# self-contained causal tree).
slow_trace=$artifacts/qcat-slow-trace.jsonl
flight=$artifacts/qcat-flight-dumps.jsonl
QCAT_TRACE=json QCAT_TRACE_FILE="$slow_trace" \
    QCAT_SLOW_MS=0 QCAT_FLIGHT_FILE="$flight" \
    ./target/release/examples/serve_quickstart > /dev/null
test -s "$flight"
cargo run --release -p qcat-lint -- --audit-trace "$slow_trace" --audit-trace "$flight"

echo "==> ingest chaos smoke (concurrent append/read storm at pinned widths)"
# The tier-1 suite already sweeps reader widths {1, 2, 8}; this
# re-runs the chaos harness pinned to the serial and widest widths so
# a width-specific interleaving failure is attributable to its width.
# QCAT_FLIGHT_FILE points into the artifact bundle: a failing run
# leaves its flight-recorder dumps where CI uploads them.
for w in 1 8; do
    QCAT_THREADS=$w QCAT_FLIGHT_FILE="$artifacts/qcat-ingest-flight-w$w.jsonl" \
        cargo test -q --release --test ingest_stress > /dev/null
done

echo "OK: build + lint + docs + tests + bench smoke + refinement smoke + large-tier smoke + ingest smoke + observatory + traced smoke + chaos smoke + flight smoke + ingest chaos smoke all green"
