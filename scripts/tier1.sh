#!/bin/sh
# Tier-1 gate: release build, full test suite, canonical formatting, a
# warning-free clippy and rustdoc pass, and the benchmark harness build.
# Run from the repository root before merging.
set -eu

cd "$(dirname "$0")/.."

# Scratch space for the smokes below. The harness build rewrites
# perfbench/Cargo.lock, so the committed lockfile is saved first and put
# back on exit, whether the gate passes or fails.
OBS_TMP=$(mktemp -d)
cp perfbench/Cargo.lock "$OBS_TMP/perfbench.lock"
trap 'cp "$OBS_TMP/perfbench.lock" perfbench/Cargo.lock; rm -rf "$OBS_TMP"' EXIT

cargo build --release
cargo test --workspace -q
# The bit pins and the kernel properties (the tiled LUT GEMM and the
# lowering against their scalar oracles) again in the release profile,
# whose vectorised kernels are the ones that ship, with the interpreter vs
# compiled-graph pins over the 8A4W core both engines share, and the
# approximate conv's quantize-once lowering against its column path.
cargo test --release -q --test train_golden --test executor_golden \
    --test executor_consistency --test thread_invariance --test graph_invariance \
    --test conv_codes
cargo test --release -q -p axnn-proxsim -p axnn-tensor
cargo fmt --all --check
# Every `unsafe` block and impl carries its SAFETY comment, and an unsafe
# fn's unsafe operations sit in blocks of their own.
cargo clippy --workspace --all-targets -- -D warnings \
    -D clippy::undocumented_unsafe_blocks -D unsafe_op_in_unsafe_fn
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

# perfbench/ links the workspace crates by path: a deleted or renamed entry
# point it calls fails here, not in the benchmark run. Same build as
# perfbench/run.py.
CARGO_TARGET_DIR=.bench_build cargo build --release --offline \
    --manifest-path perfbench/Cargo.toml

# serve_up LABEL OUT [FLAG...]: starts `axnn serve` on the pipeline's
# checkpoint on an ephemeral port with FLAG..., stdout to OUT, and waits for
# its ready line. Sets SERVE_PID and ADDR; on timeout kills the server and
# fails with "tier1: LABEL did not print its ready line".
serve_up() {
    label=$1
    out=$2
    shift 2
    # Created here, not by the background redirect, so the poll below never
    # reads a file that does not exist yet.
    : >"$out"
    target/release/axnn serve --checkpoint "$OBS_TMP/ckpt.json" --width 0.2 --hw 8 \
        --port 0 "$@" >"$out" &
    SERVE_PID=$!
    ADDR=""
    for _ in $(seq 1 100); do
        ADDR=$(sed -n 's/^serving on \([^ ]*\) .*/\1/p' "$out")
        [ -n "$ADDR" ] && return 0
        sleep 0.1
    done
    echo "tier1: $label did not print its ready line" >&2
    kill "$SERVE_PID" 2>/dev/null || true
    exit 1
}

# A removed flag must fail loudly, not be silently ignored.
if target/release/axnn serve --batch-window-us 1 >"$OBS_TMP/old_flag.out" 2>&1 ||
    ! grep -q "unknown flag --batch-window-us" "$OBS_TMP/old_flag.out"; then
    echo "tier1: serve did not reject a removed flag" >&2
    exit 1
fi

# Observability smoke: a tiny profiled pipeline run must produce a JSONL
# profile that `axnn obs report` can render and `axnn obs diff` can gate on,
# with a nonzero exit once a counter regression is injected.
target/release/axnn pipeline --fp-epochs 1 --epochs 1 --train 64 --test 32 \
    --hw 8 --width 0.2 --profile "$OBS_TMP/run.jsonl" \
    --save "$OBS_TMP/ckpt.json" >/dev/null
target/release/axnn obs report "$OBS_TMP/run.jsonl" >/dev/null
target/release/axnn obs diff "$OBS_TMP/run.jsonl" "$OBS_TMP/run.jsonl" >/dev/null
sed -E 's/"approx_muls": ([0-9]+)/"approx_muls": 9\1/' \
    "$OBS_TMP/run.jsonl" >"$OBS_TMP/regressed.jsonl"
if target/release/axnn obs diff "$OBS_TMP/run.jsonl" "$OBS_TMP/regressed.jsonl" >/dev/null 2>&1; then
    echo "tier1: obs diff failed to flag an injected counter regression" >&2
    exit 1
fi
echo "tier1: obs smoke OK"

# A checkpoint whose first weight overflows f32 must not serve: `1e39`
# parses to +inf, so loading fails and the error names the tensor. The
# timeout bounds a server that wrongly comes up.
sed 's/"data":\[[^],]*/"data":[1e39/' "$OBS_TMP/ckpt.json" >"$OBS_TMP/inf_ckpt.json"
if timeout 20 target/release/axnn serve --checkpoint "$OBS_TMP/inf_ckpt.json" \
    --width 0.2 --hw 8 --port 0 >/dev/null 2>"$OBS_TMP/inf_serve.err" ||
    ! grep -q "params 0: 'data\[0\]' is not a finite f32" "$OBS_TMP/inf_serve.err"; then
    echo "tier1: serve accepted a checkpoint holding an overflowing weight" >&2
    exit 1
fi
echo "tier1: corrupted checkpoint smoke OK"

# Every command restores through one architecture table: an unknown
# `--model` gets the same message from each, and `search --checkpoint`
# restores the pipeline's checkpoint and searches from it.
for cmd in evaluate serve search; do
    if target/release/axnn "$cmd" --model vgg --checkpoint "$OBS_TMP/ckpt.json" \
        >"$OBS_TMP/vgg_$cmd.out" 2>&1 ||
        ! grep -q "unknown model 'vgg' (use resnet20|resnet32|mobilenetv2|lenet)" \
            "$OBS_TMP/vgg_$cmd.out"; then
        echo "tier1: $cmd did not reject --model vgg with the shared message" >&2
        exit 1
    fi
done
if ! target/release/axnn search --model resnet20 --checkpoint "$OBS_TMP/ckpt.json" \
    --width 0.2 --hw 8 --train 64 --test 32 --seed 5 --strategy greedy --pool trunc5 \
    --ft-epochs 0 --batch 16 --out "$OBS_TMP/search_ckpt.json" >/dev/null ||
    ! grep -q '"model": "ResNet20"' "$OBS_TMP/search_ckpt.json"; then
    echo "tier1: search did not run from the pipeline's checkpoint" >&2
    exit 1
fi
echo "tier1: model restore smoke OK"

# Serving smoke: the checkpoint the pipeline just saved must come up on an
# ephemeral port, survive a loadgen burst that forces admission-control
# rejections (queue capacity 1, max-batch 1, 8 concurrent connections),
# drain cleanly on shutdown, and leave a serving profile that
# `axnn obs report` renders. The second burst runs two replicas: they pop
# one queue, so `--queue-cap` still bounds the whole server and it must
# still reject.
for R in 1 2; do
    serve_up "serve --replicas $R" "$OBS_TMP/serve_b$R.out" --replicas "$R" \
        --max-batch 1 --queue-cap 1 --profile "$OBS_TMP/serve_b$R.jsonl"
    target/release/axnn loadgen --addr "$ADDR" --connections 8 --requests 4 \
        --shutdown true >"$OBS_TMP/loadgen_b$R.json"
    wait "$SERVE_PID"
    if ! grep -q "drained cleanly" "$OBS_TMP/serve_b$R.out"; then
        echo "tier1: serve ($R replicas) did not drain cleanly" >&2
        exit 1
    fi
    if grep -q '"ok": 0[,}]' "$OBS_TMP/loadgen_b$R.json"; then
        echo "tier1: loadgen burst ($R replicas) served nothing" >&2
        exit 1
    fi
    if grep -q '"rejected": 0[,}]' "$OBS_TMP/loadgen_b$R.json"; then
        echo "tier1: overloaded serve ($R replicas) rejected nothing (admission control broken)" >&2
        exit 1
    fi
    target/release/axnn obs report "$OBS_TMP/serve_b$R.jsonl" | grep -q "serve" || {
        echo "tier1: obs report does not render the serving profile ($R replicas)" >&2
        exit 1
    }
done
echo "tier1: serve smoke OK"

# Replica-invariance smoke: the same deterministic canary probe must return
# bit-identical logits from a 1-replica and a 4-replica server (the probe
# prints only the logit bit patterns, so `cmp` is exact).
for R in 1 4; do
    serve_up "serve --replicas $R" "$OBS_TMP/serve_r$R.out" --replicas "$R"
    target/release/axnn loadgen --addr "$ADDR" --canary-seed 3 >"$OBS_TMP/canary_r$R.json"
    target/release/axnn loadgen --addr "$ADDR" --connections 2 --requests 2 \
        --shutdown true >/dev/null
    wait "$SERVE_PID"
done
if ! cmp -s "$OBS_TMP/canary_r1.json" "$OBS_TMP/canary_r4.json"; then
    echo "tier1: logits differ between 1-replica and 4-replica servers" >&2
    exit 1
fi
echo "tier1: replica invariance smoke OK"

# Hot-swap smoke: reload the running server onto a fresh checkpoint in the
# middle of an open-loop load run; the swap must be acknowledged and the
# load report must show zero dropped connections (no errors) and zero
# rejections — nothing in flight is lost to the swap.
serve_up "hot-swap serve" "$OBS_TMP/serve_swap.out" --replicas 2 --queue-cap 64
target/release/axnn loadgen --addr "$ADDR" --connections 2 --requests 40 \
    --rate 60 >"$OBS_TMP/swap_load.json" &
LOAD_PID=$!
sleep 0.4
target/release/axnn loadgen --addr "$ADDR" --reload "$OBS_TMP/ckpt.json" \
    >"$OBS_TMP/swap_ack.json"
wait "$LOAD_PID"
target/release/axnn loadgen --addr "$ADDR" --connections 1 --requests 1 \
    --shutdown true >/dev/null
wait "$SERVE_PID"
grep -q '"status": "reloaded"' "$OBS_TMP/swap_ack.json" || {
    echo "tier1: hot-swap reload was not acknowledged" >&2
    exit 1
}
if ! grep -q '"errors": 0[,}]' "$OBS_TMP/swap_load.json" ||
    ! grep -q '"rejected": 0[,}]' "$OBS_TMP/swap_load.json"; then
    echo "tier1: hot-swap dropped or rejected in-flight requests" >&2
    exit 1
fi
echo "tier1: hot-swap smoke OK"

# Observability-plane smoke: a loaded server must answer the `metrics` and
# `trace` protocol commands live — `obs top --once --json` reports nonzero
# window throughput, a server-timed wire-decode window and per-replica
# batch counts, and `obs tail --once` prints well-formed trace records.
serve_up "observability serve" "$OBS_TMP/serve_obs.out" --replicas 2 --queue-cap 64
target/release/axnn loadgen --addr "$ADDR" --connections 4 --requests 8 >/dev/null
target/release/axnn obs top "$ADDR" --once --json >"$OBS_TMP/top.json"
grep -q '"status": "metrics"' "$OBS_TMP/top.json" || {
    echo "tier1: obs top did not return a metrics snapshot" >&2
    exit 1
}
if grep -q '"rps": 0[,}]' "$OBS_TMP/top.json"; then
    echo "tier1: metrics window reports zero throughput right after a burst" >&2
    exit 1
fi
grep -q '"decode_us": {"count": [1-9]' "$OBS_TMP/top.json" || {
    echo "tier1: metrics snapshot lacks a nonzero decode_us window" >&2
    exit 1
}
grep -q '"per_replica": \[{"replica": 0' "$OBS_TMP/top.json" || {
    echo "tier1: metrics snapshot lacks the per-replica section" >&2
    exit 1
}
grep -Eq '"replica": [01], "batches": [1-9]' "$OBS_TMP/top.json" || {
    echo "tier1: no replica recorded any batches" >&2
    exit 1
}
target/release/axnn obs tail "$ADDR" --once --n 8 >"$OBS_TMP/tail.out"
grep -Eq '^#[0-9]+ req=[0-9]+ t=\+[0-9.]+ms queue=[0-9]+us compute=[0-9]+us batch=[0-9]+\(n=[0-9]+\) replica=[01] plan_cache=(hit|miss)$' \
    "$OBS_TMP/tail.out" || {
    echo "tier1: obs tail printed no well-formed trace record" >&2
    exit 1
}
target/release/axnn loadgen --addr "$ADDR" --connections 1 --requests 1 \
    --shutdown true >/dev/null
wait "$SERVE_PID"
echo "tier1: observability plane smoke OK"

# Compiled-graph smoke: `evaluate` scores the checkpoint through the fused
# graph executor (its only inference path), and the profile must carry
# graph:* spans. Bit-identity with the interpreter oracle is a cargo test
# (tests/graph_invariance.rs).
target/release/axnn evaluate --checkpoint "$OBS_TMP/ckpt.json" --width 0.2 --hw 8 \
    --test 32 --profile "$OBS_TMP/eval_compiled.jsonl" >/dev/null 2>&1
target/release/axnn obs report "$OBS_TMP/eval_compiled.jsonl" | grep -q "graph:" || {
    echo "tier1: compiled profile carries no graph:* spans" >&2
    exit 1
}
echo "tier1: compiled graph smoke OK"

# Search smoke: a tiny heterogeneous multiplier search must (a) emit a
# report with a non-empty Pareto frontier whose energies are monotone
# non-increasing, (b) be fully deterministic — a same-seed rerun produces a
# byte-identical BENCH file — and (c) surface its counters in `obs report`.
SEARCH_FLAGS="--model lenet --width 0.2 --hw 8 --train 64 --test 32 --seed 5 \
    --fp-epochs 2 --quant-epochs 1 --strategy both --generations 2 \
    --population 4 --drop 0.2 --pool trunc3,trunc5 --ft-epochs 0 --batch 16"
target/release/axnn search $SEARCH_FLAGS --out "$OBS_TMP/search_a.json" \
    --profile "$OBS_TMP/search.jsonl" >/dev/null
target/release/axnn search $SEARCH_FLAGS --out "$OBS_TMP/search_b.json" >/dev/null
if ! cmp -s "$OBS_TMP/search_a.json" "$OBS_TMP/search_b.json"; then
    echo "tier1: same-seed search reruns differ (determinism broken)" >&2
    exit 1
fi
awk '
    /"pareto": \[/ { inside = 1; next }
    inside && /^  \]/ { inside = 0; next }
    inside && match($0, /"energy": [0-9.eE+-]+/) {
        e = substr($0, RSTART + 10, RLENGTH - 10) + 0
        if (seen && e > prev + 1e-12) {
            printf "tier1: Pareto energy increases (%.9f -> %.9f)\n", prev, e
            exit 1
        }
        prev = e; seen = 1
    }
    END { if (!seen) { print "tier1: search produced an empty Pareto frontier"; exit 1 } }
' "$OBS_TMP/search_a.json"
target/release/axnn obs report "$OBS_TMP/search.jsonl" | grep -q "search" || {
    echo "tier1: obs report does not surface the search counters" >&2
    exit 1
}
echo "tier1: search smoke OK"

# Streaming data-plane smoke: one raw HxWxC frame served through the
# preprocessing stage must yield logits bit-identical to the
# client-preprocessed tensor path (the `stream` probe exits nonzero
# otherwise), the preprocessing stage hists (`data:*`, `serve:preprocess`)
# must appear in `obs top --once --json`, and the loader-backed evaluate
# must be invariant to the worker count.
serve_up "stream serve" "$OBS_TMP/serve_stream.out" --replicas 2 --queue-cap 64
target/release/axnn stream --addr "$ADDR" --probe-seed 7 \
    --frame-height 19 --frame-width 23 >"$OBS_TMP/probe.json"
grep -q '"probe": "ok"' "$OBS_TMP/probe.json" || {
    echo "tier1: raw-frame logits are not bit-identical to the tensor path" >&2
    exit 1
}
target/release/axnn obs top "$ADDR" --once --json >"$OBS_TMP/stream_top.json"
grep -q '"name": "data:' "$OBS_TMP/stream_top.json" || {
    echo "tier1: metrics snapshot lacks the data:* preprocessing hists" >&2
    exit 1
}
grep -q '"name": "serve:preprocess_us"' "$OBS_TMP/stream_top.json" || {
    echo "tier1: metrics snapshot lacks the serve:preprocess stage hist" >&2
    exit 1
}
target/release/axnn loadgen --addr "$ADDR" --connections 1 --requests 1 \
    --shutdown true >/dev/null
wait "$SERVE_PID"
target/release/axnn evaluate --checkpoint "$OBS_TMP/ckpt.json" --width 0.2 --hw 8 \
    --test 32 --loader true --loader-workers 1 >"$OBS_TMP/eval_l1.out" 2>/dev/null
target/release/axnn evaluate --checkpoint "$OBS_TMP/ckpt.json" --width 0.2 --hw 8 \
    --test 32 --loader true --loader-workers 3 --loader-prefetch 2 \
    >"$OBS_TMP/eval_l3.out" 2>/dev/null
if ! cmp -s "$OBS_TMP/eval_l1.out" "$OBS_TMP/eval_l3.out"; then
    echo "tier1: loader-backed evaluate depends on the worker count" >&2
    exit 1
fi
echo "tier1: stream smoke OK"

# Knee-probe smoke: `stream --checkpoint` without `--fps` calibrates
# closed-loop, then sweeps a 2-step ladder around it. The document must
# carry the schema, a positive calibration, the knee and, per step, the
# preprocess / queue-wait / compute stages.
target/release/axnn stream --checkpoint "$OBS_TMP/ckpt.json" --width 0.2 --hw 8 \
    --sweep-steps 2 --step-s 0.3 --out "$OBS_TMP/stream.json" >/dev/null 2>&1 || {
    echo "tier1: stream --checkpoint knee probe failed" >&2
    exit 1
}
if ! grep -q '^{"schema": "BENCH_stream.v2", "frame": ' "$OBS_TMP/stream.json" ||
    grep -q '"calibration_rps": 0,' "$OBS_TMP/stream.json" ||
    ! grep -q '"knee_offered_rps": ' "$OBS_TMP/stream.json"; then
    echo "tier1: stream document lacks the schema, calibration or knee" >&2
    exit 1
fi
for stage in preprocess queue_wait compute; do
    if [ "$(grep -o "\"$stage\": {\"summary\"" "$OBS_TMP/stream.json" | wc -l)" -ne 2 ]; then
        echo "tier1: stream document lacks a per-step $stage stage" >&2
        exit 1
    fi
done
echo "tier1: knee probe smoke OK"

# Size flags are validated before anything runs, with one shared message.
if target/release/axnn loadgen --checkpoint "$OBS_TMP/ckpt.json" --queue-cap 0 \
    >"$OBS_TMP/cap0.out" 2>&1 ||
    ! grep -q -- "--queue-cap must be at least 1" "$OBS_TMP/cap0.out"; then
    echo "tier1: loadgen --checkpoint accepted --queue-cap 0" >&2
    exit 1
fi
for rate in -5 NaN; do
    if target/release/axnn loadgen --addr 127.0.0.1:9 --rate "$rate" \
        >"$OBS_TMP/rate.out" 2>&1 ||
        ! grep -q -- "--rate must be a finite rate >= 0" "$OBS_TMP/rate.out"; then
        echo "tier1: loadgen accepted --rate $rate" >&2
        exit 1
    fi
done
echo "tier1: flag validation smoke OK"
