#!/bin/sh
# CI entry point: Release build, full test suite, and the simulator
# performance gate.
#
#   tools/ci.sh [build-dir]
#
# The perf gate runs bench/perf_harness in --quick mode and compares
# cycle counts (must match exactly -- any drift is a simulation-result
# change) and cycles/sec (must not regress more than 10%) against the
# committed BENCH_perf.json. The baseline is host-dependent; after an
# intentional perf change or a CI-machine move, regenerate it with
#
#   build/bench/perf_harness --quick --json=BENCH_perf.json
#
# and commit the result.
set -eu

repo=$(cd "$(dirname "$0")/.." && pwd)
build=${1:-"$repo/build-ci"}

echo "== configure (Release) =="
cmake -B "$build" -S "$repo" -DCMAKE_BUILD_TYPE=Release

echo "== build =="
cmake --build "$build" -j "$(nproc 2>/dev/null || echo 2)"

echo "== test =="
ctest --test-dir "$build" --output-on-failure

echo "== golden stats gate =="
# Re-run the instrumented 16-core quickstart config and require its
# stats JSON to match the committed golden file exactly (host.* wall
# -clock stats are excluded by stats_report's default ignore list).
# Any diff is a simulation-result or stat-name change; if intentional,
# regenerate with
#
#   rm -f tools/golden_stats_16core.json
#   build/examples/quickstart fft 16 \
#       --stats-json=tools/golden_stats_16core.json
#
# and commit the result.
rm -f "$build/ci_stats_16core.json"
"$build/examples/quickstart" fft 16 \
    --stats-json="$build/ci_stats_16core.json" > /dev/null
"$build/tools/stats_report" --diff "$repo/tools/golden_stats_16core.json" \
    "$build/ci_stats_16core.json"

echo "== golden snapshot manifest gate =="
# Checkpoint the same 16-core quickstart config mid-run (fixed period,
# so the final checkpoint lands at a fixed cycle) and require the
# snapshot's section manifest -- format version, root hash, and every
# section's size and FNV-1a hash -- to match the committed golden
# manifest byte for byte. Any diff is a serialization-format or
# simulation-state change; if intentional, regenerate with
#
#   build/examples/quickstart fft 16 \
#       --checkpoint=ci_snap.ckpt --checkpoint-every=60000
#   build/tools/stats_report --snapshot ci_snap.ckpt --manifest \
#       > tools/golden_snapshot_16core.manifest
#
# and commit the result (then delete ci_snap.ckpt).
rm -f "$build/ci_snap.ckpt"
"$build/examples/quickstart" fft 16 \
    --checkpoint="$build/ci_snap.ckpt" --checkpoint-every=60000 \
    > /dev/null
"$build/tools/stats_report" --snapshot "$build/ci_snap.ckpt" --manifest \
    > "$build/ci_snap.manifest"
diff -u "$repo/tools/golden_snapshot_16core.manifest" \
    "$build/ci_snap.manifest"

echo "== crash-resume gate =="
# Kill a sweep campaign mid-flight with SIGKILL, resume it with the
# same command line, and require the consolidated JSON report to be
# byte-identical to an uninterrupted run's. The kill lands after the
# first point's done record hits the journal, so the resume exercises
# both journal replay (finished points) and checkpoint restore (the
# in-flight point). If the campaign finishes before the kill lands,
# the resume degenerates to pure journal replay, which must still
# reproduce the report exactly.
camp_args="--points=4 --app=fft --scale=0.3 --checkpoint-every=10000 \
    --seed=42"
rm -rf "$build/ci_camp_full" "$build/ci_camp_kill"
# shellcheck disable=SC2086
"$build/tools/sweep_campaign" --dir="$build/ci_camp_full" \
    $camp_args --json="$build/ci_camp_full.json" 2> /dev/null
# shellcheck disable=SC2086
"$build/tools/sweep_campaign" --dir="$build/ci_camp_kill" \
    $camp_args --json="$build/ci_camp_kill.json" 2> /dev/null &
camp_pid=$!
while kill -0 "$camp_pid" 2> /dev/null; do
    if grep -q '"event":"done"' \
        "$build/ci_camp_kill/campaign.jsonl" 2> /dev/null; then
        kill -9 "$camp_pid" 2> /dev/null || true
        break
    fi
    sleep 0.05
done
wait "$camp_pid" 2> /dev/null || true
rm -f "$build/ci_camp_kill.json"
# shellcheck disable=SC2086
"$build/tools/sweep_campaign" --dir="$build/ci_camp_kill" \
    $camp_args --json="$build/ci_camp_kill.json" 2> /dev/null
cmp "$build/ci_camp_full.json" "$build/ci_camp_kill.json"
echo "  resumed report byte-identical"

echo "== telemetry overhead gate =="
# The observability layer (flight recorder + self-profiler + link
# telemetry) must cost < 3% cycles/sec against the same config with
# the tunable parts disabled, and must not change simulated cycles.
# Full scale keeps each timed run long enough to ride out scheduler
# jitter on small CI hosts; the bench itself re-measures (--rounds)
# when a round catches a throttling spike.
"$build/bench/obs_overhead" --max=3 --reps=5 1.0

echo "== sanitizer leg (ASan + UBSan) =="
# The whole test suite again under AddressSanitizer + UBSan
# (-fno-sanitize-recover=all: any finding is fatal). A separate build
# tree keeps the instrumented objects away from the perf-gated ones.
# The fault-injection paths get their deepest coverage here: the fault
# tests drive dead channels, route-around tables, and retransmission
# queues, exactly the pointer-heavy code a latent lifetime bug hides in.
sanbuild="$build-asan"
cmake -B "$sanbuild" -S "$repo" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DFSOI_SANITIZE=ON
cmake --build "$sanbuild" -j "$(nproc 2>/dev/null || echo 2)"
ctest --test-dir "$sanbuild" --output-on-failure

echo "== sanitizer leg (TSan, --jobs) =="
# The --jobs tests again under ThreadSanitizer: a System always runs
# on one thread, but SweepRunner and CampaignRunner run several
# Systems at once on a worker pool, sharing the process-global tracer,
# the live flight-recorder registry and the campaign journal. Scoped
# to those tests: TSan slows runs ~10x and the pool is exactly what
# they drive.
tsanbuild="$build-tsan"
cmake -B "$tsanbuild" -S "$repo" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DFSOI_SANITIZE=thread
cmake --build "$tsanbuild" -j "$(nproc 2>/dev/null || echo 2)" \
    --target test_determinism test_snapshot
ctest --test-dir "$tsanbuild" --output-on-failure -R \
    "Determinism\.(ParallelMatchesSerial|KeepSystemMatchesPlainRun)|Campaign\.ParallelJobsMatchSerial"

echo "== perf gate =="
# Warmup pass (discarded): absorbs post-build CPU-quota throttling and
# cold caches so the gated measurement reflects steady state. The
# gated pass takes best-of-5 per matrix point, interleaved to ride out
# transient host load. The matrix includes the idle-heavy point
# (fsoi.idle), so the event calendar's skip-path throughput is gated
# alongside the busy-matrix cycles/sec.
"$build/bench/perf_harness" --quick --reps=1 > /dev/null
"$build/bench/perf_harness" --quick --reps=5 \
    --check="$repo/BENCH_perf.json" --tolerance=0.10

echo "== ci passed =="
