#!/bin/sh
# CI entry point: Release build, full test suite, benchmark smoke
# check, the benchmark's seed-1 digest check, the golden stats and
# snapshot manifest gates, the crash-resume gate, the telemetry
# overhead gate, the test suite again under ASan+UBSan, and the --jobs
# tests under TSan.
#
#   tools/ci.sh [build-dir]
#
# Simulation results are gated exactly, not host time: the digest step
# reruns every benchmark/run.py workload (the paper's Fig. 6 and
# Fig. 7 matrices, the idle sweep and the checkpointing campaign) and
# compares a hash of every RunResult field of every run with
# benchmark/expected_seed1.json. Throughput is judged by alternating
# benchmark/run.py sets of two commits on one host, compared with
# benchmark/compare.py (benchmark/README.md); a fixed cycles/sec
# baseline measures the host as much as the code.
set -eu

repo=$(cd "$(dirname "$0")/.." && pwd)
build=${1:-"$repo/build-ci"}

echo "== configure (Release) =="
cmake -B "$build" -S "$repo" -DCMAKE_BUILD_TYPE=Release

echo "== build =="
cmake --build "$build" -j "$(nproc 2>/dev/null || echo 2)"

echo "== test =="
ctest --test-dir "$build" --output-on-failure

echo "== benchmark smoke =="
# Build benchmark/fsoi_bench.cc against the current src/ (its own
# tree, .bench_build/) and check that untraced and traced digests
# agree, so a src/ API change that breaks the benchmark fails here.
python3 "$repo/benchmark/run.py" --smoke

echo "== benchmark seed-1 digests =="
# One untimed rep of every workload (three passes each) at seed 1.
# run.py exits 1 and prints `FAIL <workload> run <name>: digest ...
# != blessed ...` for any run whose result digest differs from
# benchmark/expected_seed1.json. A difference is a simulation-result
# change; if intentional, rewrite the file with
# `python3 benchmark/run.py --bless` and commit it.
python3 "$repo/benchmark/run.py" --reps=1 --seconds=0 \
    --out="$build/ci_bench_seed1"

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
# reproduce the report exactly. Afterwards the campaign directory must
# hold only the journal.
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
# Finished points remove their checkpoints, including a temp file the
# kill may have cut short mid-save: only the journal stays.
left=$(ls -A "$build/ci_camp_kill")
if [ "$left" != "campaign.jsonl" ]; then
    echo "  campaign directory holds more than the journal:" $left >&2
    exit 1
fi

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
# tree keeps the instrumented objects away from the Release ones the
# overhead gate times.
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

echo "== ci passed =="
