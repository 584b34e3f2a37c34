#!/usr/bin/env python3
"""Host-time benchmark of fsoi-sim: build, run, check, report.

One workload, one process (the form BENCHMARK.json's command uses):

    python3 benchmark/run.py --workload paper16 --seed 1 --seconds 15 --trace 0

prints a report and, as its last line, one JSON object with `correct`,
`attempted`, `failed` and `metrics` (the end-to-end metrics, or with
`--trace 1` the per-layer metrics). It exits non-zero when any result
fails its check.

Without --workload it runs every workload:

    run.py [--seed=N] [--reps=N] [--out=DIR]   a set: N reps per workload,
                                               round-robin, one process each
    run.py --traced [--out=DIR]                one traced rep per workload
    run.py --smoke                             tiny sizes; checks the
                                               benchmark itself in < 30 s
    run.py --bless                             rewrite expected_seed1.json

Everything it builds or writes stays inside the checkout: the build in
.bench_build/, results and traces in .bench_out/.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
OUT = ROOT / ".bench_out"
EXPECTED = HERE / "expected_seed1.json"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Per-layer metric -> (module, end-to-end metric it should move,
# workload with the most work for it, workload with the least).
LAYERS = {
    "sim.construct_ms": ("sim", "setup_s", "paper64", "idle16"),
    "workload.load_ms": ("workload", "setup_s", "paper64", "idle16"),
    "sim.run_ns_per_exec_cycle": ("sim", "wall_s, sim_cycles_per_s", "all", "-"),
    "sim.sched.skip_frac": ("sim", "wall_s", "idle16", "paper64"),
    "sim.sched.events_per_exec_cycle": ("sim", "wall_s", "idle16", "paper64"),
    "sim.sched.ns_per_sampled_cycle": ("sim", "wall_s", "idle16", "paper64"),
    "sim.local_route.ns_per_sampled_cycle": ("sim", "wall_s", "idle16", "paper64"),
    "noc.mesh.ns_per_sampled_cycle": ("noc", "wall_s, run_p90_s", "paper64", "idle16"),
    "noc.ideal.ns_per_sampled_cycle": ("noc", "wall_s, run_p90_s", "paper64", "idle16"),
    "fsoi.ns_per_sampled_cycle": ("fsoi", "wall_s", "paper16", "idle16"),
    "coherence.dir.ns_per_sampled_cycle": ("coherence", "wall_s", "paper16, paper64", "idle16"),
    "coherence.l1.ns_per_sampled_cycle": ("coherence", "wall_s", "paper16, paper64", "idle16"),
    "memory.ns_per_sampled_cycle": ("memory", "wall_s", "paper16, paper64", "idle16"),
    "cpu.ns_per_sampled_cycle": ("cpu", "wall_s", "idle16", "campaign64"),
    "obs.profile_coverage": ("obs", "none", "all", "-"),
    "sim.instructions": ("sim", "none (fixed)", "all", "-"),
    "noc.packets_delivered": ("noc", "none (fixed)", "all", "-"),
    "coherence.l1_miss_rate": ("coherence", "none (fixed)", "all", "-"),
    "snapshot.save_ms": ("snapshot", "wall_s, run_p50_s", "campaign64", "paper16"),
    "snapshot.restore_ms": ("snapshot", "wall_s, run_p50_s", "campaign64", "paper16"),
    "snapshot.bytes": ("snapshot", "wall_s, run_p50_s", "campaign64", "paper16"),
    "snapshot.periodic_share": ("snapshot", "wall_s", "campaign64", "paper16"),
    "snapshot.checkpoints_written": ("snapshot", "wall_s", "campaign64", "paper16"),
    "noc.mesh16.ns_per_cycle.lo": ("noc", "wall_s, run_p90_s", "paper64", "idle16"),
    "noc.mesh16.ns_per_cycle.hi": ("noc", "wall_s, run_p90_s", "paper64", "idle16"),
    "noc.mesh64.ns_per_cycle.hi": ("noc", "wall_s, run_p90_s", "paper64", "idle16"),
    "noc.mesh16.ns_per_packet.hi": ("noc", "wall_s, run_p90_s", "paper64", "idle16"),
    "fsoi.ns_per_cycle.lo": ("fsoi", "wall_s", "paper16", "idle16"),
    "fsoi.ns_per_cycle.hi": ("fsoi", "wall_s", "paper16", "idle16"),
    "fsoi.ns_per_packet.hi": ("fsoi", "wall_s", "paper16", "idle16"),
    "fsoi.collision_frac.hi": ("fsoi", "wall_s", "paper16", "idle16"),
    "workload.gen_ns_per_instr.paper": ("workload", "wall_s", "idle16", "campaign64"),
    "workload.gen_ns_per_instr.idle": ("workload", "wall_s", "idle16", "campaign64"),
    "bench.trace_overhead": ("benchmark", "none", "all", "-"),
}

# Fig. 6(b) geometric-mean speedups over the mesh reported in the paper.
PAPER_SPEEDUPS = {"FSOI": 1.36, "L0": 1.43, "Lr1": 1.32, "Lr2": 1.22}


def die(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configure once, then let the build tool bring fsoi_bench up to date."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"simulator sources not found at {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        die("cmake not found")
    # The compiler's temporary files stay inside the checkout too.
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = {**os.environ, "TMPDIR": str(tmp)}
    if not (BUILD / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release", *gen]
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            die("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                      stdout=sys.stderr, env=env).returncode != 0:
        die("build failed")
    return BUILD / "fsoi_bench"


def run_workload(exe, workload, seed, seconds, passes=3, trace=None,
                 smoke=False, crosscheck=0):
    """One fsoi_bench process; returns its raw result, or None if it died."""
    OUT.mkdir(exist_ok=True)
    tag = f"{workload}-{os.getpid()}"
    out = OUT / f"raw-{tag}.json"
    scratch = OUT / f"scratch-{tag}"
    cmd = [str(exe), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--passes={passes}", f"--out={out}",
           f"--scratch={scratch}", f"--crosscheck={crosscheck}"]
    if trace:
        cmd.append(f"--trace={trace}")
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stderr=subprocess.PIPE, text=True)
        # Campaign horizons end at max_cycles by design; the simulator
        # warns about each one.
        for line in proc.stderr.splitlines():
            if "hit max_cycles" not in line:
                print(line, file=sys.stderr)
        if proc.returncode != 0:
            print(f"run.py: {workload} seed {seed} exited with "
                  f"{proc.returncode}", file=sys.stderr)
            return None
        return json.loads(out.read_text())
    finally:
        out.unlink(missing_ok=True)
        shutil.rmtree(scratch, ignore_errors=True)


def best_per_run(raw, key):
    """Each run's (or System's) shortest time over the timed passes.

    Every pass repeats identical, deterministic runs, so a run's time
    varies only with host noise, and on a shared machine that noise only
    ever slows a run down, in bursts shorter than a pass. The per-run
    minimum drops it; the per-pass median, tried first, left 2-3x the
    seed-to-seed spread (benchmark/README.md)."""
    return [min(col) for col in zip(*(p[key] for p in raw["passes"]))]


def end_to_end(raw):
    runs = best_per_run(raw, "run_s")
    wall = sum(runs)
    return {
        "wall_s": wall,
        "sim_cycles_per_s": raw["passes"][0]["cycles"] / wall,
        "run_p50_s": statistics.median(runs),
        "run_p90_s": statistics.quantiles(runs, n=10)[8],
        "setup_s": sum(best_per_run(raw, "setup_s")),
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def blessed_mismatches(raw):
    """Runs whose digest differs from expected_seed1.json (seed 1 only)."""
    if raw["seed"] != 1 or raw["smoke"]:
        return []
    if not EXPECTED.is_file():
        return [f"{raw['workload']}: {EXPECTED.name} missing"]
    blessed = json.loads(EXPECTED.read_text())["workloads"].get(raw["workload"])
    if blessed is None:
        return [f"{raw['workload']}: no blessed digests"]
    if blessed["params"] != raw["params"]:
        return [f"{raw['workload']}: parameters changed since bless "
                f"({blessed['params']!r} -> {raw['params']!r})"]
    got = raw["digests"]
    names = sorted(set(blessed["digests"]) | set(got))
    return [f"{raw['workload']} run {n}: digest {got.get(n)} != blessed "
            f"{blessed['digests'].get(n)}"
            for n in names if got.get(n) != blessed["digests"].get(n)]


def result(raw, traced):
    """The result object printed last, plus the failure messages."""
    mismatched = blessed_mismatches(raw)
    failures = raw["failures"] + mismatched
    values = raw["layers"] if traced else end_to_end(raw)
    kind = "per_layer" if traced else "end_to_end"
    metrics = {}
    for m in SPEC[kind]:
        if values.get(m["name"]) is None:
            print(f"warning: metric {m['name']} not measured",
                  file=sys.stderr)
            continue
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    line = {
        "correct": not failures,
        "attempted": raw["attempted"],
        "failed": raw["failed"] + len(mismatched) * raw["passes_run"],
        "metrics": metrics,
    }
    return line, failures


def report(raw, line, failures):
    """Human-readable lines printed before the JSON line."""
    passes = raw["passes"]
    print(f"{raw['workload']} seed {raw['seed']}: {raw['params']}")
    print(f"  {len(passes)} timed passes of {len(passes[0]['run_s'])} runs "
          f"(best per run; {len(passes[0]['run_s']) // 10} beyond p90), "
          f"{line['attempted']} runs checked, {line['failed']} failed")
    traced = "layers" in raw
    for name, m in line["metrics"].items():
        tag = ""
        if traced:
            module, moves, most, least = LAYERS.get(name, ("?",) * 4)
            tag = f"  [{module}; moves {moves}; most {most}, least {least}]"
        print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}{tag}")
    if traced:
        print("  span self time (ms, calls):")
        for name, s in sorted(raw["self"].items(),
                              key=lambda kv: -kv[1]["self_ms"]):
            print(f"    {name:32s} {s['self_ms']:12.3f} {s['count']:6d}")
    if raw["info"]:
        # The model is not validated against hardware; these show only
        # that the sweep produced the figure's shape.
        cells = [f"{k} {raw['info']['geomean_' + k]:.2f} (paper {v})"
                 for k, v in PAPER_SPEEDUPS.items()
                 if "geomean_" + k in raw["info"]]
        print("  speedup over mesh, geomean (informational): "
              + ", ".join(cells))
    if raw["seed"] != 1 or raw["smoke"]:
        print(f"  digests (seed {raw['seed']}): "
              + json.dumps(raw["digests"], sort_keys=True))
    for f in failures:
        print(f"  FAIL {f}")


def one_rep(args):
    exe = build()
    traced = args.trace == 1
    trace = OUT / f"trace-{args.workload}.json" if traced else None
    # A traced run is one untraced pass (the overhead baseline), one
    # traced pass and the probes, whatever --seconds says.
    raw = run_workload(exe, args.workload, args.seed,
                       0 if traced else args.seconds,
                       passes=1 if traced else 3, trace=trace)
    if raw is None:
        sys.exit(1)
    line, failures = result(raw, traced)
    report(raw, line, failures)
    print(json.dumps(line))
    sys.exit(0 if line["correct"] else 1)


def set_dir(args, kind):
    out = Path(args.out) if args.out else OUT / time.strftime(
        f"{kind}-%Y%m%d-%H%M%S")
    out.mkdir(parents=True, exist_ok=True)
    return out


def save(out, name, raw, line):
    keep = {k: raw[k] for k in ("workload", "seed", "params", "digests",
                                "info", "failures")}
    (out / name).write_text(json.dumps({**keep, **line}, indent=1) + "\n")


def run_set(args):
    """Reps interleaved round-robin, each workload rep its own process."""
    exe = build()
    out = set_dir(args, "set")
    ok = True
    for rep in range(args.reps):
        for w in WORKLOADS:
            raw = run_workload(exe, w, args.seed, args.seconds)
            if raw is None:
                ok = False
                continue
            line, failures = result(raw, False)
            report(raw, line, failures)
            save(out, f"{w}.rep{rep}.json", raw, line)
            ok &= line["correct"]
    print(f"results in {out}; compare two sets with benchmark/compare.py")
    return ok


def run_traced(args):
    exe = build()
    out = set_dir(args, "traced")
    ok = True
    for w in WORKLOADS:
        raw = run_workload(exe, w, args.seed, 0, passes=1,
                           trace=out / f"trace-{w}.json")
        if raw is None:
            ok = False
            continue
        line, failures = result(raw, True)
        report(raw, line, failures)
        save(out, f"{w}.traced.json", raw, line)
        ok &= line["correct"]
    print(f"traces in {out}/trace-*.json (open in ui.perfetto.dev)")
    return ok


def run_smoke(args):
    """Each workload twice at tiny size, untraced then traced: the
    output must parse, name every BENCHMARK.json metric with its unit,
    and give the same digests both times."""
    exe = build()
    out = OUT / f"smoke-{os.getpid()}"
    out.mkdir(parents=True, exist_ok=True)
    problems = []
    try:
        for w in WORKLOADS:
            plain = run_workload(exe, w, args.seed, 0, passes=1, smoke=True)
            traced = run_workload(exe, w, args.seed, 0, passes=1, smoke=True,
                                  trace=out / "trace.json")
            if plain is None or traced is None:
                problems.append(f"{w}: benchmark process failed")
                continue
            json.loads((out / "trace.json").read_text())
            for raw, kind in ((plain, "end_to_end"), (traced, "per_layer")):
                line, failures = result(raw, kind == "per_layer")
                problems += [f"{w}: {f}" for f in failures]
                for m in SPEC[kind]:
                    got = line["metrics"].get(m["name"])
                    if got is None or got["unit"] != m["unit"]:
                        problems.append(f"{w}: {kind} metric {m['name']} "
                                        "missing")
            if plain["digests"] != traced["digests"]:
                problems.append(f"{w}: digests differ between two smoke runs")
            print(f"smoke {w}: {len(plain['digests'])} digests, "
                  f"{plain['attempted'] + traced['attempted']} runs")
    finally:
        shutil.rmtree(out, ignore_errors=True)
    for p in problems:
        print(f"FAIL {p}")
    print("smoke ok" if not problems else "smoke FAILED")
    return not problems


def run_bless(args):
    """Seed-1 digests of every workload, each cross-checked on 5 sampled
    runs against the figure benches' SweepRunner::runJob path."""
    exe = build()
    blessed = {}
    for w in WORKLOADS:
        raw = run_workload(exe, w, 1, 0, passes=1, crosscheck=5)
        if raw is None or raw["failures"]:
            print(f"bless refused: {w}: "
                  f"{raw['failures'] if raw else 'process failed'}")
            return False
        blessed[w] = {"params": raw["params"], "digests": raw["digests"]}
    EXPECTED.write_text(json.dumps({"seed": 1, "workloads": blessed},
                                   indent=1, sort_keys=True) + "\n")
    print(f"wrote {EXPECTED}")
    return True


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reps", type=int, default=3)
    ap.add_argument("--out")
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--traced", action="store_true")
    mode.add_argument("--smoke", action="store_true")
    mode.add_argument("--bless", action="store_true")
    args = ap.parse_args()
    if args.seed < 0:
        die("--seed must be non-negative")
    if args.workload:
        one_rep(args)
    elif args.smoke:
        ok = run_smoke(args)
    elif args.bless:
        ok = run_bless(args)
    elif args.traced:
        ok = run_traced(args)
    else:
        ok = run_set(args)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
