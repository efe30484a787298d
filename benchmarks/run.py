"""qpmatch benchmark: drive ``qpmatch.cli.main`` on generated inputs and report metrics.

One workload, as the benchmark contract runs it:

    python3 benchmarks/run.py --workload search-small --seed 1 --seconds 30 --trace 0

prints a few human-readable lines and, last, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics of BENCHMARK.json, ``--trace 1`` the
per-layer ones.  Every workload, several seeds, with a summary:

    python3 benchmarks/run.py --all --runs 10 --record benchmarks/results/baseline.json

Each measurement runs in a fresh single-threaded worker process
(``worker.py``).  This process stays small on purpose: a child inherits its
parent's peak RSS as the floor of its own ``ru_maxrss``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_ROOT = os.path.join(ROOT, ".bench_work")
WORKLOADS = ("search-small", "synth-verify", "index-scan")
WORK_UNITS = {"search-small": "trials", "synth-verify": "gates synthesized", "index-scan": "text bytes"}
SETUP_RUNS = 7  # worker processes whose set-up is timed; setup_s is their median
DEADLINE_S = 170  # every run ends within the contract's 180 s
TAIL_BEYOND = 10  # cmd_tail_s: highest percentile with this many samples beyond it
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchmarkError(Exception):
    pass


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_worker(workdir, name, seed, seconds, mode, tiny, deadline) -> tuple:
    """Start one worker, wait for it, return (its spawn time, its result)."""
    env = dict(os.environ, **{var: "1" for var in THREAD_ENV})
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", name, "--seed", str(seed),
            "--seconds", str(seconds), "--mode", mode, "--workdir", workdir] + (["--tiny"] if tiny else [])
    spawned = time.monotonic()
    timeout = deadline - spawned
    if timeout <= 0:
        raise BenchmarkError("out of time before starting a worker")
    try:
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # subprocess.run has killed and reaped the worker
        raise BenchmarkError(f"{mode} worker timed out after {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"{mode} worker exited with code {proc.returncode}")
    return spawned, json.loads(lines[-1])


def tail(durations: list) -> tuple:
    """(value, percentile, samples) at the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(durations)
    rank = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[rank], 100.0 * (rank + 1) / len(ordered), len(ordered)


def run_workload(name, seed, seconds, trace, tiny=False) -> dict:
    """Measure one workload; returns metrics, counts and notes for the report."""
    if not os.path.isfile(os.path.join(ROOT, "src", "qpmatch", "cli.py")):
        raise BenchmarkError(f"no qpmatch sources under {os.path.join(ROOT, 'src')}")
    deadline = time.monotonic() + DEADLINE_S
    os.makedirs(WORK_ROOT, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=WORK_ROOT)
    try:
        def worker(mode, index):
            workdir = os.path.join(run_dir, str(index))
            os.mkdir(workdir)
            try:
                return run_worker(workdir, name, seed, seconds, mode, tiny, deadline)
            finally:
                shutil.rmtree(workdir)

        if trace:
            _, res = worker("trace", 0)
            return {"metrics": res["per_layer"], "attempted": res["attempted"], "failed": res["failed"],
                    "notes": {}}
        setups = []
        for index in range(SETUP_RUNS - 1):
            spawned, res = worker("setup", index)
            setups.append(res["first_timed_monotonic"] - spawned)
        spawned, res = worker("measure", SETUP_RUNS - 1)
        setups.append(res["first_timed_monotonic"] - spawned)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:  # another run still uses it
            pass

    durations, size = res["durations"], res["round_size"]
    rounds = len(durations) // size
    best = [min(durations[slot::size]) for slot in range(size)]
    tail_s, tail_pct, samples = tail(durations)
    metrics = {
        "setup_s": statistics.median(setups),
        "cmds_per_s": size / sum(best),
        "cmd_p50_s": statistics.median(best),
        "cmd_tail_s": tail_s,
        "work_per_s": res["work"] / rounds / sum(best),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    notes = {"cmd_tail_percentile": tail_pct, "cmd_samples": samples, "setup_samples": len(setups),
             "fail_ratio": res["failed"] / res["attempted"], "work_unit": WORK_UNITS[name]}
    return {"metrics": metrics, "attempted": res["attempted"], "failed": res["failed"], "notes": notes}


def result_line(run: dict, declared: list) -> str:
    names = [m["name"] for m in declared]
    if sorted(run["metrics"]) != sorted(names):
        raise BenchmarkError(f"measured metrics {sorted(run['metrics'])} differ from BENCHMARK.json")
    return json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {m["name"]: {"value": run["metrics"][m["name"]], "unit": m["unit"]} for m in declared},
    })


def describe(name, seed, run, declared) -> None:
    notes = run["notes"]
    print(f"workload {name} seed {seed}: {run['attempted']} commands, {run['failed']} failed"
          + (f", fail_ratio {notes['fail_ratio']:.4f}" if notes else ""))
    for m in declared:
        print(f"  {m['name']:32s} {run['metrics'][m['name']]:>14.6g} {m['unit']}")
    if notes:
        print(f"  cmd_tail_s is p{notes['cmd_tail_percentile']:.1f} of {notes['cmd_samples']} commands; "
              f"work_per_s counts {notes['work_unit']}; setup_s is the median of {notes['setup_samples']}")


def quartiles(values: list) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2 if q2 else 0.0}


def run_all(args, spec) -> dict:
    """Every workload: ``runs`` untraced runs on consecutive seeds, then one traced run."""
    summary = {"run_seconds": args.seconds, "seeds": list(range(args.seed, args.seed + args.runs)),
               "machine": {"cpu": platform.processor() or platform.machine(), "cores": os.cpu_count(),
                           "python": platform.python_version()},
               "workloads": {}}
    for name in WORKLOADS:
        runs = []
        for seed in summary["seeds"]:
            run = run_workload(name, seed, args.seconds, 0, args.tiny)
            describe(name, seed, run, spec["end_to_end"])
            runs.append(run)
        traced = run_workload(name, args.seed, args.seconds, 1, args.tiny)
        describe(name, args.seed, traced, spec["per_layer"])
        row = {m["name"]: dict(quartiles([r["metrics"][m["name"]] for r in runs]), unit=m["unit"],
                               values=[r["metrics"][m["name"]] for r in runs]) for m in spec["end_to_end"]}
        row["fail_ratio"] = sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
        row["cmd_tail_percentile"] = [r["notes"]["cmd_tail_percentile"] for r in runs]
        row["cmd_samples"] = [r["notes"]["cmd_samples"] for r in runs]
        row["per_layer"] = {m["name"]: {"value": traced["metrics"][m["name"]], "unit": m["unit"]}
                            for m in spec["per_layer"]}
        summary["workloads"][name] = row
    print(f"\n{'workload':14s} {'metric':14s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}")
    for name, row in summary["workloads"].items():
        for m in spec["end_to_end"]:
            s = row[m["name"]]
            print(f"{name:14s} {m['name']:14s} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} "
                  f"{s['spread']:8.2%}")
        print(f"{name:14s} {'fail_ratio':14s} {row['fail_ratio']:12.6g}")
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--runs", type=int, default=1, help="with --all: seeds per workload")
    parser.add_argument("--record", default=None, help="with --all: write the summary JSON here")
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the quick tests")
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")

    try:
        spec = load_spec()
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        if args.all:
            summary = run_all(args, spec)
            if args.record:
                with open(args.record, "w") as fh:
                    json.dump(summary, fh, indent=2, sort_keys=True)
                    fh.write("\n")
            return 0
        run = run_workload(args.workload, args.seed, args.seconds, args.trace, args.tiny)
        declared = spec["per_layer" if args.trace else "end_to_end"]
        describe(args.workload, args.seed, run, declared)
        print(result_line(run, declared))
    except (BenchmarkError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
