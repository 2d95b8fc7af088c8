"""The opergraph benchmark.

    python3 perfbench/run.py --workload poset --seed 1 --seconds 40 --trace 0

Runs one workload for about ``--seconds`` seconds as a series of fresh,
single-threaded Python processes, one at a time, because every opergraph
invocation starts with empty caches.  Every answer is checked.  The last
line of stdout is one JSON object: the end-to-end metrics with ``--trace 0``
and the per-layer metrics with ``--trace 1``; the lines before it give each
metric with its unit and sample count, the seed and the hash of the inputs.

Other modes:

    python3 perfbench/run.py --smoke
        tiny inputs on every workload, traced and not; checks that every
        metric in BENCHMARK.json appears with its unit.
    python3 perfbench/run.py --workload duality --repeatability 10
        two sets of ten runs with distinct seeds; prints each end-to-end
        metric's median and quartiles per set and whether the sets agree
        within the benchmark's bounds.

Metric names, units and bounds come from BENCHMARK.json; which layer metric
should move which end-to-end metric is in perfbench/metrics.json.
"""
from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SPAWNS = 12            # set-up-only processes per run
HARD_LIMIT_S = 170.0         # a run never lasts longer than this


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a wrong answer)."""


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def spawn(mode: str, payload: str, run_id: str, deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before a worker could start")
    env = dict(os.environ, PYTHONHASHSEED="0")
    argv = [sys.executable, str(HERE / "worker.py"), "--mode", mode, "--run-id", run_id,
            "--spawned", repr(time.monotonic())]
    try:
        proc = subprocess.run(argv, input=payload, capture_output=True, text=True,
                              timeout=timeout, env=env, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker ran past the time limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited with {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    try:
        return json.loads(proc.stdout)
    except json.JSONDecodeError as exc:
        raise BenchError(f"{mode} worker printed no result: {proc.stdout[-500:]!r}") from exc


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """One benchmark run: cold workload processes one after another
    (alternating plain and traced ones when tracing) until the next one would
    end more than ``seconds`` after the first began, with set-up-only spawns
    spread between them.  Returns the metrics and what they were made of."""
    started = time.monotonic()
    hard_deadline = started + HARD_LIMIT_S
    inputs = workloads.build_inputs(workload, seed, smoke)
    payload = json.dumps(inputs)
    procs: dict[str, list[dict]] = {"setup": [], "solve": [], "traced": []}
    took: dict[str, list[float]] = {"solve": [], "traced": []}
    setup_spawns = 2 if smoke else SETUP_SPAWNS

    def start(mode: str) -> float:
        begun = time.monotonic()
        procs[mode].append(spawn(mode, payload, f"{workload}-{seed}-{mode}{len(procs[mode])}",
                                 hard_deadline))
        return time.monotonic() - begun

    cycle = ("solve", "traced") if trace else ("solve",)
    measured = 0.0  # time spent in workload processes
    for k in itertools.count():
        mode = cycle[k % len(cycle)]
        if took[mode] and measured + max(took[mode]) > seconds:
            break
        # set-up spawns keep pace with the run, so they sample the whole of it
        while len(procs["setup"]) < setup_spawns * min(1.0, measured / seconds + 0.2):
            start("setup")
        took[mode].append(start(mode))
        measured += took[mode][-1]
    while len(procs["setup"]) < setup_spawns:
        start("setup")

    everyone = [p for ps in procs.values() for p in ps]
    ran = procs["solve"] + procs["traced"]
    out = {"workload": workload, "seed": seed, "inputs_sha256": workloads.inputs_digest(inputs),
           "attempted": sum(p["attempted"] for p in ran),
           "failed": sum(p["failed"] for p in ran),
           "failures": [f for p in ran for f in p["failures"]][:10],
           "processes": {mode: len(ps) for mode, ps in procs.items()}}
    solve = procs["solve"]
    if not trace:
        # each operation's median scaled time over the run's processes
        per_op = [statistics.median(ts) for ts in zip(*(p["times"] for p in solve))]
        queries = [per_op[k] for k in solve[0]["query_ops"]] or per_op
        samples = f"median of {len(solve)} cold processes per operation"
        wall = statistics.median(p["wall_s"] for p in solve)
        setup = [p["setup_s"] for p in everyone]
        out["metrics"] = {
            "solve_s": (sum(per_op), f"{len(per_op)} operations, {samples}; "
                                     f"unscaled wall time {wall:.4f} s (median)"),
            "setup_s": (statistics.median(setup), f"median of {len(setup)} spawns"),
            "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in solve),
                            f"median of {len(solve)} processes"),
            "query_p50_us": (1e6 * percentile(queries, 50), f"{len(queries)} queries, {samples}"),
            "query_p99_us": (1e6 * percentile(queries, 99), f"{len(queries)} queries, {samples}"),
        }
    else:
        traced = procs["traced"]
        common = set.intersection(*(set(p["layers"]) for p in traced))
        metrics = {name: (statistics.median(p["layers"][name] for p in traced),
                          f"median of {len(traced)} traced processes") for name in sorted(common)}
        imports = [p["import_s"] for p in everyone]
        metrics["cli.import_s"] = (statistics.median(imports), f"median of {len(imports)} spawns")
        metrics["trace.overhead_s"] = (
            statistics.median(p["solve_s"] for p in traced)
            - statistics.median(p["solve_s"] for p in solve),
            f"scaled solve time, median of {len(traced)} traced minus median of "
            f"{len(solve)} plain processes")
        out["metrics"] = metrics
        out["absent"] = sorted(set.union(*(set(p["absent"]) for p in traced)))
        out["notes"] = sorted({n for p in traced for n in p["notes"]})
    out["wall_s"] = time.monotonic() - started
    return out


def units(trace: bool) -> dict[str, str]:
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec()[key]}


def report(result: dict, trace: bool) -> None:
    """Human-readable lines, then the result line (always the last one)."""
    unit_of = units(trace)
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"inputs sha256 {result['inputs_sha256']}  processes {result['processes']}  "
          f"wall {result['wall_s']:.1f} s")
    for name, (value, samples) in result["metrics"].items():
        print(f"  {name:34s} {value:>16.6f} {unit_of.get(name, '?'):6s} {samples}")
    ratio = result["failed"] / result["attempted"]
    print(f"  {'ops_failed_ratio':34s} {ratio:>16.6f} {'':6s} "
          f"{result['failed']} failed of {result['attempted']} operations")
    for line in result["failures"]:
        print(f"  FAILED {line}")
    for line in result.get("notes", ()):
        print(f"  {line}")
    print(json.dumps({
        "correct": result["failed"] == 0, "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit_of[name]}
                    for name, (value, _) in result["metrics"].items() if name in unit_of}}))


# -- smoke and repeatability modes ----------------------------------------------------------

def smoke() -> int:
    """Tiny inputs; every workload traced and not; every metric present."""
    layer_map = json.loads((HERE / "metrics.json").read_text())["layers"]
    problems = []
    if set(layer_map) != set(units(True)):
        problems.append("metrics.json and BENCHMARK.json name different layer metrics")
    for workload in workloads.WORKLOADS:
        for trace in (False, True):
            result = run(workload, 1, 1, trace, smoke=True)
            got = set(result["metrics"])
            wanted = set(units(trace))
            missing, extra = sorted(wanted - got), sorted(got - wanted)
            status = "ok" if not (missing or extra or result["failed"]) else "FAIL"
            print(f"{status:4s} {workload:10s} trace={int(trace)} {len(got)} metrics, "
                  f"{result['failed']} of {result['attempted']} operations failed"
                  + (f", missing {missing}" if missing else "")
                  + (f", unexpected {extra}" if extra else ""))
            for line in result["failures"]:
                print(f"     FAILED {line}")
            if status != "ok":
                problems.append(f"{workload} trace={int(trace)}")
    print("smoke: " + ("ok" if not problems else "FAIL " + "; ".join(problems)))
    return 0 if not problems else 1


def quartiles(values: list[float]) -> tuple[float, float, float, float]:
    """q1, median, q3 and the spread (q3 - q1) / median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3, (q3 - q1) / median


def repeatability(workload: str, runs: int, first_seed: int, seconds: float) -> int:
    """Two sets of ``runs`` runs with distinct seeds; per end-to-end metric,
    each set's median and quartiles, and whether they agree: each spread
    within the bound (setup_s exempt) and the medians within the bound of
    each other."""
    bounds = {m["name"]: m["bound"] for m in spec()["end_to_end"]}
    sets = []
    for s in range(2):
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for i in range(runs):
            seed = first_seed + s * runs + i
            result = run(workload, seed, seconds, trace=False)
            if result["failed"]:
                print(f"seed {seed}: {result['failed']} operations failed", file=sys.stderr)
                return 1
            for name in bounds:
                values[name].append(result["metrics"][name][0])
            print(f"set {s + 1} seed {seed}: " + "  ".join(
                f"{name} {values[name][-1]:.6g}" for name in bounds), flush=True)
        sets.append(values)
    agree = True
    print(f"{'metric':14s} {'bound':>6s}  set  {'q1':>12s} {'median':>12s} {'q3':>12s} "
          f"{'spread':>7s}")
    for name, bound in bounds.items():
        medians = []
        for label, values in (("1", sets[0][name]), ("2", sets[1][name]),
                              ("all", sets[0][name] + sets[1][name])):
            q1, median, q3, spread = quartiles(values)
            ok = spread <= bound or name == "setup_s" or label == "all"
            agree &= ok
            medians.append(median)
            print(f"{name:14s} {bound:6.2f}  {label:>3s}  {q1:12.6g} {median:12.6g} {q3:12.6g} "
                  f"{spread:7.3f}{'' if ok else '  spread above bound'}")
        shift = medians[1] / medians[0] - 1
        ok = abs(shift) <= bound
        agree &= ok
        print(f"{'':14s} {'':6s}  medians of the sets differ by {shift:+.3f}"
              f"{'' if ok else '  (above bound)'}")
    print(f"{workload}: the two sets {'agree' if agree else 'DO NOT agree'} within the bounds")
    return 0 if agree else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--repeatability", type=int, metavar="RUNS")
    args = parser.parse_args()
    if not (ROOT / "src" / "opergraph" / "__init__.py").is_file():
        print(f"error: no opergraph sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else spec()["run_seconds"]
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required")
        if args.repeatability:
            return repeatability(args.workload, args.repeatability, args.seed, seconds)
        result = run(args.workload, args.seed, seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report(result, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
