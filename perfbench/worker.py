"""One cold benchmark process.

Reads the workload inputs as JSON on stdin, imports opergraph from the
checkout's ``src``, and then, by ``--mode``:

* ``setup``: stops once the program is imported and the inputs are built;
* ``solve``: runs the workload's operations through the documented entry
  points, checks every answer, and scales every time to the reference
  speed with a calibration loop run between operations;
* ``traced``: runs the same operations split into staged calls, with spans
  and garbage-collector callbacks, and reports the per-layer metrics.

Prints one JSON object on stdout.  ``run.py`` starts it; it is not meant to
be run by hand.
"""
import argparse
import gc
import json
import statistics
import sys
import time
from pathlib import Path
from time import perf_counter

import stages
import workloads
from spans import Tracer, max_rss_mb

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FAILURES_KEPT = 5
QUERY_CHUNK = 1000
CALIBRATION_STEPS = 40_000
# calibrate()'s time when the reference machine (a 2-vCPU VM, CPython
# 3.11.7) runs at full speed; scaled times are wall times at that speed
CALIBRATION_REFERENCE_S = 0.0155


def import_program() -> float:
    sys.path.insert(0, str(SRC))
    start = perf_counter()
    import opergraph.cli
    seconds = perf_counter() - start
    origin = Path(opergraph.cli.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"opergraph was imported from {origin}, not from {SRC}")
    return seconds


class GcWatch:
    """Collector pauses and counts, from gc.callbacks."""

    def __init__(self):
        self.pause = 0.0
        self.collections = 0
        self.full = 0
        self._start = 0.0

    def __call__(self, phase, info):
        if phase == "start":
            self._start = perf_counter()
            return
        self.pause += perf_counter() - self._start
        self.collections += 1
        self.full += info["generation"] == 2

    def __enter__(self):
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self)


def calibrate() -> float:
    """Seconds taken by a fixed loop of dict, integer and string work that
    does not involve the program.  On the reference machine its time moves
    with the program's as the host speeds up and slows down (correlation
    0.93 over a minute of alternating samples).  It makes no object the garbage
    collector keeps, so it leaves the collector as the program left it."""
    gc.disable()  # a collection here would time the program's heap
    try:
        best = float("inf")
        for _ in range(3):  # the best of three drops a momentary hiccup
            start = perf_counter()
            table = {}
            for i in range(CALIBRATION_STEPS):
                key = i * 2654435761 % 4093
                table[key] = table.get(key, 0) + 1
                "%d:%d" % (key, i)
            best = min(best, perf_counter() - start)
        return best
    finally:
        gc.enable()


def groups(ops):
    """Each operation alone, except runs of queries in chunks: a calibration
    runs before and after every group."""
    group = []
    for op in ops:
        if group and not (op.query and group[-1].query and len(group) < QUERY_CHUNK):
            yield group
            group = []
        group.append(op)
    if group:
        yield group


def solve(ops, tracer, calibrations: list[float]) -> dict:
    """Time each operation, then check its answer outside the timed call.
    A wrong answer or an exception is a failed operation, never an abort.
    Each time is scaled to the reference speed by the calibrations before
    and after its group: time * CALIBRATION_REFERENCE_S / their mean."""
    times, wall, queries, failures = [], [], [], []
    k = 0
    for group in groups(ops):
        first = len(wall)
        for op in group:
            if tracer is not None:
                tracer.op = k
            start = perf_counter()
            try:
                answer = op.call()
                error = None
            except Exception as exc:  # the op's failure is counted, the run goes on
                error = f"{type(exc).__name__}: {exc}"
            wall.append(perf_counter() - start)
            if op.query:
                queries.append(k)
            if error is None:
                try:
                    error = op.check(answer)
                except Exception as exc:  # a check that cannot run is a failure too
                    error = f"check raised {type(exc).__name__}: {exc}"
                answer = None
            if error is not None:
                failures.append(f"{op.name}: {error}"[:500])
            k += 1
        calibrations.append(calibrate())
        scale = CALIBRATION_REFERENCE_S / ((calibrations[-2] + calibrations[-1]) / 2)
        times.extend(spent * scale for spent in wall[first:])
    return {"times": times, "solve_s": sum(times), "wall_s": sum(wall), "query_ops": queries,
            "attempted": k, "failed": len(failures), "failures": failures[:FAILURES_KEPT]}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("setup", "solve", "traced"), required=True)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() in the parent just before the spawn")
    parser.add_argument("--run-id", default="run")
    args = parser.parse_args()

    inputs = json.load(sys.stdin)
    import_s = import_program()
    state = workloads.prepare(inputs)
    setup_s = time.monotonic() - args.spawned
    calibrations = [calibrate()]
    out = {"mode": args.mode}
    if args.mode == "traced":
        tracer = Tracer(args.run_id)
        ops = stages.traced_operations(state, tracer)
        with GcWatch() as watch:
            out.update(solve(ops, tracer, calibrations))
        layers = stages.layer_metrics(tracer)
        layers.update({"cli.import_s": import_s, "gc.pause_s": watch.pause,
                       "gc.collections": watch.collections,
                       "gc.full_collections": watch.full})
        out["absent"] = sorted(tracer.absent)
        out["notes"] = tracer.notes
        trace_dir = ROOT / ".perfbench"
        trace_dir.mkdir(exist_ok=True)
        tracer.write(trace_dir / f"trace-{inputs['workload']}.jsonl")
    elif args.mode == "solve":
        out.update(solve(workloads.operations(state), None, calibrations))

    # set-up is scaled by the calibration that follows it; the layers' times
    # by the median calibration, as they add up over the whole process
    scale = CALIBRATION_REFERENCE_S / calibrations[0]
    out.update(setup_s=setup_s * scale, import_s=import_s * scale)
    if args.mode != "setup":
        out["peak_rss_mb"] = max_rss_mb()
    if args.mode == "traced":
        scale = CALIBRATION_REFERENCE_S / statistics.median(calibrations)
        out["layers"] = {name: value * scale if name.endswith("_s") else value
                         for name, value in layers.items()}
    json.dump(out, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
