"""congrusep benchmark: one workload, closed loop, one caller, no threads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (or anywhere: paths are resolved from this
file).  The package is imported from ``src/`` of the same checkout.

Each cycle is the workload's user action: a search command and, when it
writes a certificate, ``--verify-only`` of that certificate; or one torsion
table screen.  Every op starts when the previous one ends and every op's
output is checked.  Cycles repeat until ``--seconds`` have passed (the last
cycle runs to completion).  Set-up (a fresh import of the package, the
seeded inputs, the tables) is timed on its own, repeated before the first
cycle and after every cycle; the cycles keep using the first set-up's
modules.

With ``--trace 0`` the last stdout line reports the end-to-end metrics;
with ``--trace 1`` it reports per-module metrics from spans recorded around
the package's cross-module calls (see tracer.py).  The line before it is a
``{"detail": ...}`` object with the seed, the environment, per-phase
medians, tail percentiles and sample counts, and any failures.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import tracer as tracing  # noqa: E402
from workloads import EXPECTED, PREDICTED, WORKLOADS, Op, State  # noqa: E402

MODULES = ("cli", "cryst", "exactlin", "jordan", "modgrp", "separate")
# Set-up is repeated for SETUP_FIRST_S seconds before the first cycle and
# for SETUP_SHARE of each cycle's duration after it.
SETUP_FIRST_S = 1.0
SETUP_SHARE = 0.15
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def _ours(module_name: str) -> bool:
    return module_name == "congrusep" or module_name.startswith("congrusep.")


def import_fresh() -> dict:
    """Import congrusep from this checkout's src/, dropping any earlier copy."""
    for name in [k for k in sys.modules if _ours(k)]:
        del sys.modules[name]
    pkg = importlib.import_module("congrusep")
    if not os.path.abspath(pkg.__file__).startswith(SRC + os.sep):
        raise ImportError(f"congrusep resolved to {pkg.__file__}, not under {SRC}")
    return {name: importlib.import_module(f"congrusep.{name}") for name in MODULES}


def set_up(workload, seed: int, work: str, expected: dict):
    """One set-up: a fresh import, the seeded inputs and the tables.

    Returns (modules, state, seconds).
    """
    gc.collect()
    start = time.perf_counter()
    mods = import_fresh()
    state = State(seed, work, expected)
    workload.build(state, mods)
    return mods, state, time.perf_counter() - start


def set_up_again(workload, state, budget: float, setups: list) -> None:
    """Repeat set-up for about ``budget`` seconds (at least once), recording
    (seconds, lift_to_gl seconds) of each, then put the live modules back
    into ``sys.modules``.

    The repeats are spread over the run, between cycles, so that their
    median samples the host over the same stretch of time as the ops.
    """
    live = {k: v for k, v in sys.modules.items() if _ours(k)}
    deadline = time.perf_counter() + budget
    while True:
        _, fresh, seconds = set_up(workload, state.seed, state.work, state.expected)
        setups.append((seconds, fresh.lift_s))
        if time.perf_counter() >= deadline:
            break
    for name in [k for k in sys.modules if _ours(k)]:
        del sys.modules[name]
    sys.modules.update(live)


def tail(samples: list[float]):
    """Highest listed percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in PERCENTILES:
        if n * (100.0 - p) / 100.0 >= 10:
            rank = min(n - 1, int(p / 100.0 * n))
            return {"p": p, "value": ordered[rank]}
    return None


def summary(samples: list[float]) -> dict:
    return {"median": statistics.median(samples), "tail": tail(samples), "n": len(samples)}


def declared_metrics(traced: bool) -> list[dict]:
    """The metrics BENCHMARK.json declares for this mode, in its order."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return spec["per_layer" if traced else "end_to_end"]


def loadavg() -> float:
    return os.getloadavg()[0]


def measure(workload, mods, state, seconds: float, setups: list, recorder=None):
    """Run cycles until ``seconds`` pass, repeating set-up after each one.
    With a recorder, the first cycle runs untraced and every later cycle
    traced; traced outputs must equal the untraced ones byte for byte."""
    cycles: list[list] = []
    reference: dict = {}

    def begin(phase: str) -> None:
        if recorder is not None:
            recorder.op_id = f"{len(cycles)}:{phase}"

    deadline = time.perf_counter() + seconds
    while True:
        if recorder is not None and len(cycles) == 1:
            recorder.install(mods)
        gc.collect()
        start = time.perf_counter()
        try:
            ops = workload.cycle(state, mods, begin)
        except Exception as exc:  # a crash is a failed op; keep the loop going
            ops = [Op("crash", 0.0, b"", f"{type(exc).__name__}: {exc}")]
        elapsed = time.perf_counter() - start
        if recorder is not None:
            for op in ops:
                if len(cycles) == 0:
                    reference[op.phase] = op.output
                elif op.failure is None and reference.get(op.phase) != op.output:
                    op.failure = f"traced {op.phase} output differs from the untraced one"
        cycles.append(ops)
        set_up_again(workload, state, SETUP_SHARE * elapsed, setups)
        if time.perf_counter() >= deadline and len(cycles) >= (2 if recorder else 1):
            break
    if recorder is not None:
        recorder.uninstall()
    return cycles


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "congrusep", "__init__.py")):
        print(f"error: no congrusep package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    workload = WORKLOADS[args.workload]
    traced = bool(args.trace)
    env = {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "loadavg_1m_before": loadavg(),
    }
    out_dir = os.path.join(HERE, ".work")
    work = os.path.join(out_dir, f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        mods, state, _ = set_up(workload, args.seed, work, EXPECTED[args.workload])
        setups: list[tuple[float, float]] = []
        set_up_again(workload, state, SETUP_FIRST_S, setups)
        recorder = tracing.Tracer() if traced else None
        cycles = measure(workload, mods, state, args.seconds, setups, recorder)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    env["loadavg_1m_after"] = loadavg()

    ops = [op for cycle in cycles for op in cycle]
    failures = [f"cycle {i} {op.phase}: {op.failure}"
                for i, cycle in enumerate(cycles) for op in cycle if op.failure]
    timed = cycles[1:] if traced else cycles
    phases: dict[str, list[float]] = {}
    for cycle in timed:
        for op in cycle:
            if op.phase != "crash":
                phases.setdefault(f"{op.phase}_s", []).append(op.seconds)
    setup_s = [seconds for seconds, _ in setups]
    last_op_s = [cycle[-1].seconds for cycle in timed if cycle[-1].phase != "crash"]

    if traced:
        op_ids = {f"{i}:{op.phase}" for i in range(1, len(cycles)) for op in cycles[i]}
        metrics = tracing.layer_metrics(recorder, op_ids, len(timed))
        metrics["cryst.lift_to_gl.s"] = statistics.median(lift for _, lift in setups)
        fired = tracing.fired(recorder)
        silent = [name for name in PREDICTED[args.workload] if name not in fired]
        if silent:
            failures.append(f"wrappers never fired: {', '.join(silent)}")
        os.makedirs(out_dir, exist_ok=True)
        recorder.write_jsonl(os.path.join(
            out_dir, f"trace-{args.workload}-s{args.seed}.jsonl"))
    else:
        primary = phases[f"{workload.primary}_s"]
        metrics = {
            "op_s": statistics.median(primary),
            "last_op_s": statistics.median(last_op_s),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(setup_s),
        }

    failed = sum(op.failure is not None for op in ops)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "env": env,
        "cycles": len(cycles),
        "phases": {name: summary(samples) for name, samples in phases.items()},
        "last_op_s": summary(last_op_s),
        "setup_s": summary(setup_s),
        "peak_rss_mb": peak_rss_mb,
        "fail_ratio": failed / len(ops),
        "failures": failures[:20],
    }
    print(json.dumps({"detail": detail}, sort_keys=True))
    result = {
        "correct": not failures,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in declared_metrics(traced)
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
