"""Run every workload untraced and traced, each in a fresh process, and
print every metric by name and unit.

    python3 perfbench/report.py [--seeds 0,1] [--seconds S] [--write FILE]

``--seconds`` defaults to ``run_seconds`` of BENCHMARK.json.

End-to-end rows are the per-phase timings ``search_s``, ``verify_s`` and
``screen_s`` (wall seconds per op: median, the highest percentile with ten
samples beyond it, and the sample count), ``fail_ratio``, and the gated
metrics of BENCHMARK.json.  ``trace overhead`` is the traced run's phase median minus
the untraced one.  Per-module rows come from the traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

PHASES = ("search_s", "verify_s", "screen_s")


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    return {"detail": json.loads(lines[-2])["detail"], "result": json.loads(lines[-1])}


def _fmt(x) -> str:
    return "n/a" if x is None else f"{x:.6g}"


def print_workload(name: str, untraced: dict, traced: dict) -> None:
    d, r = untraced["detail"], untraced["result"]
    td = traced["detail"]
    print(f"\n== {name}  seed {d['seed']}  python {d['env']['python']}"
          f"  cpus {d['env']['cpu_count']}  load1 {d['env']['loadavg_1m_before']:.2f}"
          f" -> {d['env']['loadavg_1m_after']:.2f}  correct {r['correct']}"
          f"  traced-correct {traced['result']['correct']}")
    for phase in PHASES:
        s = d["phases"].get(phase)
        if s is None:
            print(f"  {phase:<22} {'n/a':>12} s")
            continue
        tail = s["tail"]
        tail_txt = f"p{tail['p']:g} {tail['value']:.6g}" if tail else "no tail (<20 samples)"
        over = td["phases"].get(phase, {}).get("median")
        over_txt = _fmt(None if over is None else over - s["median"])
        print(f"  {phase:<22} {s['median']:>12.6g} s   n={s['n']:<4} {tail_txt};"
              f" trace overhead {over_txt} s")
    print(f"  {'fail_ratio':<22} {d['fail_ratio']:>12.6g} ratio"
          f"  ({r['failed']} of {r['attempted']} ops)")
    for metric, m in r["metrics"].items():
        print(f"  {metric + ' (gated)':<22} {m['value']:>12.6g} {m['unit']}")
    for failure in d["failures"] + td["failures"]:
        print(f"  FAILURE: {failure}")


def print_layers(runs: dict) -> None:
    names = list(runs)
    first = runs[names[0]]["traced"]["result"]["metrics"]
    print("\n== per-module metrics per cycle (traced runs)")
    print(f"  {'metric':<36} {'unit':<6} " + " ".join(f"{n:>14}" for n in names))
    for metric, m in first.items():
        values = [runs[n]["traced"]["result"]["metrics"][metric]["value"] for n in names]
        print(f"  {metric:<36} {m['unit']:<6} " + " ".join(f"{v:>14.6g}" for v in values))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--write", metavar="FILE", help="save every result as JSON")
    args = parser.parse_args(argv)
    if args.seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
            args.seconds = json.load(handle)["run_seconds"]

    saved = []
    ok = True
    for seed in (int(s) for s in args.seeds.split(",")):
        runs = {}
        for name in WORKLOADS:
            runs[name] = {
                "untraced": run_one(name, seed, args.seconds, 0),
                "traced": run_one(name, seed, args.seconds, 1),
            }
            print_workload(name, runs[name]["untraced"], runs[name]["traced"])
            ok &= all(r["result"]["correct"] for r in runs[name].values())
        print_layers(runs)
        saved.append({"seed": seed, "seconds": args.seconds, "runs": runs})
    if args.write:
        with open(args.write, "w", encoding="utf-8") as handle:
            json.dump(saved, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
