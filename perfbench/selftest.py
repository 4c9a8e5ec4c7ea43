"""Self-checks of the benchmark's own correctness gates and tracer.

    python3 perfbench/selftest.py

Each gate is fed a deliberately wrong recorded value and must report a
failure; the tracer must restore every attribute it patched, and a wrapper
patched in the wrong namespace must show up as never fired.  Runs one
klein-table cycle (about two seconds); exits 1 if any check misbehaves.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
from run import import_fresh  # noqa: E402
from workloads import (  # noqa: E402
    EXPECTED,
    PREDICTED,
    WORKLOADS,
    State,
    check_certificate,
    check_exhaustion,
    check_screen,
)

problems: list[str] = []


def expect(condition: bool, message: str) -> None:
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        problems.append(message)


def broken(name: str, **changes) -> dict:
    exp = copy.deepcopy(EXPECTED[name])
    exp.update(changes)
    return exp


def main() -> int:
    mods = import_fresh()
    klein = WORKLOADS["klein-table"]
    with tempfile.TemporaryDirectory(dir=HERE) as work:
        state = State(0, work, EXPECTED["klein-table"])
        klein.build(state, mods)
        originals = {(m, c, a): tracing._owner(mods, m, c).__dict__[a]
                     for m, c, a, *_ in tracing.SPAN_TARGETS + tracing.COUNT_TARGETS}
        recorder = tracing.Tracer()
        recorder.install(mods)
        # a wrapper on the defining module, not on the name the caller looks up
        recorder.install(mods, (("jordan", "", "torsion_order", "misplaced", None),), ())
        ops = klein.cycle(state, mods, lambda phase: None)
        recorder.uninstall()
        raw = ops[0].output

    expect(all(op.failure is None for op in ops), "klein-table seed 0 passes every gate")
    fired = tracing.fired(recorder)
    missing = [n for n in PREDICTED["klein-table"] if n not in fired]
    expect(not missing, f"every predicted klein-table wrapper fired (missing: {missing})")
    expect("misplaced" not in fired, "a wrapper on jordan.torsion_order never fires")
    restored = all(tracing._owner(mods, m, c).__dict__[a] is f
                   for (m, c, a), f in originals.items())
    expect(restored, "uninstall restores every patched attribute")

    per_rep = copy.deepcopy(EXPECTED["klein-table"]["per_rep"])
    per_rep[0][3] = "0" * 64
    cases = {
        "wrong recorded class digest": broken("klein-table", per_rep=per_rep),
        "wrong recorded certificate SHA-256": broken("klein-table", sha256="0" * 64),
        "wrong recorded joint modulus": broken("klein-table", m=24),
    }
    for label, exp in cases.items():
        state = State(0, "", exp, inputs=state.inputs)
        expect(check_certificate(state, raw) is not None, f"{label} is reported")
    state = State(0, "", EXPECTED["klein-table"], inputs=state.inputs)
    expect(check_certificate(state, raw[:-2]) is not None, "truncated certificate is reported")

    padic = State(0, "", EXPECTED["padic-exhaust"])
    message = "error: no witness prime at levels <= 4 for primes [2, 3, 5, 7, 11, 13, 17, 19, 23]\n"
    expect(check_exhaustion(padic, 4, "", message) is None, "exhaustion at 23^4 passes")
    expect(check_exhaustion(padic, 4, "", message.replace(", 23", "")) is not None,
           "exhaustion at 19^4 is reported")
    expect(check_exhaustion(padic, 0, "{}\n", message) is not None, "exit 0 is reported")

    screen = State(0, "", EXPECTED["screen-n3"])
    expect(check_screen(screen, []) is None, "empty screen passes")
    expect(check_screen(screen, [{"n": 3}]) is not None, "an unmatched element is reported")

    layers = set(tracing.layer_metrics(tracing.Tracer(), set(), 1)) | {"cryst.lift_to_gl.s"}
    declared = {m["name"] for m in run.declared_metrics(True)}
    expect(layers == declared, "traced metrics are exactly BENCHMARK.json's per_layer list")

    # the same broken digest, end to end through run.py's result line
    saved = EXPECTED["klein-table"]
    EXPECTED["klein-table"] = broken("klein-table", per_rep=per_rep)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            run.main(["--workload", "klein-table", "--seed", "0", "--seconds", "0"])
    finally:
        EXPECTED["klein-table"] = saved
    result = json.loads(out.getvalue().splitlines()[-1])
    expect(not result["correct"] and result["failed"] == 1 and result["attempted"] == 2,
           "run.py reports the broken digest as 1 failed op of 2")

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
