"""The four benchmark workloads: seeded inputs, one closed-loop cycle each,
and the correctness check of every op.

Inputs are fixed mathematical objects conjugated by a seeded short word P
in the elementary matrices E_ij(+-1) of GL(n,Z); seed 0 uses P = I.
Conjugation by P is an automorphism mod every m, so moduli, image sizes,
class sizes and class digests (classes are full GL(n,Z/m)-orbits) are the
same at every seed while the matrices the program receives differ.  The
program only ever sees the generated JSON files.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import re
import time
from dataclasses import dataclass, field

WORD_LENGTH = 4

E12 = [[1, 1, 0], [0, 1, 0], [0, 0, 1]]
E23 = [[1, 0, 0], [0, 1, 1], [0, 0, 1]]
SHIFT3 = [[0, 0, 1], [1, 0, 0], [0, 1, 0]]
U2 = [[1, 1], [0, 1]]
I2 = [[1, 0], [0, 1]]
KLEIN_BOTTLE = {
    "m": 2,
    "lattice": [["1", "0"], ["0", "1"]],
    "generators": [
        {"t": ["1/2", "0"], "S": [[1, 0], [0, -1]]},
        {"t": ["0", "1"], "S": [[1, 0], [0, 1]]},
    ],
}

# Seed-0 outputs of the unmodified program.  ``sha256`` pins the certificate
# bytes (README byte-identity contract); the other fields must recompute to
# the same values at every seed.
EXPECTED = {
    "orbit-heis5": {
        "sha256": "94a8665322a5471a8a2d0fd3dbbea691b306688c7abf4ea268a2542f3fc4ad00",
        "m": 5,
        "image_size": 125,
        "class_size": 15500,
        "class_digest": "fd7f8ebd7292c0f8d18420e39b748a4204a2d99acf3fb6c63b3bb325afd7a408",
    },
    "klein-table": {
        "sha256": "7d944b8310780dd9bd3561c5d908fa7f6a4fb6d8479590f1666fd033d624123b",
        "m": 12,
        "image_size": 72,
        "per_rep": [  # [order, modulus, class_size, class_digest] per nontrivial rep
            [2, 3, 1, "0e993a922093adb272f16d6c592b6118f53ba48e56d494bc489ea318331e13ca"],
            [2, 4, 28, "283b3a05df71c02a857978500411826f5d1517c54a7c20afb6fa41de1d552c0a"],
            [2, 3, 117, "4b1a64353ee81d879a9e2235824789fa55a4e4eec8f72b7dccc167ca8d9c180c"],
            [2, 4, 336, "98fdee9f0f17681ddc8c1047539e0d8adefc46261bffe21ac6c0f86c3d45d795"],
            [2, 3, 117, "4b1a64353ee81d879a9e2235824789fa55a4e4eec8f72b7dccc167ca8d9c180c"],
            [3, 2, 56, "e3e6f19abf1c22030b9ee6b73a12e7b65c09f088d162da8a32fd59b47d8a570d"],
            [3, 2, 56, "e3e6f19abf1c22030b9ee6b73a12e7b65c09f088d162da8a32fd59b47d8a570d"],
            [4, 3, 702, "dcab761212fcf349aad28f629077a6d4d8715bfafb48c3ffe3ba7d4fd9feb834"],
            [4, 3, 702, "bbd618626d37bdfd71697832dd89f58b1ba96d0240e1390237880ec8f88d24dc"],
            [4, 2, 42, "ea806f4585f2f2a16d4425d6bf2436f0b6c121a844cfa53d5314430d82fb7b85"],
            [4, 2, 42, "ea806f4585f2f2a16d4425d6bf2436f0b6c121a844cfa53d5314430d82fb7b85"],
            [6, 2, 56, "e3e6f19abf1c22030b9ee6b73a12e7b65c09f088d162da8a32fd59b47d8a570d"],
            [6, 2, 56, "e3e6f19abf1c22030b9ee6b73a12e7b65c09f088d162da8a32fd59b47d8a570d"],
            [6, 2, 56, "e3e6f19abf1c22030b9ee6b73a12e7b65c09f088d162da8a32fd59b47d8a570d"],
            [6, 2, 56, "e3e6f19abf1c22030b9ee6b73a12e7b65c09f088d162da8a32fd59b47d8a570d"],
        ],
    },
    "padic-exhaust": {"exit": 4, "largest_tried": 23**4},
    "screen-n3": {"unmatched": []},
}

# Wrappers each workload must fire; a zero count means a name was patched in
# the wrong namespace.  The comment gives the end-to-end metric the layer
# should move on that workload.
PREDICTED = {
    "orbit-heis5": (
        "cli.main",               # op_s, last_op_s (parse and emit)
        "cli.vu_scan",            # op_s
        "separate.search",        # op_s
        "separate.verify",        # last_op_s
        "modgrp.orbit",           # op_s, last_op_s: two 15,500-element orbits
        "modgrp.generate",        # stays small: a 125-element closure
        "modgrp.digest",          # op_s, last_op_s
        "modgrp.cc_index",
        "modgrp.reduce",
        "jordan.is_semisimple",
        "exactlin.det",
    ),
    "klein-table": (
        "cli.main",
        "cli.vu_scan",
        "separate.search",        # op_s: probes over the schedule
        "separate.verify",        # last_op_s
        "modgrp.orbit",           # op_s, last_op_s: many small orbits, probes
        "modgrp.generate",
        "modgrp.digest",
        "modgrp.cc_index",        # op_s
        "modgrp.reduce",          # op_s
        "jordan.torsion_order",   # op_s, last_op_s
        "exactlin.char_poly",
        "exactlin.det",           # op_s (ModMatrix construction, inverses)
    ),
    "screen-n3": (
        "separate.screen",        # op_s: box enumeration and trace filters
        "modgrp.is_conjugate_mod",  # op_s
        "jordan.torsion_order",   # op_s
        "exactlin.char_poly",     # op_s
        "exactlin.smith_normal_form",  # op_s
        "exactlin.det",
    ),
    "padic-exhaust": (
        "cli.main",
        "separate.search",        # op_s
        "modgrp.generate",        # op_s, peak_rss_mb: ~570k elements
        "modgrp.reduce",
        "jordan.is_semisimple",
        "exactlin.det",
    ),
}

# ---------------------------------------------------------------------------
# seeded conjugators
# ---------------------------------------------------------------------------


def _identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def _elementary(n: int, i: int, j: int, s: int) -> list[list[int]]:
    """E_ij(s) for i != j; the sign change D_i when i == j (s is ignored)."""
    e = _identity(n)
    e[i][j] = s if i != j else -1
    return e


def _letter(i: int, j: int) -> list[tuple[int, int, int]]:
    """A signed swap E_ij(1) E_ji(-1) E_ij(1), or the sign change D_i."""
    return [(i, j, 1), (j, i, -1), (i, j, 1)] if i != j else [(i, i, -1)]


def conjugator(seed: int, n: int) -> tuple[list[list[int]], list[list[int]]]:
    """P and P^-1 for a seeded word of WORD_LENGTH letters.

    Each letter is a signed swap (three elementary transvections) or a sign
    change, so P is a signed permutation matrix: entries of the conjugated
    inputs stay in the range of the originals and the cost per op does not
    depend on the seed.  Seed 0 gives P = I.
    """
    p, p_inv = _identity(n), _identity(n)
    if seed == 0:
        return p, p_inv
    rng = random.Random(seed * 1000 + n)
    for _ in range(WORD_LENGTH):
        i, j = rng.randrange(n), rng.randrange(n)
        for a, b, s in _letter(i, j):
            p = _mul(p, _elementary(n, a, b, s))
            p_inv = _mul(_elementary(n, a, b, -s), p_inv)
    if _mul(p, p_inv) != _identity(n):
        raise AssertionError("seeded conjugator is not inverted by its word")
    return p, p_inv


def conjugate(rows, pair) -> list[list[int]]:
    p, p_inv = pair
    return _mul(_mul(p, [list(r) for r in rows]), p_inv)


def matrix_json(rows) -> dict:
    return {"n": len(rows), "entries": [[str(x) for x in row] for row in rows]}


def _write_json(path: str, data) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, sort_keys=True)
    return path


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------


@dataclass
class Op:
    phase: str              # "search", "verify" or "screen"
    seconds: float
    output: bytes           # what the user receives; traced runs must match it
    failure: str | None


@dataclass
class State:
    seed: int
    work: str
    expected: dict
    paths: dict = field(default_factory=dict)
    inputs: dict = field(default_factory=dict)
    table: object = None
    lift_s: float = 0.0     # cryst.lift_to_gl seconds in this set-up (klein-table)


def run_cli(mods, argv: list[str]) -> tuple[int, str, str, float]:
    """One in-process ``congrusep`` command: (exit code, stdout, stderr, s)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = mods["cli"].main(argv)
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


def _read(path: str) -> bytes:
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except OSError:
        return b""


def check_certificate(state: State, raw: bytes) -> str | None:
    """None when the certificate bytes are right for this seed, else why not."""
    exp = state.expected
    try:
        cert = json.loads(raw)
    except ValueError:
        return "certificate is not JSON"
    if state.seed == 0 and hashlib.sha256(raw).hexdigest() != exp["sha256"]:
        return "seed-0 certificate bytes differ from the recorded SHA-256"
    if cert.get("gamma_gens") != state.inputs["gens"]:
        return "certificate generators differ from the generated input"
    for key in ("m", "image_size", "class_size", "class_digest"):
        if key in exp and cert.get(key) != exp[key]:
            return f"{key} = {cert.get(key)!r}, expected {exp[key]!r}"
    if "per_rep" in exp:
        got = [[e["order"], e["modulus"], e["class_size"], e["class_digest"]]
               for e in cert.get("per_rep", [])]
        if got != exp["per_rep"]:
            return "per-representative moduli, class sizes or digests changed"
    return None


def _certificate_cycle(state: State, mods, begin, search_argv: list[str]) -> list[Op]:
    cert_path = state.paths["cert"]
    with contextlib.suppress(FileNotFoundError):
        os.remove(cert_path)
    begin("search")
    code, out, _, secs = run_cli(mods, search_argv + ["--output", cert_path])
    raw = _read(cert_path)
    failure = f"search exited {code}" if code != 0 else check_certificate(state, raw)
    ops = [Op("search", secs, raw, failure)]
    begin("verify")
    code, out, _, secs = run_cli(mods, [search_argv[0], "--verify-only", cert_path])
    ops.append(Op("verify", secs, f"{code}\n{out}".encode(),
                  None if code == 0 else f"--verify-only exited {code}"))
    return ops


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def build_orbit_heis5(state: State, mods) -> None:
    pair = conjugator(state.seed, 3)
    gens = [matrix_json(conjugate(g, pair)) for g in (E12, E23)]
    state.inputs["gens"] = gens
    state.paths["gens"] = _write_json(os.path.join(state.work, "gens.json"), gens)
    state.paths["eta"] = _write_json(os.path.join(state.work, "eta.json"),
                                     matrix_json(conjugate(SHIFT3, pair)))
    state.paths["cert"] = os.path.join(state.work, "cert.json")


def cycle_orbit_heis5(state: State, mods, begin) -> list[Op]:
    return _certificate_cycle(state, mods, begin, [
        "avoid", state.paths["gens"], state.paths["eta"], "--modulus-schedule", "5"])


def build_klein_table(state: State, mods) -> None:
    cryst = mods["cryst"]
    group = cryst.CrystGroup.from_json_dict(KLEIN_BOTTLE)
    start = time.perf_counter()
    embedding = cryst.lift_to_gl(group)
    state.lift_s = time.perf_counter() - start
    pair = conjugator(state.seed, embedding.n)
    gens = [matrix_json(conjugate(g.entries, pair)) for g in embedding.generators]
    state.inputs["gens"] = gens
    state.paths["gens"] = _write_json(os.path.join(state.work, "gens.json"), gens)
    state.paths["cert"] = os.path.join(state.work, "cert.json")


def cycle_klein_table(state: State, mods, begin) -> list[Op]:
    return _certificate_cycle(state, mods, begin, ["torsion-free", state.paths["gens"]])


def build_screen_n3(state: State, mods) -> None:
    separate, exactlin = mods["separate"], mods["exactlin"]
    builtin = separate.torsion_class_table(3)
    pair = conjugator(state.seed, 3)
    data = [matrix_json(conjugate(e.entries, pair)) for e in builtin.entries]
    path = _write_json(os.path.join(state.work, "table.json"), data)
    with open(path, encoding="utf-8") as handle:
        entries = tuple(exactlin.IntegerMatrix.from_json_dict(d) for d in json.load(handle))
    state.table = separate.TorsionTable(
        n=3, version=f"{builtin.version}-seed{state.seed}", entries=entries)


def check_screen(state: State, unmatched: list) -> str | None:
    if unmatched == state.expected["unmatched"]:
        return None
    return f"screen returned {len(unmatched)} unmatched elements, expected none"


def cycle_screen_n3(state: State, mods, begin) -> list[Op]:
    begin("screen")
    start = time.perf_counter()
    unmatched = mods["separate"].validate_torsion_table(3, bound=1, table=state.table)
    secs = time.perf_counter() - start
    got = [m.to_json_dict() for m in unmatched]
    return [Op("screen", secs, json.dumps(got).encode(), check_screen(state, got))]


_EXHAUSTED = re.compile(r"levels <= (\d+) for primes \[([\d, ]+)\]")


def build_padic_exhaust(state: State, mods) -> None:
    pair = conjugator(state.seed, 2)
    gens = [matrix_json(conjugate(U2, pair))]
    state.inputs["gens"] = gens
    state.paths["gens"] = _write_json(os.path.join(state.work, "gens.json"), gens)
    state.paths["factor"] = _write_json(os.path.join(state.work, "factor.json"),
                                        matrix_json(conjugate(I2, pair)))


def check_exhaustion(state: State, code: int, out: str, err: str) -> str | None:
    """witness-prime must exhaust the default schedule: exit 4, nothing on
    stdout, and the largest level named on stderr equals the recorded one."""
    exp = state.expected
    if code != exp["exit"] or out:
        return f"witness-prime exited {code} with {len(out)} bytes on stdout"
    match = _EXHAUSTED.search(err)
    largest = None
    if match:
        largest = max(int(p) for p in match.group(2).split(",")) ** int(match.group(1))
    if largest != exp["largest_tried"]:
        return f"largest level tried {largest}, expected {exp['largest_tried']}"
    return None


def cycle_padic_exhaust(state: State, mods, begin) -> list[Op]:
    begin("search")
    code, out, err, secs = run_cli(mods, [
        "witness-prime", state.paths["factor"], state.paths["gens"]])
    return [Op("search", secs, f"{code}\n{out}\n{err}".encode(),
               check_exhaustion(state, code, out, err))]


@dataclass(frozen=True)
class Workload:
    name: str
    primary: str            # phase whose median is op_s; the last op of a cycle gives last_op_s
    build: object
    cycle: object


WORKLOADS = {
    w.name: w
    for w in (
        Workload("orbit-heis5", "search", build_orbit_heis5, cycle_orbit_heis5),
        Workload("klein-table", "search", build_klein_table, cycle_klein_table),
        Workload("screen-n3", "screen", build_screen_n3, cycle_screen_n3),
        Workload("padic-exhaust", "search", build_padic_exhaust, cycle_padic_exhaust),
    )
}
