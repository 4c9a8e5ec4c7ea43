"""In-memory span recorder that wraps congrusep's cross-module calls.

Nothing under ``src/`` is instrumented.  Instead each wrapper replaces the
attribute that the *caller* looks up at call time: ``separate.torsion_order``
and ``jordan.char_poly`` (both imported by name into their callers),
``modgrp._orbit_expand`` (reached by ``separate._probe_disjoint`` through
the module and by ``modgrp.conj_class`` through the module global), and the
methods ``ModMatrixGroup.digest`` / ``ConjClass.digest`` on their classes.

A span is ``[name, start, end, parent_index, op_id, info]``.  Spans stay in
memory until the run ends; ``write_jsonl`` dumps them.  Hot, cheap calls
(``IntegerMatrix.det``) are counted per op instead of spanned.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict

# (module, class, attribute, span name, info kind): the wrapper replaces
# ``attribute`` on the module itself when ``class`` is "", else on that class.
SPAN_TARGETS = (
    ("cli", "", "main", "cli.main", None),
    ("jordan", "", "is_virtually_unipotent_witness", "cli.vu_scan", None),
    ("separate", "", "avoid_conjugacy", "separate.search", None),
    ("separate", "", "torsion_free_overgroup", "separate.search", None),
    ("separate", "", "witness_prime", "separate.search", None),
    ("separate", "", "verify_certificate", "separate.verify", None),
    ("separate", "", "validate_torsion_table", "separate.screen", None),
    ("modgrp", "", "_orbit_expand", "modgrp.orbit", "orbit"),
    ("modgrp", "", "generate", "modgrp.generate", "group"),
    ("modgrp", "ModMatrixGroup", "digest", "modgrp.digest", "digest"),
    ("modgrp", "ConjClass", "digest", "modgrp.digest", "digest"),
    ("modgrp", "", "char_coeffs_mod", "modgrp.cc_index", None),
    ("modgrp", "", "reduce", "modgrp.reduce", None),
    ("modgrp", "", "is_conjugate_mod", "modgrp.is_conjugate_mod", "bool"),
    ("separate", "", "torsion_order", "jordan.torsion_order", None),
    ("separate", "", "is_semisimple", "jordan.is_semisimple", None),
    ("jordan", "", "char_poly", "exactlin.char_poly", None),
    ("exactlin", "", "char_poly", "exactlin.char_poly", None),
    ("exactlin", "", "smith_normal_form", "exactlin.smith_normal_form", None),
)
COUNT_TARGETS = (
    ("exactlin", "IntegerMatrix", "det", "exactlin.det"),
)


def _owner(mods, module: str, cls: str):
    obj = mods[module]
    return getattr(obj, cls) if cls else obj


def _pre_info(kind, args):
    if kind == "digest":
        obj = args[0]
        return None if obj._digest is not None else obj.size
    return None


def _post_info(kind, args, kwargs, result, pre):
    if kind == "orbit":
        rep = args[0]
        stop = kwargs.get("stop_inside", args[2] if len(args) > 2 else None)
        orbit, hit = result
        return (len(orbit), hit, stop is not None, rep.m, rep.entries)
    if kind == "group":
        return (result.size, result.m)
    if kind == "bool":
        return bool(result)
    if kind == "digest":
        return pre or 0
    return None


class Tracer:
    """Records spans for the calls wrapped by ``install``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()  # (op_id, name) -> calls
        self.op_id = "setup"
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _span(self, name: str, fn, kind):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            pre = _pre_info(kind, args) if kind else None
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.op_id, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if kind:
                rec[5] = _post_info(kind, args, kwargs, result, pre)
            return result

        return wrapper

    def _count(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[(self.op_id, name)] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self, mods, span_targets=SPAN_TARGETS, count_targets=COUNT_TARGETS) -> None:
        """Wrap every target on the given imported modules."""
        for module, cls, attr, name, kind in span_targets:
            owner = _owner(mods, module, cls)
            self._patch(owner, attr, self._span(name, getattr(owner, attr), kind))
        for module, cls, attr, name in count_targets:
            owner = _owner(mods, module, cls)
            self._patch(owner, attr, self._count(name, getattr(owner, attr)))

    def uninstall(self) -> None:
        """Restore every patched attribute, last patch first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, op_id, info in self.spans:
                handle.write(json.dumps(
                    {"name": name, "start": start, "end": end, "parent": parent,
                     "op": op_id, "info": info}, separators=(",", ":")) + "\n")
            for (op_id, name), calls in sorted(self.counts.items(), key=str):
                handle.write(json.dumps(
                    {"name": name, "op": op_id, "calls": calls},
                    separators=(",", ":")) + "\n")


def fired(tracer: Tracer) -> set[str]:
    """Names of every wrapper that recorded at least one call."""
    return {s[0] for s in tracer.spans} | {name for _, name in tracer.counts}


def _self_times(spans: list[list]) -> list[float]:
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [s[2] - s[1] - c for s, c in zip(spans, child)]


def layer_metrics(tracer: Tracer, op_ids: set, cycles: int) -> dict[str, float]:
    """Per-module metrics per cycle, from spans of the given ops only.

    Seconds and counts are totals over the traced ops divided by ``cycles``;
    rates and ratios are taken over the totals.  Metrics of layers a
    workload never reaches read 0.
    """
    selftime = _self_times(tracer.spans)
    calls: Counter = Counter()
    secs: defaultdict = defaultdict(float)
    selfs: defaultdict = defaultdict(float)
    orbit_elements = orbit_useful = 0
    probe_expansions = probe_hits = repeats = 0
    group_elements = digest_elements = conj_true = max_set = 0
    seen_orbits: set = set()
    moduli: dict = defaultdict(set)
    search_ops: set = set()
    for (name, start, end, _, op_id, info), own in zip(tracer.spans, selftime):
        if op_id not in op_ids:
            continue
        calls[name] += 1
        secs[name] += end - start
        selfs[name] += own
        if name == "separate.search":
            search_ops.add(op_id)
        if info is None:
            continue
        if name == "modgrp.orbit":
            size, hit, probing, m, entries = info
            orbit_elements += size
            max_set = max(max_set, size)
            if not hit:
                orbit_useful += size
            if probing:
                probe_expansions += 1
                probe_hits += hit
            key = (op_id, m, entries)
            repeats += key in seen_orbits
            seen_orbits.add(key)
        elif name == "modgrp.generate":
            size, m = info
            group_elements += size
            max_set = max(max_set, size)
            moduli[op_id].add(m)
        elif name == "modgrp.digest":
            digest_elements += info
        elif name == "modgrp.is_conjugate_mod":
            conj_true += info
    counted = Counter()
    for (op_id, name), n in tracer.counts.items():
        if op_id in op_ids:
            counted[name] += n

    def per(x: float) -> float:
        return x / cycles

    def rate(num: float, den: float) -> float:
        return num / den if den else 0.0

    return {
        "cli.main.self_s": per(selfs["cli.main"]),
        "cli.vu_scan.s": per(secs["cli.vu_scan"]),
        "separate.search.self_s": per(selfs["separate.search"]),
        "separate.verify.self_s": per(selfs["separate.verify"]),
        "separate.screen.self_s": per(selfs["separate.screen"]),
        "separate.moduli_tried": per(sum(len(moduli[o]) for o in search_ops)),
        "separate.probe.expansions": per(probe_expansions),
        "separate.probe.hits": per(probe_hits),
        "modgrp.orbit.calls": per(calls["modgrp.orbit"]),
        "modgrp.orbit.s": per(secs["modgrp.orbit"]),
        "modgrp.orbit.elements": per(orbit_elements),
        "modgrp.orbit.elements_per_s": rate(orbit_elements, secs["modgrp.orbit"]),
        "modgrp.orbit.useful_ratio": rate(orbit_useful, orbit_elements),
        "modgrp.orbit.repeat_expansions": per(repeats),
        "modgrp.generate.calls": per(calls["modgrp.generate"]),
        "modgrp.generate.s": per(secs["modgrp.generate"]),
        "modgrp.generate.elements": per(group_elements),
        "modgrp.generate.elements_per_s": rate(group_elements, secs["modgrp.generate"]),
        "modgrp.max_set_elements": float(max_set),
        "modgrp.digest.calls": per(calls["modgrp.digest"]),
        "modgrp.digest.s": per(secs["modgrp.digest"]),
        "modgrp.digest.elements": per(digest_elements),
        "modgrp.cc_index.calls": per(calls["modgrp.cc_index"]),
        "modgrp.cc_index.s": per(secs["modgrp.cc_index"]),
        "modgrp.reduce.calls": per(calls["modgrp.reduce"]),
        "modgrp.reduce.s": per(secs["modgrp.reduce"]),
        "modgrp.is_conjugate_mod.calls": per(calls["modgrp.is_conjugate_mod"]),
        "modgrp.is_conjugate_mod.s": per(secs["modgrp.is_conjugate_mod"]),
        "modgrp.is_conjugate_mod.true_ratio": rate(conj_true, calls["modgrp.is_conjugate_mod"]),
        "jordan.torsion_order.calls": per(calls["jordan.torsion_order"]),
        "jordan.torsion_order.s": per(secs["jordan.torsion_order"]),
        "jordan.is_semisimple.calls": per(calls["jordan.is_semisimple"]),
        "jordan.is_semisimple.s": per(secs["jordan.is_semisimple"]),
        "exactlin.char_poly.calls": per(calls["exactlin.char_poly"]),
        "exactlin.char_poly.s": per(secs["exactlin.char_poly"]),
        "exactlin.smith_normal_form.calls": per(calls["exactlin.smith_normal_form"]),
        "exactlin.smith_normal_form.s": per(secs["exactlin.smith_normal_form"]),
        "exactlin.det.calls": per(counted["exactlin.det"]),
    }
