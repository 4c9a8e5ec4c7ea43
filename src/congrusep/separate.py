"""Certificate-producing separation searches.

Three constructions, each returning a finite, independently re-checkable
witness instead of a bare existence claim:

* ``avoid_conjugacy``: a modulus m such that the congruence image of the
  generated group is disjoint from the full mod-m conjugacy class of a
  semisimple target.  The congruence subgroup (preimage of the image) then
  contains the group and misses the target's integral conjugacy class.
* ``witness_prime``: for a semisimple factor, a prime p (and level K) at
  which the factor provably escapes the group's image: either a prime from a
  denominator of the factor, or a finite-level image-escape.
* ``torsion_free_overgroup``: a constructive Selberg-type statement: one
  modulus whose congruence subgroup contains the group and avoids every
  nontrivial torsion class from a representative table, hence is torsion
  free (relative to the table's coverage, which is recorded).

Certificate JSON is stable and versioned; ``verify_certificate`` recomputes
every field from scratch.  Searches never claim impossibility: groups
violating the virtual-unipotency hypothesis (e.g. generated by an
infinite-order semisimple element) can legitimately exhaust any schedule.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import typing
from dataclasses import dataclass
from math import lcm, prod
from operator import itemgetter, mul
from typing import Iterable, Sequence

from . import modgrp
from .errors import (
    InputError,
    MalformedCertificateError,
    PreconditionError,
    ScheduleExhaustedError,
)
from .exactlin import (
    IntegerMatrix,
    RationalMatrix,
    _int_text,
    _prime_factors,
    det_int,
    factorize,
)
from .jordan import is_semisimple, torsion_order

CERT_VERSION = 1

_SCHEDULE_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23)
_SCHEDULE_MAX_LEVEL = 4


def default_moduli_schedule() -> list[int]:
    """Prime powers p^K (p <= 23, K <= 4) and products of two distinct
    schedule primes, merged in ascending order.

    The two-prime products matter: congruence images at a composite level
    are only subdirect in the product of their prime-power parts, so a
    composite modulus can separate when no single prime power does.
    """
    moduli = {
        p**k for p in _SCHEDULE_PRIMES for k in range(1, _SCHEDULE_MAX_LEVEL + 1)
    }
    for i, p in enumerate(_SCHEDULE_PRIMES):
        for q in _SCHEDULE_PRIMES[i + 1 :]:
            moduli.add(p * q)
    return sorted(moduli)


def _validate_schedule(schedule: Sequence[int]) -> list[int]:
    sched = list(schedule)
    if not sched:
        raise InputError("modulus schedule is empty")
    if any(m < 2 for m in sched):
        raise InputError("schedule moduli must be >= 2")
    if any(b <= a for a, b in zip(sched, sched[1:])):
        raise InputError("schedule must be strictly increasing")
    return sched


def _check_gl_generators(gens: Sequence[IntegerMatrix], n: int | None) -> int:
    for g in gens:
        if g.det() not in (1, -1):
            raise PreconditionError(f"generator has det {_int_text(g.det())}, not in GL(n,Z)")
        if n is None:
            n = g.n
        elif g.n != n:
            raise InputError("generators of mixed dimension")
    if n is None:
        raise InputError("cannot infer dimension: no generators and no target")
    return n


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


class _Record:
    """Base of the JSON records below: the dataclass fields are the schema.

    Each field is written under its own name, a value with ``to_json_dict``
    through that method and a tuple as an array.  A certificate kind adds
    ``version`` and ``kind`` from its ``_KIND``, a constant left
    un-annotated so that it is no field.  The reader reads each field by its
    declared type: int, str and bool as exactly that JSON type (``_typed``),
    ``tuple[X, ...]`` as a JSON array of X, any other type through its
    ``from_json_dict``; a missing field with a default takes the default.
    Keys outside the schema are ignored.
    """

    _KIND = None

    def to_json_dict(self) -> dict:
        data = {} if self._KIND is None else {"version": CERT_VERSION, "kind": self._KIND}
        for name, _, _ in _schema(type(self)):
            data[name] = _json_value(getattr(self, name))
        return data

    @classmethod
    def from_json_dict(cls, data: dict):
        values = {}
        for name, kind, default in _schema(cls):
            value = data[name] if default is dataclasses.MISSING or name in data else default
            values[name] = _read_field(value, kind, name)
        return cls(**values)


@functools.cache
def _schema(cls: type) -> tuple[tuple[str, object, object], ...]:
    """(name, resolved type, default) of each field of a record class,
    resolved once per class: the annotations are strings until then."""
    hints = typing.get_type_hints(cls)
    return tuple((f.name, hints[f.name], f.default) for f in dataclasses.fields(cls))


def _json_value(value):
    if isinstance(value, tuple):
        return [_json_value(v) for v in value]
    return value.to_json_dict() if hasattr(value, "to_json_dict") else value


def _read_field(value, kind, name: str):
    if kind in (int, str, bool):
        return _typed(value, kind, name)
    if typing.get_origin(kind) is tuple:
        item = typing.get_args(kind)[0]
        return tuple(_read_field(v, item, name) for v in _typed(value, list, name))
    return kind.from_json_dict(value)


@dataclass(frozen=True)
class SeparationCertificate(_Record):
    """Witness that the mod-m image of <gamma_gens> misses the mod-m class
    of eta, so the congruence subgroup at m contains the group and is
    disjoint from eta's integral conjugacy class."""

    _KIND = "separation"

    n: int
    m: int
    gamma_gens: tuple[IntegerMatrix, ...]
    eta: IntegerMatrix
    image_size: int
    class_size: int
    image_digest: str
    class_digest: str
    disjoint: bool = True


@dataclass(frozen=True)
class RepEvidence(_Record):
    """Per-representative disjointness record inside a torsion-free
    certificate.

    The class data is recorded at the representative's own modulus, a
    divisor of the certificate's joint modulus: disjointness at a divisor
    forces disjointness at every multiple, because reduction mod ``modulus``
    factors through reduction mod the joint level and maps image onto image,
    class into class.
    """

    rep: IntegerMatrix
    order: int
    modulus: int
    class_size: int
    class_digest: str
    disjoint: bool = True


@dataclass(frozen=True)
class TorsionFreeCertificate(_Record):
    """Witness that the congruence subgroup at m contains <gamma_gens> and
    avoids every nontrivial torsion class of the recorded table.

    Completeness of the table up to conjugacy is a recorded *assumption*
    (``table_version`` names the data asset); order-1 representatives are
    listed but carry no evidence, since the trivial class lies in every
    congruence image and does not obstruct torsion-freeness.
    """

    _KIND = "torsion-free"

    n: int
    m: int
    gamma_gens: tuple[IntegerMatrix, ...]
    torsion_reps: tuple[IntegerMatrix, ...]
    image_size: int
    image_digest: str
    per_rep: tuple[RepEvidence, ...]
    table_version: str


@dataclass(frozen=True)
class WitnessPrime(_Record):
    """A prime at which a semisimple factor escapes the group's closure.

    ``reason`` is "denominator" (p divides an entry denominator; level is 0,
    no finite level is involved) or "image-escape" (the factor's reduction
    mod p^level lies outside the finite-level image).
    """

    factor: RationalMatrix
    prime: int
    level: int
    reason: str


_CERTIFICATE_KINDS = {cls._KIND: cls for cls in (SeparationCertificate, TorsionFreeCertificate)}


def canonical_json(data) -> str:
    """Canonical JSON text (sorted keys, no whitespace, trailing newline)."""
    return json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"


def dump_certificate(cert: SeparationCertificate | TorsionFreeCertificate) -> str:
    """The certificate as canonical JSON text."""
    return canonical_json(cert.to_json_dict())


# ---------------------------------------------------------------------------
# searches
# ---------------------------------------------------------------------------


def _cc_index(image: modgrp.ModMatrixGroup, keys: set[tuple]) -> dict[tuple, frozenset]:
    """Image elements bucketed by char-poly coefficients mod m (a cheap
    conjugation invariant): the only candidates for meeting a class.  Only
    the buckets under ``keys`` are built, and an element whose trace mod m,
    the first coefficient, starts no key is skipped before its char poly."""
    n, m = image.n, image.m
    traces = {key[0] for key in keys}
    index: dict[tuple, list] = {}
    for x in image.entry_tuples():
        if sum(x[:: n + 1]) % m not in traces:
            continue
        key = modgrp.char_coeffs_mod(x, n, m)
        if key in keys:
            index.setdefault(key, []).append(x)
    return {key: frozenset(vals) for key, vals in index.items()}


def _separating_moduli(
    gamma_gens: Sequence[IntegerMatrix],
    reps: Sequence[IntegerMatrix],
    schedule: Sequence[int],
    n: int,
    cap: int,
) -> tuple[list[tuple[int, modgrp.ConjClass] | None], modgrp.ModMatrixGroup | None]:
    """For each rep, the first scheduled modulus m whose congruence image of
    the group misses the mod-m class of rep, with that class; None where no
    modulus does.  Also returns the image at the last modulus built.

    The search goes modulus by modulus, building each image once and
    dropping it before the next.  Reps still unseparated are grouped by
    their reduction mod m, and each distinct reduction is decided once:
    membership first, then an orbit expansion that stops at the first
    element in the image's bucket of its char poly.  Only those buckets are
    indexed.  An expansion that completes is the full class.
    """
    found: list[tuple[int, modgrp.ConjClass] | None] = [None] * len(reps)
    image = None
    for m in schedule:
        pending = [i for i, f in enumerate(found) if f is None]
        if not pending:
            break
        image = index = orbit = None  # freed before the next image is built
        image = modgrp.congruence_image(gamma_gens, m, cap, n=n)
        reductions: dict[modgrp.ModMatrix, list[int]] = {}
        for i in pending:
            reductions.setdefault(modgrp.reduce(reps[i], m), []).append(i)
        probed = {
            rep_mod: modgrp.char_coeffs_mod(rep_mod.entries, n, m)
            for rep_mod in reductions
            if rep_mod not in image
        }
        index = _cc_index(image, set(probed.values())) if probed else {}
        for rep_mod, key in probed.items():
            orbit, hit = modgrp._orbit_expand(rep_mod, cap, stop_inside=index.get(key))
            if hit:
                continue
            cls = modgrp.ConjClass(rep_mod, orbit)
            if not image.isdisjoint(cls):
                raise AssertionError(
                    "separating modulus failed re-verification; the fail-fast"
                    " probe and the full orbit disagree"
                )
            for i in reductions[rep_mod]:
                found[i] = (m, cls)
    return found, image


def avoid_conjugacy(
    gamma_gens: Sequence[IntegerMatrix],
    eta: IntegerMatrix,
    moduli_schedule: Iterable[int] | None = None,
    *,
    cap: int = modgrp.DEFAULT_CAP,
) -> SeparationCertificate:
    """First modulus in the schedule whose congruence image of the group is
    disjoint from the mod-m conjugacy class of ``eta``, as a certificate.

    ``eta`` must be semisimple.  The caller asserts the generated group is
    torsion free and virtually unipotent; without that the search may
    exhaust every scheduled modulus (reported as ScheduleExhaustedError,
    never as impossibility).
    """
    n = _check_gl_generators(gamma_gens, eta.n)
    if eta.det() not in (1, -1):
        raise PreconditionError(f"eta has det {_int_text(eta.det())}, not in GL(n,Z)")
    if not is_semisimple(eta.to_rational()):
        raise PreconditionError("eta is not semisimple")
    schedule = _validate_schedule(
        default_moduli_schedule() if moduli_schedule is None else moduli_schedule
    )
    (found,), image = _separating_moduli(gamma_gens, [eta], schedule, n, cap)
    if found is None:
        raise ScheduleExhaustedError(
            f"no separating modulus found in schedule (largest tried: {schedule[-1]})",
            largest_tried=schedule[-1],
        )
    m, cls = found
    return SeparationCertificate(
        n=n,
        m=m,
        gamma_gens=tuple(gamma_gens),
        eta=eta,
        image_size=image.size,
        class_size=cls.size,
        image_digest=image.digest(),
        class_digest=cls.digest(),
    )


def witness_prime(
    factor: RationalMatrix,
    gamma_gens: Sequence[IntegerMatrix],
    prime_schedule: Iterable[int] | None = None,
    level_budget: int = _SCHEDULE_MAX_LEVEL,
    *,
    cap: int = modgrp.DEFAULT_CAP,
) -> WitnessPrime:
    """A prime p (and level) at which ``factor`` escapes the group's image.

    A non-integral factor is witnessed by any prime dividing an entry
    denominator (the reduction does not even exist there); an integral one
    by a finite-level image-escape search over prime powers in ascending
    modulus order, consistent with the modulus schedule of the separation
    search.  A prime dividing the determinant escapes at level 1 with no
    image built: the reduction is not invertible there.

    Only level-1 images are enumerated, under ``cap`` elements.  Every
    higher level of a prime is answered from a layered basis of the
    congruence kernel (``modgrp._padic_depth``), built when the schedule
    reaches p^2; its Schreier generators, |G_1| times the number of
    generators, are held to the same ``cap``.
    """
    if not is_semisimple(factor):
        raise PreconditionError("factor is not semisimple")
    primes = list(_SCHEDULE_PRIMES if prime_schedule is None else prime_schedule)
    if not primes:
        raise InputError("prime schedule is empty")
    # checked before any image is built, not when a bad level comes up
    if level_budget < 1:
        raise InputError(f"level budget must be >= 1, got {level_budget}")
    for p in primes:
        if factorize(p) != [(p, 1)]:
            raise InputError(f"{p} is not prime")
    denom = factor.denominator_lcm()
    if denom > 1:
        # the least prime only: a cofactor past trial division is never reached
        p, _ = next(_prime_factors(denom))
        return WitnessPrime(factor=factor, prime=p, level=0, reason="denominator")
    n = factor.n
    _check_gl_generators(gamma_gens, n)
    det = factor.det().numerator
    levels = sorted(
        ((p**k, p, k) for p in primes for k in range(1, level_budget + 1))
    )
    depths: dict[int, int] = {}
    for _, p, level in levels:
        # each prime is met first at level 1 (the levels ascend), where a
        # prime dividing det(factor) escapes with no image built.  A prime
        # that passes gets its depth when the schedule reaches p^2, so an
        # escape at a smaller modulus pays for no kernel basis; only the
        # depth outlives that level
        if level == 1:
            escapes = det % p == 0 or modgrp.reduce(factor, p) not in (
                modgrp.congruence_image(gamma_gens, p, cap, n=n)
            )
        else:
            if level == 2:
                depths[p] = modgrp._padic_depth(factor, gamma_gens, p, level_budget, cap, n=n)
            escapes = level > depths[p]
        if escapes:
            return WitnessPrime(
                factor=factor, prime=p, level=level, reason="image-escape"
            )
    raise ScheduleExhaustedError(
        f"no witness prime at levels <= {level_budget} for primes {primes}",
        largest_tried=levels[-1][0],
    )


def torsion_free_overgroup(
    gamma_gens: Sequence[IntegerMatrix],
    torsion_reps: Sequence[IntegerMatrix] | "TorsionTable",
    moduli_schedule: Iterable[int] | None = None,
    *,
    cap: int = modgrp.DEFAULT_CAP,
    n: int | None = None,
) -> TorsionFreeCertificate:
    """One modulus covering every torsion representative, as a certificate.

    Runs the separation search of ``avoid_conjugacy`` for all nontrivial
    representatives at once and combines the successes into their lcm, the
    joint modulus, whose image is the search's last one if that is at the
    joint level and is generated once more otherwise.  Each
    representative's class evidence is recorded at its own success modulus
    (a divisor of the joint one); classes at a composite joint level grow
    as the product over its prime-power parts and quickly become
    unenumerable, while divisor-level disjointness already forces
    joint-level disjointness.  Order-1 reps are recorded and skipped.
    """
    table_version = "custom"
    if isinstance(torsion_reps, TorsionTable):
        table_version = torsion_reps.version
        reps = list(torsion_reps.entries)
    else:
        reps = list(torsion_reps)
    if reps:
        n = _check_gl_generators(reps, n)
    n = _check_gl_generators(gamma_gens, n)
    orders = []
    for rep in reps:
        order = torsion_order(rep)
        if order is None:
            raise PreconditionError("torsion representative has infinite order")
        orders.append(order)
    schedule = _validate_schedule(
        default_moduli_schedule() if moduli_schedule is None else moduli_schedule
    )

    nontrivial = [(rep, order) for rep, order in zip(reps, orders) if order > 1]
    found, image = _separating_moduli(
        gamma_gens, [rep for rep, _ in nontrivial], schedule, n, cap
    )
    for (_, order), f in zip(nontrivial, found):
        if f is None:
            raise ScheduleExhaustedError(
                f"no modulus in schedule separates a representative of order {order}"
                f" (largest tried: {schedule[-1]})",
                largest_tried=schedule[-1],
            )
    joint = lcm(*(m_rep for m_rep, _ in found)) if found else schedule[0]
    if image is None or image.m != joint:
        image = None  # freed before the joint image is built
        image = modgrp.congruence_image(gamma_gens, joint, cap, n=n)
    evidence = tuple(
        RepEvidence(rep, order, m_rep, cls.size, cls.digest())
        for (rep, order), (m_rep, cls) in zip(nontrivial, found)
    )
    return TorsionFreeCertificate(
        n=n,
        m=joint,
        gamma_gens=tuple(gamma_gens),
        torsion_reps=tuple(reps),
        image_size=image.size,
        image_digest=image.digest(),
        per_rep=evidence,
        table_version=table_version,
    )


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise MalformedCertificateError(message)


def _typed(value, kind: type, name: str):
    """``value`` when its type is exactly ``kind``: a JSON integer is an
    int, never a bool (which Python counts as one) or a float."""
    _require(type(value) is kind, f"{name} must be a JSON {kind.__name__}")
    return value


def _decode_json(text: str | bytes, error: type[InputError], what: str):
    """Parse JSON text, bytes as UTF-8, raising ``error`` on every way the
    decoding can fail: bad syntax, bytes that are not UTF-8 and an integer
    past the interpreter's digit limit (ValueErrors all), and nesting past
    the recursion limit (RecursionError)."""
    try:
        return json.loads(text.decode("utf-8") if isinstance(text, bytes) else text)
    except (ValueError, RecursionError) as exc:
        raise error(f"{what}: {exc}") from exc


def parse_certificate(
    data: dict | str | bytes,
) -> SeparationCertificate | TorsionFreeCertificate:
    """Parse certificate JSON (dict, text, or UTF-8 bytes) into its dataclass.

    Raises MalformedCertificateError on schema violations, a field of the
    wrong JSON type among them; unknown extra keys are tolerated (the schema
    fields alone carry the claims).
    """
    if isinstance(data, (str, bytes)):
        data = _decode_json(data, MalformedCertificateError, "certificate is not valid JSON")
    _require(isinstance(data, dict), "certificate must be a JSON object")
    version = _typed(data.get("version"), int, "version")
    _require(version == CERT_VERSION, "unsupported certificate version")
    # a string before the lookup: a list or an object kind is unhashable
    kind = _typed(data.get("kind"), str, "kind")
    _require(kind in _CERTIFICATE_KINDS, f"unknown certificate kind {kind!r}")
    try:
        cert = _CERTIFICATE_KINDS[kind].from_json_dict(data)
    except (KeyError, TypeError, InputError) as exc:
        raise MalformedCertificateError(f"certificate schema violation: {exc}") from exc
    n = cert.n
    _require(n >= 1, "n must be a positive integer")
    _require(cert.m >= 2, "m must be an integer >= 2")
    for g in cert.gamma_gens:
        _require(g.n == n, "generator dimension disagrees with n")
    if isinstance(cert, SeparationCertificate):
        _require(cert.eta.n == n, "target dimension disagrees with n")
    else:
        for rep in cert.torsion_reps:
            _require(rep.n == n, "representative dimension disagrees with n")
        for e in cert.per_rep:
            _require(e.rep.n == n, "evidence dimension disagrees with n")
            _require(e.modulus >= 2, "evidence modulus must be an integer >= 2")
    return cert


def _class_claims(
    cert: SeparationCertificate | TorsionFreeCertificate,
) -> list[tuple[IntegerMatrix, int, int, str]] | None:
    """The certificate's class claims, (rep, modulus, class size, class
    digest), each saying that the image at the modulus misses the class of
    rep there; None when a field fails a check that enumerates nothing.

    A separation certificate makes one claim, for eta at m.  A torsion-free
    one makes one per nontrivial representative, at a divisor of m:
    divisor-level disjointness forces joint-level disjointness.  Its
    representatives must be the rows of the built-in table it names, in
    order; other table versions name tables this module does not hold.
    """
    if isinstance(cert, SeparationCertificate):
        eta = cert.eta
        if not cert.disjoint or eta.n != cert.n or eta.det() not in (1, -1):
            return None
        if not is_semisimple(eta.to_rational()):
            return None
        return [(eta, cert.m, cert.class_size, cert.class_digest)]
    builtin = dict(_BUILTIN_TABLES.values())  # version -> rows
    if cert.table_version in builtin and (
        tuple(rep.entries for rep in cert.torsion_reps) != builtin[cert.table_version]
    ):
        return None
    # evidence for reps not in the table would be meaningless
    if any(e.rep not in cert.torsion_reps for e in cert.per_rep):
        return None
    recorded = {e.rep: e for e in cert.per_rep}
    claims = []
    for rep in cert.torsion_reps:
        if rep.det() not in (1, -1):  # torsion_order's precondition
            return None
        order = torsion_order(rep)
        if order is None:
            return None
        if order == 1:
            continue
        e = recorded.get(rep)
        if e is None or e.order != order or not e.disjoint:
            return None
        if e.modulus < 2 or cert.m % e.modulus:
            return None
        claims.append((rep, e.modulus, e.class_size, e.class_digest))
    return claims


def verify_certificate(
    cert: SeparationCertificate | TorsionFreeCertificate | dict | str | bytes,
    *,
    cap: int = modgrp.DEFAULT_CAP,
) -> bool:
    """Recompute every certificate field from scratch; True iff all match.

    Raises MalformedCertificateError for schema-level problems (as opposed
    to well-formed certificates that fail recomputation, which return
    False).  Every field check that enumerates nothing comes before the
    first closure.
    """
    if isinstance(cert, (dict, str, bytes)):
        cert = parse_certificate(cert)
    if any(g.det() not in (1, -1) for g in cert.gamma_gens):
        return False
    claims = _class_claims(cert)
    if claims is None:
        return False
    image = modgrp.congruence_image(cert.gamma_gens, cert.m, cap, n=cert.n)
    if image.size != cert.image_size or image.digest() != cert.image_digest:
        return False
    images = {cert.m: image}
    # one class per distinct reduced representative (the modulus is part of
    # the key), as in the search
    classes: dict[modgrp.ModMatrix, modgrp.ConjClass] = {}
    for rep, m_rep, class_size, class_digest in claims:
        if m_rep not in images:
            images[m_rep] = modgrp.congruence_image(cert.gamma_gens, m_rep, cap, n=cert.n)
        rep_mod = modgrp.reduce(rep, m_rep)
        if rep_mod not in classes:
            classes[rep_mod] = modgrp.conj_class(rep_mod, cap)
        cls = classes[rep_mod]
        if (cls.size, cls.digest()) != (class_size, class_digest):
            return False
        if not images[m_rep].isdisjoint(cls):
            return False
    return True


# ---------------------------------------------------------------------------
# torsion class tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TorsionTable:
    """A complete set of torsion conjugacy class representatives.

    Completeness is a validated data asset, not a theorem in code: the
    representatives below were found by exhaustive bounded-entry enumeration
    and are screened by ``validate_torsion_table`` (every bounded-entry
    torsion element must be conjugate mod several moduli to some entry).
    """

    n: int
    version: str
    entries: tuple[IntegerMatrix, ...]


_TABLE_N1 = ((1,),), ((-1,),)

_TABLE_N2 = (
    ((1, 0), (0, 1)),          # identity
    ((-1, 0), (0, -1)),        # central involution
    ((1, 0), (0, -1)),         # reflection fixing an axis
    ((0, 1), (1, 0)),          # reflection swapping the axes
    ((0, -1), (1, -1)),        # order 3
    ((0, -1), (1, 0)),         # order 4
    ((0, -1), (1, 1)),         # order 6
)

_TABLE_N3 = (
    ((1, 0, 0), (0, 1, 0), (0, 0, 1)),        # identity
    ((-1, 0, 0), (0, -1, 0), (0, 0, -1)),     # central involution
    ((1, 0, 0), (0, 1, 0), (0, 0, -1)),       # order 2, fixed plane
    ((1, 0, 0), (0, -1, 0), (0, 0, -1)),      # order 2, fixed line
    ((1, 0, 0), (0, 0, 1), (0, 1, 0)),        # order 2, swap + fixed line
    ((-1, 0, 0), (0, 0, 1), (0, 1, 0)),       # order 2, swap + flipped line
    ((1, 0, 0), (0, 0, -1), (0, 1, -1)),      # order 3, split
    ((0, 0, 1), (1, 0, 0), (0, 1, 0)),        # order 3, cyclic coordinate shift
    ((1, 0, 0), (0, 0, -1), (0, 1, 0)),       # order 4, split, det 1
    ((-1, 0, 0), (0, 0, -1), (0, 1, 0)),      # order 4, split, det -1
    ((-1, -1, -1), (1, 1, 0), (1, 0, 1)),     # order 4, nonsplit, det 1
    ((-1, -1, -1), (0, 0, 1), (1, 0, 0)),     # order 4, nonsplit, det -1
    ((1, 0, 0), (0, 0, -1), (0, 1, 1)),       # order 6, split, det 1
    ((-1, 0, 0), (0, 0, -1), (0, 1, 1)),      # order 6, det -1
    ((-1, 0, 0), (0, 0, -1), (0, 1, -1)),     # order 6 (negated order-3 split)
    ((0, 0, -1), (-1, 0, 0), (0, -1, 0)),     # order 6 (negated coordinate shift)
)

_BUILTIN_TABLES = {
    1: ("builtin-n1-v1", _TABLE_N1),
    2: ("builtin-n2-v1", _TABLE_N2),
    3: ("builtin-n3-v1", _TABLE_N3),
}


def torsion_class_table(n: int) -> TorsionTable:
    """Built-in torsion class representatives for GL(n,Z), n in {1, 2, 3}.

    Orders are not derived here: every consumer derives each entry's order
    itself (``torsion_free_overgroup``, ``validate_torsion_table`` and
    certificate verification).
    """
    if n not in _BUILTIN_TABLES:
        raise InputError(f"no builtin torsion table for dimension {n}")
    version, raw = _BUILTIN_TABLES[n]
    return TorsionTable(n=n, version=version, entries=tuple(IntegerMatrix(rows) for rows in raw))


def _box_symmetries(n: int) -> list[tuple[itemgetter, tuple[int, ...]]]:
    """Conjugation by each signed permutation matrix but +-I, as maps on
    flat entry tuples.  For P e_j = s_j e_pi(j), the conjugate P^-1 g P has
    entries s_i s_j g[pi(i)][pi(j)]; a map is the pair (getter of the
    source entries, their signs).  P and -P act alike, so s_0 = 1 is fixed:
    the 2^(n-1) n! - 1 maps are distinct, and each takes n^2 >= 4 entries,
    so its getter returns a tuple."""
    out = []
    for perm in itertools.permutations(range(n)):
        for tail in itertools.product((1, -1), repeat=n - 1):
            s = (1,) + tail
            out.append((
                itemgetter(*(perm[i] * n + perm[j] for i in range(n) for j in range(n))),
                tuple(s[i] * s[j] for i in range(n) for j in range(n)),
            ))
    return out[1:]  # the first is the identity


def _last_rows(
    head: list[tuple[int, ...]], n: int, bound: int
) -> Iterable[tuple[int, ...]]:
    """The last rows r in [-bound, bound]^n, in lexicographic order, that
    complete the first n - 1 rows ``head`` to a g with det g = +-1 and
    |tr g| <= n.

    det g = c . r for the cofactor vector c of the last row, c_j being
    (-1)^(n-1+j) times the minor of ``head`` without column j.  With k the
    last index where c_k != 0, r[k] is solved from r[:k] for det -1 and for
    det 1 (kept when the division is exact and r[k] lies in the box);
    r[k+1:] is free, and r[n-1] is held to the trace window.  No k: every
    det is 0.
    """
    cofactors = [1] if n == 1 else [
        (-1) ** (n - 1 + j) * det_int([row[:j] + row[j + 1 :] for row in head])
        for j in range(n)
    ]
    nonzero = [j for j, c in enumerate(cofactors) if c]
    if not nonzero:
        return
    k = nonzero[-1]
    pivot = cofactors[k]
    values = range(-bound, bound + 1)
    head_trace = sum(head[i][i] for i in range(n - 1))
    window = range(max(-bound, -n - head_trace), min(bound, n - head_trace) + 1)
    if k == n - 1:
        solved, tails = window, [()]
    else:
        solved = values
        tails = list(itertools.product(*[values] * (n - 2 - k), window))
    dets = (-1, 1) if pivot > 0 else (1, -1)  # r[k] ascending
    for prefix in itertools.product(values, repeat=k):
        rest = sum(c * x for c, x in zip(cofactors, prefix))
        for det in dets:
            x, remainder = divmod(det - rest, pivot)
            if not remainder and x in solved:
                for tail in tails:
                    yield prefix + (x,) + tail


def validate_torsion_table(
    n: int,
    bound: int = 3,
    moduli: Sequence[int] = (5, 7, 8, 9),
    table: TorsionTable | None = None,
) -> list[IntegerMatrix]:
    """Necessary-condition completeness screen for a torsion table.

    Enumerates every torsion element of GL(n,Z) with entries in
    [-bound, bound] and returns those NOT conjugate mod every listed modulus
    (each >= 2) to a table entry of the same order and char poly, in
    enumeration order.  An empty list is a pass.  The screen is necessary,
    not sufficient: it can expose a missing class but cannot prove
    completeness.

    Each orbit of the box under conjugation by signed permutation matrices
    is decided once.  For P e_j = s_j e_pi(j), g' = P^-1 g P has entries
    g'[i][j] = s_i s_j g[pi(i)][pi(j)], so g' lies in the box whenever g
    does, and being conjugate to g over Z it has the same det, trace,
    trace of its square, torsion order and char poly.  P is invertible mod
    every m, so g' is conjugate mod m to a table entry t iff g is.  Every
    test below thus gives one answer on the whole orbit.  The enumeration
    is lexicographic, so it reaches an orbit's minimum first; the decision
    made there is kept for the orbit's later members until each is reached.
    Members of an orbit that fails the trace-of-square filter are not kept.

    Only candidates that can be torsion are generated: for each choice of
    the first n - 1 rows, ``_last_rows`` yields the last rows that make
    det = +-1 and |trace| <= n.  Conjugation keeps det and trace, so every
    orbit member a decision is kept for is generated.

    An element g of order k is decided only mod part_k, the part of
    joint = lcm(moduli) at the primes dividing k (part_k = 1 matches every
    candidate).  By the Chinese remainder theorem, conjugacy mod every
    listed modulus is conjugacy mod each prime power exactly dividing
    joint, and at the primes prime to k it holds by this lemma:

    Lemma.  Let g and t have the same finite order k and the same char
    poly, and let p not divide k.  Then g and t are conjugate mod p^e for
    every e >= 1.

    Proof.  (1) Mod p both are semisimple, because x^k - 1 is separable
    over F_p; with the same char poly they are conjugate in GL(n, F_p).
    (2) Lift that conjugator, so that t = g mod p.  (3) The kernel K of
    GL(n, Z/p^e) -> GL(n, F_p) is a p-group, and <g>, <t> are complements
    of K in <g>K, of order prime to p.  By Schur-Zassenhaus some h in K has
    h<t>h^-1 = <g>.  Then hth^-1 = g mod p, and <g> meets K trivially, so
    hth^-1 = g.
    """
    from .exactlin import char_poly  # at call time, so a wrapper on it is seen

    if any(m < 2 for m in moduli):
        raise InputError("screen moduli must be >= 2")
    # no moduli: joint = 1, so every part_k is 1 and (order, char poly) decide
    joint_factors = factorize(lcm(*moduli))
    if table is None:
        table = torsion_class_table(n)
    buckets: dict[tuple, list[IntegerMatrix]] = {}
    for entry in table.entries:
        order = torsion_order(entry)
        if order is None:
            raise InputError("table entry has infinite order")
        buckets.setdefault((order, char_poly(entry)), []).append(entry)
    parts = {k: prod(p**e for p, e in joint_factors if k % p == 0) for k, _ in buckets}

    symmetries = _box_symmetries(n)
    # tr g^2 is the dot product of g and its transpose; one index: no getter
    transpose = itemgetter(*(k * n + i for i in range(n) for k in range(n))) if n > 1 else tuple
    # orbit members not reached yet -> whether they are unmatched
    pending: dict[tuple[int, ...], bool] = {}
    unmatched = []
    values = range(-bound, bound + 1)
    for head_flat in itertools.product(values, repeat=(n - 1) * n):
        head = [head_flat[i * n : (i + 1) * n] for i in range(n - 1)]
        for last in _last_rows(head, n, bound):
            flat = head_flat + last
            rows = head + [last]
            missing = pending.pop(flat, None)
            if missing is None:
                # torsion forces every eigenvalue onto the unit circle: |tr g^k| <= n
                if abs(sum(map(mul, flat, transpose(flat)))) > n:
                    continue
                g = IntegerMatrix._raw(tuple(rows))
                order = torsion_order(g)
                if order is None:
                    missing = False
                else:
                    part = parts.get(order, 1)  # no entry of that order: no candidates
                    candidates = buckets.get((order, char_poly(g)), [])
                    missing = not any(
                        part == 1 or modgrp.is_conjugate_mod(g, t, part)
                        for t in candidates
                    )
                for source, signs in symmetries:
                    mate = tuple(map(mul, signs, source(flat)))
                    if mate > flat:
                        pending[mate] = missing
            if missing:
                unmatched.append(IntegerMatrix._raw(tuple(rows)))
    return unmatched
