"""Finite matrix groups over Z/m: reduction, closure, conjugacy classes.

The reduction homomorphism r_m : GL(n,Z) -> GL(n,Z/m) realizes finite-level
images of infinite matrix groups.  Images of p-adic closures are represented
here only through their finite quotients mod p^K; the tower of such images
is all the downstream separation searches ever touch.  ``witness_prime``
enumerates only the level-1 image and reads the higher levels off a layered
basis of the congruence kernel (``_kernel_basis``).

Conjugacy classes mod m are full GL(n,Z/m)-orbits.  The integral conjugacy
class of a matrix reduces *into* (possibly properly inside) its mod-m class,
so disjointness from the mod-m class is a sound, if occasionally
conservative, witness of disjointness from the integral class.

Canonical encodings: an element of GL(n,Z/m) is encoded as the ASCII bytes
``b"n:m:e00,e01,...,e(n-1)(n-1)"`` with entries row-major in [0, m).  A set
of elements is digested as SHA-256 over the newline-joined *sorted* list of
encodings, making digests order-independent and certificates bit-checkable
by any independent implementation.

Inside this module the element sets come in two formats.  A subgroup
image (``ModMatrixGroup.elements``) holds each element as one packed int,
the mixed-radix-m number of its row-major residues (``_pack``): it is the
largest set the program builds, and an int costs about half a tuple.  A
conjugacy class (``ConjClass.orbit``) holds flat entry tuples (row-major
residues in [0, m)), the body of the encoding above, because its
conjugation maps, compiled once per (n, m), act on tuples and packing each
candidate costs more time than the class saves in memory.  Right
multiplications x -> x t by generators and the conjugations of classes
are both linear forms in the entries, compiled by the one
``_compile_linear`` and kept for the last ``_COMPILED_KEPT`` generators t
and pairs (n, m) respectively.  ``ModMatrix`` objects are made only for
single elements such as generators and representatives.  Subgroups and
classes are built by the one breadth-first loop ``_closure``, and every
Schreier transversal (crystallographic holonomy witnesses, the lifts of a
level-1 image, the mod-3 image of the virtual-unipotency decision with its
lifts) by the Schreier tree of ``_schreier_transversal``; nothing outside
this module reads either set directly.
"""

from __future__ import annotations

import hashlib
import itertools
from functools import lru_cache, partial
from math import gcd
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence

from . import exactlin
from .errors import (
    DimensionMismatchError,
    InputError,
    PreconditionError,
    ResourceError,
)
from .exactlin import (
    IntegerMatrix,
    RationalMatrix,
    _adjugate_inverse,
    _faddeev_leverrier,
    _power,
    det_int,
    factorize,
)

#: Default element budget for closures and orbits.  Exceeding a budget is an
#: explicit ResourceError, never silent truncation.
DEFAULT_CAP = 10**7


def _closure(start, maps, cap: int, what: str, stop=None, key=None) -> tuple[set, bool]:
    """Breadth-first closure of {start} under the given maps.

    Returns (closure, False), or (partial, True) as soon as an element lies
    in ``stop`` (``start`` included).  More than ``cap`` elements raise
    ResourceError carrying the partial size; ``what`` names the computation
    in its message.

    The maps act on elements as given; with ``key`` the returned set holds
    ``key(y)`` for each element y instead of y (``stop`` is still tested on
    y).  ``generate`` packs subgroup elements this way, while the frontier
    keeps the entry tuples that its right multiplications act on; those
    are compiled by ``_compile_linear`` like the conjugations of an orbit,
    and kept for the last ``_COMPILED_KEPT`` generators
    (``_right_multiplication``).  Orbits pass no key: an orbit packs
    one candidate per conjugation and unpacks every element for its
    digest, so closing and digesting the 15,500 elements of the m = 5
    class of the 3-cycle under the compiled conjugations of
    ``_gl_conjugations`` took 76-84 ms packed against 33-36 ms as tuples
    (2 CPUs, Python 3.11.7).

    The set is returned as built, not copied: a frozen copy would double
    the hash table at the peak.  Callers never mutate it.
    """
    seen = {start if key is None else key(start)}
    if stop is not None and start in stop:
        return seen, True
    frontier = [start]
    while frontier:
        new_frontier = []
        for x in frontier:
            for f in maps:
                y = f(x)
                k = y if key is None else key(y)
                if k not in seen:
                    seen.add(k)
                    if stop is not None and y in stop:
                        return seen, True
                    if len(seen) > cap:
                        raise ResourceError(
                            f"element budget {cap} exceeded while {what}",
                            partial_size=len(seen),
                        )
                    new_frontier.append(y)
        frontier = new_frontier
    return seen, False


def _schreier_transversal(start_key, start, key_maps, lift_maps, cap: int, what: str) -> dict:
    """{key: lift} for the keys a breadth-first walk from ``start_key`` under
    ``key_maps`` reaches (more than ``cap`` raise ResourceError), each lift
    formed from ``start`` by the ``lift_maps`` along the walk's first path:
    for the same right multiplications on a group and its image, a Schreier
    transversal of the kernel (Holt, Eick and O'Brien, Handbook of
    Computational Group Theory, ch. 4).  The walk records each key's (parent
    key, generator index), and then overwrites that in walk order by its
    lift: one lift product per key, and one dict."""
    tree = {start_key: None}
    queue = [start_key]
    for x in queue:  # the queue grows while it is read: breadth-first order
        for i, f in enumerate(key_maps):
            y = f(x)
            if y not in tree:
                tree[y] = (x, i)
                if len(tree) > cap:
                    raise ResourceError(
                        f"element budget {cap} exceeded while {what}",
                        partial_size=len(tree),
                    )
                queue.append(y)
    for key, edge in tree.items():
        tree[key] = start if edge is None else lift_maps[edge[1]](tree[edge[0]])
    return tree


def _schreier_generators(lifts: dict, key_maps, lift_maps, times, inverse) -> Iterator:
    """Each Schreier generator s = w_x g w_(xg)^(-1) != I of the kernel, as
    times(w_x g, inverse(w_(xg))), over the lifts w of
    ``_schreier_transversal`` in its order, with x g read off ``key_maps``
    and w_x g formed by ``lift_maps``.  A lift is inverted once, when an s
    first needs it: <U> mod p inverts one lift, not p."""
    inverses: dict = {}
    for x, w in lifts.items():
        for f, g in zip(key_maps, lift_maps):
            key, wg = f(x), g(w)
            if wg != lifts[key]:
                if key not in inverses:
                    inverses[key] = inverse(lifts[key])
                yield times(wg, inverses[key])


def _product(a: tuple[int, ...], b: tuple[int, ...], n: int, m: int) -> tuple[int, ...]:
    """The entry tuple of a * b mod m; zero entries of a are skipped."""
    out = [0] * (n * n)
    for i in range(0, n * n, n):
        for k in range(n):
            aik = a[i + k]
            if aik:
                kb = k * n
                for j in range(n):
                    out[i + j] += aik * b[kb + j]
    return tuple(x % m for x in out)


def _rows(entries: Sequence[int], n: int) -> list[list[int]]:
    return [list(entries[i : i + n]) for i in range(0, n * n, n)]


def _pack(entries: Sequence[int], m: int) -> int:
    """The mixed-radix-m number sum e_k m^(K - 1 - k) of the K row-major
    residues e_k in [0, m), by Horner's rule, on halves above 16 entries as
    ``_unpack`` splits them.  Packing is injective, and packed ints sort as
    their entry tuples do."""
    k = len(entries)
    if k > 16:
        low = k // 2
        return _pack(entries[: k - low], m) * m**low + _pack(entries[k - low :], m)
    x = 0
    for e in entries:
        x = x * m + e
    return x


def _unpack(x: int, n: int, m: int, k: int = 0) -> tuple[int, ...]:
    """The entry tuple that ``_pack`` made x from, its k = n^2 base-m digits;
    above 16 digits x is halved first, as each divmod by m costs its size."""
    k = k or n * n
    if k > 16:
        high, low = divmod(x, m ** (k // 2))
        return _unpack(high, n, m, k - k // 2) + _unpack(low, n, m, k // 2)
    out = [0] * k
    for i in range(k - 1, -1, -1):
        x, out[i] = divmod(x, m)
    return tuple(out)


class DenominatorNotUnitError(PreconditionError):
    """A rational entry's denominator is not invertible mod m.

    This failure is itself meaningful: the offending prime divides the
    denominator, so the matrix cannot lie in the corresponding congruence
    image at any level of that prime.
    """

    def __init__(self, denominator: int, modulus: int):
        super().__init__(
            f"denominator {denominator} is not a unit modulo {modulus}"
        )
        self.denominator = denominator
        self.modulus = modulus


class ModMatrix:
    """An element of GL(n, Z/m): residue entries with unit determinant."""

    __slots__ = ("n", "m", "entries")

    def __init__(self, n: int, m: int, entries: Sequence[int]):
        if m < 2:
            raise InputError(f"modulus must be >= 2, got {m}")
        flat = tuple(int(x) % m for x in entries)
        if len(flat) != n * n:
            raise InputError(f"expected {n * n} entries, got {len(flat)}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "entries", flat)
        d = self.det()
        if gcd(d, m) != 1:
            raise PreconditionError(
                f"matrix is not invertible mod {m}: det = {d}"
            )

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("ModMatrix is immutable")

    @classmethod
    def _raw(cls, n: int, m: int, entries: tuple[int, ...]) -> "ModMatrix":
        # fast path for internal products and conjugates: entries already
        # reduced, and invertibility is inherited (products of units are units)
        obj = object.__new__(cls)
        object.__setattr__(obj, "n", n)
        object.__setattr__(obj, "m", m)
        object.__setattr__(obj, "entries", entries)
        return obj

    @classmethod
    def identity(cls, n: int, m: int) -> "ModMatrix":
        # a unit, so no determinant is taken
        if m < 2:
            raise InputError(f"modulus must be >= 2, got {m}")
        return cls._raw(n, m, tuple(int(i == j) for i in range(n) for j in range(n)))

    def __getitem__(self, key: tuple[int, int]) -> int:
        i, j = key
        return self.entries[i * self.n + j]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ModMatrix)
            and self.n == other.n
            and self.m == other.m
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.n, self.m, self.entries))

    def __repr__(self) -> str:
        return f"ModMatrix(n={self.n}, m={self.m}, entries={list(self.entries)})"

    def __mul__(self, other: "ModMatrix") -> "ModMatrix":
        if not isinstance(other, ModMatrix):
            return NotImplemented
        if self.n != other.n or self.m != other.m:
            raise DimensionMismatchError("mod-matrix dimension or modulus mismatch")
        n, m = self.n, self.m
        return ModMatrix._raw(n, m, _product(self.entries, other.entries, n, m))

    def det(self) -> int:
        """Determinant mod m (via exact integer Bareiss, then reduced)."""
        return det_int(self.to_lists()) % self.m

    def inverse(self) -> "ModMatrix":
        """Inverse mod m: ``_adjugate_inverse`` of the residue matrix with
        det^(-1) taken mod m, reduced mod m.  The identity is its own."""
        n, m = self.n, self.m
        if self == ModMatrix.identity(n, m):
            return self
        inv = _adjugate_inverse(self.to_lists(), pow(self.det(), -1, m))
        return ModMatrix._raw(n, m, tuple(x % m for row in inv for x in row))

    def __pow__(self, exponent: int) -> "ModMatrix":
        if exponent < 0:
            return self.inverse() ** (-exponent)
        return _power(self, exponent, ModMatrix.identity(self.n, self.m))

    def to_lists(self) -> list[list[int]]:
        return _rows(self.entries, self.n)


def elements_digest(n: int, m: int, elements: Iterable[tuple[int, ...]]) -> str:
    """Order-independent SHA-256 digest of a set of entry tuples of
    GL(n, Z/m): the newline-joined sorted encodings ``n:m:e00,e01,...``."""
    encode = (f"{n}:{m}:" + ",".join(["%d"] * (n * n))).__mod__
    # ASCII text sorts as its bytes do
    body = "\n".join(sorted(map(encode, elements)))
    return hashlib.sha256(body.encode("ascii")).hexdigest()


# ---------------------------------------------------------------------------
# reduction homomorphism
# ---------------------------------------------------------------------------


def reduce(g: IntegerMatrix | RationalMatrix, m: int) -> ModMatrix:
    """The reduction homomorphism: entrywise residues mod m.

    Rational entries p/q are mapped to p * q^(-1) mod m; a denominator that
    is not a unit mod m raises DenominatorNotUnitError.
    """
    n = g.n
    if isinstance(g, IntegerMatrix):
        return ModMatrix(n, m, [x % m for row in g.entries for x in row])
    flat = []
    for row in g.entries:
        for x in row:
            q = x.denominator
            if q == 1:
                flat.append(x.numerator % m)
                continue
            try:
                q_inv = pow(q % m, -1, m)
            except ValueError:
                raise DenominatorNotUnitError(q, m) from None
            flat.append((x.numerator % m) * q_inv % m)
    return ModMatrix(n, m, flat)


# ---------------------------------------------------------------------------
# generated subgroups
# ---------------------------------------------------------------------------


class ModMatrixGroup:
    """The subgroup of GL(n, Z/m) generated by a finite set of elements.

    ``elements`` is the complete element set, each element packed into one
    int by ``_pack``; it is the set ``_closure`` built, never mutated
    afterwards.  Callers go through ``entry_tuples``, ``in`` and
    ``isdisjoint``, which keep the format inside this module.
    """

    __slots__ = ("n", "m", "elements", "_digest")

    def __init__(self, n: int, m: int, elements: set[int]):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "_digest", None)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("ModMatrixGroup is immutable")

    @property
    def size(self) -> int:
        return len(self.elements)

    def entry_tuples(self) -> Iterator[tuple[int, ...]]:
        """The elements as flat entry tuples, unpacked one at a time."""
        return map(partial(_unpack, n=self.n, m=self.m), self.elements)

    def __contains__(self, x: ModMatrix) -> bool:
        return (
            x.n == self.n and x.m == self.m and _pack(x.entries, self.m) in self.elements
        )

    def isdisjoint(self, cls: "ConjClass") -> bool:
        """True iff no element of the group lies in the class.  Converts
        the smaller side: group elements are unpacked into lookups in the
        orbit, or orbit tuples packed into lookups in the group."""
        if cls.n != self.n or cls.m != self.m:
            return True
        if len(self.elements) <= len(cls.orbit):
            return cls.orbit.isdisjoint(self.entry_tuples())
        return self.elements.isdisjoint(map(partial(_pack, m=self.m), cls.orbit))

    def digest(self) -> str:
        d = self._digest
        if d is None:
            d = elements_digest(self.n, self.m, self.entry_tuples())
            object.__setattr__(self, "_digest", d)
        return d

    def _sorted_rows(self) -> list[list[list[int]]]:
        """The elements as row lists, in sorted order, without a digest."""
        n, m = self.n, self.m
        # packed ints sort as their entry tuples do
        return [_rows(_unpack(x, n, m), n) for x in sorted(self.elements)]


def generate(
    gens: Sequence[ModMatrix],
    cap: int = DEFAULT_CAP,
    *,
    n: int | None = None,
    m: int | None = None,
) -> ModMatrixGroup:
    """Breadth-first closure of gens under right multiplication by gens.

    Forward generators suffice: in a finite group every g has g^k = g^(-1)
    for k = ord(g) - 1, so the monoid generated by gens is the group.  Each
    distinct generator's right multiplication is compiled by
    ``_right_multiplication`` into sums over its nonzero entries, or taken
    from its cache; no matrix product is formed per element.

    ``n`` and ``m`` are required only when gens is empty (trivial group).
    Exceeding ``cap`` elements raises ResourceError carrying the partial size.
    """
    gens = tuple(gens)
    if gens:
        n, m = gens[0].n, gens[0].m
        if any(g.n != n or g.m != m for g in gens):
            raise DimensionMismatchError("generators must share dimension and modulus")
    elif n is None or m is None:
        raise InputError("generating the trivial group needs explicit n and m")
    multipliers = [_right_multiplication(t) for t in dict.fromkeys(gens)]
    identity = ModMatrix.identity(n, m).entries
    elements, _ = _closure(
        identity, multipliers, cap, "generating subgroup", key=partial(_pack, m=m)
    )
    return ModMatrixGroup(n, m, elements)


# ---------------------------------------------------------------------------
# GL(n, Z/m) generators and conjugacy classes
# ---------------------------------------------------------------------------


def _multiplicative_order(a: int, modulus: int, group_order: int) -> int:
    order = group_order
    for p, _ in factorize(group_order):
        while order % p == 0 and pow(a, order // p, modulus) == 1:
            order //= p
    return order


def _local_unit_generators(p: int, e: int) -> list[int]:
    """Generators of (Z/p^e)^*, one per cyclic factor."""
    q = p**e
    if p == 2:
        if e == 1:
            return []
        if e == 2:
            return [3]
        return [q - 1, 5]  # {-1} x <5>
    phi = q - q // p
    for g in range(2, q):
        if gcd(g, q) == 1 and _multiplicative_order(g, q, phi) == phi:
            return [g]
    raise AssertionError("primitive root must exist for odd prime powers")


def unit_group_generators(m: int) -> list[int]:
    """Generators of (Z/m)^*, one per cyclic factor, lifted by CRT."""
    out = []
    for p, e in factorize(m):
        q = p**e
        rest = m // q
        for g in _local_unit_generators(p, e):
            if rest == 1:
                out.append(g % m)
            else:
                # u = g mod q, u = 1 mod rest
                inv = pow(q % rest, -1, rest)
                u = (g + q * ((1 - g) * inv % rest)) % m
                out.append(u)
    return out


def gl_order(n: int, m: int) -> int:
    """|GL(n, Z/m)| by the standard prime-power formula."""
    total = 1
    for p, e in factorize(m):
        local = 1
        for i in range(n):
            local *= p**n - p**i
        total *= local * p ** (n * n * (e - 1))
    return total


class ConjClass:
    """The full GL(n, Z/m)-conjugacy orbit of a representative.

    ``orbit`` holds flat entry tuples; it is the set ``_closure`` built,
    never mutated afterwards.
    """

    __slots__ = ("n", "m", "representative", "orbit", "_digest")

    def __init__(self, representative: ModMatrix, orbit: set[tuple[int, ...]]):
        object.__setattr__(self, "n", representative.n)
        object.__setattr__(self, "m", representative.m)
        object.__setattr__(self, "representative", representative)
        object.__setattr__(self, "orbit", orbit)
        object.__setattr__(self, "_digest", None)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("ConjClass is immutable")

    @property
    def size(self) -> int:
        return len(self.orbit)

    def __contains__(self, x: ModMatrix) -> bool:
        return x.n == self.n and x.m == self.m and x.entries in self.orbit

    def digest(self) -> str:
        d = self._digest
        if d is None:
            d = elements_digest(self.n, self.m, self.orbit)
            object.__setattr__(self, "_digest", d)
        return d

    def _sorted_rows(self) -> list[list[list[int]]]:
        """The orbit as row lists, in sorted order, without a digest."""
        return [_rows(x, self.n) for x in sorted(self.orbit)]


#: Most maps each compiling cache keeps: the right multiplications of
#: ``_right_multiplication`` by distinct t, and the conjugations of
#: ``_gl_conjugations`` for distinct (n, m).
_COMPILED_KEPT = 32


def _compile_linear(
    forms: list[list[tuple[int, int]]], m: int
) -> Callable[[tuple[int, ...]], tuple[int, ...]]:
    """The map x -> y on flat entry tuples with y[k] the sum of c x[i] mod m
    over the pairs (i, c) of forms[k], compiled into one straight-line tuple
    expression; an entry whose one pair is (i, 1) is the copy x[i], and an
    empty form is 0.  The source holds integer literals alone, each
    formatted with ``%d``."""
    parts = []
    for form in forms:
        if not form:  # a zero column of a right multiplication
            parts.append("0")
            continue
        if len(form) == 1 and form[0][1] == 1:
            parts.append("x[%d]" % form[0][0])
            continue
        terms = "".join(
            "+x[%d]" % i if c == 1 else "-x[%d]" % i if c == -1 else "+x[%d]*%d" % (i, c)
            for i, c in form
        )
        parts.append("(%s)%%%d" % (terms.lstrip("+"), m))
    return eval("lambda x: (%s,)" % ",".join(parts), {"__builtins__": {}})


@lru_cache(maxsize=_COMPILED_KEPT)
def _right_multiplication(t: ModMatrix) -> Callable[[tuple[int, ...]], tuple[int, ...]]:
    """The map x -> x t mod m on flat entry tuples, compiled by
    ``_compile_linear``.

    Entry (i, j) of x t is the sum of x[i][k] t[k][j] over the k with
    t[k][j] != 0, so each column's nonzero pairs (k, t[k][j]) are collected
    once and shifted to row i.  Generators are mostly zeros and ones, so
    this is a few additions per element instead of the n^3 index arithmetic
    of ``_product``.  The maps of the last ``_COMPILED_KEPT`` distinct t are
    kept, as compiling one costs about as much as a few hundred
    multiplications by it.
    """
    n = t.n
    columns = [[(k, c) for k in range(n) if (c := t.entries[k * n + j])] for j in range(n)]
    forms = [[(i + k, c) for k, c in column] for i in range(0, n * n, n) for column in columns]
    return _compile_linear(forms, t.m)


@lru_cache(maxsize=_COMPILED_KEPT)
def _gl_conjugations(n: int, m: int) -> tuple[Callable[[tuple[int, ...]], tuple[int, ...]], ...]:
    """The maps x -> t^(-1) x t on flat entry tuples, for t running over a
    generating set of GL(n, Z/m): the transvection E_01(1), the permutation
    matrix of the cycle (0 1 ... n-1), and diag(u, 1, ..., 1) for one unit u
    per cyclic factor of (Z/m)^*, in that order.

    Conjugating E_01(1) by powers of the cycle gives every E_i,i+1(1) (the
    index mod n), and their commutators give every other E_ij(1), which
    together generate SL(n, Z/m); the diagonal units give every determinant.

    Each map is built from (n, m) alone, with no matrix formed.  Conjugation
    by E_01(1) adds column 0 to column 1, then subtracts row 1 from row 0;
    by diag(u, 1, ...) it scales column 0 by u and row 0 by u^(-1), the
    corner left as it is.  Both are compiled by ``_compile_linear`` into one
    tuple expression over the O(n) changed entries and the copied rest.  By
    the cycle it takes entry (i, j) from ((i-1) mod n, (j-1) mod n), one
    ``itemgetter`` call.  The maps of the last ``_COMPILED_KEPT`` pairs
    (n, m) are kept, so an orbit compiles nothing that an earlier orbit at
    its (n, m) compiled.
    """
    m = int(m)
    maps = []
    if n > 1:
        forms = [[(k, 1)] for k in range(n * n)]
        for r in range(0, n * n, n):
            forms[r + 1] = forms[r + 1] + [(r, 1)]
        for c in range(n):
            forms[c] = forms[c] + [(k, -a) for k, a in forms[n + c]]
        maps.append(_compile_linear(forms, m))
        maps.append(
            itemgetter(*((i - 1) % n * n + (j - 1) % n for i in range(n) for j in range(n)))
        )
    for u in unit_group_generators(m):
        u_inv = pow(u, -1, m)
        forms = [[(k, 1)] for k in range(n * n)]
        for k in range(1, n):
            forms[k * n] = [(k * n, u)]  # column 0 below the corner
            forms[k] = [(k, u_inv)]  # row 0 right of the corner
        maps.append(_compile_linear(forms, m))
    return tuple(maps)


def _orbit_expand(
    rep: ModMatrix, cap: int, stop_inside: frozenset[tuple[int, ...]] | None = None
) -> tuple[set[tuple[int, ...]], bool]:
    """BFS conjugation orbit of rep, as entry tuples, under the conjugations
    of ``_gl_conjugations``.  With ``stop_inside`` (a set of entry tuples)
    given, aborts as soon as an orbit element lies in that set, returning
    (partial, True).

    Forward generators suffice, as in ``generate``: the monoid of these
    conjugations is all of GL(n, Z/m).  Each conjugation permutes the entry
    tuple or is a row and a column operation on it, so no t^(-1) is ever
    formed and no matrix is multiplied.  A scalar matrix, every element at
    n = 1 among them, is its own class, returned before any map is built.
    """
    n, x = rep.n, rep.entries
    if all(e == (x[0] if k % (n + 1) == 0 else 0) for k, e in enumerate(x)):
        return {x}, stop_inside is not None and x in stop_inside
    conjugations = _gl_conjugations(n, rep.m)
    return _closure(x, conjugations, cap, "expanding orbit", stop_inside)


def conj_class(rep: ModMatrix, cap: int = DEFAULT_CAP) -> ConjClass:
    """Orbit of ``rep`` under conjugation by all of GL(n, Z/m).

    Computed as the closure under the conjugations by a fixed generating
    set, ``_gl_conjugations(n, m)``, alone, with no inverse conjugators: the
    group is finite, so closing under forward generators reaches every
    element.  Each
    conjugation by a generator permutes the entries (a permutation matrix)
    or is one row and one column operation on them (a transvection adds a
    column and subtracts a row; a diagonal unit scales a column and a row),
    O(n) instead of two matrix products.  Exceeding ``cap`` raises
    ResourceError.
    """
    orbit, _ = _orbit_expand(rep, cap)
    return ConjClass(rep, orbit)


def char_coeffs_mod(entries: tuple[int, ...], n: int, m: int) -> tuple[int, ...]:
    """Characteristic polynomial coefficients mod m of the matrix with the
    given entry tuple.

    Returns (e_1, ..., e_n) mod m where e_k = (-1)^k c_k is the sum of the
    principal k×k minors and c_k the coefficient of t^(n-k) in det(tI - x):
    a cheap conjugation invariant used to screen intersections.
    """
    coeffs, _ = _faddeev_leverrier(_rows(entries, n))
    return tuple((-c if k % 2 else c) % m for k, c in enumerate(coeffs) if k)


# ---------------------------------------------------------------------------
# congruence images
# ---------------------------------------------------------------------------


def congruence_image(
    gens: Sequence[IntegerMatrix], m: int, cap: int, *, n: int | None
) -> ModMatrixGroup:
    """The image of the group generated by gens in GL(n, Z/m), closed
    under a budget of ``cap`` elements; ``n`` is needed only when gens is
    empty."""
    return generate([reduce(g, m) for g in gens], cap, n=n, m=m)


def _saturated(layers: list[list[tuple]], n: int, p: int) -> bool:
    """True when p is odd and layers 1 ... N-1 have dimension n^2 - 1, so
    every element of P sifts: for p odd it has determinant 1, and
    det(I + p^i X) = 1 + p^i tr X mod p^(i+1), so P's layers lie in sl_n."""
    return p % 2 == 1 and all(len(layer) == n * n - 1 for layer in layers[1:])


def _kernel_power(h: tuple[int, ...], e: int, n: int, q: int, terms: int) -> tuple[int, ...]:
    """h^e mod q for any integer e and h = I + Y with Y^terms = 0 mod q, as
    for h = I mod p^i, q = p^N and terms = ceil(N / i): the binomial series
    sum_(k < terms) C(e, k) Y^k, which at e = -1 is the Neumann series."""
    one = [int(k % (n + 1) == 0) for k in range(n * n)]
    y = power = tuple((a - d) % q for a, d in zip(h, one))
    out, c = one, 1
    for k in range(1, terms):
        c = c * (e - k + 1) // k  # C(e, k), an exact division; 0 once k > e >= 0
        if not c:
            break
        power = y if k == 1 else _product(power, y, n, q)
        out = [(a + c * b) % q for a, b in zip(out, power)]
    return tuple(out)


def _sift(h: tuple, layers: list[list[tuple]], p: int, n: int) -> tuple[int, tuple, list[int]]:
    """Divide the entries h = I mod p by basis elements, mod q = p^N, N = len(layers).

    At layer i, h = I + p^i X mod p^(i+1), and X mod p is reduced against
    the echelon basis of L_i; multiplying by b^e (kept with b once taken)
    adds e times b's vector, the layer being abelian.  Returns (i, h, X) at
    the first layer whose residual X is nonzero, or (N, h, []), h = I mod q.
    """
    q = p ** len(layers)
    for i in range(1, len(layers)):
        pi = p**i
        v = [(e - (k % (n + 1) == 0)) % q // pi % p for k, e in enumerate(h)]
        for pivot, vec, powers, _ in layers[i]:
            c = v[pivot]
            if c:
                # b's vector is 1 at its pivot, so b^(p - c) clears it
                v = [(a - c * x) % p for a, x in zip(v, vec)]
                if p - c not in powers:
                    powers[p - c] = _kernel_power(powers[1], p - c, n, q, -(-len(layers) // i))
                h = _product(h, powers[p - c], n, q)
        if any(v):
            return i, h, v
    return len(layers), h, []


def _kernel_basis(
    gens: Sequence[IntegerMatrix], p: int, levels: int, cap: int, *, n: int
) -> tuple[dict[tuple[int, ...], tuple[int, ...]], list[list[tuple]]]:
    """Lifts of the level-1 image to G_N (N = ``levels``) and a layered
    basis of the kernel P of G_N -> G_1, so that G_N is never enumerated.

    Layer L_i is the image of P & Gamma(p^i) in (M_n(F_p), +) under
    I + p^i X -> X mod p, so |G_K| = |G_1| p^(dim L_1 + ... + dim L_(K-1)).
    The lifts come from a Schreier tree of G_1 on residues mod p
    (``_schreier_transversal``), a transversal of P, so P is generated by
    the Schreier generators of ``_schreier_generators``, walked until
    ``_saturated``.  Each is sifted; a nonzero residual becomes a basis
    element b of L_i, scaled to 1 at its pivot, and queues b^p and its
    commutators with the basis of each L_j with i + j < N.  The basis is then closed under both, an
    induced polycyclic sequence of P, and sifting decides membership in P
    (Holt, Eick and O'Brien, Handbook of Computational Group Theory, ch. 4
    and 8).

    Returns (lifts, layers): lifts maps the residues mod p of each element
    of G_1 to the entries of its lift, and layers[i] lists L_i's basis as
    (pivot, vector, powers of b, b^(-1)); layers[0] stays empty.  More than
    ``cap`` Schreier generators, |G_1| times the number of generators,
    raise ResourceError before any is sifted.
    """
    q = p**levels
    mul = partial(_product, n=n, m=q)
    gens_q = list(dict.fromkeys(reduce(g, q) for g in gens))
    multipliers = [_right_multiplication(g) for g in gens_q]
    residue_maps = [_right_multiplication(ModMatrix._raw(n, p, tuple(e % p for e in g.entries)))
                    for g in gens_q]
    lifts = _schreier_transversal(
        ModMatrix.identity(n, p).entries, ModMatrix.identity(n, q).entries,
        residue_maps, multipliers, cap, "lifting the level-1 image",
    )
    count = len(lifts) * len(multipliers)
    if count > cap:
        raise ResourceError(
            f"element budget {cap} exceeded by {count} Schreier generators mod {q}",
            partial_size=count,
        )
    layers: list[list[tuple]] = [[] for _ in range(levels)]

    def absorb(s: tuple[int, ...]) -> None:
        pending = [s]
        while pending and not _saturated(layers, n, p):
            i, h, v = _sift(pending.pop(), layers, p, n)
            if not v:
                continue
            pivot = next(k for k, a in enumerate(v) if a)
            e, terms = pow(v[pivot], -1, p), -(-levels // i)
            b = _kernel_power(h, e, n, q, terms)
            b_inv = None  # b^p, b^(-1) and the commutators are I mod q once i + 1 >= N
            if i + 1 < levels:
                b_inv = _kernel_power(b, -1, n, q, terms)
                pending.append(_kernel_power(b, p, n, q, terms))
                pending.extend(
                    mul(mul(b_inv, c_inv), mul(b, powers_c[1]))
                    for j, layer in enumerate(layers) if i + j < levels
                    for _, _, powers_c, c_inv in layer
                )
            layers[i].append((pivot, [a * e % p for a in v], {1: b}, b_inv))

    for s in _schreier_generators(lifts, residue_maps, multipliers, mul,
                                  lambda w: ModMatrix._raw(n, q, w).inverse().entries):
        absorb(s)
        if _saturated(layers, n, p):
            break
    return lifts, layers


def _padic_depth(
    factor: RationalMatrix, gens: Sequence[IntegerMatrix], p: int, levels: int,
    cap: int, *, n: int,
) -> int:
    """The largest K <= ``levels`` with factor mod p^K in the image G_K,
    for an integral factor whose reduction mod p lies in G_1.

    With x = factor mod p^N, N = ``levels``, x mod p^K lies in G_K iff
    lift(x mod p)^(-1) x lies in P Gamma(p^K), that is iff it sifts through
    layers 1 ... K-1 (``_kernel_basis``).  Only G_1 is enumerated.
    """
    lifts, layers = _kernel_basis(gens, p, levels, cap, n=n)
    x = reduce(factor, p**levels)
    lift = ModMatrix._raw(n, x.m, lifts[tuple(e % p for e in x.entries)])
    return _sift((lift.inverse() * x).entries, layers, p, n)[0]


# ---------------------------------------------------------------------------
# exact mod-m conjugacy decision
# ---------------------------------------------------------------------------


#: Most projective candidates one mod-p scan of ``_conjugate_mod_prime_power``
#: may need; a larger scan raises ResourceError before it starts.
_SCAN_BUDGET = 2 * 10**6


def _conjugate_mod_prime_power(
    snf: exactlin.SmithDecomposition, n: int, p: int, e: int
) -> bool:
    """Exact conjugacy decision in GL(n, Z/p^e), given the Smith normal form
    U * op * V = D of the integral operator op : X -> X a - b X on n x n
    matrices.

    The X with X a = b X mod q, q = p^e, form the module S = ker(op mod q).
    U is unimodular, so op x = 0 mod q iff d_i y_i = 0 mod q for every i,
    where y = V^(-1) x: y_i ranges over (q / gcd(d_i, q)) Z/q.  Reduced mod
    p, only the y_i with q | d_i survive (d_i = 0 counts), and the columns
    of V stay linearly independent mod p because V is unimodular.  Hence the
    reduction of S mod p is the F_p-span of {V e_i : q | d_i}, of dimension
    r = #{i : q | d_i}.  X in S is a unit mod q iff its reduction mod p is,
    so the decision scans that span (projective representatives, early
    exit) for a nonsingular matrix.
    """
    q = p**e
    nn = n * n
    v, d = snf.V.entries, snf.D.entries
    span = [[v[k][i] % p for k in range(nn)] for i in range(nn) if d[i][i] % q == 0]
    r = len(span)
    if r == 0:
        return False
    combos = (p**r - 1) // (p - 1)
    if combos > _SCAN_BUDGET:
        raise ResourceError(
            f"conjugacy scan needs {combos} combinations mod {p}, budget is {_SCAN_BUDGET}"
        )
    # scan projective representatives: first nonzero coefficient equals 1
    for lead in range(r):
        for tail in itertools.product(range(p), repeat=r - lead - 1):
            vec = [0] * nn
            coeffs = (1,) + tail
            for c, basis_vec in zip(coeffs, span[lead:]):
                if c:
                    for idx in range(nn):
                        vec[idx] = (vec[idx] + c * basis_vec[idx]) % p
            if det_int(_rows(vec, n)) % p != 0:
                return True
    return False


def is_conjugate_mod(a: IntegerMatrix, b: IntegerMatrix, m: int) -> bool:
    """Decide whether a and b are conjugate in GL(n, Z/m), exactly.

    Decomposes m into prime powers (conjugacy mod m holds iff it holds mod
    every prime-power factor) and decides each factor via the solution module
    of X a = b X, from one Smith normal form of the operator X -> X a - b X.
    Raises ResourceError when a scan would exceed ``_SCAN_BUDGET`` candidate
    combinations; never returns a wrong answer.
    """
    n = a.n
    if b.n != n:
        raise DimensionMismatchError("conjugacy candidates must share dimension")
    if m < 2:
        raise InputError(f"modulus must be >= 2, got {m}")
    if a == b:
        return True
    factors = factorize(m)
    # column i*n + j is E_ij a - b E_ij, row-major: its (r, c) entry is
    # [r == i] a[j][c] - b[r][i] [j == c]
    x, y = a.entries, b.entries
    op = IntegerMatrix._raw(tuple(
        tuple((r == i) * x[j][c] - y[r][i] * (j == c) for i in range(n) for j in range(n))
        for r in range(n)
        for c in range(n)
    ))
    snf = exactlin.smith_normal_form(op)
    return all(_conjugate_mod_prime_power(snf, n, p, e) for p, e in factors)
