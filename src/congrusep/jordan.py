"""Multiplicative Jordan decomposition over Q and the predicates built on it.

Every invertible rational matrix g factors uniquely as g = s * u where s is
semisimple (squarefree minimal polynomial), u is unipotent ((u - I)^n = 0),
and s and u commute.  Both factors are rational whenever g is.  The
decomposition here is computed by a Newton iteration on the squarefree part
of the characteristic polynomial, which reaches the exact fixed point in at
most ceil(log2 n) steps; no approximation is involved at any stage.

Torsion is decided exactly by Minkowski's lemma: a torsion element of
GL(n,Z) has the order of its reduction mod 3, and every finite order divides
L(n) and is at most M(n), so the cost is bounded for any n.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from math import comb, lcm, prod

from .errors import PreconditionError, SingularMatrixError
from .exactlin import (
    IntegerMatrix,
    Polynomial,
    RationalMatrix,
    _power,
    char_poly,
    factorize,
    poly_xgcd,
    squarefree_part,
)
from .modgrp import _closure, _product

_MAX_NEWTON_STEPS = 64  # ceil(log2 n) + slack; evaluated exactly, never hit


@dataclass(frozen=True)
class JordanPair:
    """The commuting factors (semisimple, unipotent) of an invertible matrix.

    Satisfies exactly: semisimple * unipotent = the decomposed element, the
    factors commute, the semisimple factor has squarefree minimal polynomial,
    and (unipotent - I)^n = 0.
    """

    semisimple: RationalMatrix
    unipotent: RationalMatrix

    @property
    def matrix(self) -> RationalMatrix:
        return self.semisimple * self.unipotent


def _require_invertible(g: RationalMatrix) -> None:
    if g.det() == 0:
        raise SingularMatrixError("matrix is singular")


def _as_rational(g: RationalMatrix | IntegerMatrix) -> RationalMatrix:
    return g.to_rational() if isinstance(g, IntegerMatrix) else g


def jordan_decompose(g: RationalMatrix | IntegerMatrix) -> JordanPair:
    """Factor an invertible matrix into its commuting semisimple and
    unipotent parts.

    Newton iteration: with f the squarefree part of the characteristic
    polynomial and u f' + v f = 1 (extended Euclid, valid since f is
    squarefree over a field of characteristic zero), the map
    x -> x - f(x) u(x) squares the nilpotency order of f(x) at each step and
    terminates at the semisimple part s; the unipotent part is s^(-1) g.
    """
    g = _as_rational(g)
    n = g.n
    _require_invertible(g)
    f = squarefree_part(char_poly(g))
    one, _, cof = poly_xgcd(f, f.derivative())
    if one.degree != 0:
        raise AssertionError("squarefree part must be coprime to its derivative")
    # cof satisfies v*f + cof*f' = 1, so cof(x) inverts f'(x) modulo f(x)
    x = g
    for _ in range(_MAX_NEWTON_STEPS):
        fx = f.eval_matrix(x)
        if all(c == 0 for row in fx.entries for c in row):
            break
        x = x - fx * cof.eval_matrix(x)
    else:  # pragma: no cover - mathematically unreachable
        raise AssertionError("Newton iteration failed to terminate")
    s = x
    u = s.inverse() * g
    pair = JordanPair(semisimple=s, unipotent=u)
    _check_pair(pair, g, f)
    return pair


def _annihilates(f: Polynomial, x: RationalMatrix) -> bool:
    """True iff f(x) = 0.  For f squarefree this says the minimal
    polynomial of x, a divisor of f, is squarefree too."""
    return all(c == 0 for row in f.eval_matrix(x).entries for c in row)


def _check_pair(pair: JordanPair, g: RationalMatrix, f: Polynomial) -> None:
    # cheap exact sanity: annihilation by the squarefree part implies a
    # squarefree minimal polynomial, and the rest are direct identities
    n = g.n
    s, u = pair.semisimple, pair.unipotent
    if not _annihilates(f, s):
        raise AssertionError("semisimple factor not annihilated by squarefree part")
    eye = RationalMatrix.identity(n)
    if (u - eye) ** n != RationalMatrix.zeros(n):
        raise AssertionError("unipotent factor fails nilpotency")
    if s * u != g or s * u != u * s:
        raise AssertionError("factors fail product/commutation identities")


def is_semisimple(g: RationalMatrix | IntegerMatrix) -> bool:
    """True iff the minimal polynomial of g is squarefree.

    The minimal polynomial divides the characteristic polynomial and has
    the same roots, so it is squarefree iff it equals the squarefree part f
    of the characteristic polynomial, i.e. iff f(g) = 0.
    """
    g = _as_rational(g)
    _require_invertible(g)
    return _annihilates(squarefree_part(char_poly(g)), g)


def is_unipotent(g: RationalMatrix | IntegerMatrix) -> bool:
    """True iff (g - I)^n = 0.  The identity counts as unipotent."""
    g = _as_rational(g)
    n = g.n
    return (g - RationalMatrix.identity(n)) ** n == RationalMatrix.zeros(n)


def conjugate_decomposition(
    g: RationalMatrix | IntegerMatrix, h: RationalMatrix | IntegerMatrix
) -> JordanPair:
    """Jordan decomposition of h^(-1) g h.

    Equals the conjugate of g's decomposition componentwise (conjugation
    commutes with taking semisimple/unipotent parts), which tests exercise
    exactly.
    """
    g, h = _as_rational(g), _as_rational(h)
    _require_invertible(h)
    return jordan_decompose(h.inverse() * g * h)


# ---------------------------------------------------------------------------
# torsion orders from Minkowski's lemma
# ---------------------------------------------------------------------------


def euler_phi(d: int) -> int:
    return prod(p ** (e - 1) * (p - 1) for p, e in factorize(d))


@lru_cache(maxsize=None)
def _orders_lcm(n: int) -> int:
    """L(n) = lcm{d : phi(d) <= n}, a multiple of every finite order in
    GL(n,Z): the eigenvalues are d-th roots of unity with phi(d) <= n, and
    phi(d) >= sqrt(d/2) > n once d > 2n^2."""
    return lcm(*(d for d in range(1, 2 * n * n + 2) if euler_phi(d) <= n))


@lru_cache(maxsize=None)
def max_torsion_order(n: int) -> int:
    """M(n), the largest finite order in GL(n,Z): the largest lcm of indices
    d with sum of phi(d) <= n, by a knapsack keeping the least cost per lcm."""
    cost = {1: 0}
    for d in range(2, 2 * n * n + 2):
        phi = euler_phi(d)
        for l, c in list(cost.items()):
            key, total = lcm(l, d), c + phi
            if total < cost.get(key, n + 1):
                cost[key] = total
    return max(cost)


def _order_mod3(g: IntegerMatrix, exponent: int) -> int | None:
    """The order of g mod 3 if it divides ``exponent``, else None: for each
    p^a exactly dividing it, the order's p-part is that of g^(exponent/p^a)."""
    n = g.n
    x = tuple(v % 3 for row in g.entries for v in row)
    eye = tuple(int(i == j) for i in range(n) for j in range(n))
    mul = partial(_product, n=n, m=3)
    order = 1
    for p, a in factorize(exponent):
        y = _power(x, exponent // p**a, eye, mul)
        while y != eye and a:
            y, order, a = _power(y, p, eye, mul), order * p, a - 1
        if y != eye:
            return None
    return order


def torsion_order(g: IntegerMatrix) -> int | None:
    """Least m >= 1 with g^m = I, or None when g has infinite order.

    Requires g in GL(n,Z).  By Minkowski's lemma the kernel of
    GL(n,Z) -> GL(n,Z/3) is torsion free: with k the order of g mod 3, a
    torsion g has g^k = I, so its order is k.  Finite orders divide L(n) and
    are at most M(n): O(log L(n)) products mod 3 and one power g^k decide.
    """
    n = g.n
    if g.det() not in (1, -1):
        raise PreconditionError(f"matrix not in GL({n},Z): det = {g.det()}")
    k = _order_mod3(g, _orders_lcm(n))
    if k is None or k > max_torsion_order(n):
        return None
    return k if g**k == IntegerMatrix.identity(n) else None


# ---------------------------------------------------------------------------
# bounded virtual-unipotency scan
# ---------------------------------------------------------------------------


#: Most distinct words the virtual-unipotency scan may hold; more raise
#: ResourceError.
_WORD_SCAN_BUDGET = 10**5


def bounded_words(gens: list[IntegerMatrix], wordlen: int) -> set[IntegerMatrix]:
    """All distinct products of length <= wordlen over gens and inverses.

    The words are the closure of {I} under right multiplication by the
    letters, cut at depth ``wordlen`` (``modgrp._closure``).  More than
    ``_WORD_SCAN_BUDGET`` words raise ResourceError: the count grows
    exponentially in wordlen for most generators.
    """
    if wordlen < 0:
        raise PreconditionError("word length must be nonnegative")
    if not gens:
        return set()
    n = gens[0].n
    letters = []
    for g in gens:
        if g.det() not in (1, -1):
            raise PreconditionError("generators must lie in GL(n,Z)")
        for mat in (g, g.unimodular_inverse()):
            if mat not in letters:
                letters.append(mat)
    words, _ = _closure(
        IntegerMatrix.identity(n),
        [lambda w, a=a: w * a for a in letters],
        _WORD_SCAN_BUDGET,
        "running the virtual-unipotency word scan",
        depth=wordlen,
    )
    return words


def is_virtually_unipotent_witness(gens: list[IntegerMatrix], wordlen: int) -> bool:
    """Bounded necessary-condition scan for virtual unipotency.

    True iff every word of length <= wordlen over gens and their inverses has
    a torsion semisimple part, i.e. only roots of unity as eigenvalues (w and
    s share them: w = s * u with u unipotent commuting with s).  It can
    refute but never prove virtual unipotency; callers should label results
    "consistent up to word length L".

    Decided mod 3: with k the order of w mod 3, the eigenvalues of w are
    roots of unity iff char_poly(w^k) = (x - 1)^n.  If they are, so is each
    eigenvalue z of w^k, and (z - 1)/3 is an algebraic integer because
    (w^k - I)/3 is integral; for z a primitive d-th root with d > 1 its norm
    +-Phi_d(1)/3^phi(d) is no integer, so z = 1 (Serre, "Rigidité du
    foncteur de Jacobi d'échelon n >= 3", appendix).  The converse is clear.
    k is bounded too: s has order r dividing L(n), r <= M(n), w^r = u^r is
    unipotent and integral, and (I + N)^(3^c) = I mod 3 once 3^c >= n; so
    k | L(n) * 3^c and k <= M(n) * 3^c, or w is refuted with no exact power.
    """
    n = gens[0].n if gens else 1  # no gens: no words, nothing to refute
    unipotent_part = min(3**c for c in range(n) if 3**c >= n)  # least 3^c >= n
    exponent = _orders_lcm(n) * unipotent_part
    bound = max_torsion_order(n) * unipotent_part
    # (x - 1)^n, ascending integer coefficients (-1)^(n-i) C(n, i)
    target = tuple((-1) ** (n - i) * comb(n, i) for i in range(n + 1))
    for w in bounded_words(gens, wordlen):
        k = _order_mod3(w, exponent)
        if k is None or k > bound or char_poly(w**k).coeffs != target:
            return False
    return True
