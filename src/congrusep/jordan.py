"""Multiplicative Jordan decomposition over Q and the predicates built on it.

Every invertible rational matrix g factors uniquely as g = s * u where s is
semisimple (squarefree minimal polynomial), u is unipotent ((u - I)^n = 0),
and s and u commute.  Both factors are rational whenever g is.  The
decomposition here is computed by a Newton iteration on the squarefree part
of the characteristic polynomial, which reaches the exact fixed point in at
most ceil(log2 n) steps; no approximation is involved at any stage.

Torsion is decided exactly by Minkowski's lemma: a torsion element of
GL(n,Z) has the order of its reduction mod 3, and every finite order divides
L(n) and is at most M(n), so the cost is bounded for any n.  A group is
virtually unipotent iff K, its kernel of reduction mod 3, is unipotent: that
is decided exactly from the Schreier generators of K, or refuted earlier.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import combinations
from math import comb, factorial, gcd, lcm, prod

from .errors import PreconditionError, ResourceError, SingularMatrixError
from .exactlin import (
    IntegerMatrix,
    Polynomial,
    RationalMatrix,
    _int_text,
    _power,
    _times_columns,
    char_poly,
    factorize,
    poly_xgcd,
    squarefree_part,
)
from .modgrp import _product, _right_multiplication, _schreier_generators, _schreier_transversal
from .modgrp import reduce

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
        raise PreconditionError(f"matrix not in GL({n},Z): det = {_int_text(g.det())}")
    k = _order_mod3(g, _orders_lcm(n))
    if k is None or k > max_torsion_order(n):
        return None
    return k if g**k == IntegerMatrix.identity(n) else None


# ---------------------------------------------------------------------------
# virtual unipotency, decided through the mod-3 congruence kernel
# ---------------------------------------------------------------------------

#: F(n), the largest order of a finite subgroup of GL(n,Q), for n <= 10; 2^n n!
#: beyond (S. Friedland, "The maximal orders of finite subgroups in GL_n(Q)", 1997).
_MAX_FINITE_SUBGROUP = (2, 12, 48, 1152, 3840, 103680, 2903040, 696729600, 1393459200, 8360755200)


def _max_finite_subgroup(n: int) -> int:
    """F(n): no finite subgroup of GL(n,Q), so none of GL(n,Z), is larger."""
    return _MAX_FINITE_SUBGROUP[n - 1] if n <= 10 else 2**n * factorial(n)


def _mod3_image_bound(n: int) -> int:
    """B(n) = F(n) 3^(n(n-1)/2): a larger mod-3 image refutes virtual unipotency."""
    return _max_finite_subgroup(n) * 3 ** (n * (n - 1) // 2)


def _echelon_insert(echelon: list[tuple[int, list[int]]], v: list[int]) -> bool:
    """Reduce the integer vector v, without fractions, against ``echelon``:
    pairs (pivot, row), each row 0 at every earlier pivot.  Append the
    remainder over its content when it is not 0; True iff v enlarged the span."""
    for pivot, row in echelon:
        c = v[pivot]
        if c:
            d = row[pivot]
            v = [d * a - c * b for a, b in zip(v, row)]
    pivot = next((i for i, a in enumerate(v) if a), None)
    if pivot is None:
        return False
    content = gcd(*v)
    echelon.append((pivot, [a // content for a in v]))
    return True


def is_virtually_unipotent_witness(gens: list[IntegerMatrix], cap: int) -> bool:
    """True iff the group G generated by gens in GL(n,Z) is virtually
    unipotent, decided exactly through K, the kernel of reduction mod 3.
    ResourceError means not decided: ``cap`` < B(n) stopped the mod-3 walk.

    An element w = I mod 3 whose eigenvalues z are roots of unity is
    unipotent: (z - 1)/3 is an algebraic integer, and for z of order d > 1
    its norm +-Phi_d(1)/3^phi(d) is not (Serre, appendix to "Rigidité du
    foncteur de Jacobi d'échelon n >= 3").  K has finite index, so G is
    virtually unipotent iff each of its elements has root-of-unity
    eigenvalues, iff K is unipotent.  Three steps decide it:

    1. A generator, or a product of two, refutes at once unless its
       eigenvalues are roots of unity, that is char_poly(w^k) = (x - 1)^n
       for k its order mod 3.  Such a w has a semisimple part of order
       r | L(n), r <= M(n), and (I + N)^(3^c) = I mod 3 once 3^c >= n: so
       k | L(n) 3^c and k <= M(n) 3^c, or w is refuted.
    2. A Schreier tree is walked on the residues mod 3
       (``modgrp._schreier_transversal``) under min(B(n), ``cap``) keys,
       one key per element of G mod 3, and more than B(n) =
       F(n) 3^(n(n-1)/2) refute before any lift is formed.  If K is
       unipotent, the flag W_k of step 3 is G-invariant (K is normal) and K
       acts trivially on each W_k / W_(k+1), so G acts on their sum through
       G/K as a finite subgroup of GL(n,Q), of order at most F(n), whose
       kernel N is unipotent.  N mod 3 is a 3-group, of order at most
       3^(n(n-1)/2), and |G mod 3| <= [G : N] |N mod 3| <= B(n).
    3. K is generated by the Schreier generators s = w_x g w_(xg)^-1 over
       the lifts w_x formed along that tree (``_schreier_generators``), and it
       is unipotent iff W_0 = Q^n, W_(k+1) = sum_s (s - I) W_k reaches 0:
       Kolchin's flag contains the W_k, and conversely each s acts trivially
       on every W_k / W_(k+1), so s^-1 and every product do too.  The chain
       decreases, so it reaches 0 within n steps if at all, and it depends
       only on the span of the s - I.  Only the s that enlarge the span are
       kept; one whose characteristic polynomial is not (x - 1)^n refutes
       at once, and so does a span of dimension over n(n-1)/2, as a
       unipotent K is strictly upper triangular in Kolchin's flag.
    """
    if not gens:
        return True
    n = gens[0].n
    if any(g.det() not in (1, -1) for g in gens):
        raise PreconditionError("generators must lie in GL(n,Z)")
    unipotent_part = min(3**c for c in range(n) if 3**c >= n)  # least 3^c >= n
    exponent = _orders_lcm(n) * unipotent_part
    order_bound = max_torsion_order(n) * unipotent_part
    # (x - 1)^n, ascending integer coefficients (-1)^(n-i) C(n, i)
    target = tuple((-1) ** (n - i) * comb(n, i) for i in range(n + 1))
    for w in gens + [a * b for a, b in combinations(gens, 2)]:
        k = _order_mod3(w, exponent)
        if k is None or k > order_bound or char_poly(w**k).coeffs != target:
            return False
    bound = _mod3_image_bound(n)
    distinct = list(dict.fromkeys(gens))
    residue_maps = [_right_multiplication(reduce(g, 3)) for g in distinct]
    times = [partial(_times_columns, cols=tuple(zip(*g.entries))) for g in distinct]
    eye = IntegerMatrix.identity(n)
    try:
        lifts = _schreier_transversal(reduce(eye, 3).entries, eye.entries, residue_maps, times,
                                      min(bound, cap), "lifting the mod-3 image")
    except ResourceError:  # raised by the walk, before any lift is formed
        if cap < bound:
            raise
        return False
    span, kept = [], []  # an echelon basis of the s - I, and those that enlarged it
    for s in _schreier_generators(
        lifts, residue_maps, times, _times_columns,
        lambda w: tuple(zip(*IntegerMatrix(w).unimodular_inverse().entries)),  # w^-1 by columns
    ):
        x = [[a - (i == j) for j, a in enumerate(row)] for i, row in enumerate(s)]
        if _echelon_insert(span, [a for row in x for a in row]):
            if len(span) > n * (n - 1) // 2 or char_poly(IntegerMatrix(s)).coeffs != target:
                return False
            kept.append(x)
    flag = [[int(i == j) for j in range(n)] for i in range(n)]  # W_0
    for _ in range(n):
        image_of_flag: list[tuple[int, list[int]]] = []
        for x in kept:
            for v in flag:
                _echelon_insert(image_of_flag, [sum(a * b for a, b in zip(row, v)) for row in x])
        flag = [row for _, row in image_of_flag]
    return not flag
