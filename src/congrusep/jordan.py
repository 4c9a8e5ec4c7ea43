"""Multiplicative Jordan decomposition over Q and the predicates built on it.

Every invertible rational matrix g factors uniquely as g = s * u where s is
semisimple (squarefree minimal polynomial), u is unipotent ((u - I)^n = 0),
and s and u commute.  Both factors are rational whenever g is.  The
decomposition here is computed by a Newton iteration on the squarefree part
of the characteristic polynomial, which reaches the exact fixed point in at
most ceil(log2 n) steps; no approximation is involved at any stage.

Torsion is decided exactly: element orders in GL(n,Z) are constrained by
cyclotomic factorizations of the characteristic polynomial, so candidate
orders can be enumerated completely instead of guessing a power cutoff.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import lcm, prod

from .errors import PreconditionError, SingularMatrixError
from .exactlin import (
    IntegerMatrix,
    Polynomial,
    RationalMatrix,
    char_poly,
    factorize,
    is_squarefree,
    min_poly,
    poly_xgcd,
    squarefree_part,
)

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


def _check_pair(pair: JordanPair, g: RationalMatrix, f: Polynomial) -> None:
    # cheap exact sanity: annihilation by the squarefree part implies a
    # squarefree minimal polynomial, and the rest are direct identities
    n = g.n
    s, u = pair.semisimple, pair.unipotent
    if not all(c == 0 for row in f.eval_matrix(s).entries for c in row):
        raise AssertionError("semisimple factor not annihilated by squarefree part")
    eye = RationalMatrix.identity(n)
    if (u - eye) ** n != RationalMatrix.zeros(n):
        raise AssertionError("unipotent factor fails nilpotency")
    if s * u != g or s * u != u * s:
        raise AssertionError("factors fail product/commutation identities")


def is_semisimple(g: RationalMatrix | IntegerMatrix) -> bool:
    """True iff the minimal polynomial of g is squarefree."""
    g = _as_rational(g)
    _require_invertible(g)
    return is_squarefree(min_poly(g))


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
# cyclotomic machinery and torsion
# ---------------------------------------------------------------------------


def euler_phi(d: int) -> int:
    return prod(p ** (e - 1) * (p - 1) for p, e in factorize(d))


@lru_cache(maxsize=None)
def cyclotomic_polynomial(d: int) -> Polynomial:
    """The d-th cyclotomic polynomial, exact integer coefficients."""
    if d < 1:
        raise ValueError("cyclotomic index must be positive")
    num = Polynomial([-1] + [0] * (d - 1) + [1])  # x^d - 1
    for e in range(1, d):
        if d % e == 0:
            num = num // cyclotomic_polynomial(e)
    return num


def _cyclotomic_candidates(n: int) -> list[int]:
    """All d with phi(d) <= n (so Phi_d can divide a degree-n char poly)."""
    return [d for d in range(1, 2 * n * n + 2) if euler_phi(d) <= n]


def cyclotomic_factorization(f: Polynomial, n: int) -> dict[int, int] | None:
    """Factor f as a product of cyclotomic polynomials Phi_d, phi(d) <= n.

    Returns {d: multiplicity} on success, None if a non-cyclotomic factor
    remains.  Exact: all eigenvalue roots of unity iff the return is not None.
    """
    if f.is_zero or not f.is_monic or not f.is_integral:
        return None
    factors: dict[int, int] = {}
    rem = f
    for d in _cyclotomic_candidates(n):
        phi_d = cyclotomic_polynomial(d)
        while rem.degree >= phi_d.degree:
            q, r = divmod(rem, phi_d)
            if not r.is_zero:
                break
            factors[d] = factors.get(d, 0) + 1
            rem = q
        if rem.degree == 0:
            break
    if rem.degree != 0 or rem.coeffs[0] != 1:
        return None
    return factors


def torsion_order(g: IntegerMatrix) -> int | None:
    """Least m >= 1 with g^m = I, or None when g has infinite order.

    Requires g in GL(n,Z).  Candidate orders come from the cyclotomic
    factorization of the characteristic polynomial: if it is not a product
    of cyclotomics the element is provably non-torsion; otherwise the order,
    if finite, divides the lcm of the cyclotomic indices, so finitely many
    exact power checks settle the question completely.
    """
    n = g.n
    if g.det() not in (1, -1):
        raise PreconditionError(f"matrix not in GL({n},Z): det = {g.det()}")
    factors = cyclotomic_factorization(char_poly(g), n)
    if factors is None:
        return None
    bound = lcm(*factors.keys())
    eye = IntegerMatrix.identity(n)
    if g ** bound != eye:
        return None
    # the order divides bound: strip each prime while the power stays trivial
    order = bound
    for p, _ in factorize(bound):
        while order % p == 0 and g ** (order // p) == eye:
            order //= p
    return order


# ---------------------------------------------------------------------------
# bounded virtual-unipotency scan
# ---------------------------------------------------------------------------


def bounded_words(gens: list[IntegerMatrix], wordlen: int) -> set[IntegerMatrix]:
    """All distinct products of length <= wordlen over gens and inverses."""
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
    seen = {IntegerMatrix.identity(n)}
    frontier = list(seen)
    for _ in range(wordlen):
        new_frontier = []
        for w in frontier:
            for a in letters:
                wa = w * a
                if wa not in seen:
                    seen.add(wa)
                    new_frontier.append(wa)
        frontier = new_frontier
        if not frontier:
            break
    return seen


def is_virtually_unipotent_witness(gens: list[IntegerMatrix], wordlen: int) -> bool:
    """Bounded necessary-condition scan for virtual unipotency.

    True iff every word of length <= wordlen over gens and their inverses has
    a torsion semisimple part; equivalently, all its complex eigenvalues are
    roots of unity, decided exactly through the cyclotomic factorization of
    the word's characteristic polynomial.  That is the semisimple part's
    characteristic polynomial too: w = s * u with u unipotent commuting with
    s, so w and s have the same eigenvalues.  This scan can refute but never
    prove virtual unipotency; callers should label results "consistent up
    to word length L".
    """
    for w in bounded_words(gens, wordlen):
        if cyclotomic_factorization(char_poly(w), w.n) is None:
            return False
    return True
