"""Shared test utilities: pseudorandom GL(n,Z) elements and tiny oracles.

Everything here is deterministic (seeded) and independent of the library's
own search machinery, so it can serve as a cross-check.
"""

from __future__ import annotations

import itertools
import random
import tracemalloc
from fractions import Fraction
from functools import lru_cache
from math import lcm

from congrusep import modgrp
from congrusep.cryst import AffineElement, CrystGroup, lift_to_gl
from congrusep.errors import InputError
from congrusep.exactlin import (
    IntegerMatrix,
    Polynomial,
    RationalMatrix,
    _rref,
    _solve_exact,
    char_poly,
    det_int,
    factorize,
    poly_gcd,
)
from congrusep.jordan import JordanPair, euler_phi, jordan_decompose, torsion_order
from congrusep.separate import torsion_class_table


def elementary_generators(n: int) -> list[IntegerMatrix]:
    """E_ij(±1) for i != j, plus one sign flip for det -1 coverage."""
    gens = []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            for sign in (1, -1):
                rows = [[1 if a == b else 0 for b in range(n)] for a in range(n)]
                rows[i][j] = sign
                gens.append(IntegerMatrix(rows))
    flip = [[1 if a == b else 0 for b in range(n)] for a in range(n)]
    flip[0][0] = -1
    gens.append(IntegerMatrix(flip))
    return gens


def random_gl_element(rng: random.Random, n: int, word_len: int = 6) -> IntegerMatrix:
    """A pseudorandom element of GL(n,Z): a bounded word in elementaries."""
    gens = elementary_generators(n)
    out = IntegerMatrix.identity(n)
    for _ in range(word_len):
        out = out * rng.choice(gens)
    return out


def unimodular_box(n: int, bound: int) -> list[IntegerMatrix]:
    """Every det +-1 matrix of GL(n,Z) with entries in [-bound, bound]."""
    out = []
    for flat in itertools.product(range(-bound, bound + 1), repeat=n * n):
        rows = [flat[i * n : (i + 1) * n] for i in range(n)]
        if leibniz_det(rows) in (1, -1):
            out.append(IntegerMatrix(rows))
    return out


def gl_generators(n: int, m: int) -> list[modgrp.ModMatrix]:
    """The generating set of GL(n, Z/m) whose conjugations
    ``modgrp._gl_conjugations`` builds, as matrices and in its order: the
    transvection E_01(1), the permutation matrix of the cycle
    (0 1 ... n-1), and diag(u, 1, ..., 1) for each u of
    ``modgrp.unit_group_generators(m)``."""
    identity = [int(a == b) for a in range(n) for b in range(n)]
    gens = []
    if n > 1:
        entries = list(identity)
        entries[1] = 1
        gens.append(modgrp.ModMatrix(n, m, entries))
        cycle = [int(b == (a + 1) % n) for a in range(n) for b in range(n)]
        gens.append(modgrp.ModMatrix(n, m, cycle))
    for u in modgrp.unit_group_generators(m):
        entries = list(identity)
        entries[0] = u
        gens.append(modgrp.ModMatrix(n, m, entries))
    return gens


def mat_mul_mod(a: tuple, b: tuple, n: int, m: int) -> tuple:
    """Independent mod-m multiply on flat tuples (oracle-side arithmetic)."""
    return tuple(
        sum(a[i * n + k] * b[k * n + j] for k in range(n)) % m
        for i in range(n)
        for j in range(n)
    )


def brute_force_gl(n: int, m: int) -> list[tuple]:
    """Every element of GL(n, Z/m) as a flat tuple, by full enumeration."""
    out = []
    for flat in itertools.product(range(m), repeat=n * n):
        if n == 2:
            det = flat[0] * flat[3] - flat[1] * flat[2]
        elif n == 3:
            a, b, c, d, e, f, g, h, i = flat
            det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
        else:
            raise NotImplementedError("oracle enumeration only needed for n <= 3")
        ok = False
        for k in range(1, m):
            if (det * k) % m == 1:
                ok = True
                break
        if ok:
            out.append(flat)
    return out


def brute_force_closure(gens: list[tuple], n: int, m: int) -> set[tuple]:
    """Subgroup closure by repeated multiplication until stable (oracle)."""
    identity = tuple(1 if i == j else 0 for i in range(n) for j in range(n))
    elements = {identity} | set(gens)
    while True:
        new = set()
        for a in elements:
            for b in elements:
                c = mat_mul_mod(a, b, n, m)
                if c not in elements:
                    new.add(c)
        if not new:
            return elements
        elements |= new


def padic_level_image(
    gens: list[IntegerMatrix], p: int, level: int, cap: int = modgrp.DEFAULT_CAP, *,
    n: int | None = None,
) -> modgrp.ModMatrixGroup:
    """The image G_level of <gens> in GL(n, Z/p^level), enumerated whole
    (oracle for the layered kernel basis of ``witness_prime``, which
    enumerates level 1 alone; G_(K+1) projects onto G_K)."""
    if factorize(p) != [(p, 1)]:
        raise InputError(f"{p} is not prime")
    if level < 1:
        raise InputError(f"level must be >= 1, got {level}")
    return modgrp.congruence_image(gens, p**level, cap, n=n)


def words_by_level(letters: list, depth: int, identity) -> set:
    """Every product of at most ``depth`` letters, each level rebuilt from
    the whole previous set (oracle: no frontier, no budget)."""
    words = {identity}
    for _ in range(depth):
        words = words | {w * a for w in words for a in letters}
    return words


def keyed_transversal(start, maps, key_of) -> dict:
    """{key_of(x): x} for the first x per key that a breadth-first walk of
    {start} under ``maps`` reaches, walking the values themselves and keying
    each one (oracle: the walk a Schreier tree over the keys replaces)."""
    first = {key_of(start): start}
    level = [start]
    while level:
        reached = []
        for x in level:
            for f in maps:
                y = f(x)
                key = key_of(y)
                if key not in first:
                    first[key] = y
                    reached.append(y)
        level = reached
    return first


def bounded_words(gens: list[IntegerMatrix], wordlen: int) -> set[IntegerMatrix]:
    """Every distinct product of at most ``wordlen`` letters, the letters
    being gens and their inverses (oracle for the virtual-unipotency
    decision: each word of a virtually unipotent group has root-of-unity
    eigenvalues)."""
    if not gens:
        return set()
    letters = list(dict.fromkeys(x for g in gens for x in (g, g.unimodular_inverse())))
    return words_by_level(letters, wordlen, IntegerMatrix.identity(gens[0].n))


def conjugate_decomposition(
    g: RationalMatrix | IntegerMatrix, h: RationalMatrix | IntegerMatrix
) -> JordanPair:
    """Jordan decomposition of h^(-1) g h (oracle: conjugation commutes with
    taking semisimple and unipotent parts, so it must equal the conjugate of
    g's decomposition componentwise)."""
    g, h = (x.to_rational() if isinstance(x, IntegerMatrix) else x for x in (g, h))
    return jordan_decompose(h.inverse() * g * h)


def traced_peak(run) -> int:
    """Peak bytes tracemalloc sees while run() executes (deterministic for
    one Python build)."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def leibniz_det(rows):
    """Determinant by the permutation expansion (oracle: no elimination)."""
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


def principal_minor_sums(rows, m: int) -> tuple:
    """(e_1, ..., e_n) mod m, e_k the sum of the principal k x k minors."""
    n = len(rows)
    return tuple(
        sum(
            leibniz_det([[rows[i][j] for j in subset] for i in subset])
            for subset in itertools.combinations(range(n), k)
        )
        % m
        for k in range(1, n + 1)
    )


def cc_index_reference(image: modgrp.ModMatrixGroup, keys: set[tuple]) -> dict[tuple, frozenset]:
    """The image elements bucketed by ``modgrp.char_coeffs_mod`` under the
    given keys, with a char poly taken for every element (no prefilter)."""
    index: dict[tuple, set] = {}
    for x in image.entry_tuples():
        key = modgrp.char_coeffs_mod(x, image.n, image.m)
        if key in keys:
            index.setdefault(key, set()).add(x)
    return {key: frozenset(vals) for key, vals in index.items()}


def klein_bottle_lift() -> list[IntegerMatrix]:
    """Generators of the Klein-bottle group lifted into GL(3, Z)."""
    group = CrystGroup(
        m=2,
        generators=[
            AffineElement(t=(Fraction(1, 2), Fraction(0)), S=IntegerMatrix([[1, 0], [0, -1]])),
            AffineElement(t=(Fraction(0), Fraction(1)), S=IntegerMatrix.identity(2)),
        ],
        lattice=[[1, 0], [0, 1]],
    )
    return list(lift_to_gl(group).generators)


# ---------------------------------------------------------------------------
# minimal-polynomial oracle: semisimplicity from the first linear dependence
# among the powers of a matrix, independent of the library's route through
# the squarefree part of the characteristic polynomial
# ---------------------------------------------------------------------------


def _flatten(a: RationalMatrix) -> tuple[Fraction, ...]:
    return tuple(x for row in a.entries for x in row)


def min_poly(a: RationalMatrix | IntegerMatrix) -> Polynomial:
    """Monic minimal polynomial, found as the first linear dependence among
    the flattened powers I, a, a^2, ..."""
    if isinstance(a, IntegerMatrix):
        a = a.to_rational()
    n = a.n
    powers = [RationalMatrix.identity(n)]
    flat = [_flatten(powers[0])]
    for _ in range(n):
        powers.append(powers[-1] * a)
        target = _flatten(powers[-1])
        sol = _solve_exact(flat, target)
        if sol is not None:
            return Polynomial([-c for c in sol] + [Fraction(1)])
        flat.append(target)
    raise AssertionError("unreachable: degree-n dependence is guaranteed")


# ---------------------------------------------------------------------------
# moving/fixed splitting oracle: bases of the image and the kernel of S - I
# from one Gauss-Jordan elimination, independent of the library's average of
# the powers of S
# ---------------------------------------------------------------------------


def kernel_and_image(a: RationalMatrix) -> tuple[list[tuple[Fraction, ...]], list[tuple[Fraction, ...]]]:
    """Exact bases of ker(a) and im(a) for a square rational matrix.

    The image basis consists of the original pivot columns; the kernel basis
    comes from the reduced row echelon form with each free variable set to 1.
    """
    n = a.n
    rref_rows, pivots = _rref([list(row) for row in a.entries])
    image = [tuple(a.entries[i][c] for i in range(n)) for c in pivots]
    kernel = []
    for free in sorted(set(range(n)) - set(pivots)):
        vec = [Fraction(0)] * n
        vec[free] = Fraction(1)
        for row_idx, c in enumerate(pivots):
            vec[c] = -rref_rows[row_idx][free]
        kernel.append(tuple(vec))
    return kernel, image


def splitting(s: IntegerMatrix) -> tuple[list[tuple[Fraction, ...]], list[tuple[Fraction, ...]]]:
    """(moving, fixed) = bases of (image, kernel) of s - I for a finite-order
    s, where they are complementary."""
    if torsion_order(s) is None:
        raise InputError("holonomy has infinite order")
    kernel, image = kernel_and_image(s.to_rational() - RationalMatrix.identity(s.n))
    assert len(kernel) + len(image) == s.n
    return image, kernel


def moving_projection(s: IntegerMatrix) -> RationalMatrix:
    """The projection onto the moving subspace of s along the fixed one, from
    the bases of ``splitting`` and one basis inverse."""
    moving, fixed = splitting(s)
    basis = RationalMatrix(list(zip(*(moving + fixed))))
    keep = RationalMatrix([[int(i == j < len(moving)) for j in range(s.n)] for i in range(s.n)])
    return basis * keep * basis.inverse()


def is_squarefree(f: Polynomial) -> bool:
    return poly_gcd(f, f.derivative()).degree <= 0


# ---------------------------------------------------------------------------
# cyclotomic oracle: torsion orders and root-of-unity spectra by factoring
# the characteristic polynomial, independent of the library's mod-3 route
# ---------------------------------------------------------------------------


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
    if f.is_zero or not f.is_monic or any(c.denominator != 1 for c in f.coeffs):
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


def cyclotomic_torsion_order(g: IntegerMatrix) -> int | None:
    """Least m >= 1 with g^m = I, or None: the order, if finite, divides the
    lcm of the cyclotomic indices of the characteristic polynomial, so
    finitely many exact powers settle it."""
    factors = cyclotomic_factorization(char_poly(g), g.n)
    if factors is None:
        return None
    bound = lcm(*factors.keys())
    eye = IntegerMatrix.identity(g.n)
    if g**bound != eye:
        return None
    order = bound
    for p, _ in factorize(bound):
        while order % p == 0 and g ** (order // p) == eye:
            order //= p
    return order


# ---------------------------------------------------------------------------
# torsion-table screen oracle: every box element decided on its own
# ---------------------------------------------------------------------------


def screen_reference(
    n: int, bound: int, moduli=(5, 7, 8, 9), table=None
) -> list[IntegerMatrix]:
    """``validate_torsion_table`` as it was before it decided each
    signed-permutation orbit once: the same tests, run on every element."""
    if any(m < 2 for m in moduli):
        raise InputError("screen moduli must be >= 2")
    joint = lcm(*moduli)
    if table is None:
        table = torsion_class_table(n)
    buckets: dict[tuple, list[IntegerMatrix]] = {}
    for entry in table.entries:
        order = torsion_order(entry)
        if order is None:
            raise InputError("table entry has infinite order")
        buckets.setdefault((order, char_poly(entry)), []).append(entry)

    unmatched = []
    values = range(-bound, bound + 1)
    for flat in itertools.product(values, repeat=n * n):
        rows = [flat[i * n : (i + 1) * n] for i in range(n)]
        if det_int(rows) not in (1, -1):
            continue
        # torsion forces every eigenvalue onto the unit circle: |tr g^k| <= n
        trace = sum(rows[i][i] for i in range(n))
        if abs(trace) > n:
            continue
        sq_trace = sum(
            sum(rows[i][k] * rows[k][i] for k in range(n)) for i in range(n)
        )
        if abs(sq_trace) > n:
            continue
        g = IntegerMatrix(rows)
        order = torsion_order(g)
        if order is None:
            continue
        candidates = buckets.get((order, char_poly(g)), [])
        if not any(
            not moduli or modgrp.is_conjugate_mod(g, t, joint) for t in candidates
        ):
            unmatched.append(g)
    return unmatched


def signed_permutation_matrices(n: int) -> list[IntegerMatrix]:
    """Every n x n signed permutation matrix (2^n n! of them)."""
    out = []
    for perm in itertools.permutations(range(n)):
        for signs in itertools.product((1, -1), repeat=n):
            rows = [[0] * n for _ in range(n)]
            for j in range(n):
                rows[perm[j]][j] = signs[j]
            out.append(IntegerMatrix(rows))
    return out
