"""Exact arbitrary-precision integer and rational linear algebra.

Every value in this package is exact: integer matrices carry Python ints,
rational matrices carry ``fractions.Fraction`` (always in lowest terms with
positive denominator).  There is no floating point anywhere: congruence and
divisibility arguments downstream are meaningless under rounding.

All matrix and polynomial values are immutable after construction and may be
shared freely between threads.

JSON wire form for matrices (shared by the CLI and certificates)::

    {"n": 2, "entries": [["1", "1/2"], ["0", "-3"]]}

Entries are decimal integer or ``"p/q"`` strings (strings, not floats, so
exactness survives serialization).  Plain JSON integers are accepted on input.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .errors import (
    BitBoundExceededError,
    DimensionMismatchError,
    InputError,
    PreconditionError,
    ResourceError,
    SingularMatrixError,
)

#: Ceiling (in bits) for any intermediate entry of the Smith normal form
#: reduction.
_BIT_BOUND = 10**6


#: A string entry: an optional sign, decimal digits and an optional "/digits".
_EXACT_ENTRY = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _parse_exact(value) -> Fraction:
    """Parse an exact scalar: an int, a Fraction or a 'p' / 'p/q' string."""
    if isinstance(value, bool):
        raise InputError(f"matrix entries must be exact numbers, got {value!r}")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        try:
            if not _EXACT_ENTRY.fullmatch(value):
                raise ValueError("not the README's entry grammar")
            return Fraction(value)  # ValueError past the interpreter's digit limit
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"cannot parse exact entry {value!r}") from exc
    raise InputError(f"matrix entries must be ints or strings, got {type(value).__name__}")


def _int_text(x: int) -> str:
    """x in decimal for an error message, or its size past the digit limit."""
    try:
        return str(x)
    except ValueError:
        return f"a {x.bit_length()}-bit integer"


def _times_columns(a: tuple, cols: tuple) -> tuple:
    """The rows of a b for b given by its columns, on row tuples with no
    entry checks (list comprehensions build them faster than generators)."""
    return tuple([tuple([sum(map(operator.mul, row, col)) for col in cols]) for row in a])


def det_int(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square integer matrix given as rows (lists or
    tuples), by Bareiss fraction-free elimination."""
    n = len(rows)
    a = [list(row) for row in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _faddeev_leverrier(rows: Sequence[Sequence[int]]) -> tuple[list[int], list[list[int]]]:
    """([1, c1, ..., cn], M_n) with det(xI - A) = x^n + c1 x^(n-1) + ... + cn,
    for a square integer matrix A given as rows.

    Faddeev-LeVerrier: M_1 = I, c_k = -tr(A M_k) / k, M_(k+1) = A M_k + c_k I.
    Each M_k is an integer polynomial in A and each c_k is an integer, so
    every division by k is exact in Z.  The recurrence is Horner's rule, so
    M_n = A^(n-1) + c1 A^(n-2) + ... + c(n-1) I, and A M_n = -cn I by
    Cayley-Hamilton.
    """
    n = len(rows)
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    coeffs = [1]
    for k in range(1, n + 1):
        m_cols = tuple(zip(*m))
        am = [[sum(a * b for a, b in zip(row, col)) for col in m_cols] for row in rows]
        c = -sum(am[i][i] for i in range(n)) // k
        coeffs.append(c)
        if k < n:
            for i in range(n):
                am[i][i] += c
            m = am
    return coeffs, m


def _adjugate_inverse(rows: Sequence[Sequence[int]], det_inverse: int) -> list[list[int]]:
    """(-1)^(n+1) det_inverse * M_n, with M_n from ``_faddeev_leverrier``:
    the inverse of the square integer matrix A given as rows, in any ring
    where det_inverse inverts det A.  Over Z that needs det A = ±1, and
    then det_inverse = det A; over Z/m the caller reduces the entries mod m.

    A M_n = -cn I and cn = (-1)^n det A, so (-1)^(n+1) M_n is the adjugate.
    This is the one inverse of integral and mod-m matrices; Gauss-Jordan
    over Q (``RationalMatrix.inverse``) is for rational matrices only.
    """
    scale = det_inverse if len(rows) % 2 else -det_inverse
    return [[scale * x for x in row] for row in _faddeev_leverrier(rows)[1]]


def _power(base, exponent: int, one, mul=operator.mul):
    """base ** exponent for exponent >= 0 by square-and-multiply; ``mul`` is
    the product of base's ring and ``one`` its identity, never multiplied."""
    result = one
    while exponent:
        if exponent & 1:
            result = base if result is one else mul(result, base)
        exponent >>= 1
        if exponent:
            base = mul(base, base)
    return result


#: Trial division stops at this prime bound; a cofactor left over must then
#: be certified prime by a deterministic Miller-Rabin test.
_TRIAL_DIVISION_BOUND = 2**20

#: Strong probable-prime bases that make Miller-Rabin deterministic below
#: _MILLER_RABIN_LIMIT (Sorenson and Webster, 2015).
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MILLER_RABIN_LIMIT = 3_317_044_064_679_887_385_961_981


def _is_prime_miller_rabin(x: int) -> bool:
    """Deterministic Miller-Rabin for odd 41 < x < _MILLER_RABIN_LIMIT."""
    d, s = x - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MILLER_RABIN_BASES:
        y = pow(a, d, x)
        if y == 1 or y == x - 1:
            continue
        for _ in range(s - 1):
            y = y * y % x
            if y == x - 1:
                break
        else:
            return False
    return True


def factorize(x: int) -> list[tuple[int, int]]:
    """Prime factorization of x as (prime, exponent) pairs, primes
    ascending; empty for x < 2.

    Trial division by 2 and the odd numbers up to _TRIAL_DIVISION_BOUND; a
    cofactor left with no factor below that bound is accepted as prime only
    if deterministic Miller-Rabin certifies it.  Anything else (a product of
    large primes, or a cofactor beyond the deterministic range) raises
    ResourceError, so the cost is bounded for every x.
    """
    return list(_prime_factors(x))


def _prime_factors(x: int) -> Iterator[tuple[int, int]]:
    """The pairs of ``factorize``, each yielded as soon as it is found, so a
    caller that needs only the least prime never meets the cofactor."""
    p = 2
    while p * p <= x:
        if p > _TRIAL_DIVISION_BOUND:
            if x < _MILLER_RABIN_LIMIT and _is_prime_miller_rabin(x):
                break
            raise ResourceError(
                f"cannot factor {_int_text(x)}: no prime factor up to"
                f" {_TRIAL_DIVISION_BOUND} and not certifiably prime"
            )
        if x % p == 0:
            e = 0
            while x % p == 0:
                x //= p
                e += 1
            yield p, e
        p += 1 if p == 2 else 2
    if x > 1:
        yield x, 1


class _ExactMatrix:
    """Structure and arithmetic shared by IntegerMatrix and RationalMatrix.

    A subclass checks or coerces its entries and hands the row tuples to
    ``__init__`` here; it names the operands its ring accepts in
    ``_operand`` and its inverse for negative powers in ``_ring_inverse``.
    Sums, differences, products, negations and identities have the
    subclass's type and are built by ``_raw``, which checks nothing.
    """

    __slots__ = ("rows", "cols", "entries", "_hash")

    _ONE = 1  # the ring's one, for identities built by ``_raw``

    def __init__(self, rows: tuple[tuple, ...]):
        if not rows or not rows[0]:
            raise InputError("matrix must have at least one row and one column")
        width = len(rows[0])
        if any(len(row) != width for row in rows):
            raise InputError("ragged rows in matrix")
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", width)
        object.__setattr__(self, "entries", rows)
        object.__setattr__(self, "_hash", None)

    @classmethod
    def _raw(cls, rows: tuple[tuple, ...]):
        # fast path for matrices computed from checked ones: rows are
        # non-empty tuples of one width, entries already of the ring's type
        obj = object.__new__(cls)
        object.__setattr__(obj, "rows", len(rows))
        object.__setattr__(obj, "cols", len(rows[0]))
        object.__setattr__(obj, "entries", rows)
        object.__setattr__(obj, "_hash", None)
        return obj

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    # -- construction ------------------------------------------------------

    @classmethod
    def identity(cls, n: int):
        rows = tuple(tuple(cls._ONE * (i == j) for j in range(n)) for i in range(n))
        return cls._raw(rows) if rows else cls(rows)  # n < 1 is refused

    @classmethod
    def zeros(cls, rows: int, cols: int | None = None):
        cols = rows if cols is None else cols
        return cls([[0] * cols for _ in range(rows)])

    @classmethod
    def _from_exact(cls, rows: list[list[Fraction]]):
        """The matrix of the given exact rational rows."""
        return cls(rows)

    @classmethod
    def from_json_dict(cls, data):
        if not isinstance(data, dict):
            raise InputError("matrix JSON must be an object")
        try:
            n = data["n"]
            entries = data["entries"]
        except KeyError as exc:
            raise InputError(f"matrix JSON missing key {exc}") from exc
        if type(n) is not int or n < 1:  # a JSON integer, never a bool
            raise InputError(f"matrix dimension must be a positive int, got {n!r}")
        if not isinstance(entries, list) or len(entries) != n:
            raise InputError("matrix JSON entries must be an n-row list")
        parsed = []
        for row in entries:
            if not isinstance(row, list) or len(row) != n:
                raise InputError("matrix JSON entries must be an n x n array")
            parsed.append([_parse_exact(x) for x in row])
        return cls._from_exact(parsed)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "entries": [[str(x) for x in row] for row in self.entries],
        }

    # -- basic structure ---------------------------------------------------

    @property
    def n(self) -> int:
        if self.rows != self.cols:
            raise DimensionMismatchError(f"matrix is {self.rows}x{self.cols}, not square")
        return self.rows

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __getitem__(self, key: tuple[int, int]):
        i, j = key
        return self.entries[i][j]

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.rows, self.cols, self.entries))
            object.__setattr__(self, "_hash", h)
        return h

    # -- arithmetic --------------------------------------------------------

    def __mul__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        if self.cols != other.rows:
            raise DimensionMismatchError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        return self._raw(_times_columns(self.entries, tuple(zip(*other.entries))))

    def __add__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        self._same_shape(other)
        return self._raw(
            tuple(tuple(map(operator.add, a, b)) for a, b in zip(self.entries, other.entries))
        )

    def __sub__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        self._same_shape(other)
        return self._raw(
            tuple(tuple(map(operator.sub, a, b)) for a, b in zip(self.entries, other.entries))
        )

    def __neg__(self):
        return self._raw(tuple(tuple(-x for x in row) for row in self.entries))

    def __pow__(self, exponent: int):
        n = self.n
        if exponent < 0:
            return self._ring_inverse() ** (-exponent)
        return _power(self, exponent, self.identity(n))

    def _same_shape(self, other: "_ExactMatrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatchError(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )


class IntegerMatrix(_ExactMatrix):
    """An immutable matrix with arbitrary-precision integer entries.

    Square matrices are the ambient arithmetic for GL(n,Z); rectangular ones
    appear as lattice maps fed to the Smith normal form.
    """

    __slots__ = ()

    def __init__(self, entries: Sequence[Sequence[int]]):
        for row in entries:
            for x in row:
                if not isinstance(x, int) or isinstance(x, bool):
                    raise InputError(f"integer matrix entry {x!r} is not an int")
        super().__init__(tuple(tuple(row) for row in entries))

    @classmethod
    def _from_exact(cls, rows: list[list[Fraction]]) -> "IntegerMatrix":
        if any(x.denominator != 1 for row in rows for x in row):
            raise InputError("matrix has non-integer entries")
        return cls([[int(x) for x in row] for row in rows])

    def __repr__(self) -> str:
        body = ", ".join(str(list(row)) for row in self.entries)
        return f"IntegerMatrix([{body}])"

    @staticmethod
    def _operand(other) -> "IntegerMatrix | None":
        return other if isinstance(other, IntegerMatrix) else None

    def det(self) -> int:
        """Exact determinant via Bareiss fraction-free elimination."""
        if not self.is_square:
            raise DimensionMismatchError(f"matrix is {self.rows}x{self.cols}, not square")
        return det_int(self.entries)

    def unimodular_inverse(self) -> "IntegerMatrix":
        """Inverse of a determinant-±1 matrix, computed exactly over Z by
        ``_adjugate_inverse``, with det^(-1) = det."""
        d = self.det()
        if d not in (1, -1):
            raise PreconditionError(f"matrix is not unimodular: det = {_int_text(d)}")
        return IntegerMatrix(_adjugate_inverse(self.entries, d))

    _ring_inverse = unimodular_inverse

    def to_rational(self) -> "RationalMatrix":
        return RationalMatrix(self.entries)


class RationalMatrix(_ExactMatrix):
    """An immutable matrix with exact rational entries (always reduced)."""

    __slots__ = ()
    _ONE = Fraction(1)

    def __init__(self, entries: Sequence[Sequence]):
        super().__init__(tuple(tuple(Fraction(x) for x in row) for row in entries))

    def __repr__(self) -> str:
        body = ", ".join("[" + ", ".join(str(x) for x in row) + "]" for row in self.entries)
        return f"RationalMatrix([{body}])"

    @staticmethod
    def _operand(other) -> "RationalMatrix | None":
        if isinstance(other, IntegerMatrix):
            return other.to_rational()
        return other if isinstance(other, RationalMatrix) else None

    def scale(self, c) -> "RationalMatrix":
        c = Fraction(c)
        return RationalMatrix([[c * x for x in row] for row in self.entries])

    def det(self) -> Fraction:
        """Exact determinant: det_int of d * self over d^n, with d the
        denominator lcm."""
        n = self.n
        d, rows = self._cleared()
        return Fraction(det_int(rows), d**n)

    def inverse(self) -> "RationalMatrix":
        """Exact inverse: Gauss-Jordan on [self | I]."""
        n = self.n
        reduced, pivots = _rref(
            [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(self.entries)]
        )
        if pivots[:n] != list(range(n)):
            raise SingularMatrixError("matrix is singular")
        return RationalMatrix([row[n:] for row in reduced])

    _ring_inverse = inverse

    @property
    def is_integral(self) -> bool:
        return all(x.denominator == 1 for row in self.entries for x in row)

    def to_integer(self) -> IntegerMatrix:
        return IntegerMatrix._from_exact(self.entries)

    def denominator_lcm(self) -> int:
        """Least common multiple of all entry denominators."""
        from math import lcm

        return lcm(*(x.denominator for row in self.entries for x in row))

    def _cleared(self) -> tuple[int, list[list[int]]]:
        """(d, rows of d * self) with d the denominator lcm: an integer matrix."""
        d = self.denominator_lcm()
        return d, [[x.numerator * (d // x.denominator) for x in row] for row in self.entries]


# ---------------------------------------------------------------------------
# polynomials over Q
# ---------------------------------------------------------------------------


class Polynomial:
    """A dense polynomial with exact rational coefficients.

    Coefficients are stored in ascending order; the zero polynomial has an
    empty coefficient tuple.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Polynomial is immutable")

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def leading(self) -> Fraction:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_monic(self) -> bool:
        return not self.is_zero and self.leading == 1

    def monic(self) -> "Polynomial":
        lead = self.leading
        return Polynomial([c / lead for c in self.coeffs])

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        out = list(self.coeffs) + [Fraction(0)] * max(0, len(other.coeffs) - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            out[i] -= c
        return Polynomial(out)

    def __neg__(self) -> "Polynomial":
        return Polynomial([-c for c in self.coeffs])

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return Polynomial([c * other for c in self.coeffs])
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return Polynomial([])
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if exponent < 0:
            raise ValueError("negative polynomial powers are not defined")
        return _power(self, exponent, Polynomial([1]))

    def __divmod__(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        div = other.coeffs
        dq = len(rem) - len(div)
        if dq < 0:
            return Polynomial([]), self
        quot = [Fraction(0)] * (dq + 1)
        lead = div[-1]
        for k in range(dq, -1, -1):
            if len(rem) < len(div) + k:
                continue
            c = rem[len(div) + k - 1] / lead
            if c == 0:
                continue
            quot[k] = c
            for i, d in enumerate(div):
                rem[i + k] -= c * d
        while rem and rem[-1] == 0:
            rem.pop()
        return Polynomial(quot), Polynomial(rem)

    def __floordiv__(self, other: "Polynomial") -> "Polynomial":
        return divmod(self, other)[0]

    def __mod__(self, other: "Polynomial") -> "Polynomial":
        return divmod(self, other)[1]

    def derivative(self) -> "Polynomial":
        return Polynomial([i * c for i, c in enumerate(self.coeffs)][1:])

    def eval_matrix(self, a: RationalMatrix) -> RationalMatrix:
        """Evaluate at a square rational matrix (Horner)."""
        n = a.n
        acc = RationalMatrix.zeros(n)
        eye = RationalMatrix.identity(n)
        for c in reversed(self.coeffs):
            acc = acc * a + eye.scale(c)
        return acc

    def __repr__(self) -> str:
        if self.is_zero:
            return "Polynomial(0)"
        terms = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*x" if c != 1 else "x")
            else:
                terms.append(f"{c}*x^{i}" if c != 1 else f"x^{i}")
        return "Polynomial(" + " + ".join(terms) + ")"


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd by the Euclidean algorithm over Q[x]."""
    while not b.is_zero:
        a, b = b, (a % b)
        if not b.is_zero:
            b = b.monic()
    if a.is_zero:
        return a
    return a.monic()


def poly_xgcd(a: Polynomial, b: Polynomial) -> tuple[Polynomial, Polynomial, Polynomial]:
    """Extended Euclid: returns (g, u, v) with u*a + v*b = g, g monic."""
    r0, r1 = a, b
    u0, u1 = Polynomial([1]), Polynomial([])
    v0, v1 = Polynomial([]), Polynomial([1])
    while not r1.is_zero:
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, u0 - q * u1
        v0, v1 = v1, v0 - q * v1
    if r0.is_zero:
        return r0, u0, v0
    lead = r0.leading
    inv = Fraction(1) / lead
    return r0.monic(), u0 * inv, v0 * inv


def squarefree_part(f: Polynomial) -> Polynomial:
    """The monic squarefree polynomial with the same roots as ``f``."""
    g = poly_gcd(f, f.derivative())
    if g.degree <= 0:
        return f.monic()
    return (f // g).monic()


# ---------------------------------------------------------------------------
# characteristic polynomials and exact linear solves
# ---------------------------------------------------------------------------


def char_poly(a: RationalMatrix | IntegerMatrix) -> Polynomial:
    """Monic characteristic polynomial, exact and computed in Z.

    Integer input goes straight to the integer Faddeev-LeVerrier recursion.
    Rational input clears one denominator d: c_k(a) = c_k(d a) / d^k.
    """
    if not a.is_square:
        raise DimensionMismatchError(f"matrix is {a.rows}x{a.cols}, not square")
    if isinstance(a, IntegerMatrix):
        coeffs, _ = _faddeev_leverrier(a.entries)
    else:
        d, rows = a._cleared()
        coeffs = [Fraction(c, d**k) for k, c in enumerate(_faddeev_leverrier(rows)[0])]
    return Polynomial(reversed(coeffs))


def _solve_exact(columns: list[tuple[Fraction, ...]], target: tuple[Fraction, ...]):
    """Solve sum_i x_i * columns[i] = target over Q; None if inconsistent.

    Row-reduces [columns | target]; a pivot in the target column means no
    solution.  Free variables are set to 0.
    """
    k = len(columns)
    aug = [[col[i] for col in columns] + [t] for i, t in enumerate(target)]
    reduced, pivots = _rref(aug)
    if k in pivots:
        return None
    solution = [Fraction(0)] * k
    for row_idx, c in enumerate(pivots):
        solution[c] = reduced[row_idx][k]
    return solution


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SmithDecomposition:
    """U * A * V = D with U, V unimodular and D diagonal, d_i | d_(i+1)."""

    U: IntegerMatrix
    D: IntegerMatrix
    V: IntegerMatrix

    @property
    def invariant_factors(self) -> tuple[int, ...]:
        k = min(self.D.rows, self.D.cols)
        return tuple(d for d in (self.D.entries[i][i] for i in range(k)) if d != 0)


def smith_normal_form(a: IntegerMatrix) -> SmithDecomposition:
    """Smith normal form by classical pivot-and-reduce.

    Pivots are chosen with minimal absolute value (ties broken by position),
    which keeps intermediate growth modest in practice.  Any intermediate
    entry exceeding ``_BIT_BOUND`` bits aborts with BitBoundExceededError.
    """
    bound = _BIT_BOUND
    rows, cols = a.rows, a.cols
    m = [list(row) for row in a.entries]
    u = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    v = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]

    def guard(written: list[int]) -> None:
        """One bound check per operation, over the entries it wrote."""
        if max(map(abs, written)).bit_length() > bound:
            raise BitBoundExceededError(
                f"entry exceeded {bound} bits during Smith reduction"
            )

    def row_sub(i: int, k: int, q: int) -> None:
        if q == 0:
            return
        m[i] = [x - q * y for x, y in zip(m[i], m[k])]
        u[i] = [x - q * y for x, y in zip(u[i], u[k])]
        guard(m[i] + u[i])

    def col_sub(j: int, k: int, q: int) -> None:
        if q == 0:
            return
        for row in m:
            row[j] -= q * row[k]
        for row in v:
            row[j] -= q * row[k]
        guard([row[j] for row in m + v])

    def find_pivot(t: int):
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                x = m[i][j]
                if x != 0:
                    key = (abs(x), i, j)
                    if best is None or key < best[0]:
                        best = (key, i, j)
        return None if best is None else (best[1], best[2])

    t = 0
    while t < min(rows, cols):
        loc = find_pivot(t)
        if loc is None:
            break
        while True:
            i, j = loc
            if i != t:
                m[t], m[i] = m[i], m[t]
                u[t], u[i] = u[i], u[t]
            if j != t:
                for row in m:
                    row[t], row[j] = row[j], row[t]
                for row in v:
                    row[t], row[j] = row[j], row[t]
            pivot = m[t][t]
            for i in range(t + 1, rows):
                row_sub(i, t, m[i][t] // pivot)
            for j in range(t + 1, cols):
                col_sub(j, t, m[t][j] // pivot)
            if all(m[i][t] == 0 for i in range(t + 1, rows)) and all(
                m[t][j] == 0 for j in range(t + 1, cols)
            ):
                # enforce divisibility of the trailing block by the pivot
                offender = None
                for i in range(t + 1, rows):
                    for j in range(t + 1, cols):
                        if m[i][j] % pivot != 0:
                            offender = i
                            break
                    if offender is not None:
                        break
                if offender is None:
                    break
                m[t] = [x + y for x, y in zip(m[t], m[offender])]
                u[t] = [x + y for x, y in zip(u[t], u[offender])]
                guard(m[t] + u[t])
            loc = find_pivot(t)
        if m[t][t] < 0:
            m[t] = [-x for x in m[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    return SmithDecomposition(*(IntegerMatrix._raw(tuple(map(tuple, x))) for x in (u, m, v)))


# ---------------------------------------------------------------------------
# integer kernels, integer solutions, lattices
# ---------------------------------------------------------------------------


def mat_vec(a: RationalMatrix | IntegerMatrix, vec: Sequence) -> tuple[Fraction, ...]:
    if a.cols != len(vec):
        raise DimensionMismatchError(f"matrix has {a.cols} cols, vector has {len(vec)}")
    v = [Fraction(x) for x in vec]
    return tuple(sum(row[j] * v[j] for j in range(a.cols)) for row in a.entries)


def _rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over Q, in place, with the pivot columns.

    The one Gauss-Jordan loop: the pivot of each column is its first nonzero
    entry at or below the current row.
    """
    nrows, ncols = len(rows), len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if rows[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pivot = rows[r][c]
        rows[r] = [x / pivot for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def integer_kernel_basis(a: RationalMatrix) -> list[tuple[int, ...]]:
    """Basis of the saturated integer kernel {x in Z^cols : a x = 0}."""
    from math import lcm

    scaled_rows = []
    for row in a.entries:
        d = lcm(*(x.denominator for x in row))
        scaled_rows.append([int(x * d) for x in row])
    snf = smith_normal_form(IntegerMatrix(scaled_rows))
    k = min(snf.D.rows, snf.D.cols)
    rank = sum(1 for i in range(k) if snf.D.entries[i][i] != 0)
    basis = []
    for j in range(rank, a.cols):
        basis.append(tuple(snf.V.entries[i][j] for i in range(a.cols)))
    return basis


def solve_integer_linear(a: RationalMatrix, b: Sequence) -> tuple[int, ...] | None:
    """One integer solution x of a·x = b, or None when no integral solution
    exists.  Clears denominators row by row and solves through the Smith
    normal form of the resulting integer system.
    """
    from math import lcm

    if a.rows != len(b):
        raise DimensionMismatchError("right-hand side length disagrees with rows")
    b = [Fraction(x) for x in b]
    int_rows = []
    int_rhs = []
    for row, rhs in zip(a.entries, b):
        d = lcm(rhs.denominator, *(x.denominator for x in row))
        int_rows.append([int(x * d) for x in row])
        int_rhs.append(int(rhs * d))
    snf = smith_normal_form(IntegerMatrix(int_rows))
    c = [
        sum(snf.U.entries[i][j] * int_rhs[j] for j in range(a.rows))
        for i in range(a.rows)
    ]
    k = min(a.rows, a.cols)
    y = [0] * a.cols
    for i in range(a.rows):
        d = snf.D.entries[i][i] if i < k else 0
        if d == 0:
            if c[i] != 0:
                return None
        else:
            if c[i] % d != 0:
                return None
            y[i] = c[i] // d
    return tuple(
        sum(snf.V.entries[r][i] * y[i] for i in range(a.cols)) for r in range(a.cols)
    )


def lattice_basis(vectors: Sequence[Sequence], dim: int) -> list[tuple[Fraction, ...]]:
    """Canonical basis (row Hermite form) of the Z-span of rational vectors.

    Returns fewer than ``dim`` vectors when the span has lower rank.
    """
    from math import lcm

    vecs = [tuple(Fraction(x) for x in v) for v in vectors]
    vecs = [v for v in vecs if any(x != 0 for x in v)]
    if not vecs:
        return []
    if any(len(v) != dim for v in vecs):
        raise DimensionMismatchError("lattice vectors of mixed dimension")
    denom = lcm(*(x.denominator for v in vecs for x in v))
    rows = [[int(x * denom) for x in v] for v in vecs]

    r = 0
    for col in range(dim):
        while True:
            nonzero = [i for i in range(r, len(rows)) if rows[i][col] != 0]
            if not nonzero:
                break
            pivot_idx = min(nonzero, key=lambda i: (abs(rows[i][col]), i))
            rows[r], rows[pivot_idx] = rows[pivot_idx], rows[r]
            done = True
            for i in range(r + 1, len(rows)):
                if rows[i][col] != 0:
                    q = rows[i][col] // rows[r][col]
                    rows[i] = [x - q * y for x, y in zip(rows[i], rows[r])]
                    if rows[i][col] != 0:
                        done = False
            if done:
                break
        if r < len(rows) and rows[r][col] != 0:
            if rows[r][col] < 0:
                rows[r] = [-x for x in rows[r]]
            pivot = rows[r][col]
            for i in range(r):
                q = rows[i][col] // pivot
                if q:
                    rows[i] = [x - q * y for x, y in zip(rows[i], rows[r])]
            r += 1
        if r == len(rows):
            break
    return [tuple(Fraction(x, denom) for x in row) for row in rows[:r]]
