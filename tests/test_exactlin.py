import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congrusep import exactlin
from congrusep.errors import (
    BitBoundExceededError,
    DimensionMismatchError,
    InputError,
    PreconditionError,
    ResourceError,
    SingularMatrixError,
)
from congrusep.exactlin import (
    IntegerMatrix,
    Polynomial,
    RationalMatrix,
    _solve_exact,
    char_poly,
    det_int,
    factorize,
    lattice_basis,
    mat_vec,
    poly_gcd,
    poly_xgcd,
    smith_normal_form,
    solve_integer_linear,
    squarefree_part,
)
from helpers import is_squarefree, kernel_and_image, leibniz_det, min_poly, random_gl_element

I2 = RationalMatrix.identity(2)
U = RationalMatrix([[1, 1], [0, 1]])
ROT = RationalMatrix([[0, -1], [1, 0]])


def square_matrices(entries):
    """Square n x n row lists, 1 <= n <= 4, with entries drawn from ``entries``."""
    return st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.lists(
            st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n
        )
    )


# ---------------------------------------------------------------------------
# matrix arithmetic
# ---------------------------------------------------------------------------


def test_mat_mul_identity():
    assert I2 * I2 == I2


def test_mat_mul_unipotent_power():
    assert U * U == RationalMatrix([[1, 2], [0, 1]])


def test_rotation_has_order_four():
    assert ROT**4 == I2
    assert ROT**2 == -I2


def test_mat_mul_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        I2 * RationalMatrix.identity(3)


def test_mat_inverse_identity():
    assert I2.inverse() == I2


def test_mat_inverse_unipotent():
    assert U.inverse() == RationalMatrix([[1, -1], [0, 1]])


def test_mat_inverse_diagonal():
    d = RationalMatrix([[2, 0], [0, 3]])
    assert d.inverse() == RationalMatrix([[Fraction(1, 2), 0], [0, Fraction(1, 3)]])


def test_mat_inverse_singular():
    with pytest.raises(SingularMatrixError):
        RationalMatrix([[1, 1], [1, 1]]).inverse()


@settings(max_examples=200, deadline=None)
@given(square_matrices(st.fractions(min_value=-2, max_value=2, max_denominator=3)))
def test_inverse_is_two_sided_or_singular(rows):
    a = RationalMatrix(rows)
    if leibniz_det(a.entries) == 0:
        with pytest.raises(SingularMatrixError):
            a.inverse()
        return
    eye = RationalMatrix.identity(a.n)
    assert a * a.inverse() == eye
    assert a.inverse() * a == eye


def test_solve_exact_inconsistent_and_rank_deficient():
    f = Fraction
    # columns (1, 2, 0) and (2, 4, 0) span a line: rank 1
    cols = [(f(1), f(2), f(0)), (f(2), f(4), f(0))]
    assert _solve_exact(cols, (f(1), f(1), f(0))) is None
    assert _solve_exact(cols, (f(0), f(0), f(1))) is None
    # consistent: the free variable is 0, the pivot variable carries it all
    assert _solve_exact(cols, (f(3), f(6), f(0))) == [f(3), f(0)]
    # square and singular, consistent target
    cols = [(f(1), f(0), f(1)), (f(0), f(1), f(1)), (f(1), f(1), f(2))]
    x = _solve_exact(cols, (f(1, 2), f(1, 3), f(5, 6)))
    assert x == [f(1, 2), f(1, 3), f(0)]
    assert _solve_exact(cols, (f(1), f(1), f(1))) is None


def test_random_unimodular_inverse_roundtrip():
    rng = random.Random(0xA11CE)
    for _ in range(50):
        n = rng.choice([2, 3, 4])
        g = random_gl_element(rng, n).to_rational()
        assert g * g.inverse() == RationalMatrix.identity(n)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4), st.integers(0, 12), st.randoms(use_true_random=False))
def test_unimodular_inverse_is_the_rational_inverse(n, word_len, rng):
    g = random_gl_element(rng, n, word_len)
    inv = g.unimodular_inverse()
    assert g * inv == inv * g == IntegerMatrix.identity(n)
    assert inv.to_rational() == g.to_rational().inverse()


def test_unimodular_inverse_rejects_det_two():
    with pytest.raises(PreconditionError):
        IntegerMatrix([[2, 1], [0, 1]]).unimodular_inverse()


@settings(max_examples=200, deadline=None)
@given(square_matrices(st.integers(-20, 20)))
def test_det_int_matches_rational_det(rows):
    expected = leibniz_det(rows)
    assert det_int(rows) == expected
    assert det_int([tuple(row) for row in rows]) == expected
    assert IntegerMatrix(rows).det() == expected


@settings(max_examples=200, deadline=None)
@given(square_matrices(st.fractions(min_value=-5, max_value=5, max_denominator=7)))
def test_rational_det_matches_leibniz(rows):
    assert RationalMatrix(rows).det() == leibniz_det(rows)


def test_det_int_edge_cases():
    assert det_int([[7]]) == 7
    assert det_int(((-3,),)) == -3
    # zero leading pivot forces a row swap
    assert det_int([[0, 1], [1, 0]]) == -1
    assert det_int(((0, 2, 1), (1, 0, 0), (0, 1, 3))) == -5
    assert det_int([[0, 1], [0, 2]]) == 0


def test_factorize_multiplies_back():
    assert factorize(1) == []
    for x in range(1, 10**4 + 1):
        pairs = factorize(x)
        primes = [p for p, _ in pairs]
        assert primes == sorted(set(primes))
        assert all(e >= 1 and factorize(p) == [(p, 1)] for p, e in pairs)
        prod = 1
        for p, e in pairs:
            prod *= p**e
        assert prod == x


def test_factorize_is_bounded():
    p = 1099511627791  # prime, above 2**40: certified by Miller-Rabin
    assert factorize(p) == [(p, 1)]
    q = 2**61 - 1
    assert factorize(12 * q) == [(2, 2), (3, 1), (q, 1)]
    # two primes above the trial-division bound: refused, not a slow hang
    with pytest.raises(ResourceError):
        factorize(1000000007 * 998244353)
    # a strong pseudoprime to every prime base up to 37; base 41 exposes it
    with pytest.raises(ResourceError):
        factorize(399165290221 * 798330580441)


def test_integer_matrix_rejects_nonints():
    # computed matrices skip this check; what a caller passes in does not
    for entry in (1.5, True, "1"):
        with pytest.raises(InputError):
            IntegerMatrix([[entry, 0], [0, 1]])


def test_entries_always_reduced():
    m = RationalMatrix([[Fraction(2, 4), Fraction(-3, -6)], [0, 1]])
    assert m[0, 0] == Fraction(1, 2)
    assert m[0, 1].denominator == 2 and m[0, 1].numerator == 1


def test_json_roundtrip_rational():
    m = RationalMatrix([[Fraction(1, 2), 3], [-1, Fraction(7, 5)]])
    assert RationalMatrix.from_json_dict(m.to_json_dict()) == m


def test_json_accepts_plain_ints():
    m = RationalMatrix.from_json_dict({"n": 2, "entries": [[1, 2], [3, 4]]})
    assert m == RationalMatrix([[1, 2], [3, 4]])


def test_json_rejects_floats():
    with pytest.raises(InputError):
        RationalMatrix.from_json_dict({"n": 2, "entries": [[1.5, 0], [0, 1]]})


@pytest.mark.parametrize("text, value", [
    ("1/2", Fraction(1, 2)), ("-3", Fraction(-3)), ("+4/6", Fraction(2, 3)), ("007", Fraction(7)),
])
def test_string_entries_follow_the_sign_digits_slash_digits_grammar(text, value):
    assert RationalMatrix.from_json_dict({"n": 1, "entries": [[text]]}).entries == ((value,),)


@pytest.mark.parametrize("text", [
    "1e5000", "1E2", "0.5", ".5", "1_000", " 1", "1 ", "1 / 2", "1/-2", "-", "1/", "/2", "",
    "1/0", "١", "9" * 4301,
])
def test_string_entries_outside_the_grammar_are_refused(text):
    with pytest.raises(InputError, match="cannot parse exact entry"):
        RationalMatrix.from_json_dict({"n": 1, "entries": [[text]]})


def test_integer_json_rejects_fractions():
    with pytest.raises(InputError):
        IntegerMatrix.from_json_dict({"n": 2, "entries": [["1/2", "0"], ["0", "1"]]})


@pytest.mark.parametrize("cls", [IntegerMatrix, RationalMatrix])
def test_computed_matrices_equal_and_hash_like_public_ones(cls):
    rng = random.Random(22)
    a = cls([[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)])
    b = cls([[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)])
    cols = list(zip(*b.entries))
    computed = [
        (a * b, [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a.entries]),
        (a + b, [[x + y for x, y in zip(r, s)] for r, s in zip(a.entries, b.entries)]),
        (a - b, [[x - y for x, y in zip(r, s)] for r, s in zip(a.entries, b.entries)]),
        (-a, [[-x for x in row] for row in a.entries]),
        (cls.identity(3), [[int(i == j) for j in range(3)] for i in range(3)]),
    ]
    for got, rows in computed:
        public = cls(rows)
        assert type(got) is cls
        assert got == public and hash(got) == hash(public)
        assert all(type(x) is type(y) for r, s in zip(got.entries, public.entries)
                   for x, y in zip(r, s))


@pytest.mark.parametrize("cls", [IntegerMatrix, RationalMatrix])
@pytest.mark.parametrize("n", [True, 1.0])
def test_json_dimension_must_be_an_integer(cls, n):
    # true == 1 in Python, so a bool dimension would read as n = 1
    with pytest.raises(InputError):
        cls.from_json_dict({"n": n, "entries": [["1"]]})


# ---------------------------------------------------------------------------
# the implementation both exact matrix classes share
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("cls", [IntegerMatrix, RationalMatrix])
def test_exact_matrix_shared_semantics(cls):
    other = RationalMatrix if cls is IntegerMatrix else IntegerMatrix
    a = cls([[2, 1], [1, 1]])
    b = cls([[1, 1], [0, 1]])
    # the classes are never equal to each other; equal matrices hash alike
    assert a != other([[2, 1], [1, 1]])
    assert cls([[2, 1], [1, 1]]) == a and hash(cls([[2, 1], [1, 1]])) == hash(a)
    for result, expected in (
        (a * b, [[2, 3], [1, 2]]),
        (a + b, [[3, 2], [1, 2]]),
        (a - b, [[1, 0], [1, 0]]),
        (-a, [[-2, -1], [-1, -1]]),
        (a**3, [[13, 8], [8, 5]]),
        (a**-1, [[1, -1], [-1, 2]]),
        (a**-2, [[2, -3], [-3, 5]]),
    ):
        assert type(result) is cls and result == cls(expected)
    assert a**0 == cls.identity(2)
    with pytest.raises(DimensionMismatchError):
        a + cls.identity(3)
    with pytest.raises(DimensionMismatchError):
        a * cls.zeros(3, 1)
    # a RationalMatrix coerces an IntegerMatrix operand; the reverse raises
    for op in (operator.mul, operator.add, operator.sub):
        if cls is RationalMatrix:
            assert op(a, other([[1, 1], [0, 1]])) == op(a, b)
        else:
            with pytest.raises(TypeError):
                op(a, other([[1, 1], [0, 1]]))
    with pytest.raises(AttributeError, match=f"^{cls.__name__} is immutable$"):
        a.rows = 3
    data = a.to_json_dict()
    assert data == {"n": 2, "entries": [["2", "1"], ["1", "1"]]}
    back = cls.from_json_dict(data)
    assert type(back) is cls and back == a


@pytest.mark.parametrize(
    "cls, rows, error",
    [
        (IntegerMatrix, [[2, 1], [0, 1]], PreconditionError),
        (RationalMatrix, [[1, 1], [1, 1]], SingularMatrixError),
    ],
)
def test_exact_matrix_negative_power_needs_an_inverse_in_its_ring(cls, rows, error):
    for k in (1, 2):
        with pytest.raises(error):
            cls(rows) ** -k


def test_det_two_is_invertible_over_q_only():
    assert RationalMatrix([[2, 1], [0, 1]]) ** -1 == RationalMatrix(
        [[Fraction(1, 2), Fraction(-1, 2)], [0, 1]]
    )


def test_exact_matrices_share_every_method_but_the_ring_specific_ones():
    def methods(cls):
        return {
            name
            for name, value in vars(cls).items()
            if callable(value) or isinstance(value, (classmethod, staticmethod, property))
        }

    assert methods(IntegerMatrix) & methods(RationalMatrix) == {
        "__init__",  # checks ints / coerces to Fraction
        "__repr__",
        "_operand",  # the operand types each ring accepts
        "det",
        "_ring_inverse",  # unimodular_inverse / inverse, for negative powers
    }
    # IntegerMatrix.det is patched through IntegerMatrix.__dict__ by the
    # benchmark tracer, so it must stay the class's own attribute
    assert "det" in IntegerMatrix.__dict__
    assert not hasattr(IntegerMatrix, "inverse")


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------


def test_char_poly_identity():
    assert char_poly(I2) == Polynomial([1, -2, 1])  # (x-1)^2


def test_char_poly_rotation():
    assert char_poly(ROT) == Polynomial([1, 0, 1])  # x^2 + 1


def test_char_poly_unipotent():
    assert char_poly(U) == Polynomial([1, -2, 1])


def test_min_poly_identity():
    assert min_poly(I2) == Polynomial([-1, 1])  # x - 1


def test_min_poly_unipotent_is_full():
    assert min_poly(U) == Polynomial([1, -2, 1])


def test_min_poly_diagonal_distinct():
    d = RationalMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 2]])
    assert min_poly(d) == Polynomial([2, -3, 1])  # (x-1)(x-2)


def test_cayley_hamilton_on_random_matrices():
    rng = random.Random(0xCA71E)
    count = 0
    for _ in range(500):
        n = rng.choice([2, 3])
        mat = RationalMatrix(
            [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        )
        chi = char_poly(mat)
        assert chi.eval_matrix(mat) == RationalMatrix.zeros(n)
        count += 1
    assert count == 500


@settings(max_examples=100, deadline=None)
@given(square_matrices(st.fractions(min_value=-3, max_value=3, max_denominator=4)))
def test_char_poly_matches_leibniz_on_rationals(rows):
    a = RationalMatrix(rows)
    n = a.n
    chi = char_poly(a)
    assert chi.degree == n and chi.is_monic
    assert chi.eval_matrix(a) == RationalMatrix.zeros(n)
    for x0 in range(-2, 3):
        value = sum(c * x0**k for k, c in enumerate(chi.coeffs))
        shifted = [[int(i == j) * x0 - a[i, j] for j in range(n)] for i in range(n)]
        assert value == leibniz_det(shifted)


def test_min_poly_divides_char_poly():
    rng = random.Random(0xD1B)
    for _ in range(100):
        n = rng.choice([2, 3])
        mat = RationalMatrix([[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])
        assert (char_poly(mat) % min_poly(mat)).is_zero


def test_poly_gcd_monic():
    f = Polynomial([1, -2, 1])  # (x-1)^2
    g = Polynomial([-1, 1]) * Polynomial([-2, 1])  # (x-1)(x-2)
    assert poly_gcd(f, g) == Polynomial([-1, 1])


def test_poly_xgcd_bezout():
    f = Polynomial([1, -2, 1])
    g = f.derivative()
    d, u, v = poly_xgcd(f, g)
    assert u * f + v * g == d
    assert d == Polynomial([-1, 1])  # gcd((x-1)^2, 2(x-1)) = x-1, monic


def test_squarefree_part():
    f = Polynomial([-1, 1]) ** 3 * Polynomial([1, 1])
    sf = squarefree_part(f)
    assert sf == Polynomial([-1, 1]) * Polynomial([1, 1])
    assert is_squarefree(sf)
    assert not is_squarefree(f)


@given(st.lists(st.fractions(), min_size=0, max_size=6),
       st.lists(st.fractions(), min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_poly_divmod_identity(fc, gc):
    f, g = Polynomial(fc), Polynomial(gc)
    if g.is_zero:
        return
    q, r = divmod(f, g)
    assert q * g + r == f
    assert r.is_zero or r.degree < g.degree


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


def test_snf_identity():
    snf = smith_normal_form(IntegerMatrix.identity(2))
    assert snf.D == IntegerMatrix.identity(2)
    assert snf.invariant_factors == (1, 1)


def test_snf_already_diagonal():
    snf = smith_normal_form(IntegerMatrix([[2, 0], [0, 4]]))
    assert snf.invariant_factors == (2, 4)


def test_snf_hand_reduced_example():
    a = IntegerMatrix([[2, 1], [0, 2]])
    snf = smith_normal_form(a)
    assert snf.invariant_factors == (1, 4)
    assert snf.U * a * snf.V == snf.D


def test_snf_rectangular():
    a = IntegerMatrix([[2, 4, 6]])
    snf = smith_normal_form(a)
    assert snf.U * a * snf.V == snf.D
    assert snf.invariant_factors == (2,)


@pytest.mark.parametrize("seed", range(8))
def test_snf_invariants_random(seed):
    rng = random.Random(seed)
    rows = rng.randint(1, 4)
    cols = rng.randint(1, 4)
    a = IntegerMatrix([[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)])
    snf = smith_normal_form(a)
    assert snf.U * a * snf.V == snf.D
    assert abs(snf.U.det()) == 1 and abs(snf.V.det()) == 1
    for x in (snf.U, snf.D, snf.V):  # built unchecked, from the reduction's own ints
        public = IntegerMatrix(x.entries)
        assert x == public and hash(x) == hash(public)
    factors = snf.invariant_factors
    for x, y in zip(factors, factors[1:]):
        assert y % x == 0
    if rows == cols and a.det() != 0:
        prod = 1
        for f in factors:
            prod *= f
        assert prod == abs(a.det())


def test_snf_zero_matrix():
    snf = smith_normal_form(IntegerMatrix.zeros(2, 3))
    assert snf.invariant_factors == ()
    assert snf.D == IntegerMatrix.zeros(2, 3)


def test_snf_bit_bound_guard(monkeypatch):
    monkeypatch.setattr(exactlin, "_BIT_BOUND", 8)
    a = IntegerMatrix([[2**40, 1], [1, 2**40]])
    with pytest.raises(BitBoundExceededError):
        smith_normal_form(a)


def test_snf_bit_bound_guard_on_column_operation(monkeypatch):
    # one row, so no row operation: the only growth is V's column 1 = -2^9
    monkeypatch.setattr(exactlin, "_BIT_BOUND", 8)
    assert smith_normal_form(IntegerMatrix([[1, 2**8 - 1]])).V.entries[0][1] == 1 - 2**8
    with pytest.raises(BitBoundExceededError, match="entry exceeded 8 bits"):
        smith_normal_form(IntegerMatrix([[1, 2**9]]))


# ---------------------------------------------------------------------------
# kernels, images, lattices
# ---------------------------------------------------------------------------


def test_kernel_image_reflection():
    s = RationalMatrix([[1, 0], [0, -1]])
    kernel, image = kernel_and_image(s - I2)
    assert kernel == [(Fraction(1), Fraction(0))]
    assert image == [(Fraction(0), Fraction(-2))]


def test_kernel_image_zero_matrix():
    kernel, image = kernel_and_image(RationalMatrix.zeros(3))
    assert len(kernel) == 3 and image == []


def test_kernel_image_invertible():
    kernel, image = kernel_and_image(ROT)
    assert kernel == [] and len(image) == 2


def test_kernel_vectors_annihilated():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.choice([2, 3])
        a = RationalMatrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        kernel, image = kernel_and_image(a)
        assert len(kernel) + len(image) == n
        for vec in kernel:
            assert mat_vec(a, vec) == (Fraction(0),) * n


def test_solve_integer_linear():
    a = RationalMatrix([[Fraction(1, 2), 0], [0, 1]])
    x = solve_integer_linear(a, [1, 3])
    assert x == (2, 3)
    assert solve_integer_linear(a, [Fraction(1, 3), 0]) is None


def test_lattice_basis_canonical():
    basis = lattice_basis([(2, 0), (0, 3), (2, 3)], 2)
    assert basis == [(Fraction(2), Fraction(0)), (Fraction(0), Fraction(3))]


def test_lattice_basis_rational_entries():
    basis = lattice_basis([(Fraction(1, 2), 0), (0, 1), (1, 0)], 2)
    assert basis == [(Fraction(1, 2), Fraction(0)), (Fraction(0), Fraction(1))]
