import functools
import itertools
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from congrusep import exactlin, modgrp
from congrusep.errors import (
    DimensionMismatchError,
    InputError,
    PreconditionError,
    ResourceError,
)
from congrusep.exactlin import IntegerMatrix, RationalMatrix
from congrusep.modgrp import (
    DenominatorNotUnitError,
    _compile_closure,
    _conjugation_forms,
    _gl_conjugations,
    _image_closure,
    _orbit_expand,
    _pack,
    _right_forms,
    _right_multiplication,
    _unpack,
    ModMatrix,
    char_coeffs_mod,
    conj_class,
    elements_digest,
    generate,
    gl_order,
    is_conjugate_mod,
    reduce,
    unit_group_generators,
)
from helpers import (
    bounded_words,
    brute_force_closure,
    brute_force_gl,
    elementary_generators,
    gl_generators,
    keyed_transversal,
    leibniz_det,
    linear_map,
    mat_mul_mod,
    padic_level_image,
    principal_minor_sums,
    random_gl_element,
    reference_closure,
    reference_digest,
    signed_permutation_matrices,
    traced_peak,
    words_by_level,
)

U = IntegerMatrix([[1, 1], [0, 1]])
L = IntegerMatrix([[1, 0], [1, 1]])
NEG_I = IntegerMatrix([[-1, 0], [0, -1]])
E12_3 = IntegerMatrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
SHIFT3 = IntegerMatrix([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
HEIS = [E12_3, IntegerMatrix([[1, 0, 0], [0, 1, 1], [0, 0, 1]])]
SL3_PAIR = [IntegerMatrix([[1, 1, 0], [0, 1, 1], [0, 0, 1]]),
            IntegerMatrix([[1, 0, 0], [1, 1, 0], [0, 1, 1]])]


# ---------------------------------------------------------------------------
# reduction
# ---------------------------------------------------------------------------


def test_reduce_negative_identity():
    assert reduce(NEG_I, 3).to_lists() == [[2, 0], [0, 2]]


def test_reduce_unipotent_mod_two():
    assert reduce(U, 2).to_lists() == [[1, 1], [0, 1]]


def test_reduce_rational_denominator_error():
    bad = RationalMatrix([[Fraction(1, 2), 0], [0, 2]])
    with pytest.raises(DenominatorNotUnitError) as info:
        reduce(bad, 2)
    assert info.value.denominator == 2


def test_reduce_rational_with_unit_denominator():
    mat = RationalMatrix([[Fraction(1, 2), 0], [0, 2]])
    reduced = reduce(mat, 3)
    # 1/2 = 2 mod 3 since 2*2 = 4 = 1
    assert reduced.to_lists() == [[2, 0], [0, 2]]


def test_reduce_homomorphism_random():
    rng = random.Random(0xBEEF)
    for _ in range(50):
        m = rng.randint(2, 12)
        a = random_gl_element(rng, 2)
        b = random_gl_element(rng, 2)
        assert reduce(a * b, m) == reduce(a, m) * reduce(b, m)


def test_mod_matrix_requires_unit_det():
    with pytest.raises(PreconditionError):
        ModMatrix(2, 4, [2, 0, 0, 1])


def test_mod_matrix_identity_takes_no_determinant(monkeypatch):
    def refuse(rows):
        raise AssertionError("the identity's determinant was taken")

    x = reduce(U, 7)
    monkeypatch.setattr(modgrp, "det_int", refuse)
    eye = ModMatrix.identity(50, 7)
    assert eye.entries == tuple(int(i == j) for i in range(50) for j in range(50))
    # a power starts from the identity
    assert x**7 == x**0 == ModMatrix.identity(2, 7)
    with pytest.raises(InputError, match="modulus must be >= 2"):
        ModMatrix.identity(2, 1)


def test_mod_matrix_inverse():
    x = reduce(U, 9)
    assert x * x.inverse() == ModMatrix.identity(2, 9)
    y = reduce(IntegerMatrix([[2, 3], [3, 2]]), 6)  # det = -5, unit mod 6
    assert y * y.inverse() == ModMatrix.identity(2, 6)
    rng = random.Random(0x1417)
    for m in (4, 8, 12, 35):
        eye = ModMatrix.identity(3, m)
        for _ in range(5):
            x = reduce(random_gl_element(rng, 3), m)
            assert x * x.inverse() == eye == x.inverse() * x
            assert x ** -3 * x ** 3 == eye


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("m", [2, 9, 12, 35, 49])
def test_mod_matrix_inverse_is_the_adjugate_one(n, m, monkeypatch):
    def no_gauss_jordan(*args):
        raise AssertionError("ModMatrix.inverse reached Gauss-Jordan over Q")

    monkeypatch.setattr(exactlin, "_rref", no_gauss_jordan)
    rng = random.Random(n * 1000 + m)
    eye = ModMatrix.identity(n, m)
    found = 0
    while found < 8:
        entries = [rng.randrange(m) for _ in range(n * n)]
        if gcd(exactlin.det_int(modgrp._rows(entries, n)), m) != 1:
            continue  # not in GL(n, Z/m)
        x = ModMatrix(n, m, entries)
        assert x * x.inverse() == eye == x.inverse() * x
        found += 1


# ---------------------------------------------------------------------------
# generated subgroups
# ---------------------------------------------------------------------------


def test_generate_trivial():
    grp = generate([reduce(IntegerMatrix.identity(2), 5)])
    assert grp.size == 1


def test_generate_empty_needs_dims():
    grp = generate([], n=2, m=7)
    assert grp.size == 1
    with pytest.raises(InputError):
        generate([])


def test_generate_unipotent_mod3():
    grp = generate([reduce(U, 3)])
    assert grp.size == 3


def test_generate_sl2_mod2():
    grp = generate([reduce(U, 2), reduce(L, 2)])
    assert grp.size == 6
    # oracle: brute-force closure over flat tuples
    oracle = brute_force_closure([tuple(reduce(U, 2).entries), tuple(reduce(L, 2).entries)], 2, 2)
    assert set(grp.entry_tuples()) == oracle
    rows = sorted([list(x[:2]), list(x[2:])] for x in oracle)
    assert grp._sorted_rows() == rows


# factoring 2^64 + 12 for the units mod 2^64 + 13 takes about 0.2 s
_gl_generators = functools.cache(gl_generators)


@st.composite
def _right_multiplication_cases(draw):
    n = draw(st.integers(1, 4))
    m = draw(st.sampled_from([2, 5, 12, 2**64 + 13]))
    entry = st.integers(0, m - 1)
    x = draw(st.tuples(*[entry] * (n * n)))
    kind = draw(st.sampled_from(["generator", "dense", "sparse"]))
    if kind == "generator":
        # GL(1, Z/2) is trivial and has no generator
        t = draw(st.sampled_from(_gl_generators(n, m) + [ModMatrix.identity(n, m)]))
        return x, t
    if kind == "sparse":
        entry = st.one_of(st.just(0), st.just(0), st.just(1), st.just(m - 1), entry)
    # t need not be invertible: the map is x -> x t for any t
    return x, ModMatrix._raw(n, m, draw(st.tuples(*[entry] * (n * n))))


@settings(max_examples=300, deadline=None)
@given(_right_multiplication_cases())
def test_right_multiplication_matches_matrix_product(case):
    entries, t = case
    x = ModMatrix._raw(t.n, t.m, entries)
    assert _right_multiplication(t)(x.entries) == (x * t).entries


@pytest.mark.parametrize(
    "n, entries",
    [
        # the Jordan block: a unitriangular generator far above the n <= 4 drawn above
        (100, [int(j - i in (0, 1)) for i in range(100) for j in range(100)]),
        # no zero entry, so every form has n terms
        (12, [(3 * i + 5 * j) % 10 + 1 for i in range(12) for j in range(12)]),
    ],
)
def test_right_multiplication_matches_matrix_product_at_large_n(n, entries):
    rng = random.Random(n)
    m = 2**64 + 13
    t = ModMatrix._raw(n, m, tuple(entries))
    multiply = _right_multiplication(t)
    for _ in range(3):
        x = ModMatrix._raw(n, m, tuple(rng.randrange(m) for _ in range(n * n)))
        assert multiply(x.entries) == (x * t).entries


def _random_unit_matrix(rng, n, m, step=1):
    """A random element of GL(n, Z/m) congruent to I mod ``step``."""
    while True:
        flat = [
            (i % (n + 1) == 0) + step * rng.randrange(m // step) for i in range(n * n)
        ]
        try:
            return ModMatrix(n, m, flat)
        except PreconditionError:
            pass


# The oracle multiplies every pair, so the closures must stay small:
# GL(2, Z/6) and GL(3, Z/2) have 288 and 168 elements, and the kernels
# of reduction mod 2 and mod 3 in GL(2, Z/8) and GL(2, Z/9) have 256 and 81.
@pytest.mark.parametrize(
    "n, m, count, step",
    [
        (2, 6, 2, 1),
        (3, 2, 2, 1),
        (2, 8, 1, 1),
        (2, 9, 1, 1),
        (2, 8, 3, 2),
        (2, 9, 3, 3),
    ],
)
def test_generate_matches_brute_force_on_dense_generators(n, m, count, step):
    rng = random.Random(f"{n}:{m}:{count}")
    for _ in range(3):
        gens = [_random_unit_matrix(rng, n, m, step) for _ in range(count)]
        oracle = brute_force_closure([g.entries for g in gens], n, m)
        assert set(generate(gens).entry_tuples()) == oracle


def test_generate_never_calls_the_generic_product(monkeypatch):
    def refuse(*args):
        raise AssertionError("generate multiplied through _product")

    monkeypatch.setattr(modgrp, "_product", refuse)
    assert generate([reduce(U, 5), reduce(L, 5)]).size == 120
    for n, m in [(1, 7), (3, 2), (2, 12)]:
        assert generate(gl_generators(n, m)).size == gl_order(n, m)


def test_membership_checks_dimension_and_modulus():
    grp = generate([reduce(U, 2)])
    cls = conj_class(reduce(U, 2))
    for container in (grp, cls):
        assert reduce(U, 2) in container
        # same entry tuple, other modulus
        assert ModMatrix.identity(2, 4) not in container
        assert reduce(U, 4) not in container
        assert ModMatrix.identity(3, 2) not in container


def test_generate_budget():
    with pytest.raises(ResourceError) as info:
        generate([reduce(U, 101)], cap=10)
    assert info.value.partial_size is not None


def test_generate_order_independent():
    gens = [reduce(U, 4), reduce(L, 4), reduce(NEG_I, 4)]
    elements = generate(gens).elements
    assert generate(list(reversed(gens))).elements == elements
    assert generate([gens[1], gens[0], gens[2]]).elements == elements


def test_generate_mixed_moduli_rejected():
    with pytest.raises(DimensionMismatchError):
        generate([reduce(U, 2), reduce(U, 3)])


def test_group_digest_deterministic():
    a = generate([reduce(U, 5)])
    b = generate([reduce(U, 5)])
    assert a.digest() == b.digest()
    assert elements_digest(a.n, a.m, a.entry_tuples()) == a.digest()


# A block of elements_digest holds 2,048 lines at n = 4 and 3,640 at n = 3,
# so sets of up to 5,000 cross it; m above 256 takes the %-encoder.
@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 4),
    m=st.one_of(st.integers(2, 300), st.just(10**6 + 3)),
    size=st.one_of(st.integers(0, 40), st.sampled_from([2049, 3641, 5000]), st.integers(0, 5000)),
    edges=st.booleans(),
    seed=st.integers(0, 2**32),
)
@example(n=4, m=256, size=5000, edges=False, seed=0)
@example(n=3, m=11, size=3641, edges=False, seed=1)
@example(n=4, m=2, size=5000, edges=False, seed=3)
@example(n=3, m=100, size=5000, edges=True, seed=4)
@example(n=2, m=10, size=500, edges=True, seed=5)
@example(n=2, m=100, size=0, edges=False, seed=0)
@example(n=2, m=257, size=300, edges=True, seed=2)
def test_elements_digest_matches_the_percent_encoder(n, m, size, edges, seed):
    rng = random.Random(seed)
    # texts of 1, 2 and 3 digits, where rank and value part
    pool = sorted({v % m for v in (0, 1, 2, 9, 10, 11, 19, 99, 100, 101, m - 1)})
    draw = (lambda: rng.choice(pool)) if edges else (lambda: rng.randrange(m))
    elements = {tuple(draw() for _ in range(n * n)) for _ in range(size)}
    assert elements_digest(n, m, elements) == reference_digest(n, m, elements)


@pytest.mark.parametrize("depth", range(5))
@pytest.mark.parametrize("gens", [[U], [L], [U, L], HEIS], ids=["U", "L", "U,L", "heisenberg"])
def test_closure_to_a_depth_is_the_word_set(gens, depth):
    # the word oracle of the virtual-unipotency tests is every product of at
    # most ``depth`` letters, and the mod-3 transversal over the forward
    # generators reaches the residues of all of them, inverses included
    letters = [x for g in gens for x in (g, g.unimodular_inverse())]
    eye = IntegerMatrix.identity(gens[0].n)
    words = bounded_words(gens, depth)
    assert words == {
        functools.reduce(lambda a, b: a * b, seq, eye)
        for k in range(depth + 1)
        for seq in itertools.product(letters, repeat=k)
    }

    def residues(w):
        return tuple(x % 3 for row in w.entries for x in row)

    lifts = modgrp._schreier_transversal(
        residues(eye), eye, [_right_multiplication(reduce(g, 3)) for g in gens],
        [lambda w, g=g: w * g for g in gens], 10**6, "testing",
    )
    assert {residues(w) for w in words} <= lifts.keys()
    assert all(residues(w) == key for key, w in lifts.items())


def test_closure_past_its_diameter_is_the_whole_closure():
    letters = [reduce(U, 3), reduce(L, 3)]
    eye = ModMatrix.identity(2, 3)
    whole, stopped = _image_closure(2, 3, tuple(letters))(eye.entries, 10**6, "testing")
    assert not stopped and len(whole) == 24  # SL(2, Z/3)
    assert {_pack(w.entries, 3) for w in words_by_level(letters, 100, eye)} == whole
    assert len(words_by_level(letters, 1, eye)) == 3


_CLOSURE_MODULI = [*range(2, 31), 257, 2**64 + 13]


@st.composite
def _closure_cases(draw):
    """Hypothesis: (n, m, gens, rep, cap) with n <= 5 (packing splits in
    halves above n = 4), 0-3 generators, a duplicate among them at times,
    drawn from signed permutations, elementary transvections and short
    random words, and a class representative."""
    n = draw(st.sampled_from([1, 2, 3, 4, 5]))
    m = draw(st.sampled_from(_CLOSURE_MODULI))
    rng = random.Random(draw(st.integers(0, 2**32)))
    pool = signed_permutation_matrices(n) + elementary_generators(n)

    def element():
        g = rng.choice(pool) if rng.random() < 0.7 else random_gl_element(rng, n, 3)
        return reduce(g, m)

    gens = [element() for _ in range(draw(st.integers(0, 3)))]
    if gens and draw(st.booleans()):
        gens.insert(draw(st.integers(0, len(gens))), gens[0])
    return n, m, gens, element(), draw(st.sampled_from([1, 7, 300, 3000]))


def _both(compiled, reference):
    """The result of each call, or the text and partial size of its
    ResourceError, asserted equal."""
    outcomes = []
    for call in (compiled, reference):
        try:
            outcomes.append(call())
        except ResourceError as exc:
            outcomes.append((str(exc), exc.partial_size))
    assert outcomes[0] == outcomes[1]
    return outcomes[0]


@settings(max_examples=200, deadline=None)
@given(_closure_cases())
@example((2, 7, [reduce(U, 7), reduce(L, 7)], reduce(U, 7), 3000))
@example((5, 2**64 + 13, [], reduce(IntegerMatrix.identity(5), 2**64 + 13), 1))
def test_compiled_closures_equal_the_reference_loop(case):
    n, m, gens, rep, cap = case
    eye = ModMatrix.identity(n, m).entries
    outcome = _both(
        lambda: generate(gens, cap, n=n, m=m).elements,
        lambda: reference_closure(eye, [linear_map(_right_forms(t), m) for t in gens], cap,
                                  "generating subgroup", key=functools.partial(_pack, m=m))[0],
    )
    if isinstance(outcome, tuple):
        assert outcome == (f"element budget {cap} exceeded while generating subgroup", cap + 1)
    conjugations = [linear_map(forms, m) for forms in _conjugation_forms(n, m)]
    outcome = _both(
        lambda: _gl_conjugations(n, m)(rep.entries, cap, "testing"),
        lambda: reference_closure(rep.entries, conjugations, cap, "testing"),
    )
    if isinstance(outcome[0], str):
        assert outcome == (f"element budget {cap} exceeded while testing", cap + 1)


@settings(max_examples=100, deadline=None)
@given(_closure_cases(), st.randoms(use_true_random=False))
def test_compiled_closures_stop_at_the_first_element_in_stop(case, rng):
    # a start in stop is returned alone; a hit returns a partial closure
    # holding it, inside the whole one and equal to the reference's
    n, m, gens, rep, _ = case
    cap = 3000
    image = _image_closure(n, m, tuple(dict.fromkeys(gens)))
    classes = _gl_conjugations(n, m)
    eye = ModMatrix.identity(n, m).entries
    pack = functools.partial(_pack, m=m)
    assert image(eye, cap, "testing", frozenset([eye])) == ({pack(eye)}, True)
    assert classes(rep.entries, cap, "testing", frozenset([rep.entries])) == ({rep.entries}, True)
    for closure, start, key, maps in (
        (image, eye, pack, [linear_map(_right_forms(t), m) for t in gens]),
        (classes, rep.entries, None, [linear_map(f, m) for f in _conjugation_forms(n, m)]),
    ):
        try:
            whole, stopped = closure(start, cap, "testing")
        except ResourceError:
            assume(False)
        assert not stopped
        elements = [x if key is None else _unpack(x, n, m) for x in sorted(whole)]
        stop = frozenset(rng.sample(elements, min(3, len(elements)))) - {start}
        partial, hit = closure(start, cap, "testing", stop)
        assert (partial, hit) == reference_closure(start, maps, cap, "testing", stop, key)
        assert hit is bool(stop) and partial <= whole
        if hit:  # exactly one element of stop is reached, the last one added
            assert sum((x if key is None else key(x)) in partial for x in stop) == 1
        assert closure(start, cap, "testing", frozenset()) == (whole, False)


def _tree_generators(n):
    """Hypothesis: 1-3 generators of GL(n, Z), signed permutations or
    elementary transvections, so that the images stay small."""
    pool = signed_permutation_matrices(n) + elementary_generators(n)[:-1]
    return st.lists(st.sampled_from(pool), min_size=1, max_size=3)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([1, 2, 3]).flatmap(_tree_generators))
def test_tree_lifts_over_z_equal_the_keyed_walk_mod_3(gens):
    # the mod-3 setting of the virtual-unipotency decision: residue keys
    # walked by compiled multiplications mod 3, lifts formed over Z
    n = gens[0].n
    try:
        modgrp.congruence_image(gens, 3, 2000, n=n)
    except ResourceError:
        assume(False)
    distinct = list(dict.fromkeys(gens))
    eye = IntegerMatrix.identity(n)
    lifts = modgrp._schreier_transversal(
        reduce(eye, 3).entries, eye.entries,
        [_right_multiplication(reduce(g, 3)) for g in distinct],
        [functools.partial(exactlin._times_columns, cols=tuple(zip(*g.entries))) for g in distinct],
        2000, "testing",
    )
    reference = keyed_transversal(
        eye, [lambda w, g=g: w * g for g in distinct],
        lambda w: tuple(x % 3 for row in w.entries for x in row),
    )
    assert lifts == {key: w.entries for key, w in reference.items()}
    assert list(lifts) == list(reference)  # both in breadth-first order


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([1, 2]).flatmap(_tree_generators),
       st.sampled_from([2, 3, 5]), st.integers(1, 3))
@example([U, L], 23, 4)  # 12,144 residue keys
@example(SL3_PAIR, 3, 2)  # 5,616 residue keys
def test_tree_lifts_mod_p_power_equal_the_keyed_walk(gens, p, levels):
    # the layered kernel basis: residue keys mod p, lifts mod p^N
    n, q = gens[0].n, p**levels
    lifts, _ = modgrp._kernel_basis(gens, p, levels, modgrp.DEFAULT_CAP, n=n)
    distinct = list(dict.fromkeys(reduce(g, q).entries for g in gens))
    reference = keyed_transversal(
        reduce(IntegerMatrix.identity(n), q).entries,
        [lambda w, g=g: mat_mul_mod(w, g, n, q) for g in distinct],
        lambda w: tuple(x % p for x in w),
    )
    assert lifts == reference
    assert list(lifts) == list(reference)


def test_tree_refuses_more_keys_than_its_cap():
    maps = [_right_multiplication(reduce(g, 3)) for g in (U, L)]
    start = reduce(IntegerMatrix.identity(2), 3).entries
    assert len(modgrp._schreier_transversal(start, start, maps, maps, 24, "testing")) == 24
    with pytest.raises(ResourceError, match="budget 23 exceeded while testing") as info:
        modgrp._schreier_transversal(start, start, maps, maps, 23, "testing")
    assert info.value.partial_size == 24


# ---------------------------------------------------------------------------
# GL(n, Z/m) generators, orders, conjugacy classes
# ---------------------------------------------------------------------------


def test_unit_group_generators_prime():
    assert unit_group_generators(5) == [2]


def test_unit_group_generators_two_power():
    gens = set(unit_group_generators(8))
    closure = {1}
    frontier = [1]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = x * g % 8
                if y not in closure:
                    closure.add(y)
                    new.append(y)
        frontier = new
    assert closure == {1, 3, 5, 7}


def test_gl_generators_dim1():
    gens = gl_generators(1, 5)
    assert [g.to_lists() for g in gens] == [[[2]]]


def test_gl_generators_generate_full_group_small():
    # without the sign that makes det t = u_1, every n = 2 case but m = 2
    # and 5 generates a proper subgroup; GL(3, Z/5) has 1,488,000 elements
    # (about 4 s and 220 MB on 2 CPUs)
    cases = [(2, m) for m in (2, 3, 4, 5, 6, 7, 8, 9, 12, 15, 24)]
    cases += [(3, 2), (3, 3), (3, 4), (3, 5), (4, 2)]
    for n, m in cases:
        grp = generate(gl_generators(n, m))
        assert grp.size == gl_order(n, m), (n, m)


def test_one_conjugation_per_unit_generator_beside_the_transvection():
    # the cycle is folded into the first unit: a separate cycle map fails here
    for n, m in itertools.product([1, 2, 3, 5], [2, 3, 4, 7, 8, 15, 24, 105]):
        units = len(unit_group_generators(m))
        expected = units if n == 1 else 1 + max(1, units)
        assert len(_conjugation_forms(n, m)) == expected, (n, m)


def test_gl_order_against_enumeration():
    for m in (2, 3, 4, 5):
        assert gl_order(2, m) == len(brute_force_gl(2, m))


def test_conj_class_identity_is_central():
    cls = conj_class(ModMatrix.identity(2, 3))
    assert cls.size == 1


def test_conj_class_scalar_is_central():
    cls = conj_class(reduce(NEG_I, 3))
    assert cls.orbit == frozenset([reduce(NEG_I, 3).entries])


def test_conj_class_transvections_mod2():
    cls = conj_class(reduce(U, 2))
    expected = {
        ((1, 1), (0, 1)),
        ((1, 0), (1, 1)),
        ((0, 1), (1, 0)),
    }
    assert {(x[:2], x[2:]) for x in cls.orbit} == expected
    rows = sorted([list(row) for row in x] for x in expected)
    assert cls._sorted_rows() == rows


def test_orbit_sizes_divide_group_order():
    rng = random.Random(0x0B17)
    for m in (2, 3, 4, 5):
        order = gl_order(2, m)
        gl = brute_force_gl(2, m)
        for _ in range(5):
            rep = reduce(random_gl_element(rng, 2), m)
            cls = conj_class(rep)
            assert order % cls.size == 0
            # orbit-stabilizer against a brute-force centralizer count
            x = rep.entries
            centralizer = sum(
                1 for g in gl if mat_mul_mod(g, x, 2, m) == mat_mul_mod(x, g, 2, m)
            )
            assert cls.size * centralizer == order


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([1, 2, 3, 4, 5]).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.sampled_from([2, 3, 4, 8, 12, 35, 2**64 + 13]),
            st.lists(st.integers(0, 34), min_size=n * n, max_size=n * n),
        )
    )
)
def test_conjugation_maps_match_matrix_conjugation(case):
    n, m, flat = case
    try:
        x = ModMatrix(n, m, flat)
    except PreconditionError:
        assume(False)
    ts = _gl_generators(n, m)
    maps = _conjugation_forms(n, m)
    assert len(maps) == len(ts)
    for forms, t in zip(maps, ts):
        y = (t.inverse() * x * t).entries
        assert linear_map(forms, m)(x.entries) == y
        # compiled alone, the map's first new element is its one step
        closure = _compile_closure([forms], n, m, False)
        assert closure(x.entries, 3, "testing", {y}) == ({x.entries, y}, True)


def test_conjugation_maps_are_compiled_once_per_n_and_m(monkeypatch):
    closure = _gl_conjugations(3, 5)
    assert callable(closure)
    assert _gl_conjugations(3, 5) is closure
    compiled = []
    compile_closure = modgrp._compile_closure
    monkeypatch.setattr(modgrp, "_compile_closure",
                        lambda maps, n, m, packed: compiled.append((n, m, packed))
                        or compile_closure(maps, n, m, packed))
    modgrp._gl_conjugations.cache_clear()
    # the transvections of GL(3, F_q) number (q^3 - 1)(q + 1)
    assert [conj_class(reduce(E12_3, m)).size for m in (5, 7, 5, 7)] == [744, 2736, 744, 2736]
    assert compiled == [(3, 5, False), (3, 7, False)]


def test_right_multiplications_are_compiled_once_per_generator():
    # equal generators reduced separately are equal keys of one cache entry
    a, b = reduce(E12_3, 5), reduce(IntegerMatrix([[6, 1, 5], [0, 11, 0], [0, -5, 1]]), 5)
    assert a is not b and a == b
    assert _right_multiplication(a) is _right_multiplication(b)


def test_image_closures_are_compiled_once_per_generator_tuple(monkeypatch):
    # generate keys its closure by the distinct generators in their order,
    # so repeated and separately reduced equal generators share one entry
    a, b = reduce(E12_3, 5), reduce(IntegerMatrix([[6, 1, 5], [0, 11, 0], [0, -5, 1]]), 5)
    c = reduce(HEIS[1], 5)
    compiled = []
    compile_closure = modgrp._compile_closure
    monkeypatch.setattr(modgrp, "_compile_closure",
                        lambda maps, n, m, packed: compiled.append(len(maps))
                        or compile_closure(maps, n, m, packed))
    modgrp._image_closure.cache_clear()
    sizes = [generate(gens).size for gens in ([a, c], [b, c, a], [a, a, c, b], [c, a], [a], [b])]
    assert sizes == [125, 125, 125, 125, 5, 5]
    assert compiled == [2, 2, 1]  # (a, c), (c, a) and (a,)
    assert _image_closure(3, 5, (a, c)) is _image_closure(3, 5, (b, c))


class _Wordy(int):
    """An int whose text forms are not digits."""

    def __str__(self):
        return "m"

    __repr__ = __str__

    def __format__(self, spec):
        return "m"


def test_only_integer_literals_reach_the_compiled_maps():
    # the uncached builders get m as an int subclass that prints as a name:
    # only %d of int(m) may reach the compiled source, or the closures and
    # maps fail
    rng = random.Random(0x5EED)
    for n, m in ((1, 5), (2, 12), (3, 35), (4, 8), (5, 3)):
        closure = _gl_conjugations.__wrapped__(n, _Wordy(m))
        conjugations = [linear_map(forms, m) for forms in _conjugation_forms(n, m)]
        for cap in (1, 500):
            x = reduce(random_gl_element(rng, n), m)
            _both(lambda: closure(x.entries, cap, "testing"),
                  lambda: reference_closure(x.entries, conjugations, cap, "testing"))
        # generator entries and m reach the source of a right multiplication
        ts = _gl_generators(n, m)
        eye = ModMatrix.identity(n, m).entries
        for t in ts + [reduce(random_gl_element(rng, n), m)]:
            wordy = ModMatrix._raw(n, _Wordy(m), t.entries)
            multiply = _right_multiplication.__wrapped__(wordy)
            x = reduce(random_gl_element(rng, n), m)
            assert multiply(x.entries) == (x * t).entries
            # and of the image closure, packing included
            _both(lambda: _image_closure.__wrapped__(n, _Wordy(m), (wordy,))(eye, 500, "testing"),
                  lambda: reference_closure(eye, [lambda y: (ModMatrix._raw(n, m, y) * t).entries],
                                            500, "testing", key=functools.partial(_pack, m=m)))


def test_scalar_class_builds_no_conjugation(monkeypatch):
    built = []
    monkeypatch.setattr(modgrp, "_gl_conjugations", lambda n, m: built.append((n, m)))
    n = 60
    rep = ModMatrix(n, 7, [-(k % (n + 1) == 0) for k in range(n * n)])
    assert conj_class(rep).orbit == {rep.entries}
    stop = frozenset([rep.entries])
    assert _orbit_expand(rep, 1, stop_inside=stop) == ({rep.entries}, True)
    assert _orbit_expand(rep, 1, stop_inside=frozenset()) == ({rep.entries}, False)
    assert built == []


def test_orbit_stabilizer_exact_n3():
    rng = random.Random(0x3D)
    for m in (2, 3):
        order = gl_order(3, m)
        gl = brute_force_gl(3, m)
        assert len(gl) == order
        reps = [ModMatrix.identity(3, m), reduce(E12_3, m), reduce(SHIFT3, m)]
        reps += [reduce(random_gl_element(rng, 3), m) for _ in range(2)]
        for rep in reps:
            cls = conj_class(rep)
            x = rep.entries
            centralizer = sum(
                1 for g in gl if mat_mul_mod(g, x, 3, m) == mat_mul_mod(x, g, 3, m)
            )
            assert cls.size * centralizer == order, (m, x)


def test_orbit_expand_stops_inside():
    rep = reduce(U, 5)
    full = conj_class(rep).orbit
    target = reduce(L, 5)
    partial, hit = _orbit_expand(rep, 10**6, stop_inside=frozenset([target.entries]))
    assert hit and target.entries in partial
    assert rep.entries in partial and partial <= full
    # the representative itself is checked before any conjugation
    partial, hit = _orbit_expand(rep, 10**6, stop_inside=frozenset([rep.entries]))
    assert (partial, hit) == (frozenset([rep.entries]), True)
    outside = reduce(NEG_I, 5)
    assert _orbit_expand(rep, 10**6, stop_inside=frozenset([outside.entries])) == (full, False)


def test_orbit_expand_budget():
    rep = reduce(U, 5)
    assert conj_class(rep).size > 10
    with pytest.raises(ResourceError) as info:
        _orbit_expand(rep, 10)
    assert info.value.partial_size == 11


def test_conjugate_reduction_lands_in_class():
    rng = random.Random(0x50FD)
    eta = IntegerMatrix([[0, -1], [1, 0]])
    for m in (2, 3, 4, 5, 6):
        cls = conj_class(reduce(eta, m))
        for _ in range(10):
            h = random_gl_element(rng, 2)
            conj = h.unimodular_inverse() * eta * h
            assert reduce(conj, m) in cls


def test_char_coeffs_mod_is_conjugation_invariant():
    rng = random.Random(0xCC)
    for _ in range(20):
        g = random_gl_element(rng, 3)
        h = random_gl_element(rng, 3)
        conj = h.unimodular_inverse() * g * h
        for m in (4, 9):
            x, y = reduce(g, m), reduce(conj, m)
            assert char_coeffs_mod(x.entries, 3, m) == char_coeffs_mod(y.entries, 3, m)


def test_char_coeffs_mod_matches_principal_minor_sums():
    rng = random.Random(0xE1)
    for m in (2, 3, 4, 12):
        for n in (1, 2, 3, 4):
            checked = 0
            while checked < 25:
                rows = [[rng.randrange(m) for _ in range(n)] for _ in range(n)]
                if gcd(leibniz_det(rows), m) != 1:
                    continue
                x = ModMatrix(n, m, [v for row in rows for v in row])
                assert char_coeffs_mod(x.entries, n, m) == principal_minor_sums(rows, m)
                checked += 1


# ---------------------------------------------------------------------------
# finite-level images of p-adic closures
# ---------------------------------------------------------------------------


def test_padic_levels_of_unipotent():
    sizes = [padic_level_image([U], 2, k).size for k in range(1, 5)]
    assert sizes == [2, 4, 8, 16]


def test_padic_level_requires_prime():
    with pytest.raises(InputError):
        padic_level_image([U], 4, 1)


def test_padic_empty_generators():
    grp = padic_level_image([], 5, 2, n=2)
    assert grp.size == 1


def test_tower_projection_is_onto():
    for k in range(1, 4):
        higher = padic_level_image([U, L], 2, k + 1)
        lower = padic_level_image([U, L], 2, k)
        projected = {tuple(v % 2**k for v in x) for x in higher.entry_tuples()}
        assert projected == set(lower.entry_tuples())


def test_crt_consistency():
    grp12 = generate([reduce(U, 12)])
    grp4 = generate([reduce(U, 4)])
    grp3 = generate([reduce(U, 3)])
    pairs = {
        (tuple(v % 4 for v in x), tuple(v % 3 for v in x))
        for x in grp12.entry_tuples()
    }
    assert len(pairs) == grp12.size  # the CRT map is injective
    assert grp12.size <= grp4.size * grp3.size
    assert {p for p, _ in pairs} == set(grp4.entry_tuples())
    assert {q for _, q in pairs} == set(grp3.entry_tuples())


# ---------------------------------------------------------------------------
# packed subgroup elements
# ---------------------------------------------------------------------------


@st.composite
def _entry_tuples(draw):
    n = draw(st.integers(1, 4))
    m = draw(st.sampled_from([2, 5, 12, 2**64 + 13]))
    entry = st.integers(0, m - 1)
    tuples = draw(st.lists(st.tuples(*[entry] * (n * n)), min_size=1, max_size=8))
    return n, m, tuples


@settings(max_examples=200, deadline=None)
@given(_entry_tuples())
def test_pack_round_trips_and_keeps_tuple_order(case):
    n, m, tuples = case
    for x in tuples:
        assert _unpack(_pack(x, m), n, m) == x
    packed = sorted(_pack(x, m) for x in tuples)
    assert [_unpack(x, n, m) for x in packed] == sorted(tuples)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 30), st.sampled_from([2, 12, 2**64 + 13]), st.randoms(use_true_random=False))
def test_unpack_round_trips_up_to_n_30(n, m, rng):
    # above 16 entries the packed int is split in halves before it is peeled,
    # and packed from halves joined by one product
    x = tuple(rng.randrange(m) for _ in range(n * n))
    assert _unpack(_pack(x, m), n, m) == x
    assert _unpack(_pack([m - 1] * (n * n), m), n, m) == (m - 1,) * (n * n)
    for y in (x, [m - 1] * (n * n)):
        horner = 0
        for e in y:
            horner = horner * m + e
        assert _pack(y, m) == horner



@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3), st.sampled_from([2, 3, 5]), st.integers(1, 4), st.integers(1, 4),
       st.randoms(use_true_random=False))
def test_neumann_inverse_and_binomial_powers(n, p, levels, depth, rng):
    # h = I mod p^i in GL(n, Z/p^N): the binomial series in h - I, cut at
    # ceil(N / i) terms, is h^e; at e = -1 it is the Neumann series of h^-1
    q, i = p**levels, min(depth, levels)
    identity = ModMatrix.identity(n, q).entries
    h = tuple((e + p**i * rng.randrange(q)) % q for e in identity)
    terms = -(-levels // i)
    h_inv = modgrp._kernel_power(h, -1, n, q, terms)
    assert modgrp._product(h, h_inv, n, q) == identity
    assert modgrp._product(h_inv, h, n, q) == identity
    mul = functools.partial(modgrp._product, n=n, m=q)
    for e in (0, 1, 2, p - 1, p, rng.randrange(100)):
        assert modgrp._kernel_power(h, e, n, q, terms) == exactlin._power(h, e, identity, mul)


def test_isdisjoint_matches_tuple_sets():
    seen = set()
    for gens in ([U], [U, L], [NEG_I]):
        grp = generate([reduce(g, 5) for g in gens])
        for rep in (U, NEG_I, IntegerMatrix([[0, -1], [1, 0]])):
            cls = conj_class(reduce(rep, 5))
            expected = set(grp.entry_tuples()).isdisjoint(cls.orbit)
            assert grp.isdisjoint(cls) == expected
            seen.add((grp.size > cls.size, expected))
    # either side larger, with either answer
    assert seen == {(True, True), (True, False), (False, True), (False, False)}
    # another modulus shares no element
    assert generate([reduce(U, 5)]).isdisjoint(conj_class(reduce(U, 4)))


@pytest.mark.parametrize("p, level", [(13, 4), (7, 5), (23, 3)])
def test_padic_image_peak_bytes_per_element(p, level):
    # each element is held once, as a packed int: tuples held in a frozen
    # copy of the closure set peaked at 190-214 bytes per element
    images = []
    peak = traced_peak(lambda: images.append(padic_level_image([U], p, level)))
    assert images[0].size == p**level
    assert peak / p**level <= 130


# ---------------------------------------------------------------------------
# exact conjugacy decision
# ---------------------------------------------------------------------------


def test_is_conjugate_mod_agrees_with_orbits():
    rng = random.Random(0xC09)
    mats = [random_gl_element(rng, 2) for _ in range(6)]
    for m in (2, 3, 4, 5, 8, 9):
        for a in mats[:3]:
            cls = conj_class(reduce(a, m))
            for b in mats:
                assert is_conjugate_mod(a, b, m) == (reduce(b, m) in cls)


def test_is_conjugate_mod_reflections():
    refl1 = IntegerMatrix([[1, 0], [0, -1]])
    refl2 = IntegerMatrix([[0, 1], [1, 0]])
    assert is_conjugate_mod(refl1, refl2, 5)
    assert is_conjugate_mod(refl1, refl2, 9)
    assert not is_conjugate_mod(refl1, refl2, 8)


def test_is_conjugate_mod_scan_budget(monkeypatch):
    monkeypatch.setattr(modgrp, "_SCAN_BUDGET", 0)
    refl1 = IntegerMatrix([[1, 0], [0, -1]])
    refl2 = IntegerMatrix([[0, 1], [1, 0]])
    with pytest.raises(ResourceError):
        is_conjugate_mod(refl1, refl2, 5)
