import functools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from congrusep import exactlin, jordan, modgrp
from congrusep.errors import PreconditionError, ResourceError, SingularMatrixError
from congrusep.exactlin import (
    IntegerMatrix,
    Polynomial,
    RationalMatrix,
    char_poly,
)
from congrusep.jordan import (
    _mod3_image_bound,
    euler_phi,
    is_semisimple,
    is_unipotent,
    is_virtually_unipotent_witness,
    jordan_decompose,
    max_torsion_order,
    torsion_order,
)
from helpers import (
    bounded_words,
    conjugate_decomposition,
    cyclotomic_factorization,
    cyclotomic_polynomial,
    cyclotomic_torsion_order,
    elementary_generators,
    is_squarefree,
    klein_bottle_lift,
    min_poly,
    random_gl_element,
    unimodular_box,
)

I2 = RationalMatrix.identity(2)
U = IntegerMatrix([[1, 1], [0, 1]])
ROT4 = IntegerMatrix([[0, -1], [1, 0]])
NEG_I = IntegerMatrix([[-1, 0], [0, -1]])


def assert_valid_pair(g, pair):
    n = g.n
    s, u = pair.semisimple, pair.unipotent
    assert s * u == g
    assert s * u == u * s
    assert is_squarefree(min_poly(s))
    assert (u - RationalMatrix.identity(n)) ** n == RationalMatrix.zeros(n)


# ---------------------------------------------------------------------------
# jordan_decompose
# ---------------------------------------------------------------------------


def test_decompose_identity():
    pair = jordan_decompose(I2)
    assert pair.semisimple == I2 and pair.unipotent == I2


def test_decompose_unipotent():
    pair = jordan_decompose(U.to_rational())
    assert pair.semisimple == I2
    assert pair.unipotent == U.to_rational()


def test_decompose_negative_unipotent():
    g = RationalMatrix([[-1, 1], [0, -1]])
    pair = jordan_decompose(g)
    assert pair.semisimple == -I2
    assert pair.unipotent == RationalMatrix([[1, -1], [0, 1]])
    assert_valid_pair(g, pair)


def test_decompose_singular_rejected():
    with pytest.raises(SingularMatrixError):
        jordan_decompose(RationalMatrix([[1, 1], [1, 1]]))


def test_decompose_deterministic():
    g = RationalMatrix([[-1, 3], [0, 2]])
    first = jordan_decompose(g)
    second = jordan_decompose(g)
    assert first.semisimple == second.semisimple
    assert first.unipotent == second.unipotent


def test_decompose_rational_entries():
    g = RationalMatrix([[Fraction(1, 2), 1], [0, 2]])
    pair = jordan_decompose(g)
    assert_valid_pair(g, pair)


def test_decompose_nontrivial_block_mix():
    # block diag: 2x2 Jordan block at 2, eigenvalue -1
    g = RationalMatrix([[2, 1, 0], [0, 2, 0], [0, 0, -1]])
    pair = jordan_decompose(g)
    assert pair.semisimple == RationalMatrix([[2, 0, 0], [0, 2, 0], [0, 0, -1]])
    assert_valid_pair(g, pair)


def test_decompose_random_words():
    rng = random.Random(0x1ECD)
    for _ in range(60):
        n = rng.choice([2, 3, 4])
        g = random_gl_element(rng, n).to_rational()
        assert_valid_pair(g, jordan_decompose(g))


def test_distinct_eigenvalue_triangular_matrices_are_semisimple():
    # distinct diagonal entries force diagonalizability, so the element is
    # its own semisimple part even when strictly upper entries are nonzero
    rng = random.Random(0x7A1)
    for _ in range(25):
        n = rng.choice([2, 3])
        rows = [[0] * n for _ in range(n)]
        diag = rng.sample([1, 2, 3, 5, -1, -2], n)
        for i in range(n):
            rows[i][i] = diag[i]
            for j in range(i + 1, n):
                rows[i][j] = rng.randint(-3, 3)
        g = RationalMatrix(rows)
        pair = jordan_decompose(g)
        assert pair.semisimple == g
        assert pair.unipotent == RationalMatrix.identity(n)


def test_semisimple_part_is_polynomial_in_the_matrix():
    # the true decomposition has s in Q[g]; a wrong commuting factorization
    # generally would not
    from congrusep.exactlin import _solve_exact

    rng = random.Random(0x901)
    for _ in range(30):
        n = rng.choice([2, 3, 4])
        g = random_gl_element(rng, n).to_rational()
        pair = jordan_decompose(g)
        powers = []
        acc = RationalMatrix.identity(n)
        for _ in range(n):
            powers.append(tuple(x for row in acc.entries for x in row))
            acc = acc * g
        target = tuple(x for row in pair.semisimple.entries for x in row)
        assert _solve_exact(powers, target) is not None


def test_torsion_elements_are_their_own_semisimple_part():
    from congrusep.separate import torsion_class_table

    for n in (1, 2, 3):
        for entry in torsion_class_table(n).entries:
            pair = jordan_decompose(entry.to_rational())
            assert pair.semisimple == entry.to_rational()
            assert pair.unipotent == RationalMatrix.identity(n)


# ---------------------------------------------------------------------------
# predicates
# ---------------------------------------------------------------------------


def test_is_semisimple_rotation():
    assert is_semisimple(ROT4.to_rational())


def test_is_semisimple_unipotent_false():
    assert not is_semisimple(U.to_rational())


def test_is_semisimple_identity():
    assert is_semisimple(I2)


def test_is_semisimple_singular_rejected():
    with pytest.raises(SingularMatrixError):
        is_semisimple(RationalMatrix([[0, 0], [0, 1]]))


def _jordan_form(blocks) -> RationalMatrix:
    """Block-diagonal matrix of Jordan blocks, given as (eigenvalue, size)."""
    n = sum(size for _, size in blocks)
    rows = [[Fraction(0)] * n for _ in range(n)]
    start = 0
    for value, size in blocks:
        for k in range(start, start + size):
            rows[k][k] = Fraction(value)
            if k + 1 < start + size:
                rows[k][k + 1] = Fraction(1)
        start += size
    return RationalMatrix(rows)


@st.composite
def conjugated_jordan_forms(draw):
    # few eigenvalues, so blocks often share one: a repeated eigenvalue in
    # 1x1 blocks stays semisimple, one in a larger block does not
    eigenvalue = st.sampled_from([1, -1, 2, Fraction(1, 2)])
    size = st.sampled_from([1, 1, 1, 2, 3])
    blocks = draw(st.lists(st.tuples(eigenvalue, size), min_size=1, max_size=4).filter(
        lambda b: sum(s for _, s in b) <= 4
    ))
    form = _jordan_form(blocks)
    n = form.n
    rng = draw(st.randoms(use_true_random=False))
    scale = draw(st.lists(st.sampled_from([1, 2, Fraction(1, 3), Fraction(-3, 2)]),
                          min_size=n, max_size=n))
    h = random_gl_element(rng, n).to_rational() * _jordan_form([(c, 1) for c in scale])
    return h.inverse() * form * h


def _square(entries):
    return st.integers(1, 4).flatmap(lambda n: st.lists(
        st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n
    )).map(RationalMatrix)


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    _square(st.integers(-3, 3)),
    _square(st.fractions(min_value=-2, max_value=2, max_denominator=3)),
    conjugated_jordan_forms(),
))
def test_is_semisimple_matches_min_poly_oracle(g):
    assume(g.det() != 0)
    assert is_semisimple(g) is is_squarefree(min_poly(g))


def test_is_semisimple_on_jordan_forms():
    assert is_semisimple(_jordan_form([(2, 1), (2, 1), (-1, 1)]))
    assert not is_semisimple(_jordan_form([(2, 1), (2, 2)]))
    assert not is_semisimple(_jordan_form([(Fraction(1, 2), 3), (1, 1)]))


def test_is_unipotent():
    assert is_unipotent(I2)
    assert is_unipotent(RationalMatrix([[1, 5], [0, 1]]))
    assert not is_unipotent(-I2)


def test_conjugacy_invariance_of_predicates():
    rng = random.Random(3)
    for _ in range(20):
        h = random_gl_element(rng, 2).to_rational()
        conj = h.inverse() * U.to_rational() * h
        assert is_unipotent(conj)
        assert not is_semisimple(conj)


# ---------------------------------------------------------------------------
# conjugate_decomposition
# ---------------------------------------------------------------------------


def test_conjugate_of_unipotent_has_trivial_semisimple_part():
    h = RationalMatrix([[2, 1], [1, 1]])
    pair = conjugate_decomposition(U.to_rational(), h)
    assert pair.semisimple == I2


def test_conjugate_of_central_is_central():
    h = RationalMatrix([[1, 4], [0, 1]])
    pair = conjugate_decomposition((-I2), h)
    assert pair.semisimple == -I2
    assert pair.unipotent == I2


def test_conjugate_decomposition_matches_componentwise():
    g = RationalMatrix([[-1, 1], [0, -1]])
    h = U.to_rational()
    pair = conjugate_decomposition(g, h)
    base = jordan_decompose(g)
    h_inv = h.inverse()
    assert pair.semisimple == h_inv * base.semisimple * h
    assert pair.unipotent == h_inv * base.unipotent * h
    assert pair.semisimple == -I2


def test_equivariance_random_sample():
    rng = random.Random(0xE0)
    for _ in range(40):
        n = rng.choice([2, 3])
        g = random_gl_element(rng, n).to_rational()
        h = random_gl_element(rng, n).to_rational()
        conj = conjugate_decomposition(g, h)
        base = jordan_decompose(g)
        h_inv = h.inverse()
        assert conj.semisimple == h_inv * base.semisimple * h
        assert conj.unipotent == h_inv * base.unipotent * h


# ---------------------------------------------------------------------------
# cyclotomic oracle and torsion
# ---------------------------------------------------------------------------


def test_euler_phi_values():
    assert [euler_phi(d) for d in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == Polynomial([-1, 1])
    assert cyclotomic_polynomial(2) == Polynomial([1, 1])
    assert cyclotomic_polynomial(4) == Polynomial([1, 0, 1])
    assert cyclotomic_polynomial(6) == Polynomial([1, -1, 1])
    assert cyclotomic_polynomial(12) == Polynomial([1, 0, -1, 0, 1])


def test_cyclotomic_product_recovers_x_pow_minus_one():
    prod = Polynomial([1])
    for d in (1, 2, 3, 6):
        prod = prod * cyclotomic_polynomial(d)
    assert prod == Polynomial([-1, 0, 0, 0, 0, 0, 1])  # x^6 - 1


def test_cyclotomic_factorization():
    assert cyclotomic_factorization(Polynomial([1, -2, 1]), 2) == {1: 2}
    assert cyclotomic_factorization(Polynomial([1, 0, 1]), 2) == {4: 1}
    assert cyclotomic_factorization(Polynomial([1, -3, 1]), 2) is None


def test_torsion_orders():
    assert torsion_order(NEG_I) == 2
    assert torsion_order(ROT4) == 4
    assert torsion_order(U) is None
    assert torsion_order(IntegerMatrix([[0, -1], [1, -1]])) == 3
    assert torsion_order(IntegerMatrix([[0, -1], [1, 1]])) == 6
    assert torsion_order(IntegerMatrix.identity(2)) == 1


def test_torsion_order_requires_unimodular():
    with pytest.raises(PreconditionError):
        torsion_order(IntegerMatrix([[2, 0], [0, 1]]))


def test_torsion_order_is_least():
    rng = random.Random(11)
    for mat, order in [(ROT4, 4), (IntegerMatrix([[0, -1], [1, 1]]), 6)]:
        h = random_gl_element(rng, 2)
        conj = (h.unimodular_inverse() * mat * h)
        assert torsion_order(conj) == order
        eye = IntegerMatrix.identity(2)
        assert conj**order == eye
        for d in range(1, order):
            if order % d == 0:
                assert conj**d != eye


def test_torsion_order_anosov_infinite():
    assert torsion_order(IntegerMatrix([[2, 1], [1, 1]])) is None


def test_max_torsion_order_values():
    assert [max_torsion_order(n) for n in range(1, 9)] == [2, 6, 6, 12, 12, 30, 30, 60]


@pytest.mark.parametrize("n, bound", [(3, 1), (2, 3)])
def test_minkowski_order_and_scan_match_cyclotomic_oracle(n, bound):
    box = unimodular_box(n, bound)
    assert box
    for g in box:
        assert torsion_order(g) == cyclotomic_torsion_order(g)
        roots_of_unity = cyclotomic_factorization(char_poly(g), n) is not None
        # <g> is virtually unipotent iff g has root-of-unity eigenvalues
        assert is_virtually_unipotent_witness([g], CAP) is roots_of_unity


def test_torsion_order_bounded_cost_large_n():
    n = 16
    cycle = [[int(j == (i + 1) % n) for j in range(n)] for i in range(n)]
    assert torsion_order(IntegerMatrix(cycle)) == 16
    cycle[0][0] = 1
    assert torsion_order(IntegerMatrix(cycle)) is None


# ---------------------------------------------------------------------------
# virtual unipotency, decided through the mod-3 congruence kernel
# ---------------------------------------------------------------------------

CAP = 10**7
S = IntegerMatrix([[0, -1], [1, 0]])
R = IntegerMatrix([[0, -1], [1, 1]])
HEIS3 = [
    IntegerMatrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]]),
    IntegerMatrix([[1, 0, 0], [0, 1, 1], [0, 0, 1]]),
]
UNITRIANGULAR4 = [
    IntegerMatrix([[int(i == j or (i, j) == (a, b)) for j in range(4)] for i in range(4)])
    for a in range(4)
    for b in range(a + 1, 4)
]


def scan_refutes(gens, wordlen):
    """True iff some word of length <= wordlen has an eigenvalue that is no
    root of unity (the bounded word scan, kept as the oracle)."""
    n = gens[0].n
    return any(
        cyclotomic_factorization(char_poly(w), n) is None for w in bounded_words(gens, wordlen)
    )


def test_scan_unipotent_group():
    assert is_virtually_unipotent_witness([U], CAP)


def test_scan_finite_group():
    assert is_virtually_unipotent_witness([NEG_I], CAP)


def test_scan_rejects_infinite_order_semisimple():
    assert not is_virtually_unipotent_witness([IntegerMatrix([[2, 1], [1, 1]])], CAP)


def test_scan_empty_generators():
    assert is_virtually_unipotent_witness([], CAP)


@pytest.mark.parametrize(
    "gens, wordlen, expected",
    [
        ([U], 4, True),
        ([-U], 4, True),  # semisimple part -I
        (HEIS3, 3, True),
        ([IntegerMatrix([[2, 1], [1, 1]])], 2, False),
        (klein_bottle_lift(), 3, True),
    ],
)
def test_scan_matches_semisimple_part_reference(gens, wordlen, expected):
    n = gens[0].n
    reference = all(
        cyclotomic_factorization(char_poly(jordan_decompose(w).semisimple), n) is not None
        for w in bounded_words(gens, wordlen)
    )
    assert reference is expected
    assert is_virtually_unipotent_witness(gens, CAP) is reference


def _unitriangular(rng, n):
    return IntegerMatrix(
        [[int(i == j) if j <= i else rng.randint(-2, 2) for j in range(n)] for i in range(n)]
    )


def _signed_permutation(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    return IntegerMatrix(
        [[rng.choice((-1, 1)) if perm[i] == j else 0 for j in range(n)] for i in range(n)]
    )


def _seeded_group(rng):
    """1-3 generators in GL(n, Z), n = 2 or 3: unitriangular and signed
    permutation matrices under one conjugation (virtually unipotent when
    they are all of one kind, often not when mixed), or short random words
    in the elementary matrices."""
    n, r = rng.choice([2, 3]), rng.randint(1, 3)
    if rng.random() < 0.6:
        h = random_gl_element(rng, n, 3)
        h_inv = h.unimodular_inverse()
        kinds = [_unitriangular, _signed_permutation]
        return [h_inv * rng.choice(kinds)(rng, n) * h for _ in range(r)]
    return [random_gl_element(rng, n, rng.randint(1, 4)) for _ in range(r)]


def test_decision_agrees_with_the_length_4_scan_on_seeded_groups():
    rng = random.Random(0x3E)
    outcomes = set()
    for _ in range(300):
        gens = _seeded_group(rng)
        decided = is_virtually_unipotent_witness(gens, CAP)
        assert decided is not scan_refutes(gens, 4), gens
        outcomes.add(decided)
    assert outcomes == {True, False}


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False))
def test_decision_against_the_word_scan_oracle(rng):
    # a refutation at any length forces a refutation; a positive decision
    # passes the scan at every length tried
    gens = _seeded_group(rng)
    decided = is_virtually_unipotent_witness(gens, CAP)
    for wordlen in range(1, 5):
        if scan_refutes(gens, wordlen):
            assert not decided
    if decided:
        assert not scan_refutes(gens, 4)


@pytest.mark.parametrize("gens", [
    HEIS3 + [-IntegerMatrix.identity(3)],
    klein_bottle_lift(),
    [IntegerMatrix([[1, 0, 1], [0, -1, 0], [0, 0, 1]]), IntegerMatrix([[0, -1, 0], [1, 0, 0], [0, 0, 1]])],
    UNITRIANGULAR4,
], ids=["heisenberg,-I", "klein-bottle", "p4-holonomy", "unitriangular-4"])
def test_virtually_unipotent_by_construction(gens):
    assert is_virtually_unipotent_witness(gens, CAP)


def test_sl2z_passes_the_length_3_scan_and_is_refuted():
    assert not scan_refutes([S, R], 3)
    assert scan_refutes([S, R], 4)
    assert not is_virtually_unipotent_witness([S, R], CAP)


def _counted_walk(monkeypatch):
    """Patch the decision's Schreier walk to record how many generators it
    yields (drawn) of how many there are (total), computed apart."""
    walk = jordan._schreier_generators
    counts = {"drawn": 0, "total": None}

    def counted(*args):
        counts["total"] = sum(1 for _ in walk(*args))
        for s in walk(*args):
            counts["drawn"] += 1
            yield s

    monkeypatch.setattr(jordan, "_schreier_generators", counted)
    return counts


def test_sl2z_from_s_and_u_is_refuted_before_the_walk_ends(monkeypatch):
    # <S, U> = SL(2, Z) passes the first two steps (S^4 = I, U^3 and (SU)^6
    # are unipotent, 24 <= B(2) elements mod 3) and is refuted in step 3, as
    # soon as the span of the s - I goes over n(n-1)/2 or an s fails its
    # char poly: long before the last Schreier generator is formed
    counts = _counted_walk(monkeypatch)
    assert not is_virtually_unipotent_witness([S, U], CAP)
    assert counts["total"] is not None  # step 3 was reached
    assert 0 < counts["drawn"] < counts["total"]


@pytest.mark.parametrize("gens", [[U], HEIS3 + [-IntegerMatrix.identity(3)], klein_bottle_lift()],
                         ids=["U", "heisenberg,-I", "klein-bottle"])
def test_step_3_inverts_each_lift_at_most_once_and_only_when_used(monkeypatch, gens):
    # no lift is inverted by an adjugate: each carries its inverse along the
    # tree, one product by g^-1 per edge, so an adjugate is taken once per
    # distinct generator, no more than the keys a Schreier generator needs
    n = gens[0].n
    calls = []
    adjugate = exactlin._adjugate_inverse

    def counted(rows, det_inverse):
        calls.append(1)
        return adjugate(rows, det_inverse)

    def residues(w):
        return tuple(x % 3 for row in w for x in row)

    distinct = list(dict.fromkeys(gens))
    times = [functools.partial(jordan._times_columns, cols=tuple(zip(*g.entries)))
             for g in distinct]
    residue_maps = [modgrp._right_multiplication(modgrp.reduce(g, 3)) for g in distinct]
    eye = IntegerMatrix.identity(n)
    lifts = modgrp._schreier_transversal(modgrp.reduce(eye, 3).entries, eye.entries,
                                         residue_maps, times, CAP, "lifting")
    used = {residues(f(w)) for w in lifts.values() for f in times
            if f(w) != lifts[residues(f(w))]}
    monkeypatch.setattr(exactlin, "_adjugate_inverse", counted)
    monkeypatch.setattr(jordan, "_adjugate_inverse", counted, raising=False)
    assert is_virtually_unipotent_witness(gens, CAP)
    assert len(calls) == len(distinct) <= len(used)
    if gens == [U]:
        assert (len(lifts), len(calls)) == (3, 1)  # only U^3 = U^2 U is a nontrivial s


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False))
def test_step_3_carries_each_lift_inverse_along_the_tree(rng):
    # the inverse carried to each key, by columns, is the adjugate inverse
    # of its lift, and the lift times it is I
    gens = _seeded_group(rng)
    walks = []
    walk = jordan._schreier_generators

    def recorded(lifts, key_maps, lift_maps, times, inverse):
        walks.append({key: (w, inverse(key)) for key, w in lifts.items()})
        return walk(lifts, key_maps, lift_maps, times, inverse)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(jordan, "_schreier_generators", recorded)
        is_virtually_unipotent_witness(gens, CAP)
    assume(walks)  # step 3 was reached
    eye = IntegerMatrix.identity(gens[0].n).entries
    for w, w_inv in walks[0].values():
        assert jordan._times_columns(w, w_inv) == eye
        assert w_inv == tuple(zip(*IntegerMatrix(w).unimodular_inverse().entries))


def _walks(monkeypatch):
    """Record [cap, keys, lifts] of every Schreier tree the decision walks:
    keys stays None when the walk stops at its cap, and lifts counts the
    lift products formed along the tree."""
    calls = []
    walk = jordan._schreier_transversal

    def recorded(start_key, start, key_maps, lift_maps, cap, what):
        calls.append([cap, None, 0])
        record = calls[-1]

        def counted(f):
            def lift(w):
                record[2] += 1
                return f(w)
            return lift

        tree = walk(start_key, start, key_maps, [counted(f) for f in lift_maps], cap, what)
        record[1] = len(tree)
        return tree

    monkeypatch.setattr(jordan, "_schreier_transversal", recorded)
    return calls


#: Three reflections that generate GL(2, Z); each pair multiplies to an
#: element of order 4, of order 6 or to a unipotent one.
GL2_REFLECTIONS = [
    IntegerMatrix(rows) for rows in ([[-1, 0], [0, 1]], [[0, 1], [1, 0]], [[-1, 1], [0, 1]])
]


def test_image_bound_refutes_before_any_lift(monkeypatch):
    # the first step passes GL2_REFLECTIONS; the mod-3 image is GL(2, F_3),
    # 48 > B(2) = 36 elements
    assert [_mod3_image_bound(n) for n in (1, 2, 3, 4)] == [2, 36, 1296, 839808]
    gens = GL2_REFLECTIONS
    assert not scan_refutes(gens, 2)
    calls = _walks(monkeypatch)
    assert not is_virtually_unipotent_witness(gens, CAP)
    assert calls == [[36, None, 0]]  # one walk, stopped at B(2) keys, no lift formed
    assert modgrp.congruence_image(gens, 3, CAP, n=2).size == 48


@pytest.mark.parametrize("gens, cap", [
    ([S, R], CAP), (HEIS3, CAP), (klein_bottle_lift(), CAP), (UNITRIANGULAR4, 10**6),
])
def test_decision_closes_at_most_the_bound_mod_3(monkeypatch, gens, cap):
    # one walk per decision, under min(B(n), cap) keys, one key per element
    # of the mod-3 image and one lift per key but the root
    calls = _walks(monkeypatch)
    is_virtually_unipotent_witness(gens, cap)
    n = gens[0].n
    size = modgrp.congruence_image(gens, 3, CAP, n=n).size
    assert calls == [[min(_mod3_image_bound(n), cap), size, size - 1]]


def test_elementary_generators_n4_are_refuted_without_any_closure(monkeypatch):
    calls = _walks(monkeypatch)
    assert not is_virtually_unipotent_witness(elementary_generators(4), CAP)
    assert calls == []


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False))
def test_one_walk_counts_the_mod_3_image(rng):
    # the packed closure the walk replaced stays the oracle of its key
    # count; a walk stopped at B(n) refutes with no lift formed, and a cap
    # of exactly |G mod 3| decides as the default one does, one less leaves
    # the answer not decided
    gens = _seeded_group(rng)
    if rng.random() < 0.2:  # a conjugate of GL(2, Z), over the bound mod 3
        h = random_gl_element(rng, 2, 3)
        gens = [h.unimodular_inverse() * g * h for g in rng.sample(GL2_REFLECTIONS, 3)]
    n = gens[0].n
    size = modgrp.congruence_image(gens, 3, CAP, n=n).size
    bound = _mod3_image_bound(n)
    with pytest.MonkeyPatch.context() as mp:
        calls = _walks(mp)
        decided = is_virtually_unipotent_witness(gens, CAP)
    if not calls:  # refuted in step 1, before the walk
        assert not decided
        return
    if size > bound:
        assert (decided, calls) == (False, [[bound, None, 0]])
        return
    assert calls == [[bound, size, size - 1]]
    assert is_virtually_unipotent_witness(gens, size) is decided
    if size > 1:
        with pytest.raises(ResourceError):
            is_virtually_unipotent_witness(gens, size - 1)


def test_not_decided_when_the_cap_stops_the_mod_3_closure():
    # 729 elements mod 3: above a cap of 700, below B(4)
    with pytest.raises(ResourceError):
        is_virtually_unipotent_witness(UNITRIANGULAR4, 700)
    assert is_virtually_unipotent_witness(UNITRIANGULAR4, 729)


def test_decision_requires_gl_n_z():
    with pytest.raises(PreconditionError):
        is_virtually_unipotent_witness([IntegerMatrix([[2, 0], [0, 1]])], CAP)


def test_bounded_words_counts():
    words = bounded_words([U], 3)
    # U^k for k in -3..3
    assert len(words) == 7


def test_no_semisimple_nontrivial_elements_in_unipotent_fixtures():
    heis = [
        IntegerMatrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]]),
        IntegerMatrix([[1, 0, 0], [0, 1, 1], [0, 0, 1]]),
        IntegerMatrix([[1, 0, 1], [0, 1, 0], [0, 0, 1]]),
    ]
    for gens in ([U], heis):
        n = gens[0].n
        eye = RationalMatrix.identity(n)
        for w in bounded_words(gens, 4):
            if w.to_rational() != eye:
                assert not is_semisimple(w.to_rational())
