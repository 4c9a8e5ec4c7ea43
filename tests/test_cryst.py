import random
from fractions import Fraction
from operator import attrgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congrusep.errors import InputError, ResourceError
from congrusep.exactlin import IntegerMatrix, RationalMatrix, mat_vec
from congrusep.cryst import (
    AffineElement,
    CrystGroup,
    _fixed_projection,
    affine_jordan,
    lift_to_gl,
    semifactor_representatives,
)
from congrusep.jordan import jordan_decompose
from congrusep import cryst, exactlin, separate
from helpers import (
    kernel_and_image,
    keyed_transversal,
    moving_projection,
    random_gl_element,
    signed_permutation_matrices,
    splitting,
)

F = Fraction
REFL = IntegerMatrix([[1, 0], [0, -1]])
ROT4 = IntegerMatrix([[0, -1], [1, 0]])


def klein_bottle(lattice=((1, 0), (0, 1))):
    return CrystGroup(
        m=2,
        generators=[
            AffineElement(t=(F(1, 2), F(0)), S=REFL),
            AffineElement(t=(F(0), F(1)), S=IntegerMatrix.identity(2)),
        ],
        lattice=[list(row) for row in lattice],
    )


def p4_group():
    return CrystGroup(
        m=2,
        generators=[
            AffineElement(t=(0, 0), S=ROT4),
            AffineElement(t=(1, 0), S=IntegerMatrix.identity(2)),
            AffineElement(t=(0, 1), S=IntegerMatrix.identity(2)),
        ],
        lattice=[[1, 0], [0, 1]],
    )


def torus_group():
    return CrystGroup(
        m=2,
        generators=[
            AffineElement(t=(1, 0), S=IntegerMatrix.identity(2)),
            AffineElement(t=(0, 1), S=IntegerMatrix.identity(2)),
        ],
        lattice=[[1, 0], [0, 1]],
    )


# ---------------------------------------------------------------------------
# affine elements
# ---------------------------------------------------------------------------


def test_compose_and_inverse():
    g = AffineElement(t=(F(1, 2), F(0)), S=REFL)
    assert g.compose(g.inverse()) == AffineElement.identity(2)
    gg = g.compose(g)
    assert gg == AffineElement.translation((1, 0))


def test_affine_json_roundtrip():
    g = AffineElement(t=(F(1, 2), F(-3)), S=ROT4)
    assert AffineElement.from_json_dict(g.to_json_dict()) == g


# ---------------------------------------------------------------------------
# group construction and validation
# ---------------------------------------------------------------------------


def test_klein_bottle_holonomy():
    kb = klein_bottle()
    assert len(kb.holonomy) == 2
    assert kb.lattice == ((F(1), F(0)), (F(0), F(1)))


def test_p4_holonomy():
    assert len(p4_group().holonomy) == 4


def p6m_group():
    # holonomy D6 (12 elements), in the basis a1, a2 of the hexagonal lattice
    return CrystGroup(
        m=2,
        generators=[
            AffineElement(t=(0, 0), S=IntegerMatrix([[0, -1], [1, 1]])),
            AffineElement(t=(0, 0), S=IntegerMatrix([[0, 1], [1, 0]])),
            AffineElement(t=(1, 0), S=IntegerMatrix.identity(2)),
        ],
        lattice=[[1, 0], [0, 1]],
    )


def test_holonomy_of_f_m_elements_closes():
    # F(2) = 12: the closure cap admits a holonomy of exactly F(m) elements
    assert len(p6m_group().holonomy) == 12


def test_infinite_holonomy_closure_is_capped_at_f_m(monkeypatch):
    caps = []

    def spy(start_key, start, key_maps, lift_maps, cap, what):
        caps.append(cap)
        return real_tree(start_key, start, key_maps, lift_maps, cap, what)

    real_tree = cryst._schreier_transversal
    monkeypatch.setattr(cryst, "_schreier_transversal", spy)
    with pytest.raises(InputError, match="holonomy is not finite"):
        CrystGroup(
            m=2,
            generators=[
                AffineElement(t=(0, 0), S=IntegerMatrix([[-1, 1], [0, 1]])),
                AffineElement(t=(0, 0), S=IntegerMatrix([[-1, 0], [0, 1]])),
            ],
            lattice=[[1, 0], [0, 1]],
        )
    assert caps == [12]


def test_holonomy_budget_below_f_m_is_undecided(monkeypatch):
    monkeypatch.setattr(cryst, "HOLONOMY_BUDGET", 10)
    with pytest.raises(ResourceError, match="element budget 10 exceeded"):
        p6m_group()


def test_infinite_holonomy_rejected():
    with pytest.raises(InputError):
        CrystGroup(
            m=2,
            generators=[AffineElement(t=(0, 0), S=IntegerMatrix([[1, 1], [0, 1]]))],
            lattice=[[1, 0], [0, 1]],
        )


def test_declared_sublattice_rejected():
    with pytest.raises(InputError):
        CrystGroup(
            m=2,
            generators=[
                AffineElement(t=(1, 0), S=IntegerMatrix.identity(2)),
                AffineElement(t=(0, 1), S=IntegerMatrix.identity(2)),
            ],
            lattice=[[2, 0], [0, 1]],
        )


def test_declared_overlattice_rejected():
    with pytest.raises(InputError):
        CrystGroup(
            m=2,
            generators=[
                AffineElement(t=(2, 0), S=IntegerMatrix.identity(2)),
                AffineElement(t=(0, 1), S=IntegerMatrix.identity(2)),
            ],
            lattice=[[1, 0], [0, 1]],
        )


def cubic_group(lattice=((F(1, 2), 0, F(1, 2)), (0, F(1, 2), F(1, 2)), (0, 0, 1))):
    # holonomy of order 48; the translation (2, -1/2, 1/2) needs a word of length 10
    return CrystGroup(
        m=3,
        generators=[
            AffineElement(t=(F(3, 4), F(3, 4), F(1, 4)),
                          S=IntegerMatrix([[0, 0, -1], [0, 1, 0], [1, 0, 0]])),
            AffineElement(t=(F(1, 2), F(1, 4), F(3, 4)),
                          S=IntegerMatrix([[1, 0, 0], [0, 0, 1], [0, 1, 0]])),
        ],
        lattice=[list(row) for row in lattice],
    )


def test_cubic_lattice_is_the_full_translation_subgroup():
    group = cubic_group()
    assert len(group.holonomy) == 48
    assert group.lattice == ((F(1, 2), 0, F(1, 2)), (0, F(1, 2), F(1, 2)), (0, 0, 1))
    long_word = AffineElement.translation((2, F(-1, 2), F(1, 2)))
    coords = mat_vec(group._lattice_inverse, long_word.t)
    assert all(c.denominator == 1 for c in coords)
    with pytest.raises(InputError, match="outside the declared lattice"):
        cubic_group(lattice=((1, 0, 0), (0, 1, 0), (0, 0, 1)))


def _first_words_by_holonomy(group):
    """Oracle: a breadth-first walk over distinct group elements, words in
    g and g^-1, recording the first element reached per holonomy matrix."""
    letters = []
    for g in group.generators:
        for cand in (g, g.inverse()):
            if cand not in letters:
                letters.append(cand)
    identity = AffineElement.identity(group.m)
    first = {identity.S: identity}
    seen, frontier = {identity}, [identity]
    while len(first) < len(group.holonomy):
        new = []
        for w in frontier:
            for a in letters:
                wa = w.compose(a)
                if wa not in seen:
                    seen.add(wa)
                    new.append(wa)
                    first.setdefault(wa.S, wa)
        frontier = new
    return first


@pytest.mark.parametrize("make", [klein_bottle, p4_group, cubic_group])
def test_witnesses_are_first_reached_words(make):
    group = make()
    first = _first_words_by_holonomy(group)
    assert set(first) == set(group.holonomy)
    for s, w in first.items():
        assert group.witness(s) == w


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([klein_bottle, p4_group, cubic_group, p6m_group]), st.data())
def test_witnesses_equal_the_keyed_walk(make, data):
    # the same group from a shuffled generating set with redundant products
    # of two generators: every witness is the keyed walk's first element
    base = make()
    gens = list(base.generators)
    extra = data.draw(st.lists(st.tuples(st.sampled_from(gens), st.sampled_from(gens)), max_size=2))
    gens = data.draw(st.permutations(gens + [a.compose(b) for a, b in extra]))
    group = CrystGroup(m=base.m, generators=gens, lattice=[list(row) for row in base.declared_lattice])
    letters = dict.fromkeys(x for g in gens for x in (g, g.inverse()))
    reference = keyed_transversal(
        AffineElement.identity(group.m), [lambda x, a=a: x.compose(a) for a in letters],
        attrgetter("S"),
    )
    assert set(reference) == set(group.holonomy) == set(base.holonomy)
    assert all(group.witness(s) == w for s, w in reference.items())


def test_translations_of_lower_rank_rejected():
    with pytest.raises(InputError, match="not crystallographic"):
        CrystGroup(
            m=2,
            generators=[AffineElement(t=(1, 0), S=IntegerMatrix.identity(2))],
            lattice=[[1, 0], [0, 1]],
        )


@pytest.mark.parametrize(
    "lattice", [["10", "01"], [("1", "0"), ["0", "1"]], [[1, 0]], [[1, 0], [0]]],
    ids=["string-rows", "tuple-row", "too-few-rows", "short-row"],
)
def test_constructor_checks_the_lattice_shape(lattice):
    # the constructor and the JSON reader share one check: a list of m
    # lists of m entries, so a string row is never read character by character
    with pytest.raises(InputError, match="lattice must be a list of m rows"):
        CrystGroup(
            m=2,
            generators=[AffineElement(t=(1, 0), S=IntegerMatrix.identity(2)),
                        AffineElement(t=(0, 1), S=IntegerMatrix.identity(2))],
            lattice=lattice,
        )


def test_constructor_reads_exact_lattice_entries():
    # ints, Fractions and "p/q" strings; a float or a bool is refused
    torus = [AffineElement(t=(1, 0), S=IntegerMatrix.identity(2)),
             AffineElement(t=(0, 1), S=IntegerMatrix.identity(2))]
    group = CrystGroup(m=2, generators=torus, lattice=[["1", F(0)], [0, "2/2"]])
    assert group.declared_lattice == ((1, 0), (0, 1))
    for entry in (1.0, True):
        with pytest.raises(InputError):
            CrystGroup(m=2, generators=torus, lattice=[[entry, 0], [0, 1]])


def test_json_roundtrip_group():
    kb = klein_bottle()
    again = CrystGroup.from_json_dict(kb.to_json_dict())
    assert again.generators == kb.generators
    assert again.lattice == kb.lattice


# ---------------------------------------------------------------------------
# splitting
# ---------------------------------------------------------------------------


def test_splitting_identity():
    moving, fixed = splitting(IntegerMatrix.identity(2))
    assert moving == [] and len(fixed) == 2


def test_splitting_reflection():
    moving, fixed = splitting(REFL)
    assert moving == [(F(0), F(-2))]
    assert fixed == [(F(1), F(0))]


def test_splitting_rotation_is_fixed_point_free():
    moving, fixed = splitting(ROT4)
    assert len(moving) == 2 and fixed == []


def test_splitting_rejects_infinite_order():
    with pytest.raises(InputError):
        splitting(IntegerMatrix([[1, 1], [0, 1]]))


# ---------------------------------------------------------------------------
# the averaging projector against the Gauss-Jordan splitting
# ---------------------------------------------------------------------------


def _check_fixed_projection(s: IntegerMatrix) -> None:
    p = _fixed_projection(s)
    eye = RationalMatrix.identity(s.n)
    assert eye - p == moving_projection(s)
    assert p * p == p
    assert s.to_rational() * p == p == p * s.to_rational()
    kernel, _ = kernel_and_image(s.to_rational() - eye)
    assert sum(p.entries[i][i] for i in range(s.n)) == len(kernel)


@st.composite
def finite_order_matrices(draw):
    """A signed permutation matrix conjugated by a unimodular matrix."""
    n = draw(st.integers(1, 4))
    s = draw(st.sampled_from(signed_permutation_matrices(n)))
    g = random_gl_element(draw(st.randoms(use_true_random=False)), n,
                          word_len=draw(st.integers(0, 6)))
    return g.unimodular_inverse() * s * g


@settings(max_examples=150, deadline=None)
@given(finite_order_matrices())
def test_fixed_projection_matches_splitting_oracle(s):
    _check_fixed_projection(s)


@pytest.mark.parametrize("make", [klein_bottle, p4_group, torus_group, cubic_group, p6m_group])
def test_fixed_projection_on_pinned_holonomies(make):
    for s in make().holonomy:
        _check_fixed_projection(s)


def test_fixed_projection_rejects_infinite_order():
    with pytest.raises(InputError, match="infinite order"):
        _fixed_projection(IntegerMatrix([[1, 1], [0, 1]]))


def test_affine_jordan_matches_splitting_oracle():
    rng = random.Random(0xAFF1)
    holonomies = [s for make in (p4_group, cubic_group, p6m_group) for s in make().holonomy]
    for _ in range(60):
        s = rng.choice(holonomies)
        t = tuple(F(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(s.n))
        semisimple, unipotent = affine_jordan(AffineElement(t=t, S=s))
        t_s = mat_vec(moving_projection(s), t)
        assert semisimple == AffineElement(t=t_s, S=s)
        assert unipotent == AffineElement.translation(tuple(a - b for a, b in zip(t, t_s)))


def test_affine_jordan_runs_no_gauss_jordan(monkeypatch):
    def no_gauss_jordan(*args):
        raise AssertionError("affine_jordan reached Gauss-Jordan over Q")

    elements = [AffineElement(t=(F(1, 3), F(-2), F(5, 4)), S=s) for s in cubic_group().holonomy]
    monkeypatch.setattr(exactlin, "_rref", no_gauss_jordan)
    for e in elements:
        semisimple, unipotent = affine_jordan(e)
        assert semisimple.compose(unipotent) == e


# ---------------------------------------------------------------------------
# affine Jordan decomposition
# ---------------------------------------------------------------------------


def test_pure_translation_is_unipotent():
    e = AffineElement.translation((3, F(1, 2)))
    s, u = affine_jordan(e)
    assert s == AffineElement.identity(2)
    assert u == e


def test_klein_bottle_glide():
    s, u = affine_jordan(AffineElement(t=(F(1, 2), 0), S=REFL))
    assert s == AffineElement(t=(0, 0), S=REFL)
    assert u == AffineElement.translation((F(1, 2), 0))


def test_vertical_glide_is_semisimple():
    e = AffineElement(t=(0, 1), S=REFL)
    s, u = affine_jordan(e)
    assert s == e
    assert u == AffineElement.identity(2)


def test_parts_compose_and_commute():
    rng = random.Random(5)
    holonomies = [REFL, ROT4, IntegerMatrix.identity(2), IntegerMatrix([[0, 1], [1, 0]])]
    for _ in range(20):
        t = (F(rng.randint(-4, 4), rng.randint(1, 3)), F(rng.randint(-4, 4), rng.randint(1, 3)))
        e = AffineElement(t=t, S=rng.choice(holonomies))
        s, u = affine_jordan(e)
        assert s.compose(u) == e
        assert u.compose(s) == e
        # idempotent on parts
        assert affine_jordan(s) == (s, AffineElement.identity(2))
        assert affine_jordan(u) == (AffineElement.identity(2), u)


def test_translation_conjugation_moves_factor_by_lattice_image():
    # conjugating (t, S) by a translation shifts t_s by (S - I) of the vector
    e = AffineElement(t=(F(1, 2), F(1)), S=REFL)
    lam = AffineElement.translation((3, 5))
    conj = lam.inverse().compose(e).compose(lam)
    s_base, _ = affine_jordan(e)
    s_conj, _ = affine_jordan(conj)
    diff = tuple(a - b for a, b in zip(s_conj.t, s_base.t))
    delta = mat_vec((REFL - IntegerMatrix.identity(2)).to_rational(), lam.t)
    assert diff == delta


# ---------------------------------------------------------------------------
# embedding
# ---------------------------------------------------------------------------


def test_embed_pure_translation():
    imgs = lift_to_gl(torus_group()).generators
    assert imgs[0] == IntegerMatrix([[1, 0, 1], [0, 1, 0], [0, 0, 1]])
    assert imgs[1] == IntegerMatrix([[1, 0, 0], [0, 1, 1], [0, 0, 1]])


def test_embed_klein_bottle():
    imgs = lift_to_gl(klein_bottle()).generators
    assert imgs[0] == IntegerMatrix([[1, 0, 1], [0, -1, 0], [0, 0, 1]])
    assert imgs[1] == IntegerMatrix([[1, 0, 0], [0, 1, 2], [0, 0, 1]])


def test_embedding_consistent_with_jordan_decomposition():
    kb = klein_bottle()
    emb = lift_to_gl(kb)
    for g in kb.generators:
        s_aff, u_aff = affine_jordan(g)
        pair = jordan_decompose(emb.embed(g).to_rational())
        assert pair.semisimple == emb.embed(s_aff).to_rational()
        assert pair.unipotent == emb.embed(u_aff).to_rational()


def test_embedding_of_identity_element():
    emb = lift_to_gl(klein_bottle())
    assert emb.embed(AffineElement.identity(2)) == IntegerMatrix.identity(3)


# ---------------------------------------------------------------------------
# semisimple factor enumeration
# ---------------------------------------------------------------------------


def test_torus_has_single_trivial_factor():
    sf = semifactor_representatives(torus_group())
    assert sf.total == 1
    assert sf.components[0].invariant_factors == ()


def test_klein_bottle_reflection_quotient():
    sf = semifactor_representatives(klein_bottle())
    by_S = {comp.S: comp for comp in sf.components}
    refl = by_S[REFL]
    assert refl.invariant_factors == (2,)
    assert refl.count == 2
    assert sf.total == 3


def test_p4_rotation_quotient():
    sf = semifactor_representatives(p4_group())
    by_S = {comp.S: comp for comp in sf.components}
    rot = by_S[ROT4]
    assert rot.invariant_factors == (1, 2)
    assert rot.count == 2
    neg = by_S[IntegerMatrix([[-1, 0], [0, -1]])]
    assert neg.invariant_factors == (2, 2)
    assert neg.count == 4


def test_quotient_order_matches_restricted_determinant():
    # |quotient| = |det of (S - I) on the moving subspace|
    sf = semifactor_representatives(p4_group())
    for comp in sf.components:
        moving, _ = splitting(comp.S)
        if not moving:
            assert comp.count == 1
            continue
        diff = comp.S.to_rational() - RationalMatrix.identity(2)
        if len(moving) == 2:
            expected = abs(diff.det())
            assert comp.count == expected


def test_brute_force_coset_enumeration_oracle():
    """Check the reflection quotient of the Klein bottle against a direct
    walk over translated elements."""
    kb = klein_bottle()
    factors = set()
    for a in range(-4, 5):
        for b in range(-4, 5):
            elem = AffineElement.translation((a, b)).compose(kb.generators[0])
            s, _ = affine_jordan(elem)
            # reduce the moving part mod (S - I) of the lattice: (0, y) ~ y mod 2
            y = s.t[1] % 2
            factors.add((s.t[0], y))
    assert len(factors) == 2


def test_witnesses_realize_their_representatives():
    for group in (klein_bottle(), p4_group()):
        sf = semifactor_representatives(group)
        for comp in sf.components:
            for t_s, witness in comp.representatives:
                s, _ = affine_jordan(witness)
                assert s.t == t_s
                assert s.S == comp.S


def test_counts_stable_under_lattice_basis_change():
    rng = random.Random(0xBA515)
    base = semifactor_representatives(klein_bottle())
    base_counts = sorted(c.count for c in base.components)
    base_factors = sorted(c.invariant_factors for c in base.components)
    for _ in range(3):
        t = random_gl_element(rng, 2)
        rows = [list(row) for row in t.entries]
        sf = semifactor_representatives(klein_bottle(lattice=rows))
        assert sorted(c.count for c in sf.components) == base_counts
        assert sorted(c.invariant_factors for c in sf.components) == base_factors


def test_gamma_u_conjugation_does_not_change_coset():
    kb = klein_bottle()
    sf = semifactor_representatives(kb)
    refl_comp = {c.S: c for c in sf.components}[REFL]
    rep_vectors = {t for t, _ in refl_comp.representatives}
    for a in range(-2, 3):
        for b in range(-2, 3):
            lam = AffineElement.translation((a, b))
            conj = lam.compose(kb.generators[0]).compose(lam.inverse())
            s, _ = affine_jordan(conj)
            # the factor moved by (S-I)(lattice): still lands in a listed coset
            assert any(
                s.t[0] == t[0] and (s.t[1] - t[1]) % 2 == 0 for t in rep_vectors
            )


# ---------------------------------------------------------------------------
# full pipeline into the separation machinery
# ---------------------------------------------------------------------------


def test_pipeline_klein_bottle_torsion_free():
    emb = lift_to_gl(klein_bottle())
    assert emb.n == 3
    assert emb.denominator == 2
    table = separate.torsion_class_table(3)
    cert = separate.torsion_free_overgroup(list(emb.generators), table)
    assert separate.verify_certificate(cert)
