import functools
import hashlib
import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from congrusep.errors import (
    InputError,
    MalformedCertificateError,
    PreconditionError,
    ResourceError,
    ScheduleExhaustedError,
)
from congrusep.exactlin import IntegerMatrix, Polynomial, RationalMatrix, char_poly, factorize
from congrusep import modgrp, separate
from congrusep.separate import (
    SeparationCertificate,
    TorsionFreeCertificate,
    avoid_conjugacy,
    default_moduli_schedule,
    dump_certificate,
    parse_certificate,
    torsion_class_table,
    torsion_free_overgroup,
    validate_torsion_table,
    verify_certificate,
    witness_prime,
)
from congrusep.jordan import euler_phi, is_semisimple, torsion_order
from helpers import (
    brute_force_closure,
    brute_force_gl,
    cc_index_reference,
    cyclotomic_polynomial,
    klein_bottle_lift,
    mat_mul_mod,
    padic_level_image,
    random_gl_element,
    screen_reference,
    signed_permutation_matrices,
    traced_peak,
    unimodular_box,
)

U = IntegerMatrix([[1, 1], [0, 1]])
U2 = IntegerMatrix([[1, 2], [0, 1]])
NEG_I = IntegerMatrix([[-1, 0], [0, -1]])
ROT4 = IntegerMatrix([[0, -1], [1, 0]])
ANOSOV = IntegerMatrix([[2, 1], [1, 1]])
HEISENBERG = [
    IntegerMatrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]]),
    IntegerMatrix([[1, 0, 0], [0, 1, 1], [0, 0, 1]]),
]


def test_default_schedule_shape():
    sched = default_moduli_schedule()
    assert sched[0] == 2
    assert sched == sorted(sched)
    assert 3 in sched and 8 in sched and 27 in sched
    assert 23**4 in sched


# ---------------------------------------------------------------------------
# avoid_conjugacy
# ---------------------------------------------------------------------------


def test_flagship_instance_modulus_three():
    cert = avoid_conjugacy([U], NEG_I)
    assert cert.m == 3
    assert cert.image_size == 3
    assert cert.class_size == 1
    assert cert.disjoint


def test_flagship_oracle_full_enumeration():
    """Independent check by full enumeration of GL(2, Z/3)."""
    gl = brute_force_gl(2, 3)
    assert len(gl) == 48
    u_mod = (1, 1, 0, 1)
    image = {u_mod}
    while True:
        new = {mat_mul_mod(a, u_mod, 2, 3) for a in image} - image
        if not new:
            break
        image |= new
    assert len(image) == 3
    eta_mod = (2, 0, 0, 2)

    def inv2(flat):
        a, b, c, d = flat
        det = (a * d - b * c) % 3
        det_inv = [x for x in range(3) if det * x % 3 == 1][0]
        return tuple(v * det_inv % 3 for v in (d, -b % 3, -c % 3, a))

    orbit = {mat_mul_mod(mat_mul_mod(inv2(h), eta_mod, 2, 3), h, 2, 3) for h in gl}
    assert orbit == {eta_mod}
    assert not (image & orbit)
    cert = avoid_conjugacy([U], NEG_I)
    assert cert.image_size == len(image)
    assert cert.class_size == len(orbit)


def test_flagship_fails_mod_two():
    with pytest.raises(ScheduleExhaustedError):
        avoid_conjugacy([U], NEG_I, [2])
    assert modgrp.reduce(NEG_I, 2) in modgrp.generate([modgrp.reduce(U, 2)])


def test_trivial_group():
    cert = avoid_conjugacy([], NEG_I)
    assert cert.m == 3
    assert cert.image_size == 1


def test_second_instance_first_scheduled_success():
    cert = avoid_conjugacy([U2], ROT4)
    assert cert.m == 2  # image mod 2 is trivial, class of order-4 misses it
    assert verify_certificate(cert)


def test_eta_must_be_semisimple():
    with pytest.raises(PreconditionError):
        avoid_conjugacy([U], U2)


def test_eta_must_be_unimodular():
    with pytest.raises(PreconditionError):
        avoid_conjugacy([U], IntegerMatrix([[2, 0], [0, 1]]))


def test_schedule_validation():
    with pytest.raises(InputError):
        avoid_conjugacy([U], NEG_I, [3, 3])
    with pytest.raises(InputError):
        avoid_conjugacy([U], NEG_I, [])
    with pytest.raises(InputError):
        avoid_conjugacy([U], NEG_I, [1, 2])


def test_exhaustion_for_non_virtually_unipotent_generator():
    """A group generated by an infinite-order semisimple element that
    contains the target: no congruence level can ever separate."""
    with pytest.raises(ScheduleExhaustedError) as info:
        avoid_conjugacy([ANOSOV], ANOSOV, [2, 3, 4, 5, 7, 8, 9])
    assert info.value.largest_tried == 9


def test_soundness_sampling_box():
    cert = avoid_conjugacy([U], NEG_I)
    image = modgrp.generate([modgrp.reduce(g, cert.m) for g in cert.gamma_gens])
    for h in unimodular_box(2, 2):
        conj = h.unimodular_inverse() * cert.eta * h
        assert modgrp.reduce(conj, cert.m) not in image


def test_containment_of_group_words():
    cert = avoid_conjugacy([U2], ROT4)
    image = modgrp.generate(
        [modgrp.reduce(g, cert.m) for g in cert.gamma_gens],
        n=cert.n,
        m=cert.m,
    )
    from helpers import bounded_words

    for w in bounded_words(list(cert.gamma_gens), 6):
        assert modgrp.reduce(w, cert.m) in image


def test_search_agrees_with_brute_force_on_small_moduli():
    """Replay the first-success search with a fully independent oracle:
    brute-force subgroup closure and conjugation over all of GL(2, Z/m)."""
    instances = [
        ([U], NEG_I),
        ([U2], ROT4),
        ([U], IntegerMatrix([[1, 0], [0, -1]])),
        ([], ROT4),
    ]
    schedule = [2, 3, 4, 5]
    for gens, eta in instances:
        oracle_m = None
        for m in schedule:
            gl = brute_force_gl(2, m)
            reduced = [tuple(x % m for row in g.entries for x in row) for g in gens]
            image = brute_force_closure(reduced, 2, m)
            eta_flat = tuple(x % m for row in eta.entries for x in row)

            def inv(flat):
                a, b, c, d = flat
                det = (a * d - b * c) % m
                det_inv = next(k for k in range(1, m) if det * k % m == 1)
                return tuple(v * det_inv % m for v in (d, -b % m, -c % m, a))

            orbit = {
                mat_mul_mod(mat_mul_mod(inv(h), eta_flat, 2, m), h, 2, m) for h in gl
            }
            if not (image & orbit):
                oracle_m = m
                break
        cert = avoid_conjugacy(gens, eta, schedule)
        assert cert.m == oracle_m
        assert cert.image_size == len(image)
        assert cert.class_size == len(orbit)


def test_certificate_disjointness_by_independent_conjugacy_route():
    """Second route: image ∩ class = ∅ iff no image element is conjugate to
    the representative, decided by the Smith-form conjugacy procedure
    rather than orbit enumeration."""
    from congrusep.modgrp import is_conjugate_mod

    cert = torsion_free_overgroup([U], torsion_class_table(2))
    for evidence in cert.per_rep:
        image = modgrp.generate(
            [modgrp.reduce(g, evidence.modulus) for g in cert.gamma_gens]
        )
        for x in image.entry_tuples():
            lifted = IntegerMatrix([list(x[:2]), list(x[2:])])
            assert not is_conjugate_mod(lifted, evidence.rep, evidence.modulus)


def test_monotonicity_to_multiples():
    cert = avoid_conjugacy([U], NEG_I)
    for multiple in (2 * cert.m, 3 * cert.m):
        image = modgrp.generate([modgrp.reduce(U, multiple)])
        cls = modgrp.conj_class(modgrp.reduce(NEG_I, multiple))
        assert image.isdisjoint(cls)


def test_avoid_builds_only_the_probed_bucket():
    # SL(2, Z/25) has 15,000 elements and generating it alone peaks at
    # 102 B per element; indexing every bucket for one probe peaked at 194
    gens = [U, IntegerMatrix([[1, 0], [1, 1]])]

    def probe():
        with pytest.raises(ScheduleExhaustedError):
            avoid_conjugacy(gens, ROT4, [25])  # ROT4 lies in the image

    assert traced_peak(probe) <= 120 * 15_000
    cert = dump_certificate(avoid_conjugacy(gens, IntegerMatrix([[0, 1], [1, 0]]), [25]))
    assert hashlib.sha256(cert.encode()).hexdigest() == (
        "cf926062d91f7f69b56895ddd663baf25e3903777d6b7529805649d838ab43c4"
    )


# ---------------------------------------------------------------------------
# witness_prime
# ---------------------------------------------------------------------------


def test_witness_prime_denominator():
    factor = RationalMatrix([[Fraction(1, 2), 0], [0, 2]])
    w = witness_prime(factor, [U])
    assert (w.prime, w.level, w.reason) == (2, 0, "denominator")


def test_witness_prime_semiprime_denominator_is_bounded():
    semiprime = 1000000007 * 998244353
    factor = RationalMatrix([[Fraction(1, semiprime), 0], [0, semiprime]])
    with pytest.raises(ResourceError):
        witness_prime(factor, [U])


def test_witness_prime_image_escape():
    w = witness_prime(NEG_I.to_rational(), [U])
    assert (w.prime, w.level, w.reason) == (3, 1, "image-escape")


def test_witness_prime_frees_each_level_before_the_next():
    # levels 13, 17, 13^2, 17^2, 13^3, 17^3: the identity lies in every
    # image, so the schedule exhausts; holding the 13^3 image while the
    # 17^3 one was built peaked at 1.39 times the 17^3 image alone
    def exhaust():
        with pytest.raises(ScheduleExhaustedError):
            witness_prime(RationalMatrix.identity(2), [U], [13, 17], level_budget=3)

    alone = traced_peak(lambda: padic_level_image([U], 17, 3))
    assert traced_peak(exhaust) <= 1.1 * alone


def test_witness_prime_agrees_with_avoidance_modulus():
    cert = avoid_conjugacy([U], NEG_I)
    w = witness_prime(NEG_I.to_rational(), [U])
    assert w.prime**w.level == cert.m


def test_witness_prime_identity_exhausts():
    with pytest.raises(ScheduleExhaustedError):
        witness_prime(RationalMatrix.identity(2), [U], [2, 3], 2)


def _no_images(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an image was built before the input was checked")

    monkeypatch.setattr(modgrp, "congruence_image", refuse)
    monkeypatch.setattr(modgrp, "generate", refuse)


@pytest.mark.parametrize("budget", [0, -1])
def test_witness_prime_rejects_level_budget_below_one(monkeypatch, budget):
    _no_images(monkeypatch)
    with pytest.raises(InputError, match="level budget"):
        witness_prime(RationalMatrix.identity(2), [U], [2, 3], level_budget=budget)


@pytest.mark.parametrize("schedule", [[2, 3, 4], [4, 2], [2, 1], [0]])
def test_witness_prime_rejects_non_prime_before_any_level(monkeypatch, schedule):
    _no_images(monkeypatch)
    with pytest.raises(InputError, match="is not prime"):
        witness_prime(RationalMatrix.identity(2), [U], schedule, level_budget=2)


def test_witness_prime_requires_semisimple():
    with pytest.raises(PreconditionError):
        witness_prime(U.to_rational(), [U])


@st.composite
def _padic_cases(draw):
    """n in {2, 3}, p in {2, 3, 5}, one or two generators, a level budget
    <= 3 and an integral factor: mostly a word in the generators times
    I + p^j Y, so that it escapes at any level or none, sometimes an
    arbitrary element of GL(n, Z)."""
    n = draw(st.sampled_from([2, 3]))
    p = draw(st.sampled_from([2, 3, 5]))
    budget = draw(st.integers(1, 3))
    rng = draw(st.randoms(use_true_random=False))
    gens = []
    for _ in range(draw(st.integers(1, 2))):
        g = random_gl_element(rng, n, rng.randrange(4))
        if rng.random() < 0.6:
            # a factor in Gamma(p) keeps the higher levels small
            rows = [[int(i == j) for j in range(n)] for i in range(n)]
            i, j = rng.sample(range(n), 2)
            rows[i][j] = rng.choice([1, -1, 2]) * p ** rng.randrange(1, 3)
            g = IntegerMatrix(rows) if rng.random() < 0.5 else g * IntegerMatrix(rows)
        gens.append(g)
    if rng.random() < 0.2:
        factor = random_gl_element(rng, n, 3)
    else:
        factor = IntegerMatrix.identity(n)
        for _ in range(rng.randrange(4)):
            factor = factor * rng.choice(gens)
        q = p ** rng.randrange(1, 4)
        factor = factor * IntegerMatrix(
            [[int(i == j) + q * rng.randrange(-3, 4) for j in range(n)] for i in range(n)]
        )
    return n, p, budget, gens, factor


@settings(max_examples=150, deadline=None)
@given(_padic_cases())
def test_witness_prime_matches_enumerated_levels(case):
    """The level witness_prime reports is the first K with the factor mod
    p^K outside helpers.padic_level_image (the oracle), and each order
    |G_1| p^(dim L_1 + ... + dim L_(K-1)) of the layered kernel basis is
    the enumerated image's size.  p = 2 is drawn on purpose:
    (I + 2X)^2 = I + 4(X + X^2), so squares leave the layer of X."""
    n, p, budget, gens, factor = case
    assume(is_semisimple(factor.to_rational()))
    images = []
    for level in range(1, budget + 1):
        try:
            images.append(padic_level_image(gens, p, level, 20_000, n=n))
        except ResourceError:
            break  # check the levels the oracle can enumerate
    budget = len(images)
    assume(budget >= 1)
    lifts, layers = modgrp._kernel_basis(gens, p, budget, modgrp.DEFAULT_CAP, n=n)
    for level, image in enumerate(images, start=1):
        dims = sum(len(layer) for layer in layers[1:level])
        assert len(lifts) * p**dims == image.size
    escape = next(
        (
            level
            for level, image in enumerate(images, start=1)
            if factor.det() % p == 0 or modgrp.reduce(factor, p**level) not in image
        ),
        None,
    )
    if escape is None:
        with pytest.raises(ScheduleExhaustedError):
            witness_prime(factor.to_rational(), gens, [p], budget)
    else:
        w = witness_prime(factor.to_rational(), gens, [p], budget)
        assert (w.prime, w.level, w.reason) == (p, escape, "image-escape")


def test_witness_prime_generates_only_level_one_images(monkeypatch):
    # the benchmark's padic-exhaust input: the identity against <U> over the
    # default primes and levels.  Only the level-1 images are closed
    moduli = []
    generate = modgrp.generate

    def record(gens, *args, **kwargs):
        image = generate(gens, *args, **kwargs)
        moduli.append((image.m, image.size))
        return image

    monkeypatch.setattr(modgrp, "generate", record)
    with pytest.raises(ScheduleExhaustedError) as info:
        witness_prime(RationalMatrix.identity(2), [U])
    assert info.value.largest_tried == 23**4
    # U has order p mod p: 2 + 3 + ... + 23 = 100 elements in all
    assert moduli == [(p, p) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23)]


def test_witness_prime_refuses_schreier_generators_over_cap(monkeypatch):
    # <U, L> mod 3 is SL(2, F_3): 24 elements close under a cap of 40, but
    # its 24 * 2 = 48 Schreier generators do not, and none is sifted
    def refuse(*args):
        raise AssertionError("a Schreier generator was sifted over budget")

    monkeypatch.setattr(modgrp, "_sift", refuse)
    L = IntegerMatrix([[1, 0], [1, 1]])
    with pytest.raises(ResourceError, match="48 Schreier generators"):
        witness_prime(RationalMatrix.identity(2), [U, L], [3], 2, cap=40)


def test_witness_prime_builds_no_kernel_basis_before_p_squared():
    # <U^5, L^5> mod 3 is SL(2, F_3) and holds -I, but mod 5 the image is
    # trivial, so -I escapes at modulus 5 < 9, before the 48 Schreier
    # generators of the prime 3 would go over the cap
    L = IntegerMatrix([[1, 0], [1, 1]])
    w = witness_prime(-RationalMatrix.identity(2), [U**5, L**5], [3, 5], 2, cap=40)
    assert (w.prime, w.level, w.reason) == (5, 1, "image-escape")


L = IntegerMatrix([[1, 0], [1, 1]])
SL3_PAIR = [IntegerMatrix([[1, 1, 0], [0, 1, 1], [0, 0, 1]]),
            IntegerMatrix([[1, 0, 0], [1, 1, 0], [0, 1, 1]])]


def _kernel_walk(monkeypatch, gens, p, levels, stop):
    """(lifts, layers, Schreier generators drawn) of ``_kernel_basis``,
    with the saturation stop on or off."""
    walk = modgrp._schreier_generators
    drawn = []

    def counted(*args):
        for s in walk(*args):
            drawn.append(s)
            yield s

    with monkeypatch.context() as patch:
        patch.setattr(modgrp, "_schreier_generators", counted)
        if not stop:
            patch.setattr(modgrp, "_saturated", lambda *args: False)
        lifts, layers = modgrp._kernel_basis(gens, p, levels, modgrp.DEFAULT_CAP, n=gens[0].n)
    return lifts, layers, len(drawn)


def _depth(lifts, layers, factor, p):
    # _padic_depth's last step, on a basis already built
    x = modgrp.reduce(factor, p ** len(layers))
    lift = modgrp.ModMatrix._raw(x.n, x.m, lifts[tuple(e % p for e in x.entries)])
    return modgrp._sift((lift.inverse() * x).entries, layers, p, x.n)[0]


def _check_saturation_stop(monkeypatch, gens, p, levels, factors):
    lifts, layers, drawn = _kernel_walk(monkeypatch, gens, p, levels, stop=True)
    full_lifts, full_layers, full_drawn = _kernel_walk(monkeypatch, gens, p, levels, stop=False)
    n = gens[0].n
    assert lifts == full_lifts
    assert [len(layer) for layer in layers] == [len(layer) for layer in full_layers]
    assert all(len(layer) == n * n - 1 for layer in layers[1:])  # the stop fired
    assert drawn < full_drawn
    for factor in factors:
        assert _depth(lifts, layers, factor, p) == _depth(full_lifts, full_layers, factor, p)


@pytest.mark.parametrize("p, levels", [(3, 2), (3, 3), (5, 2), (5, 3), (7, 2), (7, 3)])
def test_saturation_stop_keeps_layers_and_depths(monkeypatch, p, levels):
    # <U, L> = SL(2, Z): every layer fills at dimension 3 = n^2 - 1, and the
    # stop sifts a few Schreier generators instead of about |SL(2, F_p)|.
    # The factors lie in G_1 mod p; by their determinants, 1 + 2p and
    # 1 + p^2, the last two have depths 1 and 2
    factors = [IntegerMatrix.identity(2), -IntegerMatrix.identity(2), U * L,
               IntegerMatrix([[1, p * p], [0, 1]]), IntegerMatrix([[1 + p, p], [p, 1 + p]]),
               IntegerMatrix([[1 + p * p, 0], [0, 1]])]
    _check_saturation_stop(monkeypatch, [U, L], p, levels, factors)
    assert modgrp._padic_depth(-RationalMatrix.identity(2), [U, L], p, levels,
                               modgrp.DEFAULT_CAP, n=2) == levels


def test_saturation_stop_on_the_sl3_pair_mod_3(monkeypatch):
    factors = [IntegerMatrix.identity(3), SL3_PAIR[0] * SL3_PAIR[1],
               IntegerMatrix([[1, 3, 0], [0, 1, 0], [0, 0, 1]]),
               IntegerMatrix([[-2, 0, 0], [0, 1, 0], [0, 0, 1]])]
    _check_saturation_stop(monkeypatch, SL3_PAIR, 3, 2, factors)


@pytest.mark.slow
def test_saturation_stop_on_the_sl3_pair_mod_5(monkeypatch):
    # the full walk sifts about 372,000 Schreier generators (about a minute)
    factors = [IntegerMatrix.identity(3), SL3_PAIR[0] * SL3_PAIR[1],
               IntegerMatrix([[1, 5, 0], [0, 1, 0], [0, 0, 1]])]
    _check_saturation_stop(monkeypatch, SL3_PAIR, 5, 2, factors)


def test_saturation_stop_needs_an_odd_prime(monkeypatch):
    # for p = 2 the first layer may have dimension n^2, so no stop is taken
    _, layers, drawn = _kernel_walk(monkeypatch, [U, L], 2, 3, stop=True)
    _, full_layers, full_drawn = _kernel_walk(monkeypatch, [U, L], 2, 3, stop=False)
    assert [len(layer) for layer in layers] == [len(layer) for layer in full_layers]
    assert drawn == full_drawn


@pytest.mark.parametrize("gens, p", [([U], 23), ([U, L], 5), ([U, L], 2), (SL3_PAIR, 3)])
def test_kernel_basis_inverts_each_lift_at_most_once_and_only_when_used(monkeypatch, gens, p):
    # a lift is inverted once per residue key that a nontrivial Schreier
    # generator needs; <U> mod 23 has one such key among 23 lifts, the
    # identity's, which takes no adjugate.  Basis elements are inverted by
    # the Neumann series, with no adjugate either
    calls = []
    adjugate = modgrp._adjugate_inverse

    def counted(rows, det_inverse):
        calls.append(1)
        return adjugate(rows, det_inverse)

    monkeypatch.setattr(modgrp, "_adjugate_inverse", counted)
    lifts, _, _ = _kernel_walk(monkeypatch, gens, p, 3, stop=False)
    maps = [modgrp._right_multiplication(modgrp.reduce(g, p**3)) for g in gens]
    used = {tuple(e % p for e in f(w)) for w in lifts.values() for f in maps
            if f(w) != lifts[tuple(e % p for e in f(w))]}
    assert len(calls) <= len(used)
    if gens == [U]:
        assert (len(lifts), len(used), len(calls)) == (23, 1, 0)


# ---------------------------------------------------------------------------
# torsion tables
# ---------------------------------------------------------------------------


def test_table_n1():
    table = torsion_class_table(1)
    assert [e.entries for e in table.entries] == [((1,),), ((-1,),)]


def test_table_n2_contents():
    table = torsion_class_table(2)
    orders = sorted(torsion_order(e) for e in table.entries)
    assert orders == [1, 2, 2, 2, 3, 4, 6]
    assert NEG_I in table.entries
    assert ROT4 in table.entries


def test_table_n3_loads():
    table = torsion_class_table(3)
    assert len(table.entries) == 16
    orders = sorted(torsion_order(e) for e in table.entries)
    assert orders == [1, 2, 2, 2, 2, 2, 3, 3, 4, 4, 4, 4, 6, 6, 6, 6]


def test_table_unsupported_dimension():
    with pytest.raises(InputError):
        torsion_class_table(4)


def test_table_screen_n1():
    assert validate_torsion_table(1, bound=3) == []


def test_table_screen_n2_full_default_bound():
    assert validate_torsion_table(2, bound=3) == []


def test_table_screen_n3_small_bound():
    assert validate_torsion_table(3, bound=1) == []


def test_table_screen_n3_bound_two():
    assert validate_torsion_table(3, bound=2) == []


@pytest.mark.slow
def test_table_screen_n3_bound_three():
    assert validate_torsion_table(3, bound=3) == []


def test_table_with_infinite_order_entry_rejected():
    bad = separate_table_with(ANOSOV)
    with pytest.raises(InputError):
        validate_torsion_table(2, bound=1, table=bad)


def separate_table_with(extra):
    base = torsion_class_table(2)
    return type(base)(n=2, version="bad", entries=base.entries + (extra,))


def test_table_screen_catches_removed_class():
    table = torsion_class_table(2)
    crippled = type(table)(
        n=2, version="crippled", entries=tuple(e for e in table.entries if e != ROT4)
    )
    missing = validate_torsion_table(2, bound=1, table=crippled)
    assert any(torsion_order(g) == 4 for g in missing)


def test_table_screen_rejects_modulus_below_two():
    with pytest.raises(InputError):
        validate_torsion_table(2, bound=1, moduli=(1, 5))


def test_table_screen_without_moduli_matches_order_and_char_poly():
    assert validate_torsion_table(2, bound=1, moduli=()) == []
    table = torsion_class_table(2)
    crippled = type(table)(
        n=2, version="crippled", entries=tuple(e for e in table.entries if e != ROT4)
    )
    missing = validate_torsion_table(2, bound=1, moduli=(), table=crippled)
    assert missing and all(torsion_order(g) == 4 for g in missing)


NONSPLIT4 = IntegerMatrix([[-1, -1, -1], [1, 1, 0], [1, 0, 1]])
SIGNED_PERMS_3 = signed_permutation_matrices(3)


def _without(table, entry):
    return type(table)(
        n=table.n, version="dropped", entries=tuple(e for e in table.entries if e != entry)
    )


@pytest.mark.parametrize("moduli", [(5, 7, 8, 9), (), (3,)])
def test_table_screen_matches_per_element_oracle(moduli):
    full = torsion_class_table(2)
    unmatched = 0
    for table in [full] + [_without(full, e) for e in full.entries]:
        got = validate_torsion_table(2, bound=2, moduli=moduli, table=table)
        assert got == screen_reference(2, 2, moduli, table)
        unmatched += len(got)
    assert unmatched  # dropping an entry leaves elements unmatched


def test_table_screen_n3_matches_oracle_without_nonsplit_order_four():
    table = _without(torsion_class_table(3), NONSPLIT4)
    got = validate_torsion_table(3, bound=1, table=table)
    assert got and got == screen_reference(3, 1, table=table)


@settings(max_examples=40, deadline=None)
@given(
    flat=st.lists(st.integers(-1, 1), min_size=9, max_size=9),
    p=st.sampled_from(SIGNED_PERMS_3),
)
def test_signed_permutation_conjugates_share_every_screen_test(flat, p):
    g = IntegerMatrix([flat[0:3], flat[3:6], flat[6:9]])
    assume(g.det() in (1, -1))
    h = p.unimodular_inverse() * g * p
    assert all(abs(x) <= 1 for row in h.entries for x in row)
    assert torsion_order(h) == torsion_order(g)
    assert char_poly(h) == char_poly(g)
    for t in torsion_class_table(3).entries:
        if char_poly(t) == char_poly(g):
            assert modgrp.is_conjugate_mod(h, t, 2520) == modgrp.is_conjugate_mod(g, t, 2520)


def test_table_screen_decides_each_signed_permutation_orbit_once(monkeypatch):
    decided = []
    decide = modgrp.is_conjugate_mod

    def recording(a, b, m):
        if not decided or decided[-1] != a:  # one g meets several candidates
            decided.append(a)
        return decide(a, b, m)

    monkeypatch.setattr(modgrp, "is_conjugate_mod", recording)
    assert validate_torsion_table(3, bound=1) == []
    assert decided
    for i, g in enumerate(decided):
        orbit = {p.unimodular_inverse() * g * p for p in SIGNED_PERMS_3}
        assert not orbit.intersection(decided[i + 1 :])


@st.composite
def _screen_heads(draw):
    n = draw(st.integers(1, 3))
    bound = draw(st.integers(0, 2))
    entry = st.integers(-bound, bound)
    head = [tuple(draw(st.lists(entry, min_size=n, max_size=n))) for _ in range(n - 1)]
    return n, bound, head


@settings(max_examples=300, deadline=None)
@given(_screen_heads())
@example((3, 1, [(1, 0, 0), (1, 0, 0)]))  # cofactor vector 0: no last row
@example((3, 2, [(2, 0, 1), (1, 0, 1)]))  # c = (0, -1, 0): r[2] free, held to [-2, 1]
@example((3, 2, [(2, 1, 0), (0, 2, 1)]))  # c = (1, -2, 4): 4 r[2] = +-1 - r[0] + 2 r[1]
@example((2, 2, [(2, 0)]))  # c = (0, 2): det is even, no last row
@example((1, 2, []))
def test_last_rows_are_the_unimodular_box_rows_in_the_trace_window(case):
    n, bound, head = case
    values = range(-bound, bound + 1)
    expected = [
        last
        for last in itertools.product(values, repeat=n)
        if separate.det_int(head + [last]) in (1, -1)
        and abs(sum(head[i][i] for i in range(n - 1)) + last[n - 1]) <= n
    ]
    assert list(separate._last_rows(head, n, bound)) == expected


def test_table_screen_takes_no_determinant_per_box_tuple(monkeypatch):
    calls = 0
    det_int = separate.det_int

    def counting(rows):
        nonlocal calls
        calls += 1
        return det_int(rows)

    monkeypatch.setattr(separate, "det_int", counting)
    assert validate_torsion_table(3, bound=1) == []
    assert 0 < calls <= 3 * 3**6  # n cofactor minors per choice of the first two rows


def _cyclotomic_products(n):
    """The distinct degree-n products of cyclotomic polynomials."""
    indices = [d for d in range(1, 2 * n * n + 2) if euler_phi(d) <= n]
    products = set()
    for size in range(1, n + 1):
        for ds in itertools.combinations_with_replacement(indices, size):
            if sum(euler_phi(d) for d in ds) == n:
                polys = (cyclotomic_polynomial(d) for d in ds)
                products.add(math.prod(polys, start=Polynomial([1])))
    return products


@pytest.mark.parametrize("n, count", [(1, 2), (2, 6), (3, 10)])
def test_table_char_polys_are_every_cyclotomic_product(n, count):
    table_polys = {char_poly(e) for e in torsion_class_table(n).entries}
    assert len(table_polys) == count
    assert table_polys == _cyclotomic_products(n)


def test_conjugacy_at_lcm_separates_reflections():
    refl1 = IntegerMatrix([[1, 0], [0, -1]])
    refl2 = IntegerMatrix([[0, 1], [1, 0]])
    assert modgrp.is_conjugate_mod(refl1, refl2, 5)
    assert modgrp.is_conjugate_mod(refl1, refl2, 9)
    assert not modgrp.is_conjugate_mod(refl1, refl2, 360)


@functools.cache
def _screen_pairs():
    """(g, t) for each torsion g of the n = 3 box [-1, 1] and each table
    entry t of the same order and char poly."""
    buckets = {}
    for t in torsion_class_table(3).entries:
        buckets.setdefault((torsion_order(t), char_poly(t)), []).append(t)
    pairs = []
    for g in unimodular_box(3, 1):
        order = torsion_order(g)
        if order is not None:
            pairs.extend((g, t) for t in buckets[order, char_poly(g)])
    return pairs


def test_conjugacy_at_lcm_matches_every_modulus_on_screen_pairs():
    outcomes = set()
    for g, t in random.Random(6).sample(_screen_pairs(), 60):
        joint = modgrp.is_conjugate_mod(g, t, 2520)
        assert joint == all(modgrp.is_conjugate_mod(g, t, m) for m in (5, 7, 8, 9))
        outcomes.add(joint)
    assert outcomes == {True, False}


def test_screen_pairs_are_conjugate_at_every_prime_not_dividing_their_order():
    # the lemma of validate_torsion_table, at p and at the default power of p
    refuted = 0
    for g, t in random.Random(22).sample(_screen_pairs(), 60):
        k = torsion_order(g)
        for p, q in ((2, 8), (3, 9), (5, 5), (7, 7)):
            if k % p:
                assert modgrp.is_conjugate_mod(g, t, p)
                assert modgrp.is_conjugate_mod(g, t, q)
            else:
                refuted += not modgrp.is_conjugate_mod(g, t, q)
    assert refuted  # at a prime dividing the order the answer is not forced


def test_table_screen_decides_only_at_primes_dividing_the_order(monkeypatch):
    asked = []
    decide = modgrp.is_conjugate_mod

    def recording(a, b, m):
        asked.append((a, m))
        return decide(a, b, m)

    monkeypatch.setattr(modgrp, "is_conjugate_mod", recording)
    assert validate_torsion_table(3, bound=1) == []
    # orders 2 and 4 ask mod 8, order 3 mod 9, order 6 mod 72; never 2520
    assert {m for _, m in asked} == {8, 9, 72}
    for a, m in asked:
        assert all(torsion_order(a) % p == 0 for p, _ in factorize(m))


ORDER6_SPLIT = IntegerMatrix([[1, 0, 0], [0, 0, -1], [0, 1, 1]])


@pytest.mark.parametrize("moduli, dropped", [
    ((8,), NONSPLIT4),
    ((5,), ORDER6_SPLIT),  # 5 divides no order: every part_k is 1
    ((4, 3), NONSPLIT4),
])
def test_table_screen_matches_oracle_at_moduli_that_skip_some_orders(moduli, dropped):
    table = _without(torsion_class_table(3), dropped)
    got = validate_torsion_table(3, bound=1, moduli=moduli, table=table)
    assert got and got == screen_reference(3, 1, moduli, table)


# ---------------------------------------------------------------------------
# torsion_free_overgroup
# ---------------------------------------------------------------------------


def test_torsion_free_unipotent_group():
    cert = torsion_free_overgroup([U], torsion_class_table(2))
    assert cert.table_version == "builtin-n2-v1"
    assert len(cert.per_rep) == 6  # identity carries no evidence
    assert all(e.disjoint for e in cert.per_rep)
    assert all(cert.m % e.modulus == 0 for e in cert.per_rep)
    assert verify_certificate(cert)


def test_torsion_free_expands_each_reduced_rep_once(monkeypatch):
    expanded = []
    orbit_expand = modgrp._orbit_expand

    def recording(rep, cap, stop_inside=None):
        expanded.append(rep)
        return orbit_expand(rep, cap, stop_inside=stop_inside)

    monkeypatch.setattr(modgrp, "_orbit_expand", recording)
    cert = torsion_free_overgroup([U], torsion_class_table(2))
    assert expanded and len(expanded) == len(set(expanded))
    monkeypatch.undo()
    assert verify_certificate(cert)


def test_torsion_free_evidence_agrees_with_avoid():
    # both run one separation search: each representative's evidence is
    # what avoid_conjugacy finds for it alone
    pairs = 0
    for gens in ([U], HEISENBERG, klein_bottle_lift()):
        cert = torsion_free_overgroup(gens, torsion_class_table(gens[0].n))
        for evidence in cert.per_rep:
            alone = avoid_conjugacy(gens, evidence.rep)
            assert (alone.m, alone.class_size, alone.class_digest) == (
                evidence.modulus, evidence.class_size, evidence.class_digest
            )
            pairs += 1
    assert pairs == 36


def test_torsion_free_frees_each_image_before_the_next():
    # -I lies in SL(2, Z/m) for every m, so the schedule exhausts; keeping
    # every probed image with its full char-poly index peaked at 3.01 times
    # the m = 19 image alone
    gens = [U, IntegerMatrix([[1, 0], [1, 1]])]

    def exhaust():
        with pytest.raises(ScheduleExhaustedError):
            torsion_free_overgroup(gens, [NEG_I], [13, 17, 19])

    alone = traced_peak(lambda: modgrp.congruence_image(gens, 19, modgrp.DEFAULT_CAP, n=2))
    assert traced_peak(exhaust) <= 1.1 * alone


def test_torsion_free_trivial_group():
    cert = torsion_free_overgroup([], [NEG_I], n=2)
    assert cert.m == 3


def test_torsion_free_empty_reps():
    cert = torsion_free_overgroup([U], [], n=2)
    assert cert.m == 2
    assert cert.per_rep == ()


def test_torsion_free_rejects_infinite_order_rep():
    with pytest.raises(PreconditionError):
        torsion_free_overgroup([U], [ANOSOV])


def test_torsion_free_certificate_excludes_torsion_box():
    cert = torsion_free_overgroup([U], torsion_class_table(2))
    image = modgrp.generate([modgrp.reduce(g, cert.m) for g in cert.gamma_gens])
    for g in unimodular_box(2, 3):
        order = torsion_order(g)
        if order is not None and order > 1:
            assert modgrp.reduce(g, cert.m) not in image


# ---------------------------------------------------------------------------
# certificates: serialization and verification
# ---------------------------------------------------------------------------


def test_roundtrip_separation():
    cert = avoid_conjugacy([U], NEG_I)
    text = dump_certificate(cert)
    parsed = parse_certificate(text)
    assert isinstance(parsed, SeparationCertificate)
    assert parsed == cert
    assert verify_certificate(text)


def test_roundtrip_torsion_free():
    cert = torsion_free_overgroup([U], torsion_class_table(2))
    text = dump_certificate(cert)
    parsed = parse_certificate(text)
    assert isinstance(parsed, TorsionFreeCertificate)
    assert parsed == cert
    assert verify_certificate(text)


@pytest.mark.parametrize("build", [
    lambda: avoid_conjugacy([U], NEG_I),
    lambda: torsion_free_overgroup([U], torsion_class_table(2)),
    lambda: torsion_free_overgroup(klein_bottle_lift(), torsion_class_table(3)),
], ids=["separation", "torsion-free-n2", "torsion-free-klein-n3"])
def test_parse_inverts_dump(build):
    cert = build()
    text = dump_certificate(cert)
    assert parse_certificate(text) == cert
    # a missing disjoint, in the certificate or in its evidence, reads as true
    data = json.loads(text)
    for record in [data] if "disjoint" in data else data["per_rep"]:
        del record["disjoint"]
    assert parse_certificate(data) == cert


def test_dump_deterministic():
    a = dump_certificate(avoid_conjugacy([U], NEG_I))
    b = dump_certificate(avoid_conjugacy([U], NEG_I))
    assert a == b


def test_verify_rejects_corrupted_digest():
    data = json.loads(dump_certificate(avoid_conjugacy([U], NEG_I)))
    data["image_digest"] = "0" * 64
    assert not verify_certificate(json.dumps(data))


def test_verify_rejects_wrong_modulus():
    data = json.loads(dump_certificate(avoid_conjugacy([U], NEG_I)))
    data["m"] = 2  # mod 2 the target is the identity, inside the image
    assert not verify_certificate(json.dumps(data))


def test_verify_rejects_wrong_sizes():
    data = json.loads(dump_certificate(avoid_conjugacy([U], NEG_I)))
    data["image_size"] += 1
    assert not verify_certificate(json.dumps(data))


def test_verify_rejects_tampered_per_rep():
    data = json.loads(dump_certificate(torsion_free_overgroup([U], torsion_class_table(2))))
    data["per_rep"][0]["class_digest"] = "f" * 64
    assert not verify_certificate(json.dumps(data))


def test_verify_expands_each_reduced_rep_once(monkeypatch):
    cert = torsion_free_overgroup(klein_bottle_lift(), torsion_class_table(3))
    reduced = [modgrp.reduce(e.rep, e.modulus) for e in cert.per_rep]
    assert len(set(reduced)) < len(reduced)  # the cache has repeats to serve
    expanded = []
    orbit_expand = modgrp._orbit_expand

    def recording(rep, cap, stop_inside=None):
        expanded.append(rep)
        return orbit_expand(rep, cap, stop_inside=stop_inside)

    monkeypatch.setattr(modgrp, "_orbit_expand", recording)
    assert verify_certificate(cert)
    assert len(expanded) == len(set(expanded)) and set(expanded) == set(reduced)
    # tampering with a representative whose class comes from the cache
    repeat = next(i for i, x in enumerate(reduced) if x in reduced[:i])
    data = json.loads(dump_certificate(cert))
    data["per_rep"][repeat]["class_digest"] = "f" * 64
    assert not verify_certificate(json.dumps(data))


def test_joint_image_builds_no_char_poly_index(monkeypatch):
    indexed = []
    cc_index = separate._cc_index

    def recording(image, keys):
        indexed.append(image.m)
        return cc_index(image, keys)

    monkeypatch.setattr(separate, "_cc_index", recording)
    cert = torsion_free_overgroup(klein_bottle_lift(), torsion_class_table(3))
    # one index per probed modulus; the joint modulus is never probed
    assert cert.m == 12
    assert indexed == [2, 3, 4]


def test_trace_prefilter_keeps_every_bucket():
    # an element skipped for its trace has no probed char poly: the buckets
    # equal the unfiltered build, on probe keys from the image and at random
    rng = random.Random(0x7ACE)
    built = 0
    for m in [*range(2, 13), 35]:
        for n in (1, 2, 3):
            gens = [random_gl_element(rng, n, 3) for _ in range(rng.randint(1, 2))]
            try:
                image = modgrp.congruence_image(gens, m, 3000, n=n)
            except ResourceError:
                continue
            built += 1
            elements = sorted(image.entry_tuples())
            probed = rng.sample(elements, min(3, len(elements)))
            keys = {modgrp.char_coeffs_mod(x, n, m) for x in probed}
            keys |= {tuple(rng.randrange(m) for _ in range(n)) for _ in range(3)}
            assert separate._cc_index(image, keys) == cc_index_reference(image, keys)
    assert built >= 30


def test_verify_rejects_per_rep_modulus_not_dividing():
    data = json.loads(dump_certificate(torsion_free_overgroup([U], torsion_class_table(2))))
    data["per_rep"][0]["modulus"] = 5
    assert not verify_certificate(json.dumps(data))


def test_malformed_certificate_distinguished():
    with pytest.raises(MalformedCertificateError):
        parse_certificate("{not json")
    with pytest.raises(MalformedCertificateError):
        parse_certificate(json.dumps({"version": 1, "kind": "separation"}))
    with pytest.raises(MalformedCertificateError):
        parse_certificate(json.dumps({"version": 99, "kind": "separation"}))


def test_verify_unknown_keys_tolerated():
    data = json.loads(dump_certificate(avoid_conjugacy([U], NEG_I)))
    data["comment"] = "extra annotations do not carry claims"
    assert verify_certificate(json.dumps(data))


def test_verify_resists_field_mutations():
    """Every single-field mutation of a valid certificate must fail closed:
    verification returns False or the parser rejects the schema."""
    base = json.loads(dump_certificate(avoid_conjugacy([U], NEG_I)))
    mutations = [
        ("m", 4),
        ("m", 9),
        ("n", 3),
        ("image_size", 2),
        ("class_size", 5),
        ("image_digest", "ab" * 32),
        ("class_digest", "cd" * 32),
        ("disjoint", False),
        ("eta", {"n": 2, "entries": [["1", "0"], ["0", "1"]]}),
        ("gamma_gens", []),
        ("kind", "torsion-free"),
        ("version", 2),
    ]
    for key, value in mutations:
        data = dict(base)
        data[key] = value
        try:
            assert verify_certificate(json.dumps(data)) is False, (key, value)
        except MalformedCertificateError:
            pass
    # a field of the wrong JSON type is a schema violation, never a claim
    # that recomputes: true == 1 and 1.0 == 1 in Python
    mistyped = [
        ("n", True),
        ("m", 3.0),
        ("class_size", True),
        ("class_size", 1.0),
        ("image_size", "2"),
        ("class_digest", None),
        ("disjoint", 1),
        ("version", True),
        ("version", 1.0),
        ("kind", []),
        ("kind", {}),
        # an empty string or object once read as an empty list of generators
        ("gamma_gens", ""),
        ("gamma_gens", {}),
    ]
    for key, value in mistyped:
        data = dict(base)
        data[key] = value
        with pytest.raises(MalformedCertificateError):
            verify_certificate(json.dumps(data))
    tf = json.loads(dump_certificate(torsion_free_overgroup([U], torsion_class_table(2))))
    for key, value in [("order", 2.0), ("modulus", True), ("disjoint", 1)]:
        data = json.loads(json.dumps(tf))
        data["per_rep"][0][key] = value
        with pytest.raises(MalformedCertificateError):
            verify_certificate(json.dumps(data))
    with pytest.raises(MalformedCertificateError):
        verify_certificate(json.dumps(dict(tf, table_version=1)))
    # at n = 1 a bool dimension even recomputed: every field matched
    one = json.loads(dump_certificate(
        avoid_conjugacy([IntegerMatrix([[1]])], IntegerMatrix([[-1]]))
    ))
    for data in (dict(one, n=True), dict(one, eta=dict(one["eta"], n=True))):
        with pytest.raises(MalformedCertificateError):
            verify_certificate(json.dumps(data))
