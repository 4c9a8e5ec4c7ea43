"""Acceptance suite: one test per criterion, exact tolerances throughout.

Every check is exact (arbitrary-precision arithmetic, zero tolerance);
"sampling" refers only to which elements are tested, never to approximate
comparisons.  Each test prints a single PASS line on success (visible with
``pytest -s`` or in the captured-output sections).
"""

import json
import random
import subprocess
import sys
import time

import pytest

from congrusep import modgrp, separate
from congrusep.cryst import AffineElement, CrystGroup, lift_to_gl
from congrusep.errors import ScheduleExhaustedError
from congrusep.exactlin import IntegerMatrix, RationalMatrix, smith_normal_form
from congrusep.jordan import jordan_decompose, torsion_order
from congrusep.separate import (
    avoid_conjugacy,
    dump_certificate,
    torsion_class_table,
    torsion_free_overgroup,
    verify_certificate,
)
from fractions import Fraction

from helpers import (
    is_squarefree,
    mat_mul_mod,
    min_poly,
    padic_level_image,
    random_gl_element,
    unimodular_box,
)

U = IntegerMatrix([[1, 1], [0, 1]])
NEG_I = IntegerMatrix([[-1, 0], [0, -1]])
ANOSOV = IntegerMatrix([[2, 1], [1, 1]])


def _report(num: int, message: str) -> None:
    print(f"ACCEPTANCE {num}: PASS - {message}")


def _klein_bottle() -> CrystGroup:
    return CrystGroup(
        m=2,
        generators=[
            AffineElement(t=(Fraction(1, 2), Fraction(0)), S=IntegerMatrix([[1, 0], [0, -1]])),
            AffineElement(t=(Fraction(0), Fraction(1)), S=IntegerMatrix.identity(2)),
        ],
        lattice=[[1, 0], [0, 1]],
    )


def test_criterion_1_jordan_axioms_on_1000_elements():
    rng = random.Random(0xACC1)
    start = time.monotonic()
    checked = 0
    for n, count in ((2, 400), (3, 300), (4, 300)):
        eye = RationalMatrix.identity(n)
        zero = RationalMatrix.zeros(n)
        for _ in range(count):
            g = random_gl_element(rng, n, word_len=6).to_rational()
            pair = jordan_decompose(g)
            s, u = pair.semisimple, pair.unipotent
            assert s * u == g
            assert s * u == u * s
            assert is_squarefree(min_poly(s))
            assert (u - eye) ** n == zero
            checked += 1
    elapsed = time.monotonic() - start
    assert checked == 1000
    assert elapsed < 60.0
    _report(1, f"1000 exact decompositions across n in {{2,3,4}} in {elapsed:.1f}s")


def test_criterion_2_conjugation_equivariance_200_pairs():
    rng = random.Random(0xACC2)
    for _ in range(200):
        n = rng.choice([2, 3, 4])
        g = random_gl_element(rng, n, word_len=5).to_rational()
        h = random_gl_element(rng, n, word_len=5).to_rational()
        h_inv = h.inverse()
        base = jordan_decompose(g)
        conj = jordan_decompose(h_inv * g * h)
        assert conj.semisimple == h_inv * base.semisimple * h
        assert conj.unipotent == h_inv * base.unipotent * h
    _report(2, "200 conjugated decompositions equal the conjugated factors exactly")


def test_criterion_3_flagship_separation_with_oracle():
    cert = avoid_conjugacy([U], NEG_I)
    assert cert.m == 3

    # independent oracle: enumerate all of GL(2, Z/3), close the image by
    # brute force, conjugate the target by every group element
    gl = []
    for a in range(3):
        for b in range(3):
            for c in range(3):
                for d in range(3):
                    if (a * d - b * c) % 3 in (1, 2):
                        gl.append((a, b, c, d))
    assert len(gl) == 48
    u_mod = (1, 1, 0, 1)
    image = {(1, 0, 0, 1)}
    while True:
        new = {mat_mul_mod(x, u_mod, 2, 3) for x in image} - image
        if not new:
            break
        image |= new
    eta_mod = (2, 0, 0, 2)

    def inverse_mod3(flat):
        a, b, c, d = flat
        det_inv = {1: 1, 2: 2}[(a * d - b * c) % 3]
        return tuple(v * det_inv % 3 for v in (d, -b % 3, -c % 3, a))

    orbit = {mat_mul_mod(mat_mul_mod(inverse_mod3(h), eta_mod, 2, 3), h, 2, 3) for h in gl}
    assert image.isdisjoint(orbit)
    assert cert.image_size == len(image) == 3
    assert cert.class_size == len(orbit) == 1

    # modulus 2 provably fails: the target reduces to the identity
    assert modgrp.reduce(NEG_I, 2) == modgrp.ModMatrix.identity(2, 2)
    with pytest.raises(ScheduleExhaustedError):
        avoid_conjugacy([U], NEG_I, [2])
    _report(3, "flagship certificate at m=3 confirmed by full enumeration; m=2 fails")


def test_criterion_4_theorem_conclusion_sampling():
    certificates = [
        avoid_conjugacy([U], NEG_I),
        avoid_conjugacy([IntegerMatrix([[1, 2], [0, 1]])], IntegerMatrix([[0, -1], [1, 0]])),
        avoid_conjugacy([], NEG_I),
    ]
    box = unimodular_box(2, 2)
    assert len(box) == 104  # the full determinant-±1 box with entries in [-2,2]
    for cert in certificates:
        image = modgrp.generate(
            [modgrp.reduce(g, cert.m) for g in cert.gamma_gens],
            n=cert.n,
            m=cert.m,
        )
        for h in box:
            conj = h.unimodular_inverse() * cert.eta * h
            assert modgrp.reduce(conj, cert.m) not in image
    _report(4, f"{len(certificates)} certificates x {len(box)} conjugators, zero exceptions")


def test_criterion_5_constructive_torsion_free_overgroup():
    start = time.monotonic()
    cert = torsion_free_overgroup([U], torsion_class_table(2))
    image = modgrp.generate([modgrp.reduce(g, cert.m) for g in cert.gamma_gens])
    scanned = 0
    for g in unimodular_box(2, 5):
        order = torsion_order(g)
        if order is None or order == 1:
            continue  # the identity lies in every congruence image
        scanned += 1
        assert modgrp.reduce(g, cert.m) not in image
    elapsed = time.monotonic() - start
    assert scanned > 100
    assert elapsed < 300.0
    _report(5, f"m={cert.m}; all {scanned} nontrivial torsion elements with"
               f" entries in [-5,5] excluded in {elapsed:.1f}s")


def test_criterion_6_crystallographic_base_case():
    # Klein bottle: reflection-component quotient of order 2; the Smith
    # oracle is the 1x1 matrix (-2)
    kb_factors = separate_components(_klein_bottle())
    refl = kb_factors[IntegerMatrix([[1, 0], [0, -1]])]
    oracle = smith_normal_form(IntegerMatrix([[-2]])).invariant_factors
    assert oracle == (2,)
    assert refl.invariant_factors == oracle
    assert refl.count == 2

    # symmorphic p4: the order-4 rotation component has quotient of order 2,
    # Smith oracle on rotation - identity
    p4 = CrystGroup(
        m=2,
        generators=[
            AffineElement(t=(0, 0), S=IntegerMatrix([[0, -1], [1, 0]])),
            AffineElement(t=(1, 0), S=IntegerMatrix.identity(2)),
            AffineElement(t=(0, 1), S=IntegerMatrix.identity(2)),
        ],
        lattice=[[1, 0], [0, 1]],
    )
    p4_factors = separate_components(p4)
    rot = p4_factors[IntegerMatrix([[0, -1], [1, 0]])]
    oracle = smith_normal_form(IntegerMatrix([[-1, -1], [1, -1]])).invariant_factors
    assert oracle == (1, 2)
    assert rot.invariant_factors == oracle
    assert rot.count == 2

    # stability under a random unimodular change of the declared basis
    rng = random.Random(0xACC6)
    for group_builder, expected in (
        (lambda rows: CrystGroup(
            m=2,
            generators=[
                AffineElement(t=(Fraction(1, 2), Fraction(0)), S=IntegerMatrix([[1, 0], [0, -1]])),
                AffineElement(t=(Fraction(0), Fraction(1)), S=IntegerMatrix.identity(2)),
            ],
            lattice=rows,
        ), (2,)),
    ):
        for _ in range(3):
            t = random_gl_element(rng, 2)
            changed = group_builder([list(r) for r in t.entries])
            comp = separate_components(changed)[IntegerMatrix([[1, 0], [0, -1]])]
            assert comp.invariant_factors == expected
            assert comp.count == 2
    _report(6, "Klein bottle and p4 quotients match their Smith oracles,"
               " stable under lattice basis change")


def separate_components(group):
    from congrusep.cryst import semifactor_representatives

    return {c.S: c for c in semifactor_representatives(group).components}


def test_criterion_7_pipeline_and_fresh_process_verification(tmp_path):
    emb = lift_to_gl(_klein_bottle())
    table = torsion_class_table(3)
    cert = torsion_free_overgroup(list(emb.generators), table)
    text = dump_certificate(cert)

    cert_path = tmp_path / "pipeline-cert.json"
    cert_path.write_text(text)
    result = subprocess.run(
        [sys.executable, "-m", "congrusep.cli", "torsion-free",
         "--verify-only", str(cert_path)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr

    # byte-exact reproducibility of the whole pipeline
    emb2 = lift_to_gl(_klein_bottle())
    cert2 = torsion_free_overgroup(list(emb2.generators), torsion_class_table(3))
    assert dump_certificate(cert2) == text
    _report(7, f"embedded Klein bottle certificate (m={cert.m}) re-verified in a"
               " fresh process, byte-identical on a re-run")


def test_criterion_8_tower_of_two_adic_images():
    sizes = []
    previous = None
    for level in range(1, 5):
        image = padic_level_image([U], 2, level)
        sizes.append(image.size)
        if previous is not None:
            projected = {
                tuple(v % 2 ** (level - 1) for v in x) for x in image.entry_tuples()
            }
            assert projected == set(previous.entry_tuples())
        previous = image
    assert sizes == [2, 4, 8, 16]
    _report(8, "levels 1..4 have sizes 2,4,8,16 and each projects onto the last")


def test_criterion_9_negative_control_schedule_exhaustion(tmp_path):
    # generated by an infinite-order semisimple element containing the
    # target: separation is impossible, the search must exhaust, and no
    # certificate may be emitted
    with pytest.raises(ScheduleExhaustedError) as info:
        avoid_conjugacy([ANOSOV], ANOSOV, [2, 3, 4, 5, 7, 8, 9])
    assert info.value.largest_tried == 9

    out_path = tmp_path / "never-written.json"
    result = subprocess.run(
        [sys.executable, "-m", "congrusep.cli", "avoid",
         json.dumps([ANOSOV.to_json_dict()]), json.dumps(ANOSOV.to_json_dict()),
         "--modulus-schedule", "2,3,4,5,7,8,9",
         "--output", str(out_path)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 4
    assert not out_path.exists()
    assert "NOT virtually unipotent" in result.stderr
    _report(9, "non-virtually-unipotent fixture exhausts the schedule with"
               " exit code 4 and emits nothing")
