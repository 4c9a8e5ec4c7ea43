import hashlib
import json
import subprocess
import sys

import pytest

from congrusep import cryst, jordan, modgrp
from congrusep.cli import build_parser, main
from congrusep.exactlin import RationalMatrix

U_GENS = '[{"n":2,"entries":[["1","1"],["0","1"]]}]'
NEG_I = '{"n":2,"entries":[["-1","0"],["0","-1"]]}'
ETA_ORDER_4 = '{"n":2,"entries":[["0","-1"],["1","0"]]}'
KLEIN = json.dumps(
    {
        "m": 2,
        "lattice": [["1", "0"], ["0", "1"]],
        "generators": [
            {"t": ["1/2", "0"], "S": [[1, 0], [0, -1]]},
            {"t": ["0", "1"], "S": [[1, 0], [0, 1]]},
        ],
    }
)


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# jordan
# ---------------------------------------------------------------------------


def test_jordan_command(capsys):
    code, out, _ = run_cli(["jordan", '{"n":2,"entries":[["-1","1"],["0","-1"]]}'], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["semisimple"]["entries"] == [["-1", "0"], ["0", "-1"]]
    assert data["unipotent"]["entries"] == [["1", "-1"], ["0", "1"]]
    assert data["is_semisimple"] is False
    assert data["torsion_order"] is None


def test_jordan_identity(capsys):
    code, out, _ = run_cli(["jordan", '{"n":2,"entries":[["1","0"],["0","1"]]}'], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["is_semisimple"] and data["is_unipotent"]
    assert data["torsion_order"] == 1


def test_jordan_singular_exit_code(capsys):
    code, _, err = run_cli(["jordan", '{"n":2,"entries":[["1","1"],["1","1"]]}'], capsys)
    assert code == 3
    assert "singular" in err


def test_jordan_invalid_json_exit_code(capsys):
    code, _, _ = run_cli(["jordan", '{"n":2,"entries":[[1.5,0],[0,1]]}'], capsys)
    assert code == 2


@pytest.mark.parametrize("rows", [
    [["1", "1"], ["0", "1"]],
    [["0", "-1"], ["1", "0"]],
    [["-1", "1"], ["0", "-1"]],
    [["2", "0", "0"], ["0", "1/2", "1"], ["0", "0", "1/2"]],
    [["1", "1", "0"], ["0", "1", "1"], ["0", "0", "1"]],
    [["3", "0"], ["0", "1/3"]],
])
def test_jordan_predicates_match_the_direct_decisions(rows, capsys):
    arg = json.dumps({"n": len(rows), "entries": rows})
    code, out, _ = run_cli(["jordan", arg], capsys)
    mat = RationalMatrix.from_json_dict(json.loads(arg))
    assert code == 0
    data = json.loads(out)
    assert data["is_semisimple"] is jordan.is_semisimple(mat)
    assert data["is_unipotent"] is jordan.is_unipotent(mat)


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_unwritable_output_exits_2(where, capsys, tmp_path):
    path = tmp_path / "missing" / "x.json" if where == "missing-directory" else tmp_path
    code, out, err = run_cli(["jordan", NEG_I, "--output", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# avoid
# ---------------------------------------------------------------------------


def test_avoid_flagship(capsys, tmp_path):
    out_file = tmp_path / "cert.json"
    code, _, _ = run_cli(["avoid", U_GENS, NEG_I, "--output", str(out_file)], capsys)
    assert code == 0
    cert = json.loads(out_file.read_text())
    assert cert["m"] == 3 and cert["kind"] == "separation"


def test_avoid_verify_only_roundtrip(capsys, tmp_path):
    out_file = tmp_path / "cert.json"
    run_cli(["avoid", U_GENS, NEG_I, "--output", str(out_file)], capsys)
    code, _, _ = run_cli(["avoid", "--verify-only", str(out_file)], capsys)
    assert code == 0


def test_avoid_verify_only_tampered(capsys, tmp_path):
    out_file = tmp_path / "cert.json"
    run_cli(["avoid", U_GENS, NEG_I, "--output", str(out_file)], capsys)
    data = json.loads(out_file.read_text())
    data["class_digest"] = "0" * 64
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, _, err = run_cli(["avoid", "--verify-only", str(bad)], capsys)
    assert code == 5
    assert "verification failed" in err


SEMIPRIME = 1000000007 * 998244353


def _semiprime_certificate(eta: str, class_digest: str) -> dict:
    m = SEMIPRIME
    return {
        "version": 1,
        "kind": "separation",
        "n": 2,
        "m": m,
        "gamma_gens": [],
        "eta": json.loads(eta),
        "image_size": 1,
        "image_digest": modgrp.elements_digest(2, m, [modgrp.ModMatrix.identity(2, m).entries]),
        "class_size": 1,
        "class_digest": class_digest,
        "disjoint": True,
    }


def test_avoid_verify_only_semiprime_modulus_is_bounded(tmp_path):
    # no generators, so only GL(2, Z/m)'s generators need m factored; a
    # non-scalar eta, as a scalar's class is itself and needs none
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(_semiprime_certificate(ETA_ORDER_4, "0" * 64)))
    assert len(cert_path.read_bytes()) < 500
    result = subprocess.run(
        [sys.executable, "-m", "congrusep.cli", "avoid", "--verify-only", str(cert_path)],
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert result.returncode == 4
    assert "cannot factor" in result.stderr


def test_scalar_eta_class_needs_no_factoring(tmp_path):
    # the class of -I is {-I} at any modulus, with no generator of GL(2, Z/m)
    minus_one = modgrp.ModMatrix(2, SEMIPRIME, [-1, 0, 0, -1]).entries
    for digest, code in ((modgrp.elements_digest(2, SEMIPRIME, [minus_one]), 0), ("0" * 64, 5)):
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps(_semiprime_certificate(NEG_I, digest)))
        result = _fresh_cli("avoid", "--verify-only", str(cert_path))
        assert result.returncode == code, result.stderr


def _fresh_cli(*args):
    return subprocess.run([sys.executable, "-m", "congrusep.cli", *args],
                          capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("entry", ["1e5000", "1e10000000"])
def test_exponent_entries_exit_2_before_any_arithmetic(entry):
    # Fraction would read these as 10^5000 and 10^10000000: the first has
    # more digits than the interpreter prints, the second takes seconds
    result = _fresh_cli("witness-prime", f'{{"n":1,"entries":[["{entry}"]]}}', "[]")
    assert result.returncode == 2
    assert "cannot parse exact entry" in result.stderr and "Traceback" not in result.stderr


def test_fraction_and_integer_entries_still_parse(capsys):
    code, out, _ = run_cli(["jordan", '{"n":2,"entries":[["1/2",0],["-3",1]]}'], capsys)
    assert code == 0
    assert json.loads(out)["semisimple"]["entries"][0][0] == "1/2"


def test_cannot_factor_a_cofactor_too_long_to_print():
    # the Mersenne primes 2^9689 - 1 and 2^9941 - 1 as denominators (2,917
    # and 2,993 digits): their product has no prime factor that trial
    # division reaches, and more digits than the interpreter prints
    a, b = str(2**9689 - 1), str(2**9941 - 1)
    factor = json.dumps({"n": 2, "entries": [["1/" + a, "0"], ["0", "1/" + b]]})
    result = _fresh_cli("witness-prime", factor, "[]")
    assert result.returncode == 4
    assert "cannot factor a 19630-bit integer" in result.stderr
    assert "Traceback" not in result.stderr


def test_denominator_witness_needs_only_the_least_prime():
    # two 3,000-digit denominators, 7...7 and 9...97: 3 divides 7...7, so
    # the cofactor of their lcm, which trial division cannot factor, is
    # never reached
    seven, nine = "7" * 3000, "9" * 2999 + "7"
    factor = json.dumps({"n": 2, "entries": [["1/" + seven, "0"], ["0", "1/" + nine]]})
    result = _fresh_cli("witness-prime", factor, "[]")
    assert result.returncode == 0, result.stderr
    data = json.loads(result.stdout)
    assert (data["prime"], data["level"], data["reason"]) == (3, 0, "denominator")


def test_eta_determinant_too_long_to_print_exits_3():
    nines = "9" * 3000
    eta = json.dumps({"n": 2, "entries": [[nines, "0"], ["0", nines]]})
    result = _fresh_cli("avoid", U_GENS, eta)
    assert result.returncode == 3
    assert "eta has det a 19932-bit integer" in result.stderr
    assert "Traceback" not in result.stderr


ONE_GENS = '[{"n":1,"entries":[["1"]]}]'
ONE_NEG = '{"n":1,"entries":[["-1"]]}'


@pytest.mark.parametrize("args, path, value", [
    (["avoid", U_GENS, NEG_I], ["class_size"], True),
    (["avoid", U_GENS, NEG_I], ["class_size"], 1.0),
    (["avoid", U_GENS, NEG_I], ["disjoint"], 1),
    (["avoid", ONE_GENS, ONE_NEG], ["n"], True),
    (["avoid", ONE_GENS, ONE_NEG], ["eta", "n"], True),
    (["torsion-free", U_GENS], ["per_rep", 0, "order"], 2.0),
], ids=["size-true", "size-float", "disjoint-int", "n-true", "eta-n-true", "order-float"])
def test_verify_only_mistyped_field_exit_code(capsys, tmp_path, args, path, value):
    # true == 1 and 2.0 == 2 in Python: each of these certificates used to
    # verify (exit 0)
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    data = json.loads(out)
    field = data
    for key in path[:-1]:
        field = field[key]
    field[path[-1]] = value
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(data))
    code, _, err = run_cli([args[0], "--verify-only", str(cert)], capsys)
    assert code == 2
    assert "must be a" in err


def test_avoid_verify_only_malformed(capsys, tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{")
    code, _, _ = run_cli(["avoid", "--verify-only", str(bad)], capsys)
    assert code == 2


def test_avoid_exhaustion_exit_code(capsys):
    anosov = '[{"n":2,"entries":[["2","1"],["1","1"]]}]'
    eta = '{"n":2,"entries":[["2","1"],["1","1"]]}'
    code, _, err = run_cli(
        ["avoid", anosov, eta, "--modulus-schedule", "2,3,4,5"], capsys
    )
    assert code == 4
    assert "no separating modulus" in err


UL_GENS = (
    '[{"n":2,"entries":[["1","1"],["0","1"]]},{"n":2,"entries":[["1","0"],["1","1"]]}]'
)
NOT_VU = (
    "warning: generators are NOT virtually unipotent; the separation search may"
    " exhaust its schedule\n"
)


@pytest.mark.parametrize("args, line", [
    (["torsion-free", UL_GENS], "error: no modulus in schedule separates a"
     " representative of order 2 (largest tried: 5)\n"),
    (["avoid", UL_GENS, NEG_I], "error: no separating modulus found in schedule"
     " (largest tried: 5)\n"),
], ids=["torsion-free", "avoid"])
def test_schedule_exhaustion_lines_are_pinned(capsys, args, line):
    # -I lies in SL(2, Z/m) for every m, so neither search can separate it
    code, out, err = run_cli(args + ["--modulus-schedule", "3,4,5"], capsys)
    assert (code, out, err) == (4, "", NOT_VU + line)


UNITRIANGULAR4 = json.dumps([
    {"n": 4, "entries": [[int(i == j or (i, j) == (a, b)) for j in range(4)] for i in range(4)]}
    for a in range(4)
    for b in range(a + 1, 4)
])
# two blocks of order 3: the image mod 2, a 2-group, misses their class
ETA_ORDER_3 = '{"n":4,"entries":[[0,-1,0,0],[1,-1,0,0],[0,0,0,-1],[0,0,1,-1]]}'


@pytest.mark.parametrize("cap, note", [
    ("700", "note: virtual unipotency not decided: the mod-3 image exceeds --element-cap\n"),
    ("729", "note: generators are virtually unipotent\n"),
], ids=["not-decided", "decided"])
def test_avoid_vu_note_is_advisory_under_the_element_cap(capsys, cap, note):
    # the mod-3 image has 729 elements, below B(4): a smaller cap leaves the
    # advisory decision open, and neither note changes the certificate or
    # the exit code
    code, out, err = run_cli(["avoid", UNITRIANGULAR4, ETA_ORDER_3, "--element-cap", cap], capsys)
    assert (code, err) == (0, note)
    assert json.loads(out)["m"] == 2


def test_avoid_nonsemisimple_eta_exit_code(capsys):
    code, _, _ = run_cli(["avoid", U_GENS, '{"n":2,"entries":[["1","2"],["0","1"]]}'], capsys)
    assert code == 3


def test_avoid_bad_schedule_exit_code(capsys):
    for schedule, message in [("5,3", "strictly increasing"), (",", "empty"), ("", "empty")]:
        code, out, err = run_cli(
            ["avoid", U_GENS, NEG_I, "--modulus-schedule", schedule], capsys
        )
        assert (code, out) == (2, "")
        assert message in err


MIXED_GENS = '[{"n":2,"entries":[[1,1],[0,1]]},{"n":3,"entries":[[1,0,0],[0,1,0],[0,0,1]]}]'


@pytest.mark.parametrize("args", [["avoid", MIXED_GENS, NEG_I], ["torsion-free", MIXED_GENS]])
def test_mixed_dimension_generators_exit_code(capsys, args):
    code, out, err = run_cli(args, capsys)
    assert code == 2 and out == ""
    assert "generators of mixed dimension" in err


def test_avoid_deterministic_output(capsys):
    code1, out1, _ = run_cli(["avoid", U_GENS, NEG_I], capsys)
    code2, out2, _ = run_cli(["avoid", U_GENS, NEG_I], capsys)
    assert code1 == code2 == 0
    assert out1 == out2


def test_avoid_full_dump(capsys):
    code, out, _ = run_cli(["avoid", U_GENS, NEG_I, "--full"], capsys)
    assert code == 0
    data = json.loads(out)
    assert len(data["image_elements"]) == data["image_size"]
    assert len(data["class_elements"]) == data["class_size"]


def test_avoid_full_digests_each_object_once(capsys, monkeypatch):
    digested = []
    digest = modgrp.elements_digest

    def counting(n, m, elements):
        digested.append(m)
        return digest(n, m, elements)

    monkeypatch.setattr(modgrp, "elements_digest", counting)
    code, out, _ = run_cli(["avoid", U_GENS, NEG_I, "--full"], capsys)
    assert code == 0
    assert len(digested) == 2  # the search's image and class; the rows add none
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "fc87a700ab1ee21b24036f607cc1cf2d27076124d5337b392586d93b99ab6844"
    )


# ---------------------------------------------------------------------------
# torsion-free
# ---------------------------------------------------------------------------


def test_torsion_free_builtin_table(capsys, tmp_path):
    out_file = tmp_path / "tf.json"
    code, _, _ = run_cli(["torsion-free", U_GENS, "--output", str(out_file)], capsys)
    assert code == 0
    cert = json.loads(out_file.read_text())
    assert cert["kind"] == "torsion-free"
    assert cert["table_version"] == "builtin-n2-v1"
    code, _, _ = run_cli(["torsion-free", "--verify-only", str(out_file)], capsys)
    assert code == 0


@pytest.mark.parametrize("rep", [[["2", "0"], ["0", "1"]], [["0", "0"], ["0", "0"]]],
                         ids=["det-2", "zero"])
def test_torsion_free_verify_only_rep_outside_gl_fails(capsys, tmp_path, rep):
    # a representative outside GL(n, Z) has no torsion order: the
    # certificate fails verification instead of raising a precondition error.
    # A custom table, so that no built-in table refuses the edited row first
    out_file = tmp_path / "tf.json"
    code, _, _ = run_cli(["torsion-free", U_GENS, "--output", str(out_file)], capsys)
    assert code == 0
    cert = json.loads(out_file.read_text())
    assert cert["torsion_reps"][0]["entries"] == [["1", "0"], ["0", "1"]]
    cert["torsion_reps"][0]["entries"] = rep
    cert["table_version"] = "custom"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cert))
    code, out, _ = run_cli(["torsion-free", "--verify-only", str(bad)], capsys)
    assert (code, out) == (5, "")


@pytest.mark.parametrize("edit, expected", [
    (lambda cert: cert, 0),
    (lambda cert: dict(cert, torsion_reps=[], per_rep=[]), 5),
    (lambda cert: dict(cert, torsion_reps=cert["torsion_reps"][1:]), 5),  # no identity
    (lambda cert: dict(cert, torsion_reps=cert["torsion_reps"][::-1]), 5),
], ids=["intact", "stripped", "subset", "reordered"])
def test_torsion_free_verify_only_checks_the_builtin_table(capsys, tmp_path, edit, expected):
    # each edit keeps the evidence consistent with the representatives, so
    # only the table named by table_version can tell the certificate wrong
    out_file = tmp_path / "tf.json"
    code, _, _ = run_cli(["torsion-free", U_GENS, "--output", str(out_file)], capsys)
    assert code == 0
    cert = json.loads(out_file.read_text())
    assert cert["table_version"] == "builtin-n2-v1"
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(edit(cert)))
    code, _, _ = run_cli(["torsion-free", "--verify-only", str(edited)], capsys)
    assert code == expected
    relabelled = tmp_path / "custom.json"
    relabelled.write_text(json.dumps(dict(edit(cert), table_version="custom")))
    code, _, _ = run_cli(["torsion-free", "--verify-only", str(relabelled)], capsys)
    assert code == 0  # a custom table is checked against nothing


def test_torsion_free_no_builtin_table_dim4(capsys):
    gens = json.dumps(
        [{"n": 4, "entries": [[str(int(i == j)) for j in range(4)] for i in range(4)]}]
    )
    code, _, err = run_cli(["torsion-free", gens], capsys)
    assert code == 2
    assert "no builtin torsion table" in err


def test_torsion_free_custom_reps_with_infinite_order(capsys, tmp_path):
    reps = tmp_path / "reps.json"
    reps.write_text('[{"n":2,"entries":[["1","1"],["0","1"]]}]')
    code, _, err = run_cli(["torsion-free", U_GENS, "--reps", str(reps)], capsys)
    assert code == 2
    assert "infinite order" in err


def test_torsion_free_custom_reps(capsys, tmp_path):
    reps = tmp_path / "reps.json"
    reps.write_text('[{"n":2,"entries":[["-1","0"],["0","-1"]]}]')
    code, out, _ = run_cli(["torsion-free", U_GENS, "--reps", str(reps)], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["table_version"] == "custom"
    assert data["m"] == 3


# ---------------------------------------------------------------------------
# semifactors
# ---------------------------------------------------------------------------


def test_semifactors_klein_bottle(capsys):
    code, out, _ = run_cli(["semifactors", KLEIN], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["total"] == 3
    by_S = {json.dumps(c["S"]): c for c in data["components"]}
    refl = by_S[json.dumps([[1, 0], [0, -1]])]
    assert refl["invariant_factors"] == [2]
    assert refl["quotient_order"] == 2


def test_semifactors_torus(capsys):
    torus = json.dumps(
        {
            "m": 2,
            "lattice": [["1", "0"], ["0", "1"]],
            "generators": [
                {"t": ["1", "0"], "S": [[1, 0], [0, 1]]},
                {"t": ["0", "1"], "S": [[1, 0], [0, 1]]},
            ],
        }
    )
    code, out, _ = run_cli(["semifactors", torus], capsys)
    assert code == 0
    assert json.loads(out)["total"] == 1


def test_semifactors_infinite_holonomy_exit_code(capsys):
    shear = json.dumps(
        {
            "m": 2,
            "lattice": [["1", "0"], ["0", "1"]],
            "generators": [{"t": ["0", "0"], "S": [[1, 1], [0, 1]]}],
        }
    )
    code, _, err = run_cli(["semifactors", shear], capsys)
    assert code == 2
    assert "base case" in err


def test_semifactors_infinite_holonomy_closure_exit_code(capsys):
    # two holonomy generators of order 2 whose product is the shear [[1, 1], [0, 1]]
    group = json.dumps(
        {
            "m": 2,
            "lattice": [["1", "0"], ["0", "1"]],
            "generators": [
                {"t": ["0", "0"], "S": [[-1, 1], [0, 1]]},
                {"t": ["0", "0"], "S": [[-1, 0], [0, 1]]},
            ],
        }
    )
    code, _, err = run_cli(["semifactors", group], capsys)
    assert code == 2
    assert "holonomy is not finite" in err


def _cryst_group(generators, lattice=(("1", "0"), ("0", "1"))):
    return json.dumps(
        {
            "m": len(lattice),
            "lattice": [list(row) for row in lattice],
            "generators": [{"t": list(t), "S": s} for t, s in generators],
        }
    )


ID2 = [[1, 0], [0, 1]]

# stdout SHA-256 of `semifactors`, recorded before the translation lattice
# came from Schreier generators instead of a bounded word scan
SEMIFACTOR_DIGESTS = [
    (KLEIN, "072317e39ca59d4f8f18dc9619859fd6b7d0a968adf4b140fa60d90381712df2"),
    (  # p4
        _cryst_group([(("0", "0"), [[0, -1], [1, 0]]), (("1", "0"), ID2), (("0", "1"), ID2)]),
        "5e23c3ed31516de9c56b24e762c87f8fb921493fa7c4a166c8e0f5cb2f6425d4",
    ),
    (  # torus
        _cryst_group([(("1", "0"), ID2), (("0", "1"), ID2)]),
        "08865b78609d51520ff07c19f134884f9d922e34f8477b6fc0ad2790ff25c0c8",
    ),
    (  # p6
        _cryst_group([(("0", "0"), [[0, -1], [1, 1]]), (("1", "0"), ID2)]),
        "bc61d504083dd74bce1391ba66c81ce70800638cc76fe6e45550e3c71351be5e",
    ),
]


@pytest.mark.parametrize("group, digest", SEMIFACTOR_DIGESTS,
                         ids=["klein", "p4", "torus", "p6"])
def test_semifactors_bytes_pinned(group, digest, capsys):
    code, out, _ = run_cli(["semifactors", group], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# a cubic group with holonomy of order 48 whose translation (2, -1/2, 1/2)
# is first reached by a word of length 10
CUBIC_GENERATORS = [
    (("3/4", "3/4", "1/4"), [[0, 0, -1], [0, 1, 0], [1, 0, 0]]),
    (("1/2", "1/4", "3/4"), [[1, 0, 0], [0, 0, 1], [0, 1, 0]]),
]


def test_semifactors_exact_lattice_of_cubic_group(capsys):
    true_lattice = (("1/2", "0", "1/2"), ("0", "1/2", "1/2"), ("0", "0", "1"))
    code, out, _ = run_cli(["semifactors", _cryst_group(CUBIC_GENERATORS, true_lattice)],
                           capsys)
    assert code == 0
    assert (hashlib.sha256(out.encode()).hexdigest()
            == "b2eb9dae61fc82662cf4d80823edd213e4ab98339f9f0e050ac76ad6a373eb02")
    unit = (("1", "0", "0"), ("0", "1", "0"), ("0", "0", "1"))
    code, out, err = run_cli(["semifactors", _cryst_group(CUBIC_GENERATORS, unit)], capsys)
    assert code == 2 and out == ""
    assert "group contains translations outside the declared lattice" in err


P6M = _cryst_group([(("0", "0"), [[0, -1], [1, 1]]), (("0", "0"), [[0, 1], [1, 0]]),
                    (("1", "0"), ID2)])


def test_semifactors_holonomy_over_budget_exits_4(capsys, monkeypatch):
    # the holonomy D6 has 12 = F(2) elements: a budget of 10 decides nothing
    monkeypatch.setattr(cryst, "HOLONOMY_BUDGET", 10)
    code, out, err = run_cli(["semifactors", P6M], capsys)
    assert (code, out) == (4, "")
    assert err == "error: element budget 10 exceeded while closing the holonomy\n"


def _klein_with(**fields):
    data = json.loads(KLEIN)
    data.update(fields)
    return json.dumps(data)


def _klein_translation(**fields):
    translation = {"t": ["0", "1"], "S": ID2, **fields}
    return _klein_with(generators=[{"t": ["1/2", "0"], "S": [[1, 0], [0, -1]]}, translation])


@pytest.mark.parametrize("group", [
    _klein_with(m=True),
    _klein_translation(t="01"),
    _klein_with(lattice=["10", "01"]),
    _klein_translation(t={"0": 0, "1": 0}),
    _klein_translation(t=5),
    _klein_with(lattice=[5, 6]),
    _klein_translation(t=["1/2", "0", "0"]),
    _klein_translation(S=[[1, 0]]),
    _klein_with(generators=[{"t": ["0", "0", "1"], "S": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}]),
], ids=["m-bool", "t-string", "lattice-strings", "t-object", "t-int", "lattice-ints",
        "t-too-long", "S-not-square", "generator-dimension"])
def test_semifactors_malformed_group_exits_2(group, capsys):
    code, out, err = run_cli(["semifactors", group], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")


# ---------------------------------------------------------------------------
# witness-prime
# ---------------------------------------------------------------------------


def test_witness_prime_denominator(capsys):
    factor = '{"n":2,"entries":[["1/2","0"],["0","2"]]}'
    code, out, _ = run_cli(["witness-prime", factor, U_GENS], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["prime"] == 2 and data["reason"] == "denominator"


def test_witness_prime_image_escape(capsys):
    code, out, _ = run_cli(["witness-prime", NEG_I, U_GENS], capsys)
    assert code == 0
    data = json.loads(out)
    assert (data["prime"], data["level"], data["reason"]) == (3, 1, "image-escape")


@pytest.mark.parametrize("diagonal, prime", [(("2", "2"), 2), (("3", "1"), 3)])
def test_witness_prime_determinant_not_a_unit(capsys, diagonal, prime):
    # p | det: the reduction mod p is not in GL(n, Z/p), so it escapes every
    # image at level 1; diag(3, 1) is I mod 2, which every image contains
    a, d = diagonal
    factor = json.dumps({"n": 2, "entries": [[a, "0"], ["0", d]]})
    code, out, err = run_cli(["witness-prime", factor, U_GENS], capsys)
    assert (code, err) == (0, "")
    data = json.loads(out)
    assert (data["prime"], data["level"], data["reason"]) == (prime, 1, "image-escape")


def test_witness_prime_exhaustion_exit_code(capsys):
    identity = '{"n":2,"entries":[["1","0"],["0","1"]]}'
    code, out, err = run_cli(["witness-prime", identity, U_GENS], capsys)
    assert code == 4
    assert out == ""
    # the benchmark's padic-exhaust gate parses this line
    assert err == "error: no witness prime at levels <= 4 for primes [2, 3, 5, 7, 11, 13, 17, 19, 23]\n"


def test_witness_prime_element_cap_bounds_level_one_images(capsys):
    # the cap bounds the level-1 images (at most 23 elements here) and the
    # Schreier generators, not the images at p^K, so 1000 suffices where
    # the 23^4-element image would not
    identity = '{"n":2,"entries":[["1","0"],["0","1"]]}'
    code, out, err = run_cli(
        ["witness-prime", identity, U_GENS, "--element-cap", "1000"], capsys
    )
    assert (code, out) == (4, "")
    assert err == "error: no witness prime at levels <= 4 for primes [2, 3, 5, 7, 11, 13, 17, 19, 23]\n"
    code, out, err = run_cli(
        ["witness-prime", identity, U_GENS, "--element-cap", "22"], capsys
    )
    assert (code, out) == (4, "")
    assert err == "error: element budget 22 exceeded while generating subgroup\n"


# ---------------------------------------------------------------------------
# fresh-process behavior
# ---------------------------------------------------------------------------


def test_verify_in_fresh_process(tmp_path):
    cert_path = tmp_path / "cert.json"
    code = main(["avoid", U_GENS, NEG_I, "--output", str(cert_path)])
    assert code == 0
    result = subprocess.run(
        [sys.executable, "-m", "congrusep.cli", "avoid", "--verify-only", str(cert_path)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0


def test_one_process_answers_each_call_as_a_fresh_process_would(capsys):
    # main shares one parser across calls; a bad call must leave it as built
    calls = [
        ["torsion-free", U_GENS, "--full"],
        ["avoid", U_GENS, NEG_I],
        ["torsion-free", U_GENS],
        ["witness-prime", NEG_I, U_GENS],
    ]
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        fresh = subprocess.run(
            [sys.executable, "-m", "congrusep.cli", *argv],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)
    assert code == 0 and build_parser() is build_parser()


def test_byte_identical_across_processes(tmp_path):
    runs = []
    for _ in range(2):
        result = subprocess.run(
            [sys.executable, "-m", "congrusep.cli", "semifactors", KLEIN],
            capture_output=True,
        )
        assert result.returncode == 0
        runs.append(result.stdout)
    assert runs[0] == runs[1]


# ---------------------------------------------------------------------------
# flags
# ---------------------------------------------------------------------------

JORDAN_M = '{"n":2,"entries":[["-1","1"],["0","-1"]]}'


def test_unread_flags_exit_2():
    for argv in (["jordan", JORDAN_M, "--full"], ["torsion-free", U_GENS, "--full"]):
        result = subprocess.run(
            [sys.executable, "-m", "congrusep.cli", *argv],
            capture_output=True,
            text=True,
            timeout=30,
        )
        assert result.returncode == 2
        assert result.stdout == ""
        assert "unrecognized arguments: --full" in result.stderr


@pytest.mark.parametrize("command, args, flag", [
    (command, args, flag)
    for command, args, flags in [
        ("jordan", [JORDAN_M], ["--element-cap=9", "--word-length=3", "--full", "-v"]),
        ("semifactors", [KLEIN], ["--element-cap=9", "--word-length=3", "--full", "-v"]),
        ("witness-prime", [NEG_I, U_GENS], ["--word-length=3", "--full", "-v"]),
        ("torsion-free", [U_GENS], ["--full"]),
        ("avoid", [U_GENS, NEG_I], ["--word-length=3"]),
        ("torsion-free", [U_GENS], ["--word-length=3"]),
    ]
    for flag in flags
])
def test_subcommands_register_only_the_flags_they_read(command, args, flag):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([command, *args, flag])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# JSON readers: every way decoding fails exits 2
# ---------------------------------------------------------------------------

# past the interpreter's default limit of 4,300 digits for int(str)
HUGE_INT = "9" * 5000
DEEP_ARRAY = "[" * 100_000 + "]" * 100_000


def _certificate_with_huge_n(capsys, tmp_path):
    cert = tmp_path / "cert.json"
    run_cli(["avoid", U_GENS, NEG_I, "--output", str(cert)], capsys)
    text = cert.read_text().replace('"n":2', f'"n":{HUGE_INT}', 1)
    assert HUGE_INT in text
    cert.write_text(text)
    return cert


@pytest.mark.parametrize("make", [
    lambda capsys, tmp_path: ["jordan", str(_write(tmp_path, HUGE_INT.encode()))],
    lambda capsys, tmp_path: ["avoid", "--verify-only", str(_certificate_with_huge_n(capsys, tmp_path))],
    lambda capsys, tmp_path: ["jordan", DEEP_ARRAY],
    lambda capsys, tmp_path: ["avoid", "--verify-only", str(_write(tmp_path, DEEP_ARRAY.encode()))],
    lambda capsys, tmp_path: ["avoid", "--verify-only", str(_write(tmp_path, b'{"n": "\xff"}'))],
    lambda capsys, tmp_path: ["witness-prime", NEG_I, str(_write(tmp_path, b"[\xff]"))],
], ids=["huge-int-argument", "huge-int-certificate", "deep-argument", "deep-certificate",
        "non-utf8-certificate", "non-utf8-argument"])
def test_json_decoding_failures_exit_2(make, capsys, tmp_path):
    argv = make(capsys, tmp_path)
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "\n" == err[-1] and err.count("\n") == 1


def _write(tmp_path, data: bytes):
    path = tmp_path / "input.json"
    path.write_bytes(data)
    return path
