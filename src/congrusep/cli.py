"""Command-line interface: one binary, five subcommands, JSON in and out.

Exit codes are a stable contract:

    0  success
    2  input error (bad JSON, bad shapes, missing tables, malformed certificate,
       an unreadable input or an --output path that cannot be written)
    3  mathematical precondition failure (singular matrix, non-semisimple target, ...)
    4  budget or schedule exhaustion
    5  certificate verification failure

Outputs are canonical JSON (sorted keys, compact separators, one trailing
newline) and are byte-identical across repeated runs with the same inputs.
Nothing in the core algorithms is randomized.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import dataclass

from . import cryst, jordan, modgrp, separate
from .errors import (
    InputError,
    MalformedCertificateError,
    PreconditionError,
    ResourceError,
)
from .exactlin import IntegerMatrix, RationalMatrix

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_PRECONDITION = 3
EXIT_BUDGET = 4
EXIT_VERIFY_FAILED = 5


@dataclass
class RunConfig:
    schedule: list[int] | None
    element_cap: int
    output: str | None
    full: bool
    verbose: bool


def _load_json_arg(arg: str):
    """Accept either a file path or inline JSON (starts with '{' or '[')."""
    text: str | bytes = arg
    if not arg.lstrip().startswith(("{", "[")):
        try:
            with open(arg, "rb") as handle:
                text = handle.read()
        except OSError as exc:
            raise InputError(f"cannot read {arg}: {exc}") from exc
    return separate._decode_json(text, InputError, "invalid JSON")


def _emit(data: dict, config: RunConfig) -> None:
    text = separate.canonical_json(data)
    if config.output:
        try:
            with open(config.output, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise InputError(f"cannot write {config.output}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _note(config: RunConfig, message: str) -> None:
    if config.verbose:
        print(message, file=sys.stderr)


def _config_from_args(args) -> RunConfig:
    schedule = None
    if getattr(args, "modulus_schedule", None) is not None:
        try:
            schedule = [int(x) for x in args.modulus_schedule.split(",") if x.strip()]
        except ValueError as exc:
            raise InputError(f"bad --modulus-schedule: {exc}") from exc
        schedule = separate._validate_schedule(schedule)
    cap = getattr(args, "element_cap", modgrp.DEFAULT_CAP)
    if cap <= 0:
        raise InputError("--element-cap must be positive")
    return RunConfig(
        schedule=schedule,
        element_cap=cap,
        output=getattr(args, "output", None),
        full=getattr(args, "full", False),
        verbose=getattr(args, "verbose", False),
    )


def _parse_gens(data) -> list[IntegerMatrix]:
    if not isinstance(data, list):
        raise InputError("generators must be a JSON array of matrices")
    return [IntegerMatrix.from_json_dict(g) for g in data]


def _vu_scan_note(config: RunConfig, gens: list[IntegerMatrix]) -> None:
    """Advisory virtual-unipotency decision: it goes to stderr, never into a
    certificate, and changes no exit code."""
    if len({g.n for g in gens}) > 1:  # the search's input error, before any product
        raise InputError("generators of mixed dimension")
    try:
        decided = jordan.is_virtually_unipotent_witness(gens, config.element_cap)
    except ResourceError:
        print("note: virtual unipotency not decided: the mod-3 image exceeds"
              " --element-cap", file=sys.stderr)
        return
    if decided:
        print("note: generators are virtually unipotent", file=sys.stderr)
    else:
        print("warning: generators are NOT virtually unipotent; the separation"
              " search may exhaust its schedule", file=sys.stderr)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_jordan(args) -> int:
    config = _config_from_args(args)
    mat = RationalMatrix.from_json_dict(_load_json_arg(args.matrix))
    pair = jordan.jordan_decompose(mat)
    # the decomposition is unique: g is semisimple iff u = I, unipotent iff s = I
    eye = RationalMatrix.identity(mat.n)
    result = {
        "semisimple": pair.semisimple.to_json_dict(),
        "unipotent": pair.unipotent.to_json_dict(),
        "is_semisimple": pair.unipotent == eye,
        "is_unipotent": pair.semisimple == eye,
    }
    if mat.is_integral and mat.to_integer().det() in (1, -1):
        result["torsion_order"] = jordan.torsion_order(mat.to_integer())
    else:
        result["torsion_order"] = None
    _emit(result, config)
    return EXIT_OK


def _cmd_avoid(args) -> int:
    config = _config_from_args(args)
    if args.verify_only:
        return _verify_file(args.verify_only, config)
    if args.gens is None or args.eta is None:
        raise InputError("avoid needs GENS and ETA (or --verify-only FILE)")
    gens = _parse_gens(_load_json_arg(args.gens))
    eta = IntegerMatrix.from_json_dict(_load_json_arg(args.eta))
    _vu_scan_note(config, gens)
    cert = separate.avoid_conjugacy(
        gens, eta, config.schedule, cap=config.element_cap
    )
    data = cert.to_json_dict()
    if config.full:
        data["image_elements"], data["class_elements"] = _full_elements(cert, config)
    _emit(data, config)
    return EXIT_OK


def _full_elements(cert, config: RunConfig):
    image = modgrp.congruence_image(cert.gamma_gens, cert.m, config.element_cap, n=cert.n)
    cls = modgrp.conj_class(modgrp.reduce(cert.eta, cert.m), config.element_cap)
    # the search digested its own copies; the rows need no digest
    return image._sorted_rows(), cls._sorted_rows()


def _cmd_torsion_free(args) -> int:
    config = _config_from_args(args)
    if args.verify_only:
        return _verify_file(args.verify_only, config)
    if args.gens is None:
        raise InputError("torsion-free needs GENS (or --verify-only FILE)")
    gens = _parse_gens(_load_json_arg(args.gens))
    if not gens:
        raise InputError("torsion-free needs at least one generator")
    n = gens[0].n
    if args.reps:
        reps_data = _load_json_arg(args.reps)
        reps = _parse_gens(reps_data)
        for rep in reps:
            if jordan.torsion_order(rep) is None:
                raise InputError("custom representative table contains a"
                                 " matrix of infinite order")
        table: separate.TorsionTable | list[IntegerMatrix] = reps
    else:
        try:
            table = separate.torsion_class_table(n)
        except InputError:
            raise InputError(
                f"no builtin torsion table for dimension {n}; supply --reps FILE"
            ) from None
    _vu_scan_note(config, gens)
    cert = separate.torsion_free_overgroup(
        gens, table, config.schedule, cap=config.element_cap
    )
    _emit(cert.to_json_dict(), config)
    return EXIT_OK


def _cmd_semifactors(args) -> int:
    config = _config_from_args(args)
    group = cryst.CrystGroup.from_json_dict(_load_json_arg(args.group))
    factors = cryst.semifactor_representatives(group)
    _emit(factors.to_json_dict(), config)
    return EXIT_OK


def _cmd_witness_prime(args) -> int:
    config = _config_from_args(args)
    factor = RationalMatrix.from_json_dict(_load_json_arg(args.factor))
    gens = _parse_gens(_load_json_arg(args.gens))
    witness = separate.witness_prime(factor, gens, cap=config.element_cap)
    _emit(witness.to_json_dict(), config)
    return EXIT_OK


def _verify_file(path: str, config: RunConfig) -> int:
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    ok = separate.verify_certificate(data, cap=config.element_cap)
    if ok:
        _note(config, f"certificate {path} verified")
        return EXIT_OK
    print(f"verification failed: {path}", file=sys.stderr)
    return EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------


def _add_flags(
    parser: argparse.ArgumentParser, *, cap: bool = False, search: bool = False,
    full: bool = False,
) -> None:
    """Register the flags a subcommand reads: --output always, --element-cap
    with ``cap``, --full with ``full``, and with ``search`` the flags of the
    searches and their verification (-v, --modulus-schedule)."""
    if cap:
        parser.add_argument("--element-cap", type=int, default=modgrp.DEFAULT_CAP,
                            help="budget for group/orbit enumeration")
    parser.add_argument("--output", help="write result JSON to FILE instead of stdout")
    if full:
        parser.add_argument("--full", action="store_true",
                            help="include full element lists, not just sizes and digests")
    if search:
        parser.add_argument("-v", "--verbose", action="store_true")
        parser.add_argument("--modulus-schedule",
                            help="comma-separated strictly increasing moduli")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing leaves it as built."""
    parser = argparse.ArgumentParser(
        prog="congrusep",
        description="Congruence-subgroup separation certificates for integer"
                    " matrix groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("jordan", help="Jordan decomposition and predicates")
    p.add_argument("matrix", help="matrix JSON (inline or file path)")
    _add_flags(p)
    p.set_defaults(func=_cmd_jordan)

    p = sub.add_parser("avoid", help="separate a group from a semisimple conjugacy class")
    p.add_argument("gens", nargs="?", help="generator list JSON")
    p.add_argument("eta", nargs="?", help="semisimple target matrix JSON")
    p.add_argument("--verify-only", metavar="FILE",
                   help="re-verify an existing certificate file and exit")
    _add_flags(p, cap=True, search=True, full=True)
    p.set_defaults(func=_cmd_avoid)

    p = sub.add_parser("torsion-free",
                       help="find a torsion-free congruence overgroup certificate")
    p.add_argument("gens", nargs="?", help="generator list JSON")
    p.add_argument("--reps", metavar="FILE",
                   help="custom torsion representative table (matrix list JSON)")
    p.add_argument("--verify-only", metavar="FILE",
                   help="re-verify an existing certificate file and exit")
    _add_flags(p, cap=True, search=True)
    p.set_defaults(func=_cmd_torsion_free)

    p = sub.add_parser("semifactors",
                       help="enumerate semisimple factors of a crystallographic group")
    p.add_argument("group", help="crystallographic group JSON")
    _add_flags(p)
    p.set_defaults(func=_cmd_semifactors)

    p = sub.add_parser("witness-prime",
                       help="find a prime at which a semisimple factor escapes the group")
    p.add_argument("factor", help="semisimple factor matrix JSON")
    p.add_argument("gens", help="generator list JSON")
    _add_flags(p, cap=True)
    p.set_defaults(func=_cmd_witness_prime)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MalformedCertificateError as exc:
        print(f"error: malformed certificate: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ResourceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
