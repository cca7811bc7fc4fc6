"""Command-line surface.

Every subcommand wraps one library operation, reads the documented file
formats, and writes canonical JSON (or presentation text).  Exit codes carry
the verdict so shell pipelines can branch without parsing output:

    0  success / valid / Found
    1  definite negative (invalid, NotRigid, RelatorNotKilled, ...)
    2  inconclusive (OutOfBounds, ExhaustedUpTo, BudgetExceeded)
    3  usage, parse, or file-format error

Outputs are byte-reproducible when ``--deterministic`` is given (timing
statistics are omitted from reports in that mode).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import core, develop, groups, pseudogroup, serialize
from .errors import (
    Inconclusive,
    NegativeVerdict,
    UsageError,
)


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError:
            raise UsageError(f"{path}: not UTF-8 text") from None


def _read_json(path: str):
    try:
        return json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path}: not valid JSON ({exc})") from None


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(obj, out_path: str | None):
    _emit(serialize.canonical_json(obj), out_path)


def _load_backend(args) -> groups.Backend:
    if args.presentation:
        pres = groups.parse_presentation(_read_text(args.presentation))
        cap = groups.MAX_COSETS if args.max_cosets is None else args.max_cosets
        return groups.realize_backend(pres, cap)
    if args.max_cosets is not None:  # an explicit table runs no enumeration
        raise UsageError("--max-cosets applies only to --presentation")
    group, _ = serialize.realized_group_from_obj(_read_json(args.table))
    return group


def _cmd_validate(args) -> int:
    try:
        permutoid, names = serialize.permutoid_from_obj(_read_json(args.file))
    except NegativeVerdict as exc:
        _emit_json({"status": "invalid", **serialize.error_to_obj(exc)}, args.output)
        return 1
    _emit_json(
        {
            "status": "valid",
            "ground_set_size": permutoid.ground_size,
            "element_count": len(permutoid.elements),
            "identity_index": permutoid.identity_index,
            "rigid": core.is_rigid_permutoid(permutoid),
        },
        args.output,
    )
    return 0


def _cmd_cameron(args) -> int:
    backend = _load_backend(args)
    cam = groups.cameron_permutoid(backend, args.radius)
    _emit_json(serialize.permutoid_to_obj(cam.permutoid, cam.labels), args.output)
    return 0


def _report_search(args, names, start_size: int, search) -> int:
    """Emit the verdict of ``search()``, timed unless ``--deterministic``;
    exit 0 on Found, 2 otherwise."""
    start = time.monotonic()
    verdict = search()
    obj = serialize.verdict_to_obj(verdict, names, start_size=start_size)
    if not args.deterministic:
        obj["wall_time_ms"] = int((time.monotonic() - start) * 1000)
    _emit_json(obj, args.output)
    return 0 if isinstance(verdict, develop.Found) else 2


def _cmd_develop(args) -> int:
    permutoid, names = serialize.permutoid_from_obj(_read_json(args.file))
    prob = develop.DevelopmentProblem(permutoid, args.max_size, args.budget)
    return _report_search(args, names, permutoid.ground_size, lambda: develop.search_development(prob))


def _cmd_verify_development(args) -> int:
    permutoid, names = serialize.permutoid_from_obj(_read_json(args.permutoid))
    dev = serialize.development_from_obj(_read_json(args.development), names)
    try:
        develop.verify_development(permutoid, dev)
    except NegativeVerdict as exc:
        _emit_json({"status": "invalid", **serialize.error_to_obj(exc)}, args.output)
        return 1
    _emit_json({"status": "valid", "ground_size": dev.ground_size}, args.output)
    return 0


def _cmd_quotients(args) -> int:
    permutoid, names = serialize.permutoid_from_obj(_read_json(args.file))
    pairs = core.enumerate_quotients(permutoid, nontrivial_only=args.nontrivial_only)
    _emit_json(
        {
            "count": len(pairs),
            "quotients": [
                {
                    "permutoid": serialize.permutoid_to_obj(q),
                    "morphism": serialize.morphism_to_obj(m),
                }
                for q, m in pairs
            ],
        },
        args.output,
    )
    return 0


def _cmd_universal_group(args) -> int:
    permutoid, _ = serialize.permutoid_from_obj(_read_json(args.file))
    pres = groups.universal_group(permutoid)
    _emit(groups.format_presentation(pres), args.output)
    return 0


def _cmd_triangulate(args) -> int:
    pres = groups.parse_presentation(_read_text(args.presentation))
    out = groups.triangulate(pres, args.m, args.max_cosets)
    _emit(groups.format_presentation(out), args.output)
    return 0


def _cmd_coset_enum(args) -> int:
    pres = groups.parse_presentation(_read_text(args.presentation))
    group = groups.todd_coxeter(pres, args.max_cosets)
    _emit_json(serialize.realized_group_to_obj(group, pres.generators), args.output)
    return 0


def _cmd_probe(args) -> int:
    pres = groups.parse_presentation(_read_text(args.presentation))
    start = time.monotonic()
    report = develop.probe_finite_quotient(
        pres,
        rho=args.radius,
        max_ground=args.max_size,
        node_budget=args.budget,
        max_cosets=args.max_cosets,
    )
    obj = serialize.probe_report_to_obj(report)
    if not args.deterministic:
        obj["statistics"]["wall_time_ms"] = int((time.monotonic() - start) * 1000)
    _emit_json(obj, args.output)
    if report.verdict == "found-quotient":
        return 0
    if report.verdict == "definitively-none":
        return 1
    return 2


def _cmd_pseudogroup(args) -> int:
    if args.action == "generate":
        n, gens = serialize.generators_from_obj(_read_json(args.file))
        H = pseudogroup.generate_pseudogroup(n, gens)
        _emit_json(serialize.pseudogroup_to_obj(H), args.output)
        return 0
    H, names = serialize.pseudogroup_from_obj(_read_json(args.file))
    if args.action == "rigid":
        rigid = pseudogroup.is_rigid_pseudogroup(H)
        _emit_json({"rigid": rigid}, args.output)
        return 0 if rigid else 1
    if args.action == "maximal":
        permutoid = pseudogroup.maximal_permutoid(H)
        _emit_json(serialize.permutoid_to_obj(permutoid, names), args.output)
        return 0
    # develop
    return _report_search(
        args, names, H.ground_size, lambda: pseudogroup.search_rigid_development(H, args.max_size, args.budget)
    )


def _add_output(p):
    p.add_argument("-o", "--output", help="write the report here instead of stdout")


def _add_search_bounds(p):
    p.add_argument("--max-size", type=int, required=True, help="largest target ground size")
    p.add_argument("--budget", type=int, default=None, help="search-node cap")
    p.add_argument("--deterministic", action="store_true", help="omit wall times from the report")


def _add_backend_source(p):
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--presentation", help="presentation text file (gens:/rels: lines)")
    src.add_argument("--table", help="explicit multiplication table JSON file")
    p.add_argument(
        "--max-cosets",
        type=int,
        help="live-coset cap for coset enumeration of --presentation (default 10000)",
    )


def build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(
        prog="permutoid-lab",
        description="Permutoids, finite developments, and rigid pseudogroups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a permutoid file")
    p.add_argument("file")
    _add_output(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("cameron", help="ball permutoid of a marked group")
    _add_backend_source(p)
    p.add_argument("--radius", type=int, required=True, help="inner ball radius")
    _add_output(p)
    p.set_defaults(func=_cmd_cameron)

    p = sub.add_parser("develop", help="search for a finite development")
    p.add_argument("file")
    _add_search_bounds(p)
    _add_output(p)
    p.set_defaults(func=_cmd_develop)

    p = sub.add_parser("verify-development", help="re-check a development file")
    p.add_argument("permutoid")
    p.add_argument("development")
    _add_output(p)
    p.set_defaults(func=_cmd_verify_development)

    p = sub.add_parser("quotients", help="enumerate quotient classes")
    p.add_argument("file")
    p.add_argument("--nontrivial-only", action="store_true")
    _add_output(p)
    p.set_defaults(func=_cmd_quotients)

    p = sub.add_parser("universal-group", help="presentation of the universal group")
    p.add_argument("file")
    _add_output(p)
    p.set_defaults(func=_cmd_universal_group)

    p = sub.add_parser("triangulate", help="length-three re-presentation")
    p.add_argument("--presentation", required=True)
    p.add_argument("-m", type=int, required=True, help="ball radius for the new generators")
    p.add_argument("--max-cosets", type=int, default=groups.MAX_COSETS)
    _add_output(p)
    p.set_defaults(func=_cmd_triangulate)

    p = sub.add_parser("coset-enum", help="realize a finite presentation")
    p.add_argument("--presentation", required=True)
    p.add_argument("--max-cosets", type=int, default=groups.MAX_COSETS)
    _add_output(p)
    p.set_defaults(func=_cmd_coset_enum)

    p = sub.add_parser(
        "probe-finite-quotient",
        help="search for a certified non-trivial finite quotient",
    )
    p.add_argument("--presentation", required=True)
    p.add_argument("--radius", type=int, required=True)
    _add_search_bounds(p)
    p.add_argument("--max-cosets", type=int, default=groups.MAX_COSETS)
    _add_output(p)
    p.set_defaults(func=_cmd_probe)

    p = sub.add_parser("pseudogroup", help="pseudogroup operations")
    p.set_defaults(func=_cmd_pseudogroup)
    actions = p.add_subparsers(dest="action", required=True)
    for action in ("generate", "rigid", "maximal", "develop"):
        p = actions.add_parser(action)
        p.add_argument("file")
        if action == "develop":
            _add_search_bounds(p)
        _add_output(p)

    return parser


def run_cli(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except SystemExit as exc:  # --help
        return 0 if exc.code in (0, None) else 3
    try:
        try:
            return args.func(args)
        except NegativeVerdict as exc:
            _emit_json({"status": "negative", **serialize.error_to_obj(exc)}, args.output)
            return 1
        except Inconclusive as exc:
            _emit_json({"status": "inconclusive", **serialize.error_to_obj(exc)}, args.output)
            return 2
    # OSError also covers writing the negative or inconclusive report above
    except (UsageError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3


def main():
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
