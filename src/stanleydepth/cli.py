"""Command line interface.

Exit codes: 0 for success and positive verdicts, 1 for negative verdicts
(decomposition not induced, certificate rejected, solution infeasible),
2 for any error (bad input, unmet precondition, resource limit).
Results go to stdout, progress notes to stderr; given the same inputs
and flags the stdout bytes are deterministic.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import degrees as dg
from . import polytope
from .errors import StanleyDepthError
from .fields import field_from_name
from .hilbert import (
    decomposition_to_json,
    hdepth,
    load_decomposition_file,
    partition_to_json,
    require_g_determined,
    truncated_series,
)
from .modules import load_module_file
from .stanley import (
    build_matrices,
    certificate_json,
    check,
    extract_witness,
    sdepth,
    verify_certificate,
)


def _progress(message: str) -> None:
    print(message, file=sys.stderr)


def _add_module_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("module", help="module presentation (JSON file)")
    p.add_argument("--field", default=None, metavar="F",
                   help="override the coefficient field: Q or F<p> (p prime)")
    p.add_argument("--g", default=None, metavar="G",
                   help="comma-separated degree bound, e.g. 2,2,1")


def _parse_g(text: str | None):
    if text is None:
        return None
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise StanleyDepthError(f"--g must be comma-separated integers, got {text!r}") from exc


def _load_module(args):
    field = field_from_name(args.field) if args.field is not None else None
    return load_module_file(args.module, field_override=field, g_override=_parse_g(args.g))


def _report(lines: list[str], path: str | None, text: str | None) -> None:
    """Print the result lines and hand text to --output: None drops it,
    `-` prints it after the lines, and a file is written before anything
    is printed, so a failed write leaves stdout empty."""
    if path is not None and path != "-":
        dg.write_text(path, text)
        _progress(f"wrote {path}")
    for line in lines:
        print(line)
    if path == "-":
        sys.stdout.write(text)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def cmd_info(args) -> int:
    gm = _load_module(args)
    total = sum(gm.dim(a) for a in dg.box(dg.zero(gm.n), gm.g))
    violation = gm.g_violation
    print(f"n = {gm.n}")
    print(f"field = {gm.field!r}")
    print(f"g = {','.join(str(x) for x in gm.g)}")
    print(f"generators = {len(gm.presentation.generator_degrees)}")
    print(f"relations = {len(gm.presentation.relations)}")
    print(f"total dimension on [0, g] = {total}")
    if violation is None:
        print("determined: yes")
    else:
        a, k = violation
        print(f"determined: no (multiplication by X_{k + 1} fails at degree {tuple(a)})")
    return 0


def cmd_hseries(args) -> int:
    gm = _load_module(args)
    series = truncated_series(gm)
    for a in dg.box(dg.zero(gm.n), gm.g):
        c = series.coefficient(a)
        if c or args.all:
            print(f"{','.join(str(x) for x in a)} {c}")
    return 0


def cmd_hdepth(args) -> int:
    gm = _load_module(args)
    value, partition = hdepth(gm, return_partition=True)
    text = None if args.output is None else _json_text(partition_to_json(partition))
    _report([f"hdepth = {'inf' if value == math.inf else value}"], args.output, text)
    return 0


def cmd_sdepth(args) -> int:
    gm = _load_module(args)
    result = sdepth(gm, with_witness=not args.no_witness)
    lines = [f"sdepth = {'inf' if result.value == math.inf else result.value}"]
    for zset, shift in result.decomposition.summands:
        zs = ",".join(str(j + 1) for j in sorted(zset))
        lines.append(f"summand shift=({','.join(str(x) for x in shift)}) vars={{{zs}}}")
    text = None
    if args.output is not None:
        text = _json_text(certificate_json(gm, result.decomposition, result.witness))
        if args.output != "-":
            lines.append(f"certificate: {args.output}")
    _report(lines, args.output, text)
    return 0


def cmd_check(args) -> int:
    gm = _load_module(args)
    require_g_determined(gm)
    d = load_decomposition_file(args.decomposition, gm.g)
    report = check(gm, d)
    print(report.verdict_line())
    _progress(f"mode: {report.mode}")
    return 0 if report.induced else 1


def cmd_certify(args) -> int:
    gm = _load_module(args)
    require_g_determined(gm)
    d = load_decomposition_file(args.decomposition, gm.g)
    fam = build_matrices(gm, d)
    report = check(gm, d, fam=fam)
    if not report.induced:
        print(report.verdict_line())
        _progress(f"mode: {report.mode}")
        return 1
    witness = extract_witness(gm, d, fam=fam, check_first=False)
    lines = [] if args.output == "-" else ["induced; certificate written"]
    _report(lines, args.output, _json_text(certificate_json(gm, d, witness)))
    return 0


def cmd_verify_cert(args) -> int:
    gm = _load_module(args)
    ok, message = dg.read_json(args.certificate, lambda cert: verify_certificate(gm, cert))
    print(("valid: " if ok else "invalid: ") + message)
    return 0 if ok else 1


def cmd_export_polytope(args) -> int:
    gm = _load_module(args)
    require_g_determined(gm)
    if args.system == "hilbert":
        for flag, value in (("--max-subset", args.max_subset), ("--depth", args.depth)):
            if value is not None:
                raise StanleyDepthError(f"{flag} applies to --system stanley only")
        system = polytope.build_hilbert_system(gm)
    else:
        if args.max_subset is None:
            max_subset = polytope.DEFAULT_MAX_SUBSET
        elif args.max_subset == "inf":
            max_subset = None
        else:
            try:
                max_subset = int(args.max_subset)
            except ValueError as exc:
                raise StanleyDepthError(
                    f"--max-subset must be an integer or 'inf', got {args.max_subset!r}"
                ) from exc
        system = polytope.build_stanley_inequalities(gm, max_subset=max_subset,
                                                     min_depth=args.depth)
    comment = f"module: {os.path.basename(args.module)}; system: {args.system}"
    text = polytope.export_lp(system) if args.format == "lp" else polytope.export_sip(system, comment)
    _report([], args.output, text)
    _progress(f"{len(system.variables)} variables, {len(system.rows)} rows")
    return 0


def cmd_import_solution(args) -> int:
    gm = _load_module(args)
    require_g_determined(gm)
    system = polytope.build_hilbert_system(gm)
    d = polytope.import_solution(gm, system, dg.read_text(args.solution))
    report = check(gm, d)
    if not report.induced:
        print(report.verdict_line())
        return 1
    text = None if args.output is None else _json_text(decomposition_to_json(d))
    _report([report.verdict_line()], args.output, text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stanleydepth",
        description="Hilbert and Stanley depth of multigraded modules, "
                    "with exact certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="presentation summary and determinedness check")
    _add_module_arguments(p)
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("hseries", help="truncated Hilbert series on [0, g]")
    _add_module_arguments(p)
    p.add_argument("--all", action="store_true", help="include zero coefficients")
    p.set_defaults(func=cmd_hseries)

    p = sub.add_parser("hdepth", help="Hilbert depth via interval partitions")
    _add_module_arguments(p)
    p.add_argument("--output", default=None, help="write the witnessing partition (JSON)")
    p.set_defaults(func=cmd_hdepth)

    p = sub.add_parser("sdepth", help="Stanley depth with certificate")
    _add_module_arguments(p)
    witness = p.add_mutually_exclusive_group()
    witness.add_argument("--no-witness", action="store_true",
                         help="skip witness extraction (no certificate)")
    witness.add_argument("--output", default=None, help="write the certificate (JSON)")
    p.set_defaults(func=cmd_sdepth)

    p = sub.add_parser("check", help="is a Hilbert decomposition induced?")
    _add_module_arguments(p)
    p.add_argument("decomposition", help="decomposition (JSON file)")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("certify", help="check and extract a witness certificate")
    _add_module_arguments(p)
    p.add_argument("decomposition", help="decomposition (JSON file)")
    p.add_argument("--output", default="-", help="certificate path (default stdout)")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("verify-cert", help="re-check a certificate from scratch")
    _add_module_arguments(p)
    p.add_argument("certificate", help="certificate (JSON file)")
    p.set_defaults(func=cmd_verify_cert)

    p = sub.add_parser("export-polytope", help="write the counting system (.sip or .lp)")
    _add_module_arguments(p)
    p.add_argument("--system", choices=("hilbert", "stanley"), default="hilbert")
    p.add_argument("--max-subset", default=None,
                   help="subset size cap for rank inequalities, or 'inf' "
                        f"(stanley system only; default {polytope.DEFAULT_MAX_SUBSET})")
    p.add_argument("--depth", type=int, default=None,
                   help="drop variables with fewer than this many free coordinates "
                        "(stanley system only)")
    p.add_argument("--format", choices=("sip", "lp"), default="sip")
    p.add_argument("--output", default="-", help="write the system in --format (default stdout)")
    p.set_defaults(func=cmd_export_polytope)

    p = sub.add_parser("import-solution", help="read a solver point back as a decomposition")
    _add_module_arguments(p)
    p.add_argument("solution", help="'name value' lines, one per variable")
    p.add_argument("--output", default=None, help="write the decomposition (JSON)")
    p.set_defaults(func=cmd_import_solution)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except StanleyDepthError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
