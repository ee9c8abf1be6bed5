"""The `hilb` command-line front end.

Subcommands:

    hilb ring show   --preset NAME | --ring PATH
    hilb mul         --preset NAME | --ring PATH  -n N  X-SPEC Y-SPEC
    hilb verify      SUITE  [--preset|--ring] [-n N] [...]
    hilb series      closed|refined|bruteforce|compare  [...]

Every command is deterministic given its flags.  Exit codes: 0
success/pass, 1 check failure, 2 usage error or malformed, unreadable or
inconsistent input, or standard output closed before the command finished
writing (a broken pipe, reported without a traceback), 3 resource limit
exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import DataError, ResourceError, UsageError
from .exact_poly import from_text as series_from_text
from .exact_poly import to_text as series_to_text
from .generating_series import (
    CASE_NAMES,
    DEFAULT_LIMIT,
    SeriesSpec,
    brute_force_poincare,
    closed_form,
    compare_series,
    poly_render,
    poly_to_series,
    refined_goettsche,
    ring_dims,
)
from .perverse_filtration import (
    check_diagonal_bound,
    check_monodromy_suite,
    check_multiplicativity,
    perversity_class,
)
from .report import CheckReport
from .surface_ring import PRESET_NAMES, SurfaceRing, load_ring, preset, validate
from .symmetric_groups import orbits, parse_cycles
from .wreath_ring import (
    check_associativity,
    check_equivariance,
    cup_class,
    element_degree,
    make_element,
    render_class,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def _add_ring_source(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--preset", choices=PRESET_NAMES, help="built-in surface ring")
    group.add_argument("--ring", metavar="PATH", help="ring document to load")


def _add_common(parser: argparse.ArgumentParser, limit: bool = False) -> None:
    """--format always; --limit on request."""
    parser.add_argument("--format", choices=("text", "json"), default="text")
    if limit:
        parser.add_argument(
            "--limit", type=_positive_int, default=DEFAULT_LIMIT, help="resource limit override"
        )


def _non_negative_int(text: str) -> int:
    """The argparse type of every -n, --s-bound and --up-to: decimal digits only."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _positive_int(text: str) -> int:
    """The argparse type of --limit: decimal digits, not all zero."""
    if not text.isdecimal() or not int(text):
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _read_text(path: str) -> str:
    """The contents of a UTF-8 file; an unreadable file is a usage error."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) else exc
        raise UsageError(f"cannot read {path}: {reason}") from None


def _resolve_ring(args) -> SurfaceRing:
    if args.preset:
        return preset(args.preset)
    if args.ring:
        return load_ring(_read_text(args.ring))
    raise UsageError("a ring source is required: --preset NAME or --ring PATH")


def _parse_element_spec(ring: SurfaceRing, n: int, spec: str):
    """Parse `factors;cycles`, factors comma-separated, each `name` (in
    canonical orbit order) or `name@orbit-minimum` (decimal digits, each
    orbit at most once); unassigned orbits under the @ form default to the
    unit."""
    if ";" not in spec:
        raise UsageError(f"element spec needs `factors;cycles`: {spec!r}")
    factor_text, cycle_text = spec.rsplit(";", 1)
    sigma = parse_cycles(cycle_text.strip(), n)
    blocks = orbits(n, [sigma]).blocks
    entries = [f.strip() for f in factor_text.split(",") if f.strip()]
    tagged = [e for e in entries if "@" in e]
    if tagged and len(tagged) != len(entries):
        raise UsageError("mix of positional and @-tagged factors in element spec")
    factors = [ring.unit] * len(blocks)
    if tagged:
        mins = {block[0]: i for i, block in enumerate(blocks)}
        seen = set()
        for entry in entries:
            name, at = entry.split("@", 1)
            if not at.isdecimal():
                raise UsageError(f"orbit anchor must be decimal digits: {entry!r}")
            anchor = int(at)
            if anchor not in mins:
                raise UsageError(
                    f"{anchor} is not the minimum of an orbit of {sigma.cycle_string()}"
                )
            if anchor in seen:
                raise UsageError(f"orbit anchor {anchor} given twice in {spec!r}")
            seen.add(anchor)
            factors[mins[anchor]] = ring.index(name)
    else:
        if len(entries) != len(blocks):
            raise UsageError(
                f"{len(blocks)} factors required for {sigma.cycle_string()}, got {len(entries)}"
            )
        factors = [ring.index(name) for name in entries]
    return make_element(ring, n, sigma, factors)


def _emit_report(report: CheckReport, fmt: str) -> int:
    if fmt == "json":
        print(report.to_json())
    else:
        print(report.render_text())
    return EXIT_PASS if report.passed else EXIT_FAIL


# -- subcommands --------------------------------------------------------------


def _cmd_ring_show(args) -> int:
    ring = _resolve_ring(args)
    report = validate(ring)
    if args.format == "json":
        payload = {
            "name": ring.name,
            "mode": ring.mode,
            "basis": [
                {"name": nm, "degree": d, "perversity": p}
                for nm, d, p in zip(ring.names, ring.degrees, ring.perversities)
            ],
            "euler": ring.render_class(ring.euler),
            "validation": report.status,
        }
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(f"ring {ring.name}: mode={ring.mode}, {ring.size} basis elements")
        for nm, d, p in zip(ring.names, ring.degrees, ring.perversities):
            print(f"  {nm}: degree={d} perversity={p}")
        print(f"  euler class: {ring.render_class(ring.euler)}")
        print(f"  validation: {report.status}")
    return EXIT_PASS if report.passed else EXIT_FAIL


def _cmd_mul(args) -> int:
    ring = _resolve_ring(args)
    n = args.n
    x = _parse_element_spec(ring, n, args.x)
    y = _parse_element_spec(ring, n, args.y)
    result = cup_class(ring, x, y)
    perv = perversity_class(ring, result)
    degree = (
        element_degree(ring, next(iter(result.terms))) if result.terms else None
    )
    if args.format == "json":
        payload = {
            "x": args.x,
            "y": args.y,
            "product": render_class(ring, result),
            "degree": degree,
            "perversity": None if not result.terms else int(perv),
        }
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(f"product: {render_class(ring, result)}")
        print(f"degree: {degree}")
        print(f"perversity: {'-inf' if not result.terms else int(perv)}")
    return EXIT_PASS


# suite -> (whether it reads the ring source and -n, runner(ring, n)); no
# suite reads a flag besides those and --format
VERIFY_SUITES = {
    "multiplicativity": (True, check_multiplicativity),
    "diagonal": (True, lambda ring, n: check_diagonal_bound(ring, n_max=max(n, 2))),
    "associativity": (True, check_associativity),
    "equivariance": (True, check_equivariance),
    "monodromy": (False, lambda ring, n: check_monodromy_suite()),
}


def _cmd_verify(args) -> int:
    reads_ring, run = VERIFY_SUITES[args.suite]
    if not reads_ring:
        return _emit_report(run(None, None), args.format)
    ring = _resolve_ring(args)
    n = args.n if args.n is not None else 2
    report = run(ring, n)
    # every ring suite echoes n
    report.info.setdefault("n", n)
    return _emit_report(report, args.format)


def _cmd_series(args) -> int:
    action = args.action
    if action == "closed":
        spec = SeriesSpec.parse(args.case, args.s_bound)
        sys.stdout.write(series_to_text(closed_form(spec)))
        return EXIT_PASS
    if action == "refined":
        ring = _resolve_ring(args)
        sys.stdout.write(series_to_text(refined_goettsche(ring_dims(ring), args.s_bound)))
        return EXIT_PASS
    if action == "bruteforce":
        ring = _resolve_ring(args)
        n = args.n if args.n is not None else 1
        poly = brute_force_poincare(ring, n, limit=args.limit)
        if args.format == "json":
            print(
                json.dumps(
                    {"n": n, "ring": ring.name, "polynomial": poly_render(poly)},
                    sort_keys=True,
                    indent=2,
                )
            )
        else:
            sys.stdout.write(series_to_text(poly_to_series(poly, n, n)))
        return EXIT_PASS
    if action == "compare":
        comparison = compare_series(
            series_from_text(_read_text(args.series_a)),
            series_from_text(_read_text(args.series_b)),
            args.up_to,
        )
        if args.format == "json":
            print(json.dumps(comparison.to_json_dict(), sort_keys=True, indent=2))
        else:
            print(comparison.render_text())
        return EXIT_PASS if comparison.equal else EXIT_FAIL
    raise UsageError(f"unknown series action {action!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hilb",
        description="Exact wreath-product model of Hilbert-scheme cohomology "
        "with perverse-filtration checkers and generating series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ring_parser = sub.add_parser("ring", help="ring inspection")
    ring_sub = ring_parser.add_subparsers(dest="ring_command", required=True)
    show = ring_sub.add_parser("show", help="basis table, mode, validation summary")
    _add_ring_source(show)
    _add_common(show)
    show.set_defaults(func=_cmd_ring_show)

    mul = sub.add_parser("mul", help="cup product of two wreath elements")
    _add_ring_source(mul)
    _add_common(mul)
    mul.add_argument("-n", type=_non_negative_int, required=True)
    mul.add_argument("x", help="element spec `factors;cycles`, e.g. '1;(1 2)'")
    mul.add_argument("y")
    mul.set_defaults(func=_cmd_mul)

    verify = sub.add_parser("verify", help="run a verification suite")
    verify_sub = verify.add_subparsers(dest="suite", required=True, metavar="SUITE")
    for suite, (reads_ring, _) in VERIFY_SUITES.items():
        suite_parser = verify_sub.add_parser(suite)
        if reads_ring:
            _add_ring_source(suite_parser)
            suite_parser.add_argument("-n", type=_non_negative_int, default=None)
        _add_common(suite_parser)
        suite_parser.set_defaults(func=_cmd_verify)

    series = sub.add_parser("series", help="generating-series commands")
    series_sub = series.add_subparsers(dest="action", required=True)

    closed = series_sub.add_parser("closed", help="closed-form family expansion")
    closed.add_argument("--case", required=True, help=f"one of {', '.join(CASE_NAMES)}")
    closed.add_argument("--s-bound", type=_non_negative_int, required=True, dest="s_bound")
    closed.set_defaults(func=_cmd_series, action="closed")

    refined = series_sub.add_parser("refined", help="refined product from ring data")
    _add_ring_source(refined)
    refined.add_argument("--s-bound", type=_non_negative_int, required=True, dest="s_bound")
    refined.set_defaults(func=_cmd_series, action="refined")

    brute = series_sub.add_parser("bruteforce", help="orbit-count Poincare polynomial")
    _add_ring_source(brute)
    brute.add_argument("-n", type=_non_negative_int, required=True)
    _add_common(brute, limit=True)
    brute.set_defaults(func=_cmd_series, action="bruteforce")

    compare = series_sub.add_parser("compare", help="compare two series files")
    compare.add_argument("series_a")
    compare.add_argument("series_b")
    compare.add_argument("--up-to", type=_non_negative_int, required=True, dest="up_to")
    _add_common(compare)
    compare.set_defaults(func=_cmd_series, action="compare")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_PASS
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout raises here, not at exit
        return code
    except (UsageError, DataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except BrokenPipeError:
        # the reader closed stdout; point it at devnull so the interpreter's
        # final flush does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: standard output closed", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
