"""Command-line interface.

Commands map one-to-one onto the library operations:

    field-info        degree, discriminant, integral basis, real roots
    index             index of an element of L from its basis coordinates
    composite-index   exact index in K = L*M plus the three factor values
    solve             enumerate generators of power integral bases of K
    verify-cq         composite grid over the quartic family and many d
    d3-search         bounded search in the ramified case d = 3
    check-example5    verify the monogenic degree-8 compositum end to end

The base field is either a member of the quartic family (--a) or an
arbitrary totally real field read from a JSON file (--field) with keys
"poly" (integer coefficients, constant term first), "basis" (rows of
rationals as strings), and optionally "expected_disc".

Exit codes: 0 success, 1 failed verification, 2 usage error,
3 validation error, 4 the fixed 8192-bit precision cap exceeded,
5 internal invariant broken.

Integers on the command line and in field files are read under Python's
limit on decimal digits; the certified values a command prints are not
limited.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

from .composite import make_composite
from .errors import (InternalInvariantError, PrecisionError, ValidationError)
from .imquad import make_imq
from .numberfield import field_from_dict, make_field
from .simplest_quartic import (d3_partial_search, make_simplest_quartic,
                               olajos_generators, verify_theorem_cq)
from .solver import bounds_hold, solve

OCTIC_FIELD_POLY = [1, -1, -4, 0, 1]
OCTIC_FIELD_DISC = 1957
OCTIC_CHAR_POLY = [1, 0, 9, 0, 18, 0, 8, 0, 1]
OCTIC_DISC_K = 980441344

# the interpreter's digit limit for int(str), kept for reading input
_INPUT_DIGITS = sys.get_int_max_str_digits()


@contextlib.contextmanager
def _int_digit_limit(limit: int):
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        )


def _load_base_field(args):
    if args.a is not None:
        return make_simplest_quartic(args.a)
    try:
        with open(args.field) as fh, _int_digit_limit(_INPUT_DIGITS):
            data = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read field file: {exc}")
    except ValueError as exc:       # bad JSON, or an integer past the digit limit
        raise ValidationError(f"field file is not valid JSON: {exc}")
    return field_from_dict(data)


def _emit_json(args, obj) -> None:
    if getattr(args, "json", None) is None:
        return
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if args.json == "-":
        sys.stdout.write(text)
    else:
        with open(args.json, "w") as fh:
            fh.write(text)


def _say(args, *lines) -> None:
    if getattr(args, "json", None) != "-":
        for line in lines:
            print(line)


def _cmd_field_info(args) -> int:
    L = _load_base_field(args)
    info = L.describe()
    info["totally_real"] = True
    _say(args,
         f"degree: {info['degree']}",
         f"discriminant: {info['disc']}",
         f"defining polynomial (constant first): {info['poly']}",
         f"basis denominator: {info['denominator']}")
    for i, row in enumerate(info["basis"]):
        _say(args, f"basis[{i}]: ({', '.join(row)})")
    _say(args, f"real roots: {', '.join(info['real_roots'])}",
         "totally real: yes")
    _emit_json(args, info)
    return 0


def _cmd_index(args) -> int:
    L = _load_base_field(args)
    value = L.element_index(args.coords)
    _say(args, str(value))
    _emit_json(args, {"coords": list(args.coords), "index": value})
    return 0


def _cmd_composite_index(args) -> int:
    L = _load_base_field(args)
    K = make_composite(L, make_imq(args.d))
    xs = (0, *args.x)
    report = K.factorization(xs, args.y)
    _say(args,
         f"index = {report['index']}",
         f"eq1 = {report['eq1']}   (norm of the relative index form)",
         f"eq2 = {report['eq2']}   (norm of the omega-part over L)",
         f"F = {report['F']}   (cross-difference product)")
    _emit_json(args, {
        "d": args.d, "x": list(args.x), "y": list(args.y), **report,
    })
    return 0


def _format_bounds(b) -> str:
    kind = "z" if b.regime.startswith("RES") else "x"
    tail = "0" if b.forces_zero_y else f"at most {b.bound_y_floor}"
    return (f"|I_L({kind})| <= {b.bound_main}, |I_L(y)|^2 <= {b.bound_y_sq}"
            f" -> y-part index {tail}; from F: I_L({kind})^2 <= {b.bound_real_sq}"
            f" (real part), P(y)^2 <= {b.bound_y_sq} (cross sum)")


def _print_report(args, report) -> None:
    _say(args,
         f"verdict: {report.verdict}",
         f"completeness: {report.completeness}",
         f"regime: {report.regime} (d = {report.d})",
         f"bounds: {_format_bounds(report.bounds)}",
         f"candidates tested: {report.candidates_tested}")
    if report.generators:
        _say(args, "generators (x_2..x_n | y_1..y_n), one per sign orbit:")
        for g in report.generators:
            _say(args, f"  x = {g.xs_tail}, y = {g.ys}")
    else:
        _say(args, "generators: none found")
    _say(args, "assumptions:")
    for a in report.assumptions:
        _say(args, f"  - {a}")


def _cmd_solve(args) -> int:
    L = _load_base_field(args)
    K = make_composite(L, make_imq(args.d))
    pib = olajos_generators(args.a) if args.a is not None else "box"
    report = solve(K, pib_source=pib, box_radius=args.box, collect_traces=False)
    _print_report(args, report)
    out = report.to_dict()
    out["d"] = args.d
    if args.a is not None:
        out["a"] = args.a
    _emit_json(args, out)
    return 0


def _cmd_verify_cq(args) -> int:
    progress = None
    if args.timings:
        progress = lambda line: print(line, file=sys.stderr)
    rep = verify_theorem_cq(a_max=args.a_max, d_max=args.d_max,
                            box_radius=args.box, jobs=args.jobs,
                            progress=progress)
    for row in rep["rows"]:
        if row["status"] == "OK":
            _say(args, f"a={row['a']:>2} d={row['d']:>2}  {row['verdict']}"
                       f" ({row['completeness']}, {row['candidates_tested']} candidates)")
    _say(args,
         f"cells: {rep['cells']} ({rep['ran']} solved, {rep['skipped']} skipped)",
         f"verdicts: {rep['verdicts']}",
         f"counterexamples: {rep['counterexamples'] or 'none'}")
    _emit_json(args, rep)
    return 0 if rep["all_not_monogenic"] else 1


def _cmd_d3_search(args) -> int:
    rep = d3_partial_search(args.a, box_radius=args.box)
    _say(args,
         f"verdict: {rep['verdict']}",
         f"completeness: {rep['completeness']}",
         f"candidates tested: {rep['candidates_tested']}",
         "assumptions:")
    for a in rep["assumptions"]:
        _say(args, f"  - {a}")
    _emit_json(args, rep)
    return 0


def _cmd_check_example5(args) -> int:
    basis = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    checks = []

    L = make_field(OCTIC_FIELD_POLY, basis, expected_disc=OCTIC_FIELD_DISC)
    checks.append(("base field discriminant is 1957", L.disc == OCTIC_FIELD_DISC,
                   f"D_L = {L.disc}"))

    K = make_composite(L, make_imq(1))
    xs, ys = (0, 0, 0, 0), (0, 1, 0, 0)
    char = K.char_poly(xs, ys)
    ok = [int(c) for c in char.coeffs] == OCTIC_CHAR_POLY and all(
        c.denominator == 1 for c in char.coeffs)
    checks.append(("characteristic polynomial of i*xi matches the degree-8 target",
                   ok, f"char = {[str(c) for c in char.coeffs]}"))

    idx = K.composite_index(xs, ys)
    checks.append(("i*xi has index 1 (power integral basis)", idx == 1,
                   f"index = {idx}"))

    held = bounds_hold(K, xs, ys)
    checks.append(("index-form bounds hold at i*xi", all(held.values()),
                   f"checks = {held}"))

    checks.append(("composite discriminant is 980441344", K.disc == OCTIC_DISC_K,
                   f"D_K = {K.disc}"))

    all_pass = all(ok for _, ok, _ in checks)
    for name, ok, detail in checks:
        _say(args, f"{'PASS' if ok else 'FAIL'}  {name}  [{detail}]")
    _say(args, f"D_K = {K.disc}")
    _emit_json(args, {
        "checks": [{"name": n, "pass": ok, "detail": det} for n, ok, det in checks],
        "all_pass": all_pass,
        "disc_K": K.disc,
    })
    return 0 if all_pass else 1


def _add_field_source(sub, required=True):
    grp = sub.add_mutually_exclusive_group(required=required)
    grp.add_argument("--a", type=int, help="family parameter for the base field")
    grp.add_argument("--field", help="JSON file describing the base field")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="compib",
        description="Exact monogenity computations in composites of a totally "
                    "real field with an imaginary quadratic field.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("field-info", help="describe the base field L")
    _add_field_source(p)
    p.add_argument("--json", help="write a JSON report to this path ('-' = stdout)")
    p.set_defaults(func=_cmd_field_info)

    p = sub.add_parser("index", help="index of an element of L")
    _add_field_source(p)
    p.add_argument("--coords", type=_int_list, required=True,
                   help="n-1 integer coordinates in the non-constant basis elements")
    p.add_argument("--json", help="write a JSON report to this path ('-' = stdout)")
    p.set_defaults(func=_cmd_index)

    p = sub.add_parser("composite-index", help="exact index and factors in K = L*M")
    _add_field_source(p)
    p.add_argument("--d", type=int, required=True, help="imaginary quadratic parameter")
    p.add_argument("--x", type=_int_list, required=True,
                   help="x_2..x_n (x_1 is normalized to 0)")
    p.add_argument("--y", type=_int_list, required=True, help="y_1..y_n")
    p.add_argument("--json", help="write a JSON report to this path ('-' = stdout)")
    p.set_defaults(func=_cmd_composite_index)

    p = sub.add_parser("solve", help="enumerate power-integral-basis generators of K")
    _add_field_source(p)
    p.add_argument("--d", type=int, required=True, help="imaginary quadratic parameter")
    p.add_argument("--box", type=int, default=20, help="coordinate box radius (default 20)")
    p.add_argument("--json", help="write a JSON report to this path ('-' = stdout)")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify-cq", help="grid verification over the quartic family")
    p.add_argument("--a-max", type=int, default=20, help="largest family parameter (default 20)")
    p.add_argument("--d-max", type=int, default=30, help="largest d (default 30)")
    p.add_argument("--box", type=int, default=20, help="coordinate box radius (default 20)")
    p.add_argument("--jobs", type=int, default=1, help="parallel workers over a-groups")
    p.add_argument("--timings", action="store_true",
                   help="report per-group wall time on stderr (never in JSON)")
    p.add_argument("--json", help="write a JSON report to this path ('-' = stdout)")
    p.set_defaults(func=_cmd_verify_cq)

    p = sub.add_parser("d3-search", help="bounded search in the ramified case d = 3")
    p.add_argument("--a", type=int, required=True, help="family parameter")
    p.add_argument("--box", type=int, default=10, help="coordinate box radius (default 10)")
    p.add_argument("--json", help="write a JSON report to this path ('-' = stdout)")
    p.set_defaults(func=_cmd_d3_search)

    p = sub.add_parser("check-example5",
                       help="verify the monogenic degree-8 compositum end to end")
    p.add_argument("--json", help="write a JSON report to this path ('-' = stdout)")
    p.set_defaults(func=_cmd_check_example5)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with _int_digit_limit(0):
            return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except PrecisionError as exc:
        print(f"error: precision cap exceeded: {exc}", file=sys.stderr)
        return 4
    except InternalInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
