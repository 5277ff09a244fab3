"""Command-line front end.

Reads a connection description file, runs the requested computation and
emits a deterministic key-value report (or a json-like rendering of the
same data).  All numeric output is exact rational text.  Exit codes: 0 on
success, 2 when window dimensions fail to stabilize, 3 on validation
failures; diagnostics go to the error stream.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Tuple

from . import series
from .derham import (
    BinaryMultiComplex,
    FormTuple,
    check_multicomplex,
    cohomology_dims,
    standard_forms,
)
from .dmodule import find_cyclic_vector, newton_polygon, to_scalar_operator
from .epsilon import SignConvention, epsilon_degree, verify_duality
from .errors import (
    HigherLocalError,
    NotClosed,
    NotFlat,
    NotIndependent,
    SpecFileError,
    UndeterminedPivot,
    Unstabilized,
    UnsupportedFrame,
    WindowTooLarge,
)
from .specfile import SpecFile, parse_specfile
from .tate import DEFAULT_SCHEDULE

Report = List[Tuple[str, str]]

EXIT_OK = 0
EXIT_UNSTABILIZED = 2
EXIT_INVALID = 3


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    return str(value)


def _forms_or_standard(spec: SpecFile) -> FormTuple:
    if spec.raw_forms:
        return FormTuple(spec.forms)
    return standard_forms(spec.field)


def _flatness_gate(spec: SpecFile):
    rep = spec.connection.check_flatness()
    if not rep.flat:
        i, j, r, c = rep.witness
        raise NotFlat(
            f"curvature component ({i},{j}) entry ({r},{c}) is certified nonzero"
        )


def _capped_schedule(max_window: int):
    """The probe schedule up to ``max_window``, which must reach its second probe."""
    least = DEFAULT_SCHEDULE[1]
    if max_window < least:
        raise ValueError(
            f"--max-window must be >= {least}, got {max_window}: "
            f"windows settle at two equal probes, and the second is at {least}"
        )
    return tuple(w for w in DEFAULT_SCHEDULE if w <= max_window)


def run(command: str, spec: SpecFile, max_window: int = 32) -> Report:
    """Execute one command against a parsed input file, at ``spec.precision``."""
    schedule = _capped_schedule(max_window)
    old_prec = series.set_working_precision(spec.precision)
    try:
        return _run(command, spec, schedule)
    finally:
        series.set_working_precision(old_prec)


def _run(command: str, spec: SpecFile, schedule) -> Report:
    report: Report = [("command", command), ("n", str(spec.level)), ("rank", str(spec.rank))]
    C = spec.connection
    if command == "cohomology":
        _flatness_gate(spec)
        rep = cohomology_dims(C, schedule)
        for i, d in enumerate(rep.dims):
            report.append((f"h{i}", str(d)))
        report.append(("euler", str(rep.euler)))
        report.append(("stabilized", _fmt(rep.stabilized)))
        if rep.level == 1:
            # cohomology_dims certifies euler = -irregularity
            report.append(("irregularity", str(-rep.euler)))
            if rep.window_dims is not None:
                for i, d in enumerate(rep.window_dims):
                    report.append((f"window_h{i}", str(d)))
                report.append(("window_agrees", _fmt(rep.window_agrees)))
        if rep.e2 is not None:
            for (p, q), d in sorted(rep.e2.items()):
                report.append((f"e2_p{p}_q{q}", str(d)))
        if not rep.stabilized:
            raise Unstabilized(report)
        return report
    if command == "irregularity":
        if spec.level != 1:
            raise SpecFileError("irregularity runs over one variable")
        s, cert, _ = find_cyclic_vector(C, seed=spec.seed)
        L = to_scalar_operator(C, s, cert)
        np_ = newton_polygon(L)
        report.append(("operator", L.render(spec.field)))
        report.append(
            ("newton_points", " ".join(f"({j},{v})" for j, v in np_.points))
        )
        report.append(
            (
                "slopes",
                " ".join(f"{s}x{l}" for s, l in np_.slopes) if np_.slopes else "none",
            )
        )
        report.append(("irregularity", str(np_.irregularity)))
        return report
    if command == "cyclic":
        if spec.level != 1:
            raise SpecFileError("cyclic vector search runs over one variable")
        s, cert, certified = find_cyclic_vector(C, seed=spec.seed)
        det = certified.determinant
        report.append(
            ("vector", "(" + ", ".join(spec.field.render(x) for x in s) + ")")
        )
        report.append(("certificate_determinant", spec.field.render(det)))
        report.append(("determinant_valuation", str(det.valuation())))
        L = to_scalar_operator(C, s, cert)
        report.append(("operator", L.render(spec.field)))
        return report
    if command == "epsilon":
        _flatness_gate(spec)
        nu = _forms_or_standard(spec)
        rep = epsilon_degree(C, nu, schedule=schedule)
        report.append(("degree", str(rep.degree)))
        ran_windows = bool(rep.window_reports)
        if rep.window_degree is not None:
            report.append(("window_degree", str(rep.window_degree)))
        else:
            report.append(
                ("window_degree", "unstabilized" if ran_windows else "skipped")
            )
        report.append(
            (
                "routes_agree",
                _fmt(rep.routes_agree) if rep.routes_agree is not None else "unknown",
            )
        )
        for k, wrep in enumerate(rep.window_reports):
            report.append((f"window{k}_ker", str(wrep.ker_dim)))
            report.append((f"window{k}_coker", str(wrep.coker_dim)))
            report.append(
                (
                    f"window{k}_stabilized_at",
                    str(wrep.stabilized_at) if wrep.stabilized else "unstabilized",
                )
            )
        if rep.level_degrees:
            for q, d in enumerate(rep.level_degrees):
                report.append((f"level{q}_degree", str(d)))
        if ran_windows and any(not r.stabilized for r in rep.window_reports):
            raise Unstabilized(report)
        return report
    if command == "verify":
        _flatness_gate(spec)
        report.append(("check_flatness", "pass"))
        nu = _forms_or_standard(spec)  # NotClosed / NotIndependent surface here
        report.append(("check_forms", "pass"))
        # the gate above has certified flatness, which build_multicomplex
        # would check again
        mrep = check_multicomplex(BinaryMultiComplex(C, nu), schedule)
        squares = "pass" if mrep.squares_ok else "fail"
        report.append(("check_squares", squares))
        report.append(("check_acyclicity", mrep.acyclicity))
        sigma = SignConvention(spec.sigma)
        try:
            ok, lhs, rhs = verify_duality(C, nu, sigma, outer=mrep.outer)
            duality, degree = "pass" if ok else "fail", str(sigma.sign * rhs)
        except (UnsupportedFrame, WindowTooLarge, UndeterminedPivot):
            duality = degree = "unsupported"
        report.append(("check_duality", duality))
        report.append(("sigma", str(spec.sigma)))
        report.append(("degree", degree))
        checks = (squares, mrep.acyclicity, duality)
        result = next((s for s in ("fail", "unsupported") if s in checks), "pass")
        report.append(("result", result))
        return report
    raise SpecFileError(f"unknown command {command!r}")


def format_report(report: Report, fmt: str) -> str:
    if fmt == "kv":
        return "\n".join(f"{k} = {v}" for k, v in report) + "\n"
    if fmt == "json-like":
        # escaped as JSON strings; non-ASCII names keep their characters
        body = ",\n".join(
            f"  {json.dumps(str(k), ensure_ascii=False)}: {json.dumps(str(v), ensure_ascii=False)}"
            for k, v in report
        )
        return "{\n" + body + "\n}\n"
    raise ValueError(f"unknown format {fmt!r}")


class _ArgumentParser(argparse.ArgumentParser):
    """Rejects malformed flags with the validation exit code, not argparse's 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


def main(argv: Optional[List[str]] = None) -> int:
    ap = _ArgumentParser(
        prog="higherlocal",
        description="Exact computations for flat connections on Laurent series towers",
    )
    ap.add_argument("path", help="input description file")
    ap.add_argument("--precision", type=int, default=None, help="terms kept per level")
    ap.add_argument(
        "--max-window",
        type=int,
        default=32,
        help=f"largest one-variable probe window, at least {DEFAULT_SCHEDULE[1]}",
    )
    ap.add_argument(
        "--seed", type=int, default=None, help="cyclic vector search seed (irregularity, cyclic)"
    )
    ap.add_argument(
        "--format", choices=("kv", "json-like"), default="kv", help="report format"
    )
    args = ap.parse_args(argv)
    if args.precision is not None and args.precision < 1:
        print(f"error: --precision must be >= 1, got {args.precision}", file=sys.stderr)
        return EXIT_INVALID
    try:
        _capped_schedule(args.max_window)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    try:
        with open(args.path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    try:
        spec = parse_specfile(text, precision=args.precision, seed=args.seed)
        report = run(spec.command, spec, max_window=args.max_window)
    except Unstabilized as exc:
        if isinstance(exc.report, list):
            sys.stdout.write(format_report(exc.report, args.format))
        print("error: Unstabilized: window dimensions did not settle", file=sys.stderr)
        return EXIT_UNSTABILIZED
    except (SpecFileError, NotFlat, NotClosed, NotIndependent) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except HigherLocalError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(format_report(report, args.format))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
