"""Command line interface.

Commands:
    jets --order M [--log] FILE          print jet ideal generators
    strata FILE                          print stratum presentations
    dim --order M [--stratum L] [--method groebner|fp|both] FILE
    check-refinement FILE QFILE --order M
    analyze --max-order M FILE

Global flags: --format table|json, --verbose.  LOGJET_BUDGET="pairs,degree"
overrides the Groebner budgets.  Exit codes from analyze: 0 no obstruction,
10 reducible, 20 assumption failure, 30 inconclusive; 1 = usage or input
error.
"""

import argparse
import json
import os
import sys

from .analyzer import AnalysisConfig, analyze
from .chartfile import load_chart
from .dimension import (EMPTY, Budgets, dimension_of, groebner_basis,
                        krull_dim)
from .errors import LogjetError
from .jets import jet_ideal, refinement_pullback_check
from .poly import LOG, ORDINARY
from .report import emit_report
from .strata import base_presentation, stratify, stratum_jet_presentation


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser():
    parser = _Parser(prog="logjet",
                     description="log jet scheme presentations, dimensions, "
                                 "and singularity criteria")
    parser.add_argument("--format", choices=("table", "json"),
                        default="table")
    parser.add_argument("--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p_jets = sub.add_parser("jets", help="print jet ideal generators")
    p_jets.add_argument("--order", type=int, required=True)
    p_jets.add_argument("--log", action="store_true",
                        help="log mode (requires a monoid chart)")
    p_jets.add_argument("file")

    p_strata = sub.add_parser("strata", help="print stratum presentations")
    p_strata.add_argument("file")

    p_dim = sub.add_parser("dim", help="jet scheme dimensions")
    p_dim.add_argument("--order", type=int, required=True)
    p_dim.add_argument("--stratum", type=int, default=None)
    p_dim.add_argument("--method", choices=("groebner", "fp", "both"),
                       default="groebner")
    p_dim.add_argument("file")

    p_ref = sub.add_parser("check-refinement",
                           help="fibre-square check for a monoid refinement")
    p_ref.add_argument("file")
    p_ref.add_argument("qfile")
    p_ref.add_argument("--order", type=int, required=True)

    p_an = sub.add_parser("analyze", help="full singularity analysis")
    p_an.add_argument("--max-order", type=int, default=2)
    p_an.add_argument("file")
    return parser


def _budgets_from_env(base):
    text = os.environ.get("LOGJET_BUDGET")
    if not text:
        return base
    return Budgets.from_env_string(text, base or Budgets())


def _emit(payload, fmt):
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in payload["lines"]:
            print(line)


def _cmd_jets(args):
    chart, _opts = load_chart(args.file)
    mode = LOG if args.log else ORDINARY
    ideal = jet_ideal(chart, args.order, mode, verify=args.verbose)
    lines = []
    gens = []
    for i, row in enumerate(ideal.rows):
        for j, g in enumerate(row):
            text = g.render()
            lines.append(f"d^{j} f_{i + 1} = {text}")
            gens.append({"equation": i + 1, "order": j, "poly": text})
    _emit({"schema": "logjet-jets/1", "mode": mode, "order": args.order,
           "generators": gens, "lines": lines}, args.format)
    return 0


def _cmd_strata(args):
    chart, _opts = load_chart(args.file)
    lines = []
    payload = []
    for s in stratify(chart):
        face = s.face.generator_indices
        lines.append(f"stratum l={s.index} face generators {face}:")
        lines.append(f"  variables: {' '.join(s.variables)}")
        eqs = [g.render(s.variables) for g in s.equations]
        for eq in eqs:
            lines.append(f"  equation: {eq}")
        payload.append({"l": s.index, "face": list(face),
                        "variables": list(s.variables), "equations": eqs})
    _emit({"schema": "logjet-strata/1", "strata": payload, "lines": lines},
          args.format)
    return 0


def _cmd_dim(args, budgets):
    chart, opts = load_chart(args.file)
    budgets = _budgets_from_env(opts.budgets or budgets)
    results = []
    if args.stratum is None:
        from .analyzer import ordinary_jet_presentation
        pres = ordinary_jet_presentation(chart, args.order)
        res = dimension_of(pres, args.method, budgets)
        results.append(("X", pres.provenance, res))
    else:
        found = [s for s in stratify(chart) if s.index == args.stratum]
        if not found:
            raise LogjetError(f"no stratum with index {args.stratum}")
        for s in found:
            pres = stratum_jet_presentation(s, args.order)
            res = dimension_of(pres, args.method, budgets)
            results.append((f"l={s.index} face "
                            f"{s.face.generator_indices}",
                            pres.provenance, res))
    lines = []
    payload = []
    for label, prov, res in results:
        lines.append(f"{label}: dim = {res.dimension} ({res.method})")
        if args.verbose and res.certificate is not None:
            lines.append(f"  certificate: {res.certificate}")
        payload.append({"stratum": label, "dimension": res.dimension,
                        "method": res.method,
                        "unreliable": res.unreliable})
    _emit({"schema": "logjet-dim/1", "order": args.order,
           "results": payload, "lines": lines}, args.format)
    return 0


def _cmd_check_refinement(args):
    chart, _opts = load_chart(args.file)
    refined_chart, _qopts = load_chart(args.qfile)
    if refined_chart.monoid is None:
        raise LogjetError("the refinement file must carry a monoid")
    check = refinement_pullback_check(chart, refined_chart.monoid,
                                      args.order)
    lines = [f"refinement check at order {args.order}: "
             f"{'PASS' if check.ok else 'FAIL'}",
             f"detail: {check.detail}"]
    _emit({"schema": "logjet-refinement/1", "ok": check.ok,
           "order": args.order, "detail": check.detail, "lines": lines},
          args.format)
    return 0 if check.ok else 1


def _cmd_analyze(args, fmt, verbose):
    chart, opts = load_chart(args.file)
    budgets = _budgets_from_env(opts.budgets) or Budgets()
    cfg = AnalysisConfig(max_order=args.max_order, budgets=budgets,
                         verify_jets=verbose)
    report = analyze(chart, cfg)
    sys.stdout.write(emit_report(report, fmt))
    return report.exit_code


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "jets":
            return _cmd_jets(args)
        if args.command == "strata":
            return _cmd_strata(args)
        if args.command == "dim":
            return _cmd_dim(args, _budgets_from_env(None))
        if args.command == "check-refinement":
            return _cmd_check_refinement(args)
        if args.command == "analyze":
            return _cmd_analyze(args, args.format, args.verbose)
        parser.error(f"unknown command {args.command!r}")
    except LogjetError as exc:
        print(f"logjet: error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"logjet: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
