"""Command line interface.

Commands:
    jets --order M [--log] FILE          print jet ideal generators
    strata FILE                          print stratum presentations
    dim --order M [--stratum L] FILE     dim J_M of X, or of each X_L piece
    analyze --max-order M FILE

dim without --stratum measures the chart's whole variety in A^n, its basis
coordinates (strata.whole_chart): an ordinary chart, or a log chart whose
monoid P is N*basis.  Any other log chart is refused (exit 1): Spec k[P]
is not A^n in its basis coordinates, so measure it stratum by stratum.

Polynomials print as parse.render writes them, in degrevlex order; jets
names its columns x1(1) in ordinary mode and u[1,1] in log mode.

Global flags: --format table|json, and --verbose, which adds the
certificate of each dimension to dim's table and changes nothing else.  A
certificate is the first largest independent set of variables in the
presentation's variable order, so a stratum's certificate names the jets
of its inversion variable w, which its presentation lists first.
Budgets come from the chart file's "budgets" field, or the defaults.  Exit
codes from analyze: 0 no obstruction, 10 reducible, 20 assumption failure,
30 inconclusive; 1 = usage or input error.  A stdout closed by its reader
(`logjet strata FILE | head -2`) ends any command quietly with exit 1.
"""

import argparse
import json
import os
import sys

from .analyzer import AnalysisConfig, analyze
from .chartfile import load_chart
from .dimension import dimension_of
from .errors import LogjetError, ModeMismatchError
from .jets import LOG, ORDINARY, jet_ideal
from .parse import render
from .report import emit_report
from .strata import stratify, stratum_jet_presentation, whole_chart


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
    parser.add_argument("--verbose", action="store_true",
                        help="add dimension certificates to dim's table")
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
    p_dim.add_argument("file")

    p_an = sub.add_parser("analyze", help="full singularity analysis")
    p_an.add_argument("--max-order", type=int, default=2)
    p_an.add_argument("file")
    return parser


def _emit(payload, fmt):
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in payload["lines"]:
            print(line)


def _cmd_jets(args):
    chart, _opts = load_chart(args.file)
    mode = LOG if args.log else ORDINARY
    lines = []
    gens = []
    names, chains = jet_ideal(chart, args.order, mode)
    for i, row in enumerate(chains):
        for j, g in enumerate(row):
            text = render(g, names)
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
        eqs = [render(g, s.variables) for g in s.equations]
        for eq in eqs:
            lines.append(f"  equation: {eq}")
        payload.append({"l": s.index, "face": list(face),
                        "variables": list(s.variables), "equations": eqs})
    _emit({"schema": "logjet-strata/1", "strata": payload, "lines": lines},
          args.format)
    return 0


def _cmd_dim(args):
    chart, opts = load_chart(args.file)
    if args.stratum is None:
        try:
            sources = [("X", whole_chart(chart))]
        except ModeMismatchError as exc:
            raise LogjetError(
                f"{exc}; measure one stratum with --stratum L") from exc
    else:
        found = [s for s in stratify(chart) if s.index == args.stratum]
        if not found:
            raise LogjetError(f"no stratum with index {args.stratum}")
        sources = [(f"l={s.index} face {s.face.generator_indices}", s)
                   for s in found]
    lines = []
    payload = []
    for label, source in sources:
        pres = stratum_jet_presentation(source, args.order, opts.budgets)
        res = dimension_of(pres, opts.budgets)
        lines.append(f"{label}: dim = {res.dimension}")
        if args.verbose and res.certificate is not None:
            lines.append(f"  certificate: {res.certificate}")
        payload.append({"stratum": label, "dimension": res.dimension})
    _emit({"schema": "logjet-dim/1", "order": args.order,
           "results": payload, "lines": lines}, args.format)
    return 0


def _cmd_analyze(args):
    chart, opts = load_chart(args.file)
    cfg = AnalysisConfig(max_order=args.max_order,
                         budgets=opts.budgets)
    report = analyze(chart, cfg)
    sys.stdout.write(emit_report(report, args.format))
    return report.exit_code


_COMMANDS = {"jets": _cmd_jets, "strata": _cmd_strata, "dim": _cmd_dim,
             "analyze": _cmd_analyze}


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()      # a closed stdout fails here, not at exit
        return code
    except (LogjetError, ValueError) as exc:
        print(f"logjet: error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader is gone; the interpreter's flush at exit goes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
