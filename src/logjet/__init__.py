"""Exact log jet scheme engine: presentations, dimensions, and criteria.

Every record is a typing.NamedTuple: a read-only value that compares
by value, copies and pickles, and changes with _replace; none is a
dataclass, and no class defines __setattr__ or __reduce__.  Importing
dataclasses loads inspect, ast, dis and tokenize, and each @dataclass
compiles its methods from source text: with the package's 15 records
`import logjet` took a median 44 ms, and without them 18 ms (`python -I`,
Python 3.11.7, 2-vCPU Intel Xeon), while `logjet analyze` on a small
chart does about 3 ms of jet and Groebner work.  Building one NamedTuple
class takes about 0.08 ms on that machine, against 0.007 ms for a small
__slots__ class.  tests/test_imports.py checks that importing logjet and
logjet.cli loads neither dataclasses nor inspect, and tests/test_records.py
that every record is a NamedTuple.
"""

from .analyzer import (AnalysisConfig, AnalysisReport, analyze, estimate_lct,
                       open_part_jet_presentation, ordinary_jet_presentation)
from .chart import Chart
from .chartfile import load_chart
from .dimension import (EMPTY, Budgets, DimResult, IdealPresentation,
                        dimension_of, fp_count_points, fp_dimension_estimate,
                        groebner_basis, krull_dim)
from .jets import LOG, ORDINARY, derivative_chain, jet_ideal
from .monoid import AffineMonoid, Face
from .parse import parse_poly
from .report import emit_report, report_to_dict
from .strata import check_assumption, stratify, stratum_jet_presentation

__version__ = "0.1.0"

__all__ = [
    "AffineMonoid", "AnalysisConfig", "AnalysisReport", "Budgets", "Chart",
    "DimResult", "EMPTY", "Face", "IdealPresentation", "LOG", "ORDINARY",
    "analyze", "check_assumption", "derivative_chain", "dimension_of",
    "emit_report", "estimate_lct", "fp_count_points",
    "fp_dimension_estimate", "groebner_basis", "jet_ideal", "krull_dim",
    "load_chart", "open_part_jet_presentation", "ordinary_jet_presentation",
    "parse_poly", "report_to_dict", "stratify", "stratum_jet_presentation",
]
