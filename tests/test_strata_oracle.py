"""Random Laurent systems: the integer jet-presentation builder against
power-series substitution.

strata.stratum_jet_presentation derives on integer exponent tuples with
jets.derivative_chain, taking each polynomial of a StratumPresentation as
an {exponent tuple: coefficient} map.  The reference here shares none of
that code: clear each map by the smallest monomial with nonnegative
exponents (when localized, that is when the source has a face), expand it
by substitution in sympy (jet_oracle.expand_by_substitution), and hand the
Fraction maps, in the substitution's (i, j) columns, to
IdealPresentation.from_terms.
"""

from fractions import Fraction
from types import SimpleNamespace

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from logjet.dimension import IdealPresentation  # noqa: E402
from logjet.errors import UnlocalizedLaurentError  # noqa: E402
from logjet.jets import ORDINARY  # noqa: E402
from logjet.strata import (StratumPresentation,  # noqa: E402
                           stratum_jet_presentation)

from jet_oracle import expand_by_substitution  # noqa: E402


def _lifted(f, n, localized):
    """f padded to n base variables; when localized, also times the
    smallest monomial that makes its exponents nonnegative."""
    low = ([min(0, *column) for column in zip(*f)] if localized
           else [0] * len(next(iter(f))))
    pad = (0,) * (n - len(low))
    return {tuple(a - b for a, b in zip(e, low)) + pad: c
            for e, c in f.items()}


# The builder reads of a face only that there is one, and its generator
# indices for the provenance text.
FACE = SimpleNamespace(generator_indices=(0,))


def built_presentation(variables, system, m, localized, constraints):
    """The builder's presentation of the system as a source: a stratum,
    inverting the last base variable, when localized, else a whole
    variety."""
    source = StratumPresentation(FACE if localized else None, 1, variables,
                                 tuple(system), tuple(constraints))
    return stratum_jet_presentation(source, m)._replace(provenance="")


def reference_presentation(variables, system, m, localized, constraints):
    n = len(variables)
    polys = []
    for f in system:
        polys.extend(expand_by_substitution(_lifted(f, n, localized), m,
                                            ORDINARY))
    jets = (0,) * (n * m)
    polys.extend({e + jets: c for e, c in _lifted(g, n, localized).items()}
                 for g in constraints)
    names = tuple(variables) + tuple(f"{x}({j})" for x in variables
                                     for j in range(1, m + 1))
    return IdealPresentation.from_terms(names, polys, jet_order=m)


def laurent_polys(n):
    """Nonzero Laurent polynomials in n base variables, as {exponent tuple:
    Fraction} maps."""
    exponents = st.tuples(*[st.integers(-2, 3)] * n).filter(
        lambda e: sum(map(abs, e)) <= 4)
    coeffs = st.builds(Fraction, st.integers(-3, 3).filter(bool),
                       st.integers(1, 3))
    return st.dictionaries(exponents, coeffs, min_size=1, max_size=4)


@st.composite
def systems(draw):
    """(variables, system, m, localized, constraints) with 1-3 base
    variables, m <= 3, and constraints in a leading subset of them."""
    n = draw(st.integers(1, 3))
    system = draw(st.lists(laurent_polys(n), min_size=1, max_size=3))
    constraints = draw(st.lists(
        st.integers(1, n).flatmap(laurent_polys), max_size=2))
    return (tuple(f"x{i}" for i in range(1, n + 1)), system,
            draw(st.integers(0, 3)), draw(st.booleans()), constraints)


def _in_columns(pres, variables):
    """pres with its columns put in the order of variables, the same names
    in another order; from_terms renormalizes each generator's sign."""
    assert sorted(pres.variables) == sorted(variables)
    column = [pres.variables.index(v) for v in variables]
    return IdealPresentation.from_terms(
        variables, [{tuple(exps[k] for k in column): c for exps, c in g}
                    for g in pres.generators],
        provenance=pres.provenance, jet_order=pres.jet_order)


def _outcome(build, case):
    """The presentation, or the refused generator ("generator 2") of an
    UnlocalizedLaurentError."""
    try:
        return build(*case)
    except UnlocalizedLaurentError as exc:
        return str(exc).split(" of ")[0]


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(systems())
def test_integer_builder_matches_substitution(case):
    """Equal presentations, or the same UnlocalizedLaurentError when an
    unlocalized system is Laurent.  The reference keeps the (i, j) column
    order; the builder puts a localized system's inversion variable and its
    jets first, so the reference is compared in the builder's columns,
    variable by variable name."""
    built = _outcome(built_presentation, case)
    reference = _outcome(reference_presentation, case)
    if isinstance(built, str) or isinstance(reference, str):
        assert built == reference
        return
    if not case[3]:                         # unlocalized: the same columns
        assert built.variables == reference.variables
    assert built == _in_columns(reference, built.variables)
