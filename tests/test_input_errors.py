"""Each library entry point rejects a bad argument with one exception type and
one message, before it does any work."""

import re

import pytest

from degcount.asymptotics import (
    overlap_distribution_estimate,
    regular_graph_expectations,
    sparse_estimates,
    specialized_estimates,
)
from degcount.exactcount import (
    UndefinedProbabilityError,
    exact_overlap_distribution,
    exact_probability,
)
from degcount.graphcore import (
    DegreeSequence,
    ForbiddenGraph,
    InputFormatError,
    parse_degrees,
    relabel,
)
from degcount.mcsampler import estimate_probability
from degcount.mvintegral import CoefficientSet, mc_box_integral
from degcount.saddle import fixed_radii_point, solve_saddle
from degcount.validation import run_suite

D8 = DegreeSequence((3,) * 8)
E8 = ForbiddenGraph.empty(8)
NO_GRAPH = DegreeSequence((3, 3, 0, 0))   # even sum, each d_j <= n-1, G(d) = 0

# (id, call, exception type, pattern of the whole message)
CASES = [
    ("specialized_estimates-case", lambda: specialized_estimates(D8, E8, "bogus"),
     ValueError, re.escape("unknown case 'bogus'")),
    ("overlap_distribution_estimate-n1",
     lambda: overlap_distribution_estimate(DegreeSequence((0,)), ForbiddenGraph.empty(1), 0),
     ValueError, re.escape("need n >= 2")),
    ("sparse_estimates-perth-E0",
     lambda: sparse_estimates(DegreeSequence((0,) * 4), None, "perth"),
     ValueError, re.escape("need E >= 1")),
    ("sparse_estimates-formula", lambda: sparse_estimates(D8, E8, "bogus"),
     ValueError, re.escape("unknown sparse formula 'bogus'")),
    ("regular_graph_expectations-d0", lambda: regular_graph_expectations(8, 0, "matchings"),
     ValueError, re.escape("need 1 <= d <= n-1")),
    ("regular_graph_expectations-odd-n", lambda: regular_graph_expectations(7, 2, "matchings"),
     ValueError, re.escape("perfect matchings need even n")),
    ("regular_graph_expectations-target", lambda: regular_graph_expectations(8, 3, "bogus"),
     ValueError, re.escape("unknown target 'bogus'")),
    ("estimate_probability-samples0", lambda: estimate_probability(D8, E8, "miss", samples=0),
     ValueError, re.escape("need samples >= 1")),
    ("mc_box_integral-samples0",
     lambda: mc_box_integral(CoefficientSet(N=4, A=1.0), samples=0, seed=1),
     ValueError, re.escape("need samples >= 1")),
    ("CoefficientSet-N0", lambda: CoefficientSet(N=0, A=1.0),
     ValueError, re.escape("N must be positive")),
    ("solve_saddle-mode", lambda: solve_saddle(D8, mode="bogus"),
     ValueError, re.escape("unknown mode 'bogus'")),
    ("fixed_radii_point-radius0", lambda: fixed_radii_point(D8, radius=0.0),
     ValueError, re.escape("radius must be positive")),
    ("DegreeSequence-empty", lambda: DegreeSequence(()),
     ValueError, re.escape("degree sequence must be non-empty")),
    ("ForbiddenGraph-n0", lambda: ForbiddenGraph(0, frozenset()),
     ValueError, re.escape("n must be positive")),
    ("ForbiddenGraph.clique-order", lambda: ForbiddenGraph.clique(3, 4),
     ValueError, re.escape("clique order must be within 0..n")),
    ("relabel-not-bijection",
     lambda: relabel(DegreeSequence((1, 1, 0)), ForbiddenGraph.empty(3), (1, 1, 2)),
     ValueError, re.escape("perm must be a bijection of 1..n")),
    ("parse_degrees-bad-json", lambda: parse_degrees("[1, 2"),
     InputFormatError, re.escape("invalid JSON degree array: ") + ".+"),
    ("parse_degrees-no-degrees", lambda: parse_degrees("\n\n"),
     InputFormatError, re.escape("no degrees found")),
    ("parse_degrees-out-of-range", lambda: parse_degrees("[1, 1, 3]"),
     InputFormatError, re.escape("degree d_3=3 outside [0, 2]")),
    ("exact_overlap_distribution-no-graph",
     lambda: exact_overlap_distribution(NO_GRAPH, ForbiddenGraph.empty(4)),
     UndefinedProbabilityError, re.escape("G(d) = 0") + ".*"),
    ("run_suite-suite", lambda: run_suite("bogus"),
     ValueError, re.escape("unknown suite 'bogus'")),
]


@pytest.mark.parametrize("call,kind,pattern", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_input_error(call, kind, pattern):
    with pytest.raises(kind) as err:
        call()
    assert err.type is kind
    assert re.fullmatch(pattern, str(err.value)), str(err.value)


def test_unknown_specialized_case_fails_before_the_parameters():
    # lambda = 1 here, which the parameters of "reg" would report first
    with pytest.raises(ValueError, match=r"^unknown case 'bogus'$"):
        specialized_estimates(DegreeSequence((1, 1)), ForbiddenGraph.empty(2), "bogus")


def test_no_graph_has_one_message():
    Y = ForbiddenGraph.from_pairs(4, [(1, 2)])
    messages = set()
    for call in (lambda: exact_probability(NO_GRAPH, Y, "miss"),
                 lambda: exact_overlap_distribution(NO_GRAPH, Y)):
        with pytest.raises(UndefinedProbabilityError) as err:
            call()
        messages.add(str(err.value))
    assert messages == {"G(d) = 0: no graph has these degrees"}
