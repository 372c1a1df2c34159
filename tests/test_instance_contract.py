"""One contract for every entry point that takes an instance (d, X) or (d, Y):
X must have the n vertices of d, and where X is optional, None means the
empty graph on those vertices."""

import numpy as np
import pytest

from degcount.asymptotics import (
    check_hypotheses,
    dense_count_estimate,
    induced_estimate,
    miss_hit_estimate,
    naive_estimate,
    overlap_distribution_estimate,
    sparse_estimates,
    specialized_estimates,
)
from degcount.exactcount import (
    complement_degrees,
    enumerate_count,
    exact_count,
    exact_overlap_distribution,
    exact_probability,
)
from degcount.graphcore import (
    DegreeSequence,
    ForbiddenGraph,
    compute_parameters,
    impossible,
    induced_spec,
    relabel,
)
from degcount.mcsampler import estimate_probability
from degcount.saddle import (
    SaddlePoint,
    fixed_radii_point,
    integral_quadrature,
    log_prefactor,
    solve_saddle,
)

ENTRY_POINTS = {
    "compute_parameters": compute_parameters,
    "induced_spec": lambda d, X: induced_spec(d, X, 2),
    "relabel": lambda d, X: relabel(d, X, tuple(range(d.n, 0, -1))),
    "exact_count": exact_count,
    "enumerate_count": enumerate_count,
    "complement_degrees": complement_degrees,
    "exact_probability": lambda d, X: exact_probability(d, X, "hit"),
    "exact_overlap_distribution": exact_overlap_distribution,
    "solve_saddle": solve_saddle,
    "fixed_radii_point": fixed_radii_point,
    "log_prefactor": lambda d, X: log_prefactor(solve_saddle(d), d, X),
    "integral_quadrature": lambda d, X: integral_quadrature(solve_saddle(d), d, X),
    "check_hypotheses": check_hypotheses,
    "naive_estimate": lambda d, X: naive_estimate(
        compute_parameters(d, ForbiddenGraph.empty(d.n)), d, X),
    "dense_count_estimate": dense_count_estimate,
    "miss_hit_estimate": miss_hit_estimate,
    "specialized_estimates-flat": lambda d, X: specialized_estimates(d, X, "flat"),
    "specialized_estimates-reg": lambda d, X: specialized_estimates(d, X, "reg"),
    "induced_estimate": lambda d, X: induced_estimate(d, X, 2),
    "overlap_distribution_estimate": lambda d, X: overlap_distribution_estimate(d, X, 0),
    "sparse_estimates-perth": lambda d, X: sparse_estimates(d, X, "perth"),
    "sparse_estimates-mckay81": lambda d, X: sparse_estimates(d, X, "mckay81"),
    "estimate_probability": lambda d, X: estimate_probability(d, X, "miss", samples=5),
}
# entry points that also take a record derived from an instance: one built
# for another instance is refused
OTHER_RECORD = {
    "log_prefactor": lambda d: log_prefactor(solve_saddle(DegreeSequence((2,) * 6)), d),
    "integral_quadrature": lambda d: integral_quadrature(solve_saddle(DegreeSequence((2,) * 6)), d),
    "naive_estimate": lambda d: naive_estimate(
        compute_parameters(DegreeSequence((1,) * 4 + (0,)), ForbiddenGraph.empty(5)), d,
        ForbiddenGraph.empty(5)),
}
OPTIONAL_X = ("exact_count", "enumerate_count", "solve_saddle", "fixed_radii_point",
              "log_prefactor", "integral_quadrature", "dense_count_estimate")


def _fields(value):
    return vars(value) if isinstance(value, SaddlePoint) else value


@pytest.mark.parametrize("name", list(ENTRY_POINTS))
def test_instance_contract(name):
    call = ENTRY_POINTS[name]
    d = DegreeSequence((2,) * 5)
    for n in (4, 6):
        # an edge on the last vertex, which d does not have when n = 6
        with pytest.raises(ValueError, match=f"^dimension mismatch: degrees n=5, forbidden n={n}$"):
            call(d, ForbiddenGraph.from_pairs(n, [(n - 1, n)]))
    if name in OTHER_RECORD:
        with pytest.raises(ValueError, match="^dimension mismatch: degrees n=5, radii n=6$"
                           if name != "naive_estimate" else "^parameters of another instance"):
            OTHER_RECORD[name](d)
    if name in OPTIONAL_X:
        np.testing.assert_equal(_fields(call(d, None)), _fields(call(d, ForbiddenGraph.empty(5))))


def test_impossible():
    d = DegreeSequence((3, 1, 1, 1))
    assert not impossible(d, ForbiddenGraph.empty(4))
    assert impossible(d, ForbiddenGraph.from_pairs(4, [(1, 2)]))      # d_1 = 3 > 4-1-1
    assert not impossible(d, ForbiddenGraph.from_pairs(4, [(2, 3)]))  # 1 <= 4-1-1
    edge = ForbiddenGraph.from_pairs(4, [(1, 2)])
    assert not impossible(d, edge, edge.edges)                        # s_j <= d_j <= 4-1-1+s_j
    path = ForbiddenGraph.from_pairs(4, [(1, 2), (2, 3)])
    assert impossible(d, path, path.edges)                            # d_2 = 1 < s_2 = 2
