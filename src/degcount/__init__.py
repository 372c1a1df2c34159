"""degcount: exact, asymptotic and Monte-Carlo counting of graphs with a
prescribed degree sequence avoiding (or containing) a forbidden subgraph.

The package namespace is lazy (PEP 562): `import degcount` loads no route
module and no numpy.  A public name, or a route module reached as an
attribute (`degcount.saddle`), imports its module on first access, and the
name is cached here from then on.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {    # the public names, by the module that defines them
    "graphcore": ("DEFAULT_SEED", "DegreeSequence", "ForbiddenGraph", "InputFormatError",
                  "Parameters", "compute_parameters", "induced_spec", "is_graphical",
                  "read_degrees", "read_edges", "relabel", "write_degrees", "write_edges"),
    "exactcount": ("CountLimitError", "UndefinedProbabilityError", "complement_degrees",
                   "enumerate_count", "exact_count", "exact_overlap_distribution",
                   "exact_probability"),
    "saddle": ("QuadratureError", "SaddlePoint", "SaddlePoleError", "contour_point",
               "fixed_radii_point", "integral_quadrature", "log_prefactor", "solve_saddle"),
    "asymptotics": ("HypothesisFlag", "LogEstimate", "check_hypotheses", "dense_count_estimate",
                    "induced_estimate", "lambda_jk_expansion", "miss_hit_estimate",
                    "naive_estimate", "overlap_distribution_estimate",
                    "regular_graph_expectations", "sparse_estimates", "specialized_estimates"),
    "mvintegral": ("CoefficientSet", "DegenerateProposalError", "MCBoxResult",
                   "gaussian_reference", "mc_box_integral", "theta1", "theta1_terms",
                   "z_factor", "z_factor_terms"),
    "mcsampler": ("MCEstimate", "NonGraphicalError", "estimate_probability", "realize"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _MODULE_OF:
        value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
        globals()[name] = value
        return value
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
