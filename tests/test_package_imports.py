"""What importing the package and running each subcommand loads.

The package namespace is lazy and each CLI handler imports its own route, so
`count` and `estimate` run without numpy.  The subprocess tests start a
fresh interpreter per subcommand, since this test process has every module
loaded already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import degcount
from degcount import cli, graphcore, mcsampler

SRC = str(Path(degcount.__file__).resolve().parents[1])

# every name the package re-exported when it imported all six route modules
# eagerly, by the module it came from
PUBLIC = {
    "graphcore": ("DegreeSequence", "ForbiddenGraph", "InputFormatError", "Parameters",
                  "compute_parameters", "induced_spec", "is_graphical", "read_degrees",
                  "read_edges", "relabel", "write_degrees", "write_edges"),
    "exactcount": ("CountLimitError", "UndefinedProbabilityError", "complement_degrees",
                   "enumerate_count", "exact_count", "exact_overlap_distribution",
                   "exact_probability"),
    "saddle": ("QuadratureError", "SaddlePoint", "SaddlePoleError", "contour_point",
               "fixed_radii_point", "integral_quadrature", "log_prefactor", "solve_saddle"),
    "asymptotics": ("HypothesisFlag", "LogEstimate", "check_hypotheses",
                    "dense_count_estimate", "induced_estimate", "lambda_jk_expansion",
                    "miss_hit_estimate", "naive_estimate", "overlap_distribution_estimate",
                    "regular_graph_expectations", "sparse_estimates", "specialized_estimates"),
    "mvintegral": ("CoefficientSet", "DegenerateProposalError", "MCBoxResult",
                   "gaussian_reference", "mc_box_integral", "theta1", "theta1_terms",
                   "z_factor", "z_factor_terms"),
    "mcsampler": ("DEFAULT_SEED", "MCEstimate", "NonGraphicalError", "estimate_probability",
                  "realize"),
}
NAMES = [(module, name) for module, names in PUBLIC.items() for name in names]


@pytest.mark.parametrize("module, name", NAMES)
def test_public_name_resolves_to_its_module_object(module, name):
    scope = {}
    exec(f"from degcount import {name}", scope)
    defined = getattr(sys.modules[f"degcount.{module}"], name)
    assert scope[name] is getattr(degcount, name) is defined
    assert name in dir(degcount)


def test_star_import_binds_exactly_the_public_names():
    scope = {}
    exec("from degcount import *", scope)
    del scope["__builtins__"]
    assert set(scope) == {name for _, name in NAMES}


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        degcount.no_such_name
    with pytest.raises(ImportError):
        exec("from degcount import no_such_name", {})


def test_default_seed_has_one_home():
    sample = ["sample", "--degrees", "d", "--mode", "miss"]
    mw3 = ["mw3", "--coefficients", "c"]
    seeds = [cli.build_parser().parse_args(argv).seed for argv in (sample, mw3)]
    assert graphcore.DEFAULT_SEED == 1729
    assert all(seed is graphcore.DEFAULT_SEED for seed in
               (mcsampler.DEFAULT_SEED, degcount.DEFAULT_SEED, cli.DEFAULT_SEED, *seeds))


def loaded_after(code: str, *args: str, cwd=None) -> set[str]:
    """The degcount and numpy modules loaded after `code` runs in a fresh
    interpreter with `args` as sys.argv[1:]."""
    script = (f"import json, sys\n{code}\n"
              "print(json.dumps([m for m in sys.modules"
              " if m == 'numpy' or m.split('.')[0] == 'degcount']))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script, *args], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


def test_bare_import_loads_no_route():
    assert loaded_after("import degcount") == {"degcount"}
    loaded = loaded_after("import degcount\nassert degcount.saddle is sys.modules['degcount.saddle']")
    assert "degcount.saddle" in loaded and "degcount.mcsampler" not in loaded


RUN_CLI = ("import io\nfrom degcount import cli\nout = io.StringIO()\n"
           "assert cli.main(sys.argv[1:], stdout=out) == 0\njson.loads(out.getvalue())")
INSTANCE = ("--degrees", "d8.txt", "--forbidden", "x.txt")


@pytest.fixture
def instance_dir(tmp_path):
    (tmp_path / "d8.txt").write_text("3\n" * 8)
    (tmp_path / "x.txt").write_text("1 2\n")
    (tmp_path / "d5.txt").write_text("2\n2\n2\n1\n1\n")
    return tmp_path


@pytest.mark.parametrize("argv", [
    ["count", *INSTANCE],
    ["estimate", "--formula", "naive", *INSTANCE],
    ["estimate", "--formula", "dense", *INSTANCE],
    ["estimate", "--formula", "miss", *INSTANCE],
    ["estimate", "--formula", "flat", *INSTANCE],
    ["estimate", "--formula", "induced", "--m", "2", *INSTANCE],
    ["estimate", "--formula", "overlap", "--k", "1", *INSTANCE],
    ["estimate", "--formula", "cycles", "--n", "8", "--d", "3", "--q", "3"],
], ids=lambda argv: argv[0] if argv[0] == "count" else argv[2])
def test_count_and_estimate_import_no_numpy(instance_dir, argv):
    loaded = loaded_after(RUN_CLI, *argv, cwd=instance_dir)
    assert not loaded & {"numpy", "degcount.saddle", "degcount.mcsampler",
                         "degcount.mvintegral", "degcount.validation"}


def test_sample_loads_neither_saddle_nor_validation(instance_dir):
    loaded = loaded_after(RUN_CLI, "sample", *INSTANCE, "--mode", "miss", "--samples", "100",
                          cwd=instance_dir)
    assert "degcount.mcsampler" in loaded
    assert not loaded & {"degcount.saddle", "degcount.validation"}


def test_verify_start_loads_no_estimate_or_sampler(instance_dir):
    loaded = loaded_after(RUN_CLI, "verify-start", "--degrees", "d5.txt", "--forbidden", "x.txt",
                          cwd=instance_dir)
    assert "degcount.validation" in loaded
    assert not loaded & {"degcount.mcsampler", "degcount.mvintegral", "degcount.asymptotics"}
