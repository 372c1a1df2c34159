import argparse
import csv
import gc
import io
import json
import math
import warnings

import numpy as np
import pytest

from degcount import cli
from degcount.asymptotics import regular_graph_expectations
from degcount.graphcore import DegreeSequence, ForbiddenGraph
from degcount.mcsampler import realize
from degcount.saddle import log_prefactor, solve_saddle

THRESHOLDS = gc.get_threshold()


def run(argv):
    buf = io.StringIO()
    code = cli.main(argv, stdout=buf)
    return code, buf.getvalue()


def strict_json(text):
    def reject(token):
        raise ValueError(f"non-JSON constant {token}")
    return json.loads(text, parse_constant=reject)


@pytest.fixture
def files(tmp_path):
    d4 = tmp_path / "d4.txt"
    d4.write_text("2\n2\n2\n2\n")
    d8 = tmp_path / "d8.txt"
    d8.write_text("3\n" * 8)
    x = tmp_path / "x.txt"
    x.write_text("1 2\n")
    coeff = tmp_path / "c.json"
    coeff.write_text(json.dumps({"N": 4, "A": 1.0, "J": [[1.0, 0.0]] * 4}))
    return {"d4": str(d4), "d8": str(d8), "x": str(x), "coeff": str(coeff)}


def test_count_text_and_json(files):
    code, out = run(["--format", "text", "count", "--degrees", files["d4"]])
    assert code == 0 and out == "3\n"
    code, out = run(["count", "--degrees", files["d4"], "--forbidden", files["x"]])
    doc = json.loads(out)
    assert doc["count"] == 1 and doc["schema"] == "degcount-report/1"
    assert "elapsed" not in doc


def test_count_json_degree_array(tmp_path):
    p = tmp_path / "d.json"
    p.write_text("[1, 1, 1, 1]")
    code, out = run(["--format", "text", "count", "--degrees", str(p)])
    assert code == 0 and out == "3\n"


def test_estimate_report_schema(files):
    code, out = run(["estimate", "--formula", "miss",
                     "--degrees", files["d8"], "--forbidden", files["x"]])
    doc = json.loads(out)
    assert code == 0
    assert doc["scale"] == "log"
    assert {"logValue", "baseLog", "correction", "errorOrder", "terms",
            "validity"} <= set(doc)
    assert doc["logValue"] == pytest.approx(doc["baseLog"] + doc["correction"])
    assert [t["name"] for t in doc["terms"]][:2] == ["X", "X2"]


def test_estimate_triple_for_flat(files):
    code, out = run(["estimate", "--formula", "flat",
                     "--degrees", files["d8"], "--forbidden", files["x"]])
    doc = json.loads(out)
    assert {"num", "miss", "hit"} <= set(doc)
    # flat is the general tables at constant degrees: the same reports
    for key in ("miss", "hit"):
        _, single = run(["estimate", "--formula", key,
                         "--degrees", files["d8"], "--forbidden", files["x"]])
        assert doc[key] == {k: v for k, v in json.loads(single).items() if k in doc[key]}
    # and num's exponent is dense's
    _, dense = run(["estimate", "--formula", "dense",
                    "--degrees", files["d8"], "--forbidden", files["x"]])
    dense = json.loads(dense)
    assert (doc["num"]["correction"], doc["num"]["terms"]) == (dense["correction"], dense["terms"])


def regular_file(tmp_path, n, d):
    path = tmp_path / f"r{n}-{d}.txt"
    path.write_text(f"{d}\n" * n)
    return str(path)


def test_estimate_regular_formula_flags(tmp_path):
    code, out = run(["estimate", "--formula", "matchings", "--degrees", regular_file(tmp_path, 6, 3)])
    assert code == 0
    assert json.loads(out)["logValue"] > 0
    code, out = run(["estimate", "--formula", "sptrees", "--degrees", regular_file(tmp_path, 6, 3)])
    assert code == 0 and json.loads(out)["errorOrder"] == "O(n^-0.1)"
    code, _ = run(["estimate", "--formula", "cycles", "--degrees", regular_file(tmp_path, 10, 5),
                   "--q", "3"])
    assert code == 0


@pytest.mark.parametrize("n", ["5", "7"])
def test_regular_formula_with_odd_degree_sum_exits_two(n, tmp_path, capsys):
    # no 3-regular graph on an odd number of vertices: the degree file is an input error
    path = regular_file(tmp_path, int(n), 3)
    code, out = run(["estimate", "--formula", "cycles", "--degrees", path, "--q", "3"])
    assert code == 2 and out == ""
    assert capsys.readouterr().err == f"error: {path}: degree sum must be even\n"


def test_estimate_overlap(files):
    code, out = run(["estimate", "--formula", "overlap", "--degrees", files["d4"],
                     "--forbidden", files["x"], "--k", "1"])
    doc = json.loads(out)
    assert doc["scale"] == "linear"
    assert doc["probability"] == pytest.approx(2 / 3)


def test_saddle_and_verify(files):
    code, out = run(["saddle", "--degrees", files["d8"], "--forbidden", files["x"]])
    doc = json.loads(out)
    assert code == 0 and doc["converged"] is True
    code, out = run(["verify-start", "--degrees", files["d4"],
                     "--forbidden", files["x"]])
    doc = json.loads(out)
    assert code == 0 and doc["passed"] and doc["count"] == 1


def test_mw3_report(files):
    code, out = run(["mw3", "--coefficients", files["coeff"],
                     "--samples", "20000", "--seed", "5"])
    doc = json.loads(out)
    assert code == 0
    assert doc["theta1"][0] == pytest.approx(0.25)
    assert doc["mc"]["samples"] == 20000 and doc["mc"]["seed"] == 5


def test_sample_report_and_dump(files, tmp_path):
    dump = tmp_path / "g.txt"
    code, out = run(["sample", "--degrees", files["d8"], "--forbidden", files["x"],
                     "--mode", "miss", "--samples", "500", "--thinning", "3",
                     "--seed", "11", "--dump-graph", str(dump)])
    doc = json.loads(out)
    assert code == 0 and 0 <= doc["mean"] <= 1
    assert doc["seed"] == 11 and doc["scale"] == "linear"
    lines = dump.read_text().strip().splitlines()
    assert len(lines) == 12   # E = 12 edges for 3-regular on 8


def test_byte_identical_reports(files):
    argv = ["sample", "--degrees", files["d8"], "--forbidden", files["x"],
            "--mode", "miss", "--samples", "300", "--thinning", "2", "--seed", "4"]
    assert run(argv) == run(argv)
    argv2 = ["mw3", "--coefficients", files["coeff"], "--samples", "3000",
             "--seed", "6"]
    assert run(argv2) == run(argv2)


# The full JSON text of seeded sample reports, as the chain on flat cells
# wrote them: a change of kernel or representation must keep them byte for byte.
PINNED_SAMPLE_REPORTS = [
    (["--degrees", "d8", "--forbidden", "x", "--mode", "miss", "--samples", "500",
      "--thinning", "3", "--seed", "11"],
     '{\n  "burnIn": 298,\n  "mean": 0.668,\n  "mode": "miss",\n  "samples": 500,\n'
     '  "scale": "linear",\n  "schema": "degcount-report/1",\n  "seed": 11,\n'
     '  "stderr": 0.054529567064213205,\n  "subcommand": "sample",\n  "thinning": 3\n}\n'),
    (["--degrees", "d8", "--forbidden", "x", "--mode", "induced", "--m", "3",
      "--samples", "400", "--thinning", "2", "--seed", "13"],
     '{\n  "burnIn": 298,\n  "mean": 0.2825,\n  "mode": "induced",\n  "samples": 400,\n'
     '  "scale": "linear",\n  "schema": "degcount-report/1",\n  "seed": 13,\n'
     '  "stderr": 0.06410055833569134,\n  "subcommand": "sample",\n  "thinning": 2\n}\n'),
    (["--degrees", "d60", "--forbidden", "triangle", "--mode", "hit", "--samples", "80",
      "--burn-in", "2000", "--thinning", "150", "--seed", "5"],
     '{\n  "burnIn": 2000,\n  "mean": 0.1375,\n  "mode": "hit",\n  "samples": 80,\n'
     '  "scale": "linear",\n  "schema": "degcount-report/1",\n  "seed": 5,\n'
     '  "stderr": 0.07581790859129454,\n  "subcommand": "sample",\n  "thinning": 150\n}\n'),
]


@pytest.mark.parametrize("argv, report", PINNED_SAMPLE_REPORTS,
                         ids=["miss-8", "induced-8-m3", "triangle-hit-60"])
def test_pinned_seeded_sample_reports(files, tmp_path, argv, report):
    d60 = tmp_path / "d60.txt"
    d60.write_text("30\n" * 60)
    triangle = tmp_path / "triangle.txt"
    triangle.write_text("1 2\n2 3\n1 3\n")
    paths = dict(files, d60=str(d60), triangle=str(triangle))
    assert run(["sample"] + [paths.get(a, a) for a in argv]) == (0, report)


def mw3_tables_document():
    """D, H and I tables at N = 6 with entries 0.05 z, z standard normal."""
    gen = np.random.default_rng(6)
    doc = {"N": 6, "A": 1.0}
    for name, rank in (("D", 3), ("H", 3), ("I", 4)):
        doc[name] = (0.05 * gen.standard_normal((6,) * rank)).tolist()
    return doc


def mw3_report(mean, stderr, samples, seed, box_mass, theta1):
    return (
        '{\n  "mc": {\n    "acceptanceRate": 1.0,\n'
        f'    "boxMass": {box_mass},\n    "mean": [\n      {mean},\n      0.0\n    ],\n'
        f'    "samples": {samples},\n    "seed": {seed},\n    "stderr": {stderr}\n  }},\n'
        '  "scale": {\n    "mc.mean": "linear",\n    "theta1": "log-correction",\n'
        '    "zFactor": "linear"\n  },\n  "schema": "degcount-report/1",\n'
        f'  "subcommand": "mw3",\n  "theta1": [\n    {theta1},\n    0.0\n  ],\n'
        '  "zFactor": 1.0\n}\n')


# The full JSON text of seeded mw3 reports in the benchmark's two shapes: a-only
# coefficients at N = 8 over 100,000 samples (two batches, the second trimmed)
# and D, H and I tables at N = 6 over 20,000 samples.  They guard the draws,
# which must stay bit for bit; the weight arithmetic may move the last bits
# of mc.mean and mc.stderr only by a change that says so.
PINNED_MW3_REPORTS = [
    ({"N": 8, "A": 1.0, "a": [0.031, 0.038, 0.045, 0.052, 0.059, 0.066, 0.041, 0.063]},
     100_000, 17,
     mw3_report("0.02551967308714624", "2.9473720898231447e-06", 100000, 17, "1.0",
                "0.07047120089217157")),
    (mw3_tables_document(), 20_000, 23,
     mw3_report("0.14355016876418028", "3.7128713209985284e-06", 20000, 23,
                "0.9999999999921456", "0.0")),
]


@pytest.mark.parametrize("doc, samples, seed, report", PINNED_MW3_REPORTS,
                         ids=["a-only-8", "DHI-6"])
def test_pinned_seeded_mw3_reports(tmp_path, doc, samples, seed, report):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    argv = ["mw3", "--coefficients", str(path), "--samples", str(samples), "--seed", str(seed)]
    assert run(argv) == (0, report)

def test_input_errors_exit_two(files, tmp_path, capsys):
    code, _ = run(["count", "--degrees", str(tmp_path / "missing.txt")])
    assert code == 2
    bad = tmp_path / "bad.txt"
    bad.write_text("2\nnope\n")
    code, _ = run(["count", "--degrees", str(bad)])
    assert code == 2
    badedge = tmp_path / "bad_edge.txt"
    badedge.write_text("1 99\n")
    code, _ = run(["count", "--degrees", files["d4"], "--forbidden", str(badedge)])
    assert code == 2
    # limit violation is an operational error, also exit 2
    big = tmp_path / "big.txt"
    big.write_text("0\n" * 13)
    code, _ = run(["count", "--degrees", str(big)])
    assert code == 2
    # a directory where a file is expected is an OS error, also exit 2
    code, _ = run(["sample", "--degrees", files["d8"], "--mode", "miss",
                   "--samples", "10", "--dump-graph", str(tmp_path)])
    assert code == 2
    code, _ = run(["mw3", "--coefficients", str(tmp_path)])
    assert code == 2
    listdoc = tmp_path / "list.json"
    listdoc.write_text("[4, 1.0]")
    code, _ = run(["mw3", "--coefficients", str(listdoc)])
    assert code == 2
    # a coefficient file that is not JSON is named, as a bad degree file is
    notjson = tmp_path / "notjson.json"
    notjson.write_text("")
    capsys.readouterr()
    code, out = run(["mw3", "--coefficients", str(notjson)])
    assert code == 2 and out == ""
    assert capsys.readouterr().err.startswith(f"error: {notjson}: Expecting value")
    # chain lengths that give no honest error bar
    for flag, value in (("--thinning", "0"), ("--burn-in", "-5")):
        code, out = run(["sample", "--degrees", files["d8"], "--mode", "miss",
                         "--samples", "10", flag, value])
        assert code == 2 and out == ""


def test_negative_seed_is_an_input_error(files, capsys):
    # both samplers seed numpy generators, which take non-negative seeds only
    for argv in (["sample", "--degrees", files["d8"], "--mode", "miss", "--samples", "10"],
                 ["mw3", "--coefficients", files["coeff"], "--samples", "10"]):
        code, out = run(argv + ["--seed", "-1"])
        assert code == 2 and out == ""
        assert capsys.readouterr().err == "error: expected non-negative integer\n"


@pytest.mark.parametrize("degrees,edges,argv", [
    ("3\n1\n1\n1\n", "1 2\n", ["estimate", "--formula", "naive"]),
    ("3\n1\n1\n1\n", "1 2\n", ["estimate", "--formula", "dense"]),
    ("1\n1\n2\n2\n", "1 2\n1 3\n", ["estimate", "--formula", "mckay81"]),
    ("3\n1\n1\n1\n", "1 2\n", ["estimate", "--formula", "miss"]),
    ("1\n1\n0\n0\n", "1 2\n2 3\n", ["estimate", "--formula", "hit"]),
    ("3\n1\n1\n1\n", "", ["estimate", "--formula", "induced", "--m", "2"]),
    ("3\n1\n1\n1\n", "", ["estimate", "--formula", "induced", "--m", "3"]),
    ("1\n1\n0\n0\n", "1 2\n2 3\n", ["estimate", "--formula", "induced", "--m", "3"]),
    ("5\n3\n3\n3\n3\n3\n", "1 2\n", ["estimate", "--formula", "perth"]),
])
def test_zero_estimate_is_strict_json(tmp_path, degrees, edges, argv):
    d = tmp_path / "d.txt"
    d.write_text(degrees)
    x = tmp_path / "x.txt"
    x.write_text(edges)
    code, out = run(argv + ["--degrees", str(d), "--forbidden", str(x)])
    doc = strict_json(out)
    assert code == 0 and doc["zero"] is True
    assert doc["logValue"] is None and doc["baseLog"] is None


@pytest.mark.parametrize("formula", cli.FORMULAS)
def test_every_formula_reports_strict_json(files, tmp_path, formula):
    # the CI instance: 3-regular n = 8 and the edge 12, with reg on the perfect matching
    x = files["x"]
    if formula == "reg":
        x = tmp_path / "pm.txt"
        x.write_text("1 2\n3 4\n5 6\n7 8\n")
    code, out = run(["estimate", "--formula", formula, "--degrees", files["d8"],
                     "--forbidden", str(x), "--m", "2", "--k", "1", "--q", "3"])
    assert code == 0
    assert strict_json(out)["formula"] == formula


@pytest.mark.parametrize("argv", [
    ["estimate", "--formula", "sptrees", "--degrees", "{d8}", "--a", "0.3"],
    ["estimate", "--formula", "sptrees", "--degrees", "{d8}", "--b", "0.1"],
    ["validate", "--threads", "2"],
    ["saddle", "--degrees", "{d8}", "--tol", "1e-12"],
    ["saddle", "--degrees", "{d8}", "--max-iter", "100"],
    ["estimate", "--formula", "lambda-model", "--degrees", "{d8}", "--m", "2"],
    ["estimate", "--formula", "induced", "--degrees", "{d8}", "--m", "2", "--model", "leading"],
    ["estimate", "--formula", "cycles", "--n", "10", "--d", "5", "--q", "3"],
    ["estimate", "--formula", "cycles", "--degrees", "{d8}", "--n", "8", "--d", "3", "--q", "3"],
    ["estimate", "--formula", "num", "--degrees", "{d8}", "--forbidden", "{x}"],
    ["verify-start", "--n-max", "3"],
    ["verify-start", "--degrees", "{d4}", "--n-max", "3"],
    ["verify-start"],
])
def test_removed_options_exit_two(files, argv):
    code, out = run([arg.format(**files) for arg in argv])
    assert code == 2 and out == ""


@pytest.mark.parametrize("doc", [
    '{"N": 4, "A": 1.0, "epsHat": NaN}',   # box mass NaN passed the floor: no sample landed
    '{"N": 4, "A": 1.0, "epsHat": 1e308}',  # N^eps_hat overflowed
    '{"N": 1e400, "A": 1.0}',               # int(inf) overflowed
    '{"N": 4.7, "A": 1.0}',                 # was truncated to N = 4
    '{"N": 4, "A": true, "epsHat": true}',  # was read as 1.0
    '{"N": 4, "A": "2.5"}',                 # was read as 2.5
    '{"N": 2, "A": 1e200}',                 # A ** 3 overflowed
    '{"N": 2, "A": 1e120, "a": [0.1, 0.2]}',
    '{"N": 2, "A": 1e-170, "epsHat": 290}',  # A * A underflowed: theta1 was NaN
])
def test_mw3_rejects_bad_scalars(tmp_path, doc):
    path = tmp_path / "c.json"
    path.write_text(doc)
    code, out = run(["mw3", "--coefficients", str(path), "--samples", "100"])
    assert code == 2 and out == ""


def test_mw3_absent_tables_cost_nothing(tmp_path):
    # no table at N = 10^5: theta1 and the z factor read only the present
    # tables (N x N zero tables took 149 GiB), and a box batch draws
    # BATCH_CELLS // N = 5 rows of N normals
    path = tmp_path / "c.json"
    path.write_text('{"N": 100000, "A": 1.0}')
    code, out = run(["mw3", "--coefficients", str(path), "--samples", "10"])
    doc = strict_json(out)
    assert code == 0 and doc["theta1"] == [0.0, 0.0] and doc["zFactor"] == 1.0
    assert doc["mc"]["samples"] == 10 and doc["mc"]["stderr"] == 0.0


def test_mw3_overflowing_z_factor_is_null(tmp_path):
    # the Im-part quadratics sum to 2.5e5, past the exp range of a double
    path = tmp_path / "c.json"
    path.write_text('{"N": 2, "A": 1.0, "epsHat": 1.0, "J": [[0, 1000], [0, 1000]]}')
    code, out = run(["mw3", "--coefficients", str(path), "--samples", "100"])
    doc = strict_json(out)
    assert code == 0 and doc["zFactor"] is None and doc["mc"]["samples"] == 100


@pytest.mark.parametrize("doc, quantity", [
    ('{"N": 2, "A": 1.0, "epsHat": 1.0, "a": [1e200, 1e200]}', "theta1"),   # a * a overflows
    ('{"N": 2, "A": 1.0, "epsHat": 1.0, "E": [1e200, 1e200]}', "mc.mean"),  # exp overflows
])
def test_mw3_non_finite_result_is_an_input_error(tmp_path, capsys, doc, quantity):
    path = tmp_path / "c.json"
    path.write_text(doc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # a numpy RuntimeWarning fails the test
        code, out = run(["mw3", "--coefficients", str(path), "--samples", "100"])
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert err.startswith(f"error: {path}: {quantity} is not finite") and err.count("\n") == 1


def test_mw3_overflowing_stderr_is_null(tmp_path):
    # the mean weight is finite (about 1e205) but its square is not; the
    # one-pass variance inf - inf used to be clipped to a stderr of 0.0
    path = tmp_path / "c.json"
    path.write_text('{"N": 1, "A": 5.0, "a": [500.0]}')
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run(["mw3", "--coefficients", str(path), "--samples", "2000"])
    doc = strict_json(out)
    assert code == 0 and doc["mc"]["mean"][0] > 1e200 and doc["mc"]["stderr"] is None


def test_saddle_without_solution_reports_nonconvergence(tmp_path):
    # (3,3,0,0) has no graph and no saddle; the solver says so in the report
    d = tmp_path / "d.txt"
    d.write_text("[3, 3, 0, 0]")
    code, out = run(["saddle", "--degrees", str(d)])
    doc = strict_json(out)
    assert code == 0 and doc["converged"] is False and doc["residualMax"] > 0.1


def test_saddle_pole_exits_two(tmp_path, capsys):
    d = tmp_path / "d.json"
    d.write_text("[4, 4, 4, 0, 0]")
    code, out = run(["saddle", "--degrees", str(d), "--mode", "fixed"])
    assert code == 2 and out == ""
    assert capsys.readouterr().err == "error: iterate crossed a pole of the radius map\n"


def test_single_sample_stderr_is_null(files):
    code, out = run(["sample", "--degrees", files["d8"], "--forbidden", files["x"],
                     "--mode", "miss", "--samples", "1", "--seed", "3"])
    doc = strict_json(out)
    assert code == 0 and doc["stderr"] is None and "zero" not in doc


def test_static_chain_stderr_is_null(tmp_path):
    # one edge allows no switch: the report holds the start graph's indicator
    # and no error bar
    d, x = tmp_path / "d.txt", tmp_path / "x.txt"
    d.write_text("1\n1\n0\n0\n")
    x.write_text("1 2\n")
    code, out = run(["sample", "--degrees", str(d), "--forbidden", str(x),
                     "--mode", "hit", "--samples", "20"])
    doc = strict_json(out)
    assert code == 0 and doc["mean"] == 1.0 and doc["stderr"] is None
    assert (doc["burnIn"], doc["thinning"]) == (0, 1)


def test_missing_options_exit_two(files):
    code, _ = run(["estimate", "--formula", "induced",
                   "--degrees", files["d8"], "--forbidden", files["x"]])
    assert code == 2   # --m required
    code, _ = run(["estimate", "--formula", "miss"])
    assert code == 2   # --degrees required
    code, _ = run(["estimate", "--formula", "cycles", "--degrees", files["d8"]])
    assert code == 2   # --q required
    code, _ = run(["sample", "--degrees", files["d8"], "--forbidden", files["x"],
                   "--mode", "induced", "--samples", "50"])
    assert code == 2   # --m required


def key_value_rows(doc, prefix=""):
    """The report doc as the text format writes it: one `key = value` row per
    leaf, keys sorted and joined by dots, list items by index."""
    if isinstance(doc, dict):
        return "".join(key_value_rows(doc[key], f"{prefix}{key}.") for key in sorted(doc))
    if isinstance(doc, list):
        return "".join(key_value_rows(item, f"{prefix}{i}.") for i, item in enumerate(doc))
    return f"{prefix[:-1]} = {doc}\n"


@pytest.mark.parametrize("argv", [
    ["estimate", "--formula", "miss", "--degrees", "d8", "--forbidden", "x"],
    ["mw3", "--coefficients", "coeff", "--samples", "2000", "--seed", "5"],
    ["sample", "--degrees", "d8", "--forbidden", "x", "--mode", "hit",
     "--samples", "50", "--seed", "2"],
], ids=["estimate", "mw3", "sample"])
def test_text_format_is_the_report_as_key_value_rows(files, argv):
    argv = [files.get(arg, arg) for arg in argv]
    code, out = run(argv)
    assert code == 0
    code, text = run(["--format", "text"] + argv)
    assert code == 0 and text == key_value_rows(strict_json(out))
    assert "\nschema = degcount-report/1\n" in text


def test_saddle_text_format_lists_the_radii_and_prefactor(files):
    argv = ["saddle", "--degrees", files["d8"], "--forbidden", files["x"]]
    doc = strict_json(run(argv)[1])
    code, text = run(["--format", "text"] + argv)
    lines = text.splitlines()
    assert code == 0 and len(lines) == 8 + 2
    for j, (line, aj, rj) in enumerate(zip(lines, doc["a"], doc["radii"]), start=1):
        assert line == f"a_{j} = {aj:.15g}   r_{j} = {rj:.15g}"
    assert lines[8] == (f"residual max = {doc['residualMax']:.3e}  "
                        f"iterations = {doc['iterations']}")
    assert lines[9] == f"ln P = {doc['logPrefactor']:.15g}"


@pytest.mark.parametrize("formula,extra", [
    ("matchings", []), ("cycles", ["--q", "3"]), ("sptrees", [])])
def test_regular_formulas_read_constant_degree_files(files, tmp_path, capsys, formula, extra):
    # a constant degree file gives n and d; any other one is an input error
    argv = ["estimate", "--formula", formula] + extra
    code, from_file = run(argv + ["--degrees", files["d8"]])
    est = regular_graph_expectations(8, 3, formula, q=3 if extra else None)
    assert code == 0 and json.loads(from_file)["logValue"] == est.log_value
    uneven = tmp_path / "uneven.txt"
    uneven.write_text("3\n3\n3\n3\n2\n2\n2\n2\n")
    capsys.readouterr()
    code, out = run(argv + ["--degrees", str(uneven)])
    assert code == 2 and out == ""
    assert capsys.readouterr().err == (
        f"error: {uneven}: regular-graph formulas need constant degrees\n")


@pytest.mark.parametrize("given", [[], ["--n", "8"], ["--d", "3"]])
def test_regular_formula_without_an_instance_exits_two(tmp_path, monkeypatch, capsys, given):
    # --degrees is the one way in: the retired --n and --d give no instance
    monkeypatch.chdir(tmp_path)
    code, out = run(["estimate", "--formula", "matchings"] + given)
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    if given[:1] == ["--d"]:
        # argparse reads a unique prefix as the option: --d 3 is the path --degrees 3
        assert err == "error: [Errno 2] No such file or directory: '3'\n"
    else:
        assert err.endswith("error: the following arguments are required: --degrees\n")


def test_overlap_without_k_exits_two(files, capsys):
    code, out = run(["estimate", "--formula", "overlap", "--degrees", files["d4"],
                     "--forbidden", files["x"]])
    assert code == 2 and out == ""
    assert capsys.readouterr().err == "error: overlap needs --k\n"


def test_degenerate_density_exits_two(tmp_path):
    complete = tmp_path / "k3.txt"
    complete.write_text("2\n2\n2\n")
    code, _ = run(["estimate", "--formula", "miss", "--degrees", str(complete)])
    assert code == 2


def test_sample_induced_mode(files):
    code, out = run(["sample", "--degrees", files["d8"], "--forbidden", files["x"],
                     "--mode", "induced", "--m", "2", "--samples", "300",
                     "--thinning", "2", "--seed", "13"])
    doc = json.loads(out)
    assert code == 0 and 0 <= doc["mean"] <= 1


def test_validate_small_suite_passes():
    code, out = run(["--format", "text", "validate", "--suite", "small"])
    assert code == 0
    assert "suite result: PASS" in out


def test_validate_json_report():
    code, out = run(["validate", "--suite", "small"])
    doc = json.loads(out)
    assert code == 0 and doc["passed"] is True
    assert {r["name"] for r in doc["results"]} >= {"complementation",
                                                   "contour-factorization"}


def test_verify_start_beyond_quadrature_limit_exits_two(tmp_path):
    d = tmp_path / "d.txt"
    d.write_text("[1, 1, 1, 1, 1, 1]")
    code, out = run(["verify-start", "--degrees", str(d)])
    assert code == 2 and out == ""


def test_too_deep_count_exits_two(tmp_path, capsys):
    # 1-regular on 3000 vertices nests 1,500 free counts, past the
    # interpreter's recursion limit: a count-limit error, not a traceback
    d = tmp_path / "d.txt"
    d.write_text("1\n" * 3000)
    capsys.readouterr()
    code, out = run(["count", "--degrees", str(d), "--limit", "3000"])
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert err.startswith("error: n=3000 ") and err.count("\n") == 1


def test_impossible_count_past_the_limit_is_zero(tmp_path):
    # no graph with d_1 = n-1 avoids the edge 12: at n = 13, past the default
    # limit of 12, the count is 0, not a limit error
    d, x = tmp_path / "d.txt", tmp_path / "x.txt"
    d.write_text("12\n" + "6\n" * 12)
    x.write_text("1 2\n")
    code, out = run(["count", "--degrees", str(d), "--forbidden", str(x)])
    assert code == 0 and strict_json(out)["count"] == 0


def test_dump_graph_is_the_greedy_start(files, tmp_path):
    # --dump-graph writes realize(d), whatever the seed and the chain
    dumps = []
    for seed in ("11", "12"):
        dumps.append(tmp_path / f"g{seed}.txt")
        run(["sample", "--degrees", files["d8"], "--mode", "hit", "--samples", "20",
             "--seed", seed, "--dump-graph", str(dumps[-1])])
    edges = "".join(f"{j} {k}\n" for j, k in realize(DegreeSequence((3,) * 8)))
    assert dumps[0].read_text() == dumps[1].read_text() == edges


def test_csv_format(files):
    code, out = run(["--format", "csv", "estimate", "--formula", "dense",
                     "--degrees", files["d8"], "--forbidden", files["x"]])
    assert code == 0
    rows = dict(line.split(",", 1) for line in out.strip().splitlines())
    assert "logValue" in rows and "terms.0.name" in rows
    # every subcommand writes key,value rows that a csv reader splits in two
    inst = ["--degrees", files["d8"], "--forbidden", files["x"]]
    for argv in (["count"] + inst, ["estimate", "--formula", "dense"] + inst,
                 ["verify-start", "--degrees", files["d4"], "--forbidden", files["x"]],
                 ["validate", "--suite", "small"]):
        code, out = run(["--format", "csv"] + argv)
        rows = list(csv.reader(io.StringIO(out)))
        assert code == 0 and rows and all(len(row) == 2 for row in rows), argv
        assert dict(rows)["subcommand"] == argv[0]



@pytest.mark.parametrize("argv", [["--help"], ["count"], ["verify-start", "--degrees", "{d4}"]])
def test_parsing_leaves_the_collector_as_it_was(files, argv):
    # the parser is built with the cyclic collector paused; parsing that
    # exits (help, a usage error) or succeeds restores the caller's setting
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            run([arg.format(**files) for arg in argv])
            assert gc.isenabled() is enabled
    finally:
        gc.enable()


def test_parser_cycles_die_young(files):
    # a parser alive during a young collection would move to an older
    # generation, which only a rarer collection frees; built with the
    # collector paused, each one is garbage in the youngest generation
    gc.collect()
    gc.set_threshold(1, 1, 10 ** 6)     # young collections at every allocation
    try:
        for _ in range(3):
            run(["verify-start", "--degrees", files["d4"]])
        gc.collect(0)
        survivors = [o for o in gc.get_objects()
                     if isinstance(o, argparse.ArgumentParser) and o.prog.startswith("degcount")]
    finally:
        gc.set_threshold(*THRESHOLDS)
    assert survivors == []


def stdlib_json(payload):
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def emitted(payload):
    buf = io.StringIO()
    cli._emit(buf, payload, "json")
    return buf.getvalue()


def test_json_writer_is_the_stdlib_layout():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    finite = st.floats(allow_nan=False, allow_infinity=False)
    scalars = (st.none() | st.booleans() | st.integers() | st.integers(2 ** 63, 2 ** 80) | finite
               | st.sampled_from([-0.0, 1e16, 1e-05, 5e-324]) | st.text()
               | st.sampled_from(["", "\"quoted\" \\ back", "tab\tnew\nline", "\x00\x1f", "é ☃ \U0001f600"]))
    # one key kind per object: str, numbers, bools and None do not sort together
    key_kinds = (st.text(), st.integers() | finite, st.booleans(), st.none())

    def containers(children):
        items = st.lists(children, max_size=4)
        return st.one_of(items, items.map(tuple),
                         *(st.dictionaries(keys, children, max_size=4) for keys in key_kinds))

    # long lists drawn from at most 3 values: 0.0 and -0.0, and ints and
    # bools equal to a float, must keep their own text, and np.float64 items
    # must keep json's
    specials = st.sampled_from([0.0, -0.0, 5e-324, 1e16, 1e-05])
    floats = st.lists(finite | specials, min_size=1, max_size=3)
    np_floats = st.lists(finite | specials, min_size=1, max_size=3).map(
        lambda vals: [np.float64(v) for v in vals] + vals)
    mixed = st.lists(st.sampled_from([1.0, 1, True, 0.0, 0, False, -0.0, 2.5]),
                     min_size=1, max_size=3)
    repeated = st.one_of(floats, np_floats, mixed).flatmap(
        lambda vals: st.lists(st.sampled_from(vals), min_size=2, max_size=40))

    @hyp.settings(max_examples=400, deadline=None)
    @hyp.given(st.recursive(scalars | repeated, containers, max_leaves=40))
    @hyp.example([0.0, -0.0, 0.0, -0.0])
    @hyp.example({"a": [1.0, 1, True, 1.0], "b": [1e16, 1e-05, 5e-324, 1e16, 1e-05, 5e-324]})
    @hyp.example([np.float64(0.5), 0.5, np.float64(0.5), 0.5])
    def check(payload):
        assert emitted(payload) == stdlib_json(payload)

    check()


@pytest.mark.parametrize("payload", [
    {"x": math.nan},
    {"a": [1.0, math.inf]},
    {"a": {"b": [-math.inf]}, "c": [[1]]},
    {"a": {math.nan: 1}},
    {"a": {math.inf: [1]}},
    {"a": [math.nan] * 4},
    {"a": [1.0, math.inf, 1.0, math.inf], "b": [2.0, 2.0]},
    {"a": [-math.inf, 0.5, 0.5, 0.5]},
])
def test_json_writer_rejects_non_finite_values_as_the_stdlib_does(payload):
    with pytest.raises(ValueError) as want:
        stdlib_json(payload)
    with pytest.raises(ValueError) as got:
        emitted(payload)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("mode", ["converge", "fixed"])
def test_saddle_report_is_the_stdlib_layout_at_n_1000(tmp_path, mode):
    # near-regular with a forbidden path: a and radii repeat a few class values
    degrees, path = tmp_path / "d.txt", tmp_path / "x.txt"
    degrees.write_text("\n".join(["501"] * 500 + ["499"] * 500) + "\n")
    path.write_text("1 2\n2 3\n")
    code, text = run(["saddle", "--degrees", str(degrees), "--forbidden", str(path),
                      "--mode", mode])
    report = strict_json(text)
    assert code == 0 and len(report["a"]) == 1000
    assert len(set(report["a"])) <= 5 and len(set(report["radii"])) <= 5
    assert text == stdlib_json(report)


# name: (degrees, forbidden edges); the regular instance's a is all 0.0
CLASS_VALUED = {
    "n3": ([2, 1, 1], [(2, 3)]),
    "n1000": ([501] * 500 + [499] * 500, [(1, 2), (2, 3)]),
    "n1000-regular": ([500] * 1000, []),
}


@pytest.mark.parametrize("mode", ["converge", "fixed"])
@pytest.mark.parametrize("name", list(CLASS_VALUED))
def test_saddle_reports_are_the_per_vertex_rendering(tmp_path, name, mode):
    # the writer formats each class value once; every format must still be
    # the report rendered vertex by vertex from the expanded record
    degrees, edges = CLASS_VALUED[name]
    path = tmp_path / "d.txt"
    path.write_text("\n".join(map(str, degrees)) + "\n")
    argv = ["saddle", "--degrees", str(path), "--mode", mode]
    if edges:
        (tmp_path / "x.txt").write_text("".join(f"{j} {k}\n" for j, k in edges))
        argv += ["--forbidden", str(tmp_path / "x.txt")]
    d = DegreeSequence(degrees)
    X = ForbiddenGraph.from_pairs(d.n, edges)
    sp = solve_saddle(d, X, mode=mode)
    a, radii = sp.class_a[sp.cls].tolist(), sp.class_radii[sp.cls].tolist()
    ln_p = log_prefactor(sp, d, X)
    report = {"schema": cli.SCHEMA, "subcommand": "saddle", "mode": mode, "a": a,
              "radii": radii, "residualMax": sp.max_residual, "iterations": sp.iterations,
              "converged": sp.converged, "logPrefactor": ln_p, "scale": "log"}
    rows = []
    for key in sorted(report):
        value = report[key]
        rows += ([(f"{key}.{j}", v) for j, v in enumerate(value)] if isinstance(value, list)
                 else [(key, value)])
    want_csv = io.StringIO()
    csv.writer(want_csv, lineterminator="\n").writerows((key, str(v)) for key, v in rows)
    want_text = "".join(f"a_{j} = {aj:.15g}   r_{j} = {rj:.15g}\n"
                        for j, (aj, rj) in enumerate(zip(a, radii), start=1))
    want_text += (f"residual max = {sp.max_residual:.3e}  iterations = {sp.iterations}\n"
                  f"ln P = {ln_p:.15g}\n")

    code, text = run(argv)
    assert code == 0 and text == json.dumps(report, sort_keys=True, indent=2) + "\n"
    assert strict_json(text) == report
    if name == "n1000-regular":
        assert set(a) == {0.0}
    assert run(["--format", "csv"] + argv) == (0, want_csv.getvalue())
    assert run(["--format", "text"] + argv) == (0, want_text)


def test_json_writer_writes_int_keys_as_strings_in_numeric_order():
    # validate's measured tables are keyed by n
    report = {"schema": cli.SCHEMA, "subcommand": "validate", "passed": True, "suite": "full",
              "results": [{"name": "subgraph-probability", "passed": True, "detail": "",
                           "measured": {"errors": {8: {"edge": [0.1, 0.2]}, 10: {"edge": [0.05, 0.1]},
                                                   14: {}},
                                        "mean_errors": [0.1, 0.05]}}]}
    text = emitted(report)
    assert text == stdlib_json(report)
    assert list(strict_json(text)["results"][0]["measured"]["errors"]) == ["8", "10", "14"]


def test_json_reports_leave_no_cyclic_garbage():
    # the indented stdlib encoder is pure Python, and its closures refer to
    # each other: every report would leave a few dozen cyclic objects
    saddle_like = {"schema": cli.SCHEMA, "a": [0.001 * j for j in range(500)],
                   "radii": [1.0 + 0.001 * j for j in range(500)], "converged": True}
    nested = {"results": [{"measured": {8: {"edge": [0.1]}}, "name": "x"}], "passed": True}
    gc.collect()
    gc.disable()
    try:
        for payload in (saddle_like, nested):
            emitted(payload)
            assert gc.collect() == 0
    finally:
        gc.enable()
