"""Command-line front end: exact counts, estimates, saddle diagnostics,
factorization verification, box-integral evaluation, chain sampling, and the
validation harness.

Reports are JSON by default (stable schema "degcount-report/1"), laid out as
json.dumps(report, sort_keys=True, indent=2) writes it: 2-space indent, keys
sorted, non-string keys written as strings.  An identical run configuration,
seed included, reproduces byte-identical output.  JSON is strict: non-finite
values are written as null.  The writer hands every innermost list and object
to json's C encoder, with one exception: the saddle's n-vectors a and radii
come from the record's class values, and the JSON and text reports format
each class value once and write its text for every vertex of the class.
CSV is the same report flattened into key,value rows, quoted where needed.
Vertices are 1-indexed in all files.

Exit codes: 0 success, 1 failed validation, 2 input errors and unreadable
paths (with line-numbered diagnostics where applicable).  A saddle solve
that finds no saddle exits 0 and reports "converged": false.

Each subcommand imports only the route it runs: at module level this file
imports the standard library and graphcore alone, and each handler imports
its own route module.  So `count` (exactcount) and `estimate` (asymptotics)
never import numpy, while `saddle`, `sample`, `mw3`, `verify-start` and
`validate` do, through the routes they run.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import gc
import json
import math
import sys
from itertools import repeat

from .graphcore import (
    DEFAULT_SEED,
    DegreeSequence,
    ForbiddenGraph,
    InputFormatError,
    MODES,
    compute_parameters,
    read_degrees,
    read_edges,
)

SCHEMA = "degcount-report/1"

FORMULAS = ("naive", "dense", "miss", "hit", "num", "flat", "reg", "induced",
            "lambda-model", "overlap", "perth", "mckay81", "matchings",
            "cycles", "sptrees")


def _finite(value: float) -> float | None:
    """JSON has no infinities or NaN; such values are reported as null."""
    return value if math.isfinite(value) else None


def _key(key) -> str:
    """A dict key as json writes it: int, float, bool and None keys as strings."""
    if not isinstance(key, str):
        if not (key is None or isinstance(key, (int, float))):
            raise TypeError(key)    # _emit has the stdlib call report it
        key = json.dumps(key, allow_nan=False)
    return json.dumps(key)


class _ClassFloats(list):
    """The per-vertex floats values[cls[j]] of the numpy arrays values and cls,
    keeping the class values and cls so that the JSON writer formats each
    class value once."""

    def __init__(self, values, cls):
        super().__init__(values[cls].tolist())
        self.values, self.cls = values.tolist(), cls


def _dumps(obj, indent: str = "\n") -> str:
    """json.dumps(obj, sort_keys=True, indent=2, allow_nan=False), for obj at
    the depth whose line break and indent is `indent`.

    The indented stdlib encoder is pure Python.  Here Python walks only the
    containers that hold containers; each innermost one is a single call of
    the C encoder, whose item separator carries the line break and indent, so
    only its brackets need re-indenting; a _ClassFloats list is joined from
    one text per class instead.  Each container's text is one "".join, so a
    level copies its children's text once.  Nested objects sort by the
    original key, as json does, before their keys are written as strings.
    """
    if isinstance(obj, dict):
        brackets, values = "{}", obj.values()
    elif isinstance(obj, (list, tuple)):
        brackets, values = "[]", obj
    else:
        return json.dumps(obj, allow_nan=False)
    if not values:
        return brackets
    inner = indent + "  "
    sep = "," + inner
    if isinstance(obj, _ClassFloats):
        texts = [*map(_dumps, obj.values)]
        parts = [sep.join(map(texts.__getitem__, obj.cls.tolist()))]
    elif not any(map(isinstance, values, repeat((dict, list, tuple)))):
        parts = [json.dumps(obj, sort_keys=True, allow_nan=False, separators=(sep, ": "))[1:-1]]
    else:
        keyed = (((_key(k) + ": ", v) for k, v in sorted(obj.items())) if brackets == "{}"
                 else (("", v) for v in obj))
        parts = [t for head, v in keyed for t in (sep, head, _dumps(v, inner))][1:]
    return "".join((brackets[0], inner, *parts, indent, brackets[1]))


def _emit(out, payload: dict, fmt: str) -> None:
    if fmt == "json":
        try:
            text = _dumps(payload)
        except (TypeError, ValueError):
            # the stdlib call raises its own message (the C encoder omits the value)
            text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
        out.write(text + "\n")
    elif fmt == "csv":
        csv.writer(out, lineterminator="\n").writerows(
            (key, str(value)) for key, value in _flatten(payload))
    else:
        for key, value in _flatten(payload):
            out.write(f"{key} = {value}\n")


def _flatten(obj, prefix=""):
    rows = []
    if isinstance(obj, dict):
        for key in sorted(obj):
            rows.extend(_flatten(obj[key], f"{prefix}{key}."))
    elif isinstance(obj, (list, tuple)):
        for i, item in enumerate(obj):
            rows.extend(_flatten(item, f"{prefix}{i}."))
    else:
        rows.append((prefix[:-1], obj))
    return rows


def _estimate_payload(est) -> dict:
    """The report fields of an asymptotics.LogEstimate."""
    payload = {
        "logValue": _finite(est.log_value),
        "baseLog": _finite(est.base_log),
        "correction": est.correction,
        "errorOrder": est.error_order,
        "terms": [{"name": name, "value": value} for name, value in est.terms],
    }
    if est.log_value == -math.inf:
        payload["zero"] = True
    return payload


def _load_instance(args) -> tuple[DegreeSequence, ForbiddenGraph]:
    d = read_degrees(args.degrees)
    X = read_edges(args.forbidden, d.n) if args.forbidden else ForbiddenGraph.empty(d.n)
    return d, X


def _cmd_count(args, out) -> int:
    from . import exactcount

    d, X = _load_instance(args)
    count = exactcount.exact_count(d, X, limit=args.limit)
    if args.format == "text":
        out.write(f"{count}\n")
    else:
        _emit(out, {"schema": SCHEMA, "subcommand": "count", "n": d.n,
                    "count": count, "scale": "linear"}, args.format)
    return 0


def _cmd_estimate(args, out) -> int:
    from . import asymptotics

    formula = args.formula
    payload: dict = {"schema": SCHEMA, "subcommand": "estimate", "formula": formula,
                     "scale": "log", "validity": []}

    if formula in ("matchings", "cycles", "sptrees"):
        if args.degrees:
            d = read_degrees(args.degrees)
            if not d.is_regular():
                raise InputFormatError("regular-graph formulas need constant degrees",
                                       args.degrees)
            n, dv = d.n, d.degrees[0]
        elif args.n is not None and args.d is not None:
            n, dv = args.n, args.d
        else:
            raise InputFormatError("provide --degrees or both --n and --d")
        est = asymptotics.regular_graph_expectations(n, dv, formula, q=args.q)
        payload.update(_estimate_payload(est))
        _emit(out, payload, args.format)
        return 0

    if not args.degrees:
        raise InputFormatError(f"formula {formula} needs --degrees")
    if formula in ("induced", "lambda-model") and args.m is None:
        raise InputFormatError(f"formula {formula} needs --m")
    d, X = _load_instance(args)
    if formula == "naive":
        est = asymptotics.naive_estimate(compute_parameters(d, X), d, X)
        payload.update(_estimate_payload(est))
    elif formula == "dense":
        est, flags = asymptotics.dense_count_estimate(d, X)
        payload.update(_estimate_payload(est))
        payload["validity"] = [
            {"hypothesis": f.hypothesis, "measured": f.measured, "bound": f.bound}
            for f in flags]
    elif formula in ("miss", "hit", "num"):
        est = asymptotics.miss_hit_estimate(d, X)[formula]
        payload.update(_estimate_payload(est))
    elif formula in ("flat", "reg"):
        triple = asymptotics.specialized_estimates(d, X, formula)
        payload.update({key: _estimate_payload(val) for key, val in triple.items()})
    elif formula in ("induced", "lambda-model"):
        model = args.model if formula == "induced" else formula
        est = asymptotics.induced_estimate(d, X, args.m, model=model)
        payload.update(_estimate_payload(est))
    elif formula == "overlap":
        if args.k is None:
            raise InputFormatError("overlap needs --k")
        prob = asymptotics.overlap_distribution_estimate(d, X, args.k)
        payload.update({"probability": prob, "k": args.k, "scale": "linear"})
    else:  # perth or mckay81, the formulas left of argparse's choices=FORMULAS
        est = asymptotics.sparse_estimates(d, X, formula)
        payload.update(_estimate_payload(est))
    _emit(out, payload, args.format)
    return 0


def _cmd_saddle(args, out) -> int:
    from . import saddle

    d, X = _load_instance(args)
    sp = saddle.solve_saddle(d, X, mode=args.mode)
    ln_p = saddle.log_prefactor(sp, d, X)
    if args.format == "text":
        a, r = ([f"{v:.15g}" for v in values.tolist()] for values in (sp.class_a, sp.class_radii))
        out.writelines(f"a_{j} = {a[c]}   r_{j} = {r[c]}\n"
                       for j, c in enumerate(sp.cls.tolist(), start=1))
        out.write(f"residual max = {sp.max_residual:.3e}  iterations = {sp.iterations}\n")
        out.write(f"ln P = {ln_p:.15g}\n")
    else:
        _emit(out, {
            "schema": SCHEMA, "subcommand": "saddle", "mode": sp.mode,
            "a": _ClassFloats(sp.class_a, sp.cls), "radii": _ClassFloats(sp.class_radii, sp.cls),
            "residualMax": sp.max_residual, "iterations": sp.iterations,
            "converged": sp.converged, "logPrefactor": ln_p, "scale": "log",
        }, args.format)
    return 0


def _cmd_verify_start(args, out) -> int:
    from . import validation

    if args.degrees:
        G, product, I, err, ok = validation.contour_factorization(*_load_instance(args))
        _emit(out, {"schema": SCHEMA, "subcommand": "verify-start",
                    "count": G, "product": product, "imag": I.imag,
                    "relError": err, "passed": ok, "scale": "linear"}, args.format)
        return 0 if ok else 1
    result = validation.check_contour_factorization(ns=tuple(range(3, args.n_max + 1)))
    return _emit_results(out, args.format, "verify-start", [result])


def _cmd_mw3(args, out) -> int:
    import numpy as np

    from . import mvintegral

    try:
        with open(args.coefficients, "r", encoding="utf-8") as fh:
            coeffs = mvintegral.CoefficientSet.from_dict(json.load(fh))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputFormatError(str(exc), args.coefficients) from exc

    def require_finite(name: str, value: complex) -> complex:
        if not cmath.isfinite(value):
            raise InputFormatError(f"{name} is not finite: {value}", args.coefficients)
        return value

    # a table past the double range shows as a non-finite value, not as numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        t1 = require_finite("theta1", mvintegral.theta1(coeffs))
        zf = mvintegral.z_factor(coeffs)
        res = mvintegral.mc_box_integral(coeffs, samples=args.samples, seed=args.seed)
        require_finite("mc.mean", res.mean)
    payload = {
        "schema": SCHEMA, "subcommand": "mw3",
        "theta1": [t1.real, t1.imag], "zFactor": _finite(zf),
        "mc": {"mean": [res.mean.real, res.mean.imag], "stderr": _finite(res.stderr),
               "samples": res.samples, "seed": res.seed,
               "acceptanceRate": res.acceptance_rate, "boxMass": res.box_mass},
        "scale": {"theta1": "log-correction", "zFactor": "linear", "mc.mean": "linear"},
    }
    _emit(out, payload, args.format)
    return 0


def _cmd_sample(args, out) -> int:
    from . import mcsampler

    d, X = _load_instance(args)
    est = mcsampler.estimate_probability(d, X, args.mode, args.m, samples=args.samples,
                                         burn_in=args.burn_in, thinning=args.thinning,
                                         seed=args.seed)
    if args.dump_graph:
        with open(args.dump_graph, "w", encoding="utf-8") as fh:
            fh.writelines(f"{j} {k}\n" for j, k in mcsampler.realize(d))
    payload = {
        "schema": SCHEMA, "subcommand": "sample", "mode": args.mode,
        "mean": est.mean, "stderr": _finite(est.stderr), "samples": est.samples,
        "burnIn": est.burn_in, "thinning": est.thinning, "seed": est.seed,
        "scale": "linear",
    }
    _emit(out, payload, args.format)
    return 0


def _emit_results(out, fmt: str, subcommand: str, results, **fields) -> int:
    """Report validation check results: JSON or CSV, or one text line per check."""
    passed = all(r.passed for r in results)
    if fmt == "text":
        width = max(len(r.name) for r in results)
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            out.write(f"{r.name:<{width}}  {status}  {r.detail}\n")
        out.write("suite result: " + ("PASS" if passed else "FAIL") + "\n")
    else:
        _emit(out, {"schema": SCHEMA, "subcommand": subcommand, **fields,
                    "results": [{"name": r.name, "passed": r.passed, "detail": r.detail,
                                 "measured": r.measured} for r in results],
                    "passed": passed}, fmt)
    return 0 if passed else 1


def _cmd_validate(args, out) -> int:
    from . import validation

    results = validation.run_suite(args.suite)
    return _emit_results(out, args.format, "validate", results, suite=args.suite)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="degcount",
        description="Counting and probability estimates for graphs with "
                    "prescribed degrees avoiding a forbidden subgraph.")
    parser.add_argument("--format", choices=("json", "csv", "text"), default="json",
                        help="report format (default json)")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_instance(p):
        p.add_argument("--degrees", required=True,
                       help="degree file: one integer per line or a JSON array")
        p.add_argument("--forbidden", help="forbidden graph edge list (1-indexed 'j k' lines)")

    p = sub.add_parser("count", help="exact count")
    add_instance(p)
    p.add_argument("--limit", type=int,
                   help="largest n counted exactly (default 12, with or without --forbidden)")

    p = sub.add_parser("estimate", help="closed-form estimates")
    p.add_argument("--formula", choices=FORMULAS, required=True)
    p.add_argument("--degrees", help="degree file")
    p.add_argument("--forbidden", help="forbidden graph edge list (Y for overlap)")
    p.add_argument("--m", type=int, help="induced support order")
    p.add_argument("--model", choices=("full", "leading"), default="full",
                   help="induced evaluator variant")
    p.add_argument("--k", type=int, help="overlap count")
    p.add_argument("--q", type=int, help="cycle length")
    p.add_argument("--n", type=int, help="vertex count for regular-graph formulas")
    p.add_argument("--d", type=int, help="degree for regular-graph formulas")

    p = sub.add_parser("saddle", help="solve the radius equations")
    add_instance(p)
    p.add_argument("--mode", choices=("converge", "fixed"), default="converge")

    p = sub.add_parser("verify-start", help="check count = P * I at tiny n")
    p.add_argument("--degrees", help="single instance degree file")
    p.add_argument("--forbidden")
    p.add_argument("--n-max", type=int, default=4, choices=(3, 4, 5),
                   help="sweep all graphical sequences up to this n")

    p = sub.add_parser("mw3", help="box-integral evaluation")
    p.add_argument("--coefficients", required=True, help="coefficient JSON document")
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)

    p = sub.add_parser("sample", help="switch-chain probability estimate")
    add_instance(p)
    p.add_argument("--mode", choices=MODES, required=True)
    p.add_argument("--m", type=int, help="induced support order")
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--burn-in", type=int)
    p.add_argument("--thinning", type=int)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--dump-graph", help="write the sorted edges of realize(d), the largest-first "
                   "greedy graph the chain starts from; neither --seed nor the chain changes it")

    p = sub.add_parser("validate", help="run the validation suite")
    p.add_argument("--suite", choices=("small", "full"), default="small")

    return parser


_HANDLERS = {
    "count": _cmd_count,
    "estimate": _cmd_estimate,
    "saddle": _cmd_saddle,
    "verify-start": _cmd_verify_start,
    "mw3": _cmd_mw3,
    "sample": _cmd_sample,
    "validate": _cmd_validate,
}


def _parse_args(argv) -> argparse.Namespace:
    """Build the parser and parse argv with the cyclic collector paused.

    argparse links actions, groups and help formatters both ways, so every
    parser is a few hundred objects of reference cycles.  A collection while
    it is alive would promote it towards the oldest generation, and only a
    full collection would free it; paused, it dies in the next young one.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return build_parser().parse_args(argv)
    finally:
        if enabled:
            gc.enable()


def main(argv=None, stdout=None) -> int:
    out = stdout if stdout is not None else sys.stdout
    try:
        args = _parse_args(argv)
        return _HANDLERS[args.subcommand](args, out)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    # InputFormatError and every library error an input causes (CountLimitError,
    # QuadratureError, SaddlePoleError, ...) subclass ValueError
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
