"""Outside-in spans around each layer's public functions, for the traced run.

`Tracer.install` replaces every attribute of a `degcount` module that refers
to a traced function with a wrapper, so a call is recorded whichever way a
caller reaches the function (`saddle.solve_saddle`, `compute_parameters`
imported by name, `exact_count` called from `exact_probability`).  Private
hot functions such as `_count_free` are not wrapped.  Spans are kept in
memory as (name, start, end, parent, op id, attributes) and written out when
the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time

from degcount import asymptotics, cli, exactcount, graphcore, mcsampler, mvintegral, saddle


def _exact_count_attrs(args, kwargs, result):
    X = args[1] if len(args) > 1 else kwargs.get("X")
    return {"free": X is None or X.edge_count == 0}


def _saddle_attrs(args, kwargs, result):
    return {"mode": result.mode, "iterations": result.iterations,
            "converged": result.converged, "residual": result.max_residual}


def _estimate_attrs(args, kwargs, result):
    return {"proposals": result.burn_in + result.samples * result.thinning}


def _box_attrs(args, kwargs, result):
    return {"samples": result.samples, "acceptance": result.acceptance_rate}


def traced_functions() -> list[tuple[str, object, object]]:
    """(span name, function, attribute reader) for every traced entry point."""
    targets = [
        ("graphcore.compute_parameters", graphcore.compute_parameters, None),
        ("graphcore.read_degrees", graphcore.read_degrees, None),
        ("graphcore.read_edges", graphcore.read_edges, None),
        ("exactcount.exact_count", exactcount.exact_count, _exact_count_attrs),
        ("exactcount.exact_probability", exactcount.exact_probability, None),
        ("exactcount.exact_overlap_distribution", exactcount.exact_overlap_distribution, None),
        ("saddle.solve_saddle", saddle.solve_saddle, _saddle_attrs),
        ("saddle.fixed_radii_point", saddle.fixed_radii_point, None),
        ("saddle.log_prefactor", saddle.log_prefactor, None),
        ("saddle.integral_quadrature", saddle.integral_quadrature, None),
        ("mcsampler.estimate_probability", mcsampler.estimate_probability, _estimate_attrs),
        ("mcsampler.realize", mcsampler.realize, None),
        ("mvintegral.mc_box_integral", mvintegral.mc_box_integral, _box_attrs),
        ("mvintegral.theta1", mvintegral.theta1, None),
        ("mvintegral.z_factor", mvintegral.z_factor, None),
        ("cli.main", cli.main, None),
    ]
    for name in ("check_hypotheses", "naive_estimate", "dense_count_estimate",
                 "miss_hit_estimate", "specialized_estimates", "induced_estimate",
                 "overlap_distribution_estimate", "sparse_estimates",
                 "regular_graph_expectations"):
        targets.append((f"asymptotics.{name}", getattr(asymptotics, name), None))
    return targets


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.op_id = -1
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, attrs):
        spans, stack = self.spans, self.stack
        clock = time.process_time       # the clock worker.py times operations with

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                extra = attrs(args, kwargs, result) if attrs and result is not None else None
                spans[index] = (name, start, end, parent, self.op_id, extra)
        return wrapper

    def install(self) -> None:
        """Wrap every traced function; undo with `uninstall` before reinstalling."""
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "degcount" or key.startswith("degcount."))]
        for name, fn, attrs in traced_functions():
            wrapper = self._wrap(name, fn, attrs)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._patched.append((module, attr, value))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def summary(self, scales: list[float], ops_per_pass: int) -> dict:
        """Totals over all spans: per-name calls and self time, plus counters.

        Self times are scaled by their pass's calibration factor, as run.py
        scales pass times; op id // ops_per_pass is the pass.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        names: dict[str, dict] = {}
        counters = {"exact_free_self": 0.0, "exact_forbidden_self": 0.0,
                    "saddle_converge_self": 0.0, "saddle_fixed_self": 0.0,
                    "converge_calls": 0, "converge_iterations": 0, "converge_converged": 0,
                    "residual_worst": 0.0,
                    "proposals": 0, "box_samples": 0, "box_acceptance": []}
        for index, (name, start, end, parent, op_id, extra) in enumerate(self.spans):
            self_time = (end - start - child[index]) * scales[op_id // ops_per_pass]
            entry = names.setdefault(name, {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += self_time
            if extra is None:
                continue
            if name == "exactcount.exact_count":
                counters["exact_free_self" if extra["free"] else "exact_forbidden_self"] += self_time
            elif name == "saddle.solve_saddle":
                if extra["mode"] != "converge":
                    counters["saddle_fixed_self"] += self_time
                    continue
                counters["saddle_converge_self"] += self_time
                counters["converge_calls"] += 1
                counters["converge_iterations"] += extra["iterations"]
                counters["converge_converged"] += int(extra["converged"])
                counters["residual_worst"] = max(counters["residual_worst"], extra["residual"])
            elif name == "mcsampler.estimate_probability":
                counters["proposals"] += extra["proposals"]
            elif name == "mvintegral.mc_box_integral":
                counters["box_samples"] += extra["samples"]
                counters["box_acceptance"].append(extra["acceptance"])
        return {"names": names, "counters": counters}
