"""What the benchmark harness in bench/ reads of the package by name.

bench/worker.py reports the exact oracle's memo metrics from
exactcount._count_free.cache_info(), and bench/tracing.py wraps the public
functions it names.  A rename or a table without cache_info() would leave a
traced run that exits 0 with null metrics, so both are pinned here.
"""

import importlib
from pathlib import Path

import pytest

from degcount import exactcount
from degcount.graphcore import DegreeSequence

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def bench(monkeypatch):
    # as bench/selftest.py does: the harness modules import each other by name
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("worker"), importlib.import_module("tracing")


def test_memo_stats_reads_the_free_table(bench):
    worker, _ = bench
    exactcount.exact_count(DegreeSequence((2,) * 6))
    stats = worker.memo_stats()
    assert stats is not None
    assert set(stats) == {"hits", "misses", "size"}
    assert all(type(value) is int for value in stats.values()), stats
    assert stats["misses"] >= 1 and stats["size"] >= 1


def test_traced_functions_resolve(bench):
    _, tracing = bench
    targets = tracing.traced_functions()
    assert targets
    for name, function, _ in targets:
        module, attr = name.split(".")
        assert callable(function), name
        assert getattr(importlib.import_module(f"degcount.{module}"), attr) is function, name
